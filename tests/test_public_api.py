"""Pins on the size of the public surface.

A new knob (a defaulted parameter of a public callable, or a CLI flag)
has to come with an edit of the count here, so that it is added on
purpose and not by drift.
"""

import argparse
import inspect

import cgfusion
from cgfusion.cli import build_parser

#: Defaulted parameters over the callables of ``cgfusion.__all__`` and their public methods.
DEFAULTED_PARAMETERS = 50
#: Optional actions of every subcommand, ``--help`` aside.
CLI_FLAGS = 42


def _defaulted(fn) -> int:
    try:
        parameters = inspect.signature(fn).parameters.values()
    except ValueError:  # exceptions with the builtin constructor have no signature
        return 0
    return sum(p.default is not inspect.Parameter.empty for p in parameters)


def _public_callables():
    for name in cgfusion.__all__:
        obj = getattr(cgfusion, name)
        yield obj
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                if inspect.isfunction(member):
                    yield member


def test_every_exported_name_resolves_once():
    assert len(set(cgfusion.__all__)) == len(cgfusion.__all__)
    for name in cgfusion.__all__:
        assert hasattr(cgfusion, name), name


def test_defaulted_parameter_count():
    assert sum(map(_defaulted, _public_callables())) == DEFAULTED_PARAMETERS


def test_cli_flag_count():
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = [
        action
        for sub in subparsers.choices.values()
        for action in sub._actions
        if action.option_strings and not isinstance(action, argparse._HelpAction)
    ]
    assert len(flags) == CLI_FLAGS
