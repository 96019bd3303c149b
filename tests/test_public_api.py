"""Pins on the size of the public surface.

A new knob (a defaulted parameter of a public callable, a CLI flag, or
an environment variable) has to come with an edit of a pin here, so that
it is added on purpose and not by drift; no module reads the
environment.
"""

import argparse
import ast
import inspect
import pickle
import re
from pathlib import Path

import pytest

import cgfusion
from cgfusion import errors
from cgfusion.cli import _FLAGS, build_parser

TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"
PACKAGE = Path(cgfusion.__file__).parent

#: Defaulted parameters over the callables of ``cgfusion.__all__`` and their public methods.
DEFAULTED_PARAMETERS = 45
#: Optional actions of every subcommand, ``--help`` aside.
CLI_FLAGS = 35
#: (module, function, value) of every float literal below 1e-3 in a function body:
#: adjoint_consistency's tolerance, which goes with the function (ROADMAP item 1),
#: and two guards of a division by a zero upper bound.
SMALL_LITERALS = [("resolution.py", "bounded_resolution_check", 1e-300),
                  ("resolution.py", "energy_lower_check", 1e-300),
                  ("systems.py", "adjoint_consistency", 1e-9)]


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


def test_no_module_reads_the_environment():
    readers = [path.name for path in sorted(PACKAGE.glob("*.py"))
               if re.search(r"\b(environ|getenv)\b", path.read_text(encoding="utf-8"))]
    assert readers == []


def test_tolerances_are_named_constants():
    """A threshold is a documented module constant, not a literal in a function body."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in (node for stmt in fn.body for node in ast.walk(stmt)):
                    if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                            and 0.0 < abs(node.value) < 1e-3):
                        # A nested function is walked last: it names its own literals.
                        found[path.name, node.lineno, node.col_offset] = (
                            path.name, fn.name, node.value)
    assert sorted(found.values()) == SMALL_LITERALS


def test_cli_builds_no_report():
    """The CLI only loads, calls library functions that return reports, and writes."""
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    assert re.findall(r"build_report|VerificationReport\(|_energy_top", source) == []


def _subcommands() -> dict:
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_cli_flag_count():
    flags = [
        action
        for sub in _subcommands().values()
        for action in sub._actions
        if action.option_strings and not isinstance(action, argparse._HelpAction)
    ]
    assert len(flags) == CLI_FLAGS


def _readme_shared_flags() -> dict:
    """The README's "flags besides its own" table, as {subcommand: set of flags}."""
    text = README.read_text(encoding="utf-8")
    table = text[text.index("| subcommand | flags besides its own |"):].split("\n\n", 1)[0]
    shared = {}
    for row in table.splitlines()[2:]:
        commands, flags = row.strip("|").split("|")
        for command in re.findall(r"`([^`]+)`", commands):
            shared[command] = set(re.findall(r"`([^`]+)`", flags))
    return shared


def test_readme_flag_table_matches_the_parser():
    common = set(_FLAGS) | {"--out"}
    parsed = {
        name: {flag for action in sub._actions for flag in action.option_strings} & common
        for name, sub in _subcommands().items()
    }
    assert _readme_shared_flags() == parsed


def _error_samples():
    """One instance of each class of ``cgfusion.errors``, two where it takes an extra field."""
    extra = {
        errors.RangeInclusionError: [errors.RangeInclusionError("range", residual=0.25),
                                     errors.RangeInclusionError("range")],
        errors.HypothesisNotMetError: [
            errors.HypothesisNotMetError("weighted_resolution",
                                         "the family does not resolve the identity"),
            errors.HypothesisNotMetError("factor_fixed_by_measurement"),
        ],
        errors.ParameterError: [errors.ParameterError("lambda1 must be < 1", parameter="lambda1"),
                                errors.ParameterError("A must be positive")],
    }
    for cls in vars(errors).values():
        if inspect.isclass(cls) and issubclass(cls, Exception) and cls.__module__ == errors.__name__:
            yield from extra.get(cls, [cls(f"{cls.__name__} message")])


@pytest.mark.parametrize("error", list(_error_samples()), ids=lambda e: type(e).__name__)
def test_errors_survive_a_pickle_round_trip(error):
    """An error keeps its type, message and fields, as out of a process pool."""
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    for field in ("condition", "residual", "parameter"):
        assert getattr(copy, field, None) == getattr(error, field, None)


def test_oracles_import_nothing_from_the_library():
    """``tests/oracles.py`` recomputes from definitions, so it must not reuse library code."""
    tree = ast.parse((TESTS / "oracles.py").read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += ["." * node.level + (node.module or "") for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert imported and not [name for name in imported
                             if name.split(".")[0] == "cgfusion" or name.startswith(".")]


def _imported_names(tree) -> set[str]:
    """Names bound by the imports of ``tree``, ``from __future__`` aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("path", sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "__init__.py"}),
                         ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_uses(path):
    """Only ``__init__.py`` imports to re-export; any other module uses every name it imports."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(_imported_names(tree) - used) == []
