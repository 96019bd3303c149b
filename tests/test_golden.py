"""Golden outputs: every subcommand's ``--out`` file, pinned by sha256.

Runs in a temporary directory with relative file names, so the system
paths recorded in report parameters are the same on every machine.  A
refactor that keeps behaviour must keep every hash; a change that alters
an output on purpose must update the pin and say why.
"""

import argparse
import hashlib
import json

import numpy as np
import pytest

from cgfusion import Operator, cli, save_system
from cgfusion.cli import build_parser, main
from cgfusion.report import SAMPLED

from conftest import (
    make_deficient_system,
    make_e1,
    make_e2,
    make_single_node,
    make_system,
    make_wide_system,
)

GOLDEN = {
    # name: (argv, exit code, sha256 of the --out file, or None when none is written)
    "check-e1": (["check", "e1.json"], 0,
        "319df5de7cc8caa23bdde7a31033893187a747dd6784a45375f8fa7adbdfb95c"),
    "check-e2": (["check", "e2.json"], 0,
        "048d11d012382a1e8fc607af44ccd9a09ac37de9edfb1c35e34df109f8869734"),
    "check-single": (["check", "single.json"], 1,
        "92858c24b8b2c9b6cf6df562abd3ede8806d562be0c91251ed3a4789b9129b3a"),
    "kgf-lower-bound": (["kgf", "e2.json", "--K", "k.json"], 0,
        "8897190cd398577cf483518fd39807968586e763d3e3e5226296a07c5913e154"),
    "kgf-certify": (["kgf", "e2.json", "--K", "k.json", "--A", "1"], 0,
        "0201913309d0213f884bdfec868bad62642aeac4faae5fb491112433b69e6f29"),
    "kgf-file-operator": (["kgf", "e2k.json", "--A", "2"], 1,
        "8d7922d55931895af32e0e5387b478556772833b4ef53aeaf08cdfaa5c9bb8ac"),
    "resolve-e1": (["resolve", "e1.json"], 0,
        "eb43de8a4acefb01b513785836a83a4ab4f1bb692b8a429059eae369bc2c1c72"),
    "resolve-e2": (["resolve", "e2.json"], 0,
        "c02c080c3d4e13b3e8198656f676302a1f0f06b4e70d1a32473029fadd13165e"),
    "resolve-single": (["resolve", "single.json"], 1,
        "28184dd19c818eef5b40c2a5e2bb7ee64970d79fd25f53fa0357feaffa208cb9"),
    "resolve-deficient": (["resolve", "deficient.json"], 1,
        "78dae6def98e2fd18f07738b781ffccca7b7fb7506dae610c3a550dea3b2eede"),
    "atomic-e1": (["atomic", "e1.json"], 0,
        "0f11cc5e375520bd21ff1454d1e2ed891090e5f5a338d5eec1a7193b9afc3cb2"),
    "atomic-e2-K": (["atomic", "e2.json", "--K", "k.json"], 0,
        "393762ae14f45a457e5a1b9a21647d1be3a94b4dadf00e4ad2e18e15c9fa7c92"),
    "atomic-single": (["atomic", "single.json"], 1, None),
    "transform-shift": (["transform", "e2.json", "--L", "l.json"], 0,
        "40b560a5af465c33ea456bb77689b01814e4f15af5432917dbca4bae868b1a6d"),
    "transform-combined": (["transform", "chi.json", "--xi", "xi.json",
                            "--L", "half.json", "--G", "half.json"], 0,
        "79ace364c9fb65869cf1b6d1419fcf14a08e8d5d5c2b69b0a2bc0559434d2d4c"),
    "pair-files": (["pair", "e2.json", "--xi", "e1.json"], 0,
        "a35ce0f811863753a50338b82367941bf52c0357e13339d9b0e043bd6dad245c"),
    "pair-secondary": (["pair", "e1s.json", "--lam", "0.05", "--trials", "10"], 1,
        "6d539d891a8cc27ed90818497b02e735809766724678a0007850b4ef519f310a"),
    "dsum": (["dsum", "e2.json", "--xi", "e1.json"], 0,
        "7a9fd372a9a9aee645acdf6d6900f98c883a7f548debc4bdc2351541c5597912"),
    "parseval": (["parseval", "e2.json"], 0,
        "b515a50b2333291a7ca1ddede22ab5e71197c9795adad084d3f9630285ac0d1d"),
    "dual": (["dual", "e2.json"], 0,
        "dc5c9fd55d79f1a363c4225f4c937b29be829b0bbe1bacdc56aacd86dc331a70"),
    # n = 40: rows of up to 40 floats, five levels deep in the document.
    "parseval-wide": (["parseval", "wide.json"], 0,
        "432ea99b3008b2f9e706abb8ac53ea48cd46fcfb4dd557f89b976de8136fbaea"),
    "dual-wide": (["dual", "wide.json"], 0,
        "41584c4f9a9f14d24a80aadeac7cf3234a609a884982dc2f417e77d5f47cb416"),
    "random": (["random", "--seed", "7"], 0,
        "a0c6645cd41002e610c5d5465d0bd7d9fe8fb7972b8a33541c4b22dea0718641"),
    "selftest": (["selftest", "--seed", "0"], 0,
        "27e085bde8baee401297edf3437669323d91d5fe66da602fbfbec19718161df7"),
}


def write_inputs():
    """Write every input file that GOLDEN names into the current directory."""
    save_system(make_e1(), "e1.json")
    save_system(make_e2(), "e2.json")
    save_system(make_single_node(), "single.json")
    save_system(make_e2(), "e2k.json", operators={"K": Operator.identity(2)})
    save_system(make_e1(), "e1s.json", secondary_weights=[0.8, 1.0])
    save_system(make_deficient_system(np.random.default_rng(5), 4), "deficient.json")
    save_system(make_wide_system(np.random.default_rng(11)), "wide.json")
    lines = [[[1.0], [0.0]], [[0.0], [1.0]]]
    save_system(make_system(2, lines, [[[1.0]], [[0.0]]], [1.0, 1.0]), "chi.json")
    save_system(make_system(2, lines, [[[0.0]], [[1.0]]], [1.0, 1.0]), "xi.json")
    for name, matrix in (("k.json", [[1.0, 0.0], [0.0, 1.0]]),
                         ("l.json", [[1.0, 0.0], [0.0, 0.0]]),
                         ("half.json", [[0.5, 0.0], [0.0, 0.5]])):
        with open(name, "w", encoding="utf-8") as handle:
            json.dump(matrix, handle)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CGFUSION_TOL", raising=False)
    write_inputs()
    return tmp_path


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_out_file_is_pinned(workdir, name, capsys):
    argv, code, digest = GOLDEN[name]
    out = workdir / "out.json"
    assert main(argv + ["--out", "out.json"]) == code
    capsys.readouterr()
    written = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
    assert written == digest


def test_only_the_necessary_reports_are_sampled(workdir, monkeypatch):
    """Only a mixed-norm hypothesis and a law run on random operators draw samples."""
    printed = []
    monkeypatch.setattr(cli, "_print_reports", printed.extend)
    for argv, code, _ in GOLDEN.values():
        assert main(argv) == code
    sampled = {r.name for r in printed if r.provenance == SAMPLED}
    assert sampled == {"perturbation_bound", "selftest_atomic_equivalence"}


def test_inputs_load_without_the_stdlib_parser(workdir, monkeypatch):
    """orjson reads every golden input; the stdlib parser is only its fallback."""
    def refuse(*args, **kwargs):
        raise AssertionError("json.loads called")

    monkeypatch.setattr(json, "loads", refuse)
    monkeypatch.setattr(cli, "_print_reports", lambda reports: None)
    for argv, code, _ in GOLDEN.values():
        if any(arg.endswith(".json") for arg in argv):
            assert main(argv) == code


def test_every_subcommand_is_pinned():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) <= {argv[0] for argv, _, _ in GOLDEN.values()}
