"""Golden outputs: every subcommand's ``--out`` file, pinned by sha256.

Runs in a temporary directory with relative file names, so the system
paths recorded in report parameters are the same on every machine.  A
refactor that keeps behaviour must keep every hash; a change that alters
an output on purpose must update the pin and say why.
"""

import argparse
import hashlib
import importlib
import json
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import cgfusion
from cgfusion import cli, save_system
from cgfusion.cli import build_parser, main
from cgfusion.report import EXACT, SAMPLED, SKIPPED

import oracles
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
        "81abb74f5558f7a0e506edc007c64a129a56141f61bc0d36e1f4f647b241188e"),
    "check-e2": (["check", "e2.json"], 0,
        "b7558aee3d90deeda36f0c60b43312b10f74608e75d819c5cbedcf8ba63ebbcc"),
    "check-single": (["check", "single.json"], 1,
        "9c44e3853a04eb9a98d2a2d8d34c6826e58ee72aef2b56f6d446bb57e48f0184"),
    "kgf-lower-bound": (["kgf", "e2.json", "--K", "k.json"], 0,
        "058e0251ef8ff4f83420c127acf958a1545efabe0639ea3e8b614c384b100e84"),
    "kgf-certify": (["kgf", "e2.json", "--K", "k.json", "--A", "1"], 0,
        "b8ac532f5cd7f583afbb48b26dc43ad2844ad83f2a12945c0b1c52226d95214f"),
    "kgf-file-operator": (["kgf", "e2.json", "--K", "k.json", "--A", "2"], 1,
        "8ac48e115ece99459cca2314606434854015075c7dc6f765452db97575cb5751"),
    "resolve-e1": (["resolve", "e1.json"], 0,
        "eb53c642bac02b9eb2d52dfea8c2a21af8d08423fd27a04934fdee874e9530bc"),
    "resolve-e2": (["resolve", "e2.json"], 0,
        "2bcca61915a0d57637b87116615970e696a56663f74f0e9ed71e8d8996573f2c"),
    "resolve-single": (["resolve", "single.json"], 1,
        "070648dd29bf3d158d2fd148165b09b6837323b46cf6239767891e980d625376"),
    "resolve-deficient": (["resolve", "deficient.json"], 1,
        "1d56cd8456f826a898e7fe6e80ad97517c42ad0a24f9238c7acb5e82d13eff55"),
    "atomic-e1": (["atomic", "e1.json"], 0,
        "75963e295b6b9757da88ea102c9ba5d5043f714a9cddb99c9e35df5bef7b798e"),
    "atomic-e2-K": (["atomic", "e2.json", "--K", "k.json"], 0,
        "5f0f003603c08ee5ca0bf35872a64b6f69b70f8977334bc627f234c761271ce6"),
    "atomic-single": (["atomic", "single.json"], 1, None),
    "transform-shift": (["transform", "e2.json", "--L", "l.json"], 0,
        "625b26551f6fbfc678dac8cb5acf8200070fbc10668dc82cc77b555e1a998651"),
    "transform-combined": (["transform", "chi.json", "--xi", "xi.json",
                            "--L", "half.json", "--G", "half.json"], 0,
        "428cea2257725ab718f4fff4fa8227e86e7079d45d3eb8aad15cdf96bb4ff901"),
    "pair-files": (["pair", "e2.json", "--xi", "e1.json"], 0,
        "4bc024ef03e2c61362d95e74d3fa9cfa1fb11687026a96c3db72cdfac1bfc0cb"),
    "pair-secondary": (["pair", "e1.json", "--xi", "e1w.json",
                        "--lam", "0.05", "--trials", "10"], 1,
        "a220270ccdb7b17def9935bf43f4e8bebd8a4433902e2d7f8ebb98f14f3fc0dc"),
    "dsum": (["dsum", "e2.json", "--xi", "e1.json"], 0,
        "5566f411524418d499e8600a629174a47325b26b92067a38454e5107891dcbb9"),
    "parseval": (["parseval", "e2.json"], 0,
        "fd3e689f38eb85a03121afc497d199d890a4991c668b3eb8652375be1d5a8b31"),
    "dual": (["dual", "e2.json"], 0,
        "cb9baa79896652c943ccc577503c8db1a43d02a2784b47799753ba1a1d62de55"),
    # n = 40: rows of up to 40 floats, five levels deep in the document.
    "parseval-wide": (["parseval", "wide.json"], 0,
        "3519f9c6e306e77b936320deb314d2c274bbdf647074178917d8ad65d089c340"),
    "dual-wide": (["dual", "wide.json"], 0,
        "8eda48ca8862216e536f2724baea7a4412671ea2b496596415b8bdf3c4aff686"),
    "random": (["random", "--seed", "7"], 0,
        "da3420297aab7e5c96638964fb6b3b0b33a00c28c187d356a37be3de8f85abfd"),
}


def write_inputs():
    """Write every input file that GOLDEN names into the current directory."""
    save_system(make_e1(), "e1.json")
    save_system(make_e2(), "e2.json")
    save_system(make_single_node(), "single.json")
    save_system(make_e1().with_weights([0.8, 1.0]), "e1w.json")
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
    write_inputs()
    return tmp_path


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_out_file_is_pinned(workdir, name, capsys):
    argv, code, digest = GOLDEN[name]
    out = workdir / "out.json"
    assert main(argv + ["--out", "out.json"]) == code
    capsys.readouterr()
    if out.exists():
        # Each float is the shortest decimal that round-trips.
        text = out.read_text(encoding="utf-8")
        oracles.assert_shortest_floats(text, json.loads(text))
    written = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
    assert written == digest


def test_only_the_necessary_reports_are_sampled(workdir, monkeypatch):
    """Only the mixed-norm perturbation hypothesis is checked on sampled directions."""
    printed = []
    monkeypatch.setattr(cli, "_print_reports", printed.extend)
    for argv, code, _ in GOLDEN.values():
        assert main(argv) == code
    sampled = {r.name for r in printed if r.provenance == SAMPLED}
    assert sampled == {"perturbation_bound"}


def _readme_provenance() -> dict:
    """The README's "Reports and their provenance" table, as {report: (from, provenances)}."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = text[text.index("| report | from | provenance |"):].split("\n\n", 1)[0]
    rows = {}
    for row in table.splitlines()[2:]:
        reports, sources, provenance = row.strip("|").split("|")
        for name in re.findall(r"`([^`]+)`", reports):
            rows[name] = (set(re.findall(r"`([^`]+)`", sources)),
                          set(provenance.strip().split(" or ")))
    return rows


def test_readme_provenance_table_matches_the_written_reports(workdir, monkeypatch):
    """Each report a golden command writes is a row with its subcommands and provenances.

    A skipped report measured nothing: it has no residuals and one note, which
    begins ``skipped:``.
    """
    printed = []
    monkeypatch.setattr(cli, "_print_reports", printed.extend)
    written = {}
    for argv, code, _ in GOLDEN.values():
        assert main(argv) == code
        for report in printed:
            sources, provenance = written.setdefault(report.name, (set(), set()))
            sources.add(argv[0])
            labels = {EXACT: "exact", SAMPLED: "sampled", SKIPPED: "skipped"}
            provenance.add(labels[report.provenance])
            if report.provenance == SKIPPED:
                assert report.passed and not report.residuals and not report.constants
                assert [note.startswith("skipped:") for note in report.notes] == [True], \
                    report.notes
        printed.clear()
    table = _readme_provenance()
    commands = set(next(a for a in build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction)).choices)
    documented = {name: (sources & commands, provenance)
                  for name, (sources, provenance) in table.items() if sources & commands}
    assert written == documented


def test_readme_provenance_sources_exist():
    """Each name in the table's "from" column is a subcommand or a library attribute."""
    commands = set(next(a for a in build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction)).choices)
    modules = [cgfusion] + [importlib.import_module(f"cgfusion.{info.name}")
                            for info in pkgutil.iter_modules(cgfusion.__path__)]

    def resolves(dotted):
        for obj in modules:
            try:
                for part in dotted.split("."):
                    obj = getattr(obj, part)
            except AttributeError:
                continue
            return True
        return False

    sources = set().union(*(names for names, _ in _readme_provenance().values()))
    assert sources and sorted(name for name in sources - commands if not resolves(name)) == []


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
