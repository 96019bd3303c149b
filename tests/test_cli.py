import json
import shutil

import numpy as np
import pytest

import cgfusion.pair
from cgfusion import Operator, random_system, save_system, validate_nodes, weighted_gram
from cgfusion.cli import main
from cgfusion.measure import WeightProfile

from conftest import make_e1, make_e2, make_single_node, make_system


@pytest.fixture
def e2_path(tmp_path):
    path = tmp_path / "e2.json"
    save_system(make_e2(), path)
    return str(path)


@pytest.fixture
def e1_path(tmp_path):
    path = tmp_path / "e1.json"
    save_system(make_e1(), path)
    return str(path)


def write_matrix(tmp_path, name, matrix):
    path = tmp_path / name
    path.write_text(json.dumps(matrix), encoding="utf-8")
    return str(path)


class TestCheck:
    def test_frame_passes(self, e2_path, capsys):
        assert main(["check", e2_path]) == 0
        out = capsys.readouterr().out
        assert "classification: frame" in out
        assert "lower = 1" in out
        assert "upper = 4" in out

    def test_bessel_only_fails(self, tmp_path, capsys):
        path = tmp_path / "single.json"
        save_system(make_single_node(), path)
        assert main(["check", str(path)]) == 1
        assert "bessel-only" in capsys.readouterr().out

    def test_report_written(self, e2_path, tmp_path):
        out = tmp_path / "report.json"
        assert main(["check", e2_path, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "report"
        assert doc["passed"] is True
        names = [r["name"] for r in doc["reports"]]
        assert names == sorted(names)

    def test_missing_file_is_usage_error(self, tmp_path):
        assert main(["check", str(tmp_path / "nope.json")]) == 2

    def test_boolean_weight_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({
            "version": "1", "ambient_dim": 1,
            "nodes": [{"id": "a", "mu": True, "v": True,
                       "subspace": [[1.0]], "local_operator": [[1.0]]}],
        }), encoding="utf-8")
        assert main(["check", str(path)]) == 2
        assert "node 'a': mu must be a number > 0, got True" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["mu", "v", "s"])
    @pytest.mark.parametrize("literal, problem", [
        ("Infinity", "must be finite"),
        ("1e400", "must be finite"),
        ("1" + "0" * 400, "must be finite"),
        ("-Infinity", "must be a number > 0, got -inf"),
        ("NaN", "must be a number > 0, got nan"),
    ], ids=["Infinity", "1e400", "int-1e400", "-Infinity", "NaN"])
    def test_non_finite_weight_is_usage_error(self, field, literal, problem, tmp_path, capsys):
        node = {"id": "a", "mu": 1, "v": 1, "s": 1, "subspace": [[1]], "local_operator": [[1]]}
        text = json.dumps({"version": "1", "ambient_dim": 1, "nodes": [node]})
        path = tmp_path / "weights.json"
        path.write_text(text.replace(f'"{field}": 1', f'"{field}": {literal}'), encoding="utf-8")
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: node 'a': {field} {problem}\n"

    def test_duplicate_node_id_is_usage_error(self, tmp_path, capsys):
        node = {"id": "a", "mu": 1.0, "v": 1.0, "subspace": [[1.0]], "local_operator": [[1.0]]}
        path = tmp_path / "dupe.json"
        path.write_text(json.dumps({"version": "1", "ambient_dim": 1, "nodes": [node, node]}),
                        encoding="utf-8")
        assert main(["check", str(path)]) == 2
        assert "duplicate node id(s): a" in capsys.readouterr().err

    def test_malformed_file_is_usage_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{", encoding="utf-8")
        assert main(["check", str(path)]) == 2


class TestKgf:
    def test_small_bound_passes(self, e2_path, tmp_path):
        k = write_matrix(tmp_path, "k.json", [[1.0, 0.0], [0.0, 1.0]])
        assert main(["kgf", e2_path, "--K", k, "--A", "1"]) == 0

    def test_large_bound_fails(self, e2_path, tmp_path, capsys):
        k = write_matrix(tmp_path, "k.json", [[1.0, 0.0], [0.0, 1.0]])
        assert main(["kgf", e2_path, "--K", k, "--A", "2"]) == 1
        assert "gap = -1" in capsys.readouterr().out

    def test_without_bound_reports_a_star(self, e2_path, tmp_path, capsys):
        k = write_matrix(tmp_path, "k.json", [[1.0, 0.0], [0.0, 1.0]])
        assert main(["kgf", e2_path, "--K", k]) == 0
        assert "a_star" in capsys.readouterr().out

    def test_operator_from_system_file(self, tmp_path):
        path = tmp_path / "sys.json"
        save_system(make_e2(), path, operators={"K": Operator.identity(2)})
        assert main(["kgf", str(path), "--A", "1"]) == 0

    def test_missing_operator_is_usage_error(self, e2_path):
        assert main(["kgf", e2_path, "--A", "1"]) == 2


class TestResolve:
    def test_frame_suite_passes(self, e2_path):
        assert main(["resolve", e2_path]) == 0

    def test_parseval_system_certifies(self, e1_path, capsys):
        assert main(["resolve", e1_path]) == 0
        assert "certified_lower = 1" in capsys.readouterr().out

    def test_non_frame_fails(self, tmp_path):
        path = tmp_path / "single.json"
        save_system(make_single_node(), path)
        assert main(["resolve", str(path)]) == 1

    def test_tiny_tight_frame_passes(self, tmp_path, capsys):
        # S = 1.0154e-8 I: check calls it tight, and the canonical
        # resolution's energy bounds hold exactly at any scale.
        path = tmp_path / "tiny.json"
        save_system(make_system(2, [np.eye(2)], [np.eye(2)], [0.00010076530012812557]), path)
        assert main(["check", str(path)]) == 0
        assert "classification: tight" in capsys.readouterr().out
        assert main(["resolve", str(path)]) == 0
        assert "[PASS] canonical_resolution" in capsys.readouterr().out

    def test_spectrum_solved_once(self, e2_path, linalg_calls):
        # One eigh of S (cached), one eigvalsh of the unweighted energy
        # operator (cached, read by the CLI and frame_from_resolution), the
        # LU inverse of S for the canonical resolution and two opnorm SVDs:
        # its identity residual and frame_from_resolution's resolution residual.
        assert main(["resolve", e2_path]) == 0
        assert linalg_calls == {"eigh": 1, "eigvalsh": 1, "inv": 1, "svd": 2}


class TestAtomic:
    def test_default_uses_frame_operator(self, e2_path, capsys):
        assert main(["atomic", e2_path]) == 0
        assert "a_star = 0.25" in capsys.readouterr().out

    def test_explicit_operator(self, e2_path, tmp_path):
        k = write_matrix(tmp_path, "k.json", [[1.0, 0.0], [0.0, 1.0]])
        assert main(["atomic", e2_path, "--K", k]) == 0

    def test_non_frame_fails(self, tmp_path):
        path = tmp_path / "single.json"
        save_system(make_single_node(), path)
        assert main(["atomic", str(path)]) == 1

    def test_one_eigendecomposition(self, e2_path, linalg_calls):
        # Bounds, a_star and S^+ all read the one cached eigh of S; the two
        # SVDs are opnorm's, of the constant c and of the range defect.
        assert main(["atomic", e2_path]) == 0
        assert linalg_calls == {"eigh": 1, "svd": 2}


class TestTransform:
    def test_shift_writes_loadable_system(self, e2_path, tmp_path):
        l = write_matrix(tmp_path, "l.json", [[1.0, 0.0], [0.0, 0.0]])
        out = tmp_path / "shifted.json"
        assert main(["transform", e2_path, "--L", l, "--out", str(out)]) == 0
        assert main(["check", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["version"] == "1"

    def test_shift_requires_positive(self, e2_path, tmp_path):
        l = write_matrix(tmp_path, "l.json", [[-1.0, 0.0], [0.0, 0.0]])
        assert main(["transform", e2_path, "--L", l]) == 1

    def test_missing_l_is_usage_error(self, e2_path):
        assert main(["transform", e2_path]) == 2

    @pytest.mark.parametrize("flag", ["--G", "--K"])
    def test_combined_operator_without_xi_is_usage_error(self, flag, e2_path, tmp_path, capsys):
        # Only the combined transform reads --G and --K; the 3 x 2 file is never loaded.
        l = write_matrix(tmp_path, "l.json", [[1.0, 0.0], [0.0, 0.0]])
        unread = write_matrix(tmp_path, "unread.json", [[1.0, 0.0]] * 3)
        out = tmp_path / "out.json"
        assert main(["transform", e2_path, "--L", l, flag, unread, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {flag}: read only by the combined transform, which needs --xi\n"
        assert not out.exists()

    def test_combined_transform(self, tmp_path, capsys):
        from conftest import make_system

        chi = make_system(2, bases=[[[1.0], [0.0]], [[0.0], [1.0]]],
                          local_maps=[[[1.0]], [[0.0]]], weights=[1.0, 1.0])
        xi = make_system(2, bases=[[[1.0], [0.0]], [[0.0], [1.0]]],
                         local_maps=[[[0.0]], [[1.0]]], weights=[1.0, 1.0])
        chi_path, xi_path = tmp_path / "chi.json", tmp_path / "xi.json"
        save_system(chi, chi_path)
        save_system(xi, xi_path)
        half = write_matrix(tmp_path, "half.json", [[0.5, 0.0], [0.0, 0.5]])
        out = tmp_path / "combined.json"
        assert main(["transform", str(chi_path), "--xi", str(xi_path),
                     "--L", half, "--G", half, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["check", str(out)]) == 0
        assert "classification: parseval" in capsys.readouterr().out

    def test_combined_geometry_mismatch_fails_verification(self, tmp_path, capsys):
        lines = [[[1.0], [0.0]], [[0.0], [1.0]]]
        chi, xi = tmp_path / "chi.json", tmp_path / "xi.json"
        save_system(make_system(2, lines, [[[1.0]], [[0.0]]], [1.0, 1.0]), chi)
        save_system(make_system(2, lines[::-1], [[[0.0]], [[1.0]]], [1.0, 1.0]), xi)
        half = write_matrix(tmp_path, "half.json", [[0.5, 0.0], [0.0, 0.5]])
        out = tmp_path / "out.json"
        assert main(["transform", str(chi), "--xi", str(xi), "--L", half, "--G", half,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "verification failed: subspaces differ at node n0\n"
        assert not out.exists()


class TestPair:
    def test_two_files(self, e2_path, e1_path):
        assert main(["pair", e2_path, "--xi", e1_path, "--trials", "20"]) == 0

    def test_secondary_weights(self, tmp_path):
        path = tmp_path / "pair.json"
        save_system(make_e1(), path, secondary_weights=[0.8, 1.0])
        assert main(["pair", str(path), "--trials", "20"]) == 0

    def test_missing_xi_is_usage_error(self, e2_path):
        assert main(["pair", e2_path]) == 2

    def test_explicit_lambda_failure(self, tmp_path):
        path = tmp_path / "pair.json"
        save_system(make_e1(), path, secondary_weights=[0.8, 1.0])
        assert main(["pair", str(path), "--lam", "0.05", "--trials", "10"]) == 1

    @pytest.mark.parametrize("perturbed", [False, True])
    def test_mixed_operator_built_once(self, tmp_path, e2_path, e1_path, monkeypatch, perturbed):
        # One product for the mixed operator, shared by every check; with
        # e2 against e1 both perturbation checks are skipped, with e1s both
        # go ahead.
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return weighted_gram(*args, **kwargs)

        monkeypatch.setattr(cgfusion.pair, "weighted_gram", counted)
        if perturbed:
            path = tmp_path / "e1s.json"
            save_system(make_e1(), path, secondary_weights=[0.8, 1.0])
            argv = ["pair", str(path), "--lam", "0.3", "--trials", "10"]
        else:
            argv = ["pair", e2_path, "--xi", e1_path]
        assert main(argv) == 0
        assert len(calls) == 1


class TestProducingCommands:
    def test_parseval_pipeline(self, e2_path, tmp_path, capsys):
        out = tmp_path / "flat.json"
        assert main(["parseval", e2_path, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["check", str(out)]) == 0
        assert "classification: parseval" in capsys.readouterr().out

    def test_dual_pipeline(self, e2_path, tmp_path, capsys):
        out = tmp_path / "dual.json"
        assert main(["dual", e2_path, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["check", str(out)]) == 0
        out_text = capsys.readouterr().out
        assert "lower = 0.25" in out_text
        assert "upper = 1" in out_text

    def test_dsum_pipeline(self, e2_path, e1_path, tmp_path, capsys):
        out = tmp_path / "sum.json"
        assert main(["dsum", e2_path, "--xi", e1_path, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["check", str(out)]) == 0
        assert "lower = 1" in capsys.readouterr().out

    def test_parseval_rejects_non_frame(self, tmp_path):
        path = tmp_path / "single.json"
        save_system(make_single_node(), path)
        assert main(["parseval", str(path)]) == 1

    def test_random_generates_valid_system(self, tmp_path):
        out = tmp_path / "rand.json"
        assert main(["random", "--dim", "5", "--nodes", "4", "--seed", "7",
                     "--out", str(out)]) == 0
        assert main(["check", str(out)]) in (0, 1)  # may or may not be a frame

    def test_random_seeds_validate(self):
        # construction would raise if any system invariant failed
        for seed in range(1000):
            system = random_system(np.random.default_rng(seed), 4, 3)
            assert validate_nodes(system.nodes, WeightProfile(system.weights)).passed


class TestSelftest:
    def test_deterministic_and_green(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["selftest", "--seed", "0", "--out", str(a)]) == 0
        assert main(["selftest", "--seed", "0", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bounds_read_the_cached_spectrum(self, linalg_calls, capsys):
        # One eigh of S per system, shared by frame_bounds and the attainment
        # check; a second eigh of the same S per system made 116.
        assert main(["selftest", "--seed", "0"]) == 0
        assert linalg_calls["eigh"] == 86


def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestFlags:
    def test_environment_leaves_output_unchanged(self, e2_path, tmp_path, monkeypatch):
        # No environment variable sets the tolerance: only --tol does.
        plain, with_env = tmp_path / "plain.json", tmp_path / "with_env.json"
        assert main(["check", e2_path, "--out", str(plain)]) == 0
        monkeypatch.setenv("CGFUSION_TOL", "1e-3")
        assert main(["check", e2_path, "--out", str(with_env)]) == 0
        assert with_env.read_bytes() == plain.read_bytes()
        assert json.loads(plain.read_text())["parameters"]["tol"] == 1e-9

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv, env, named", [
        (["check", "{e2}", "--tol", "nan"], {}, "--tol"),
        (["check", "{e2}", "--tol", "inf"], {}, "--tol"),
        (["check", "{e2}", "--tol", "-1"], {}, "--tol"),
        (["random", "--nodes", "0"], {}, "--nodes"),
        # No environment variable is read: one set here rescues no flag.
        (["selftest", "--tol", "nan"], {"CGFUSION_TOL": "1e-3"}, "--tol"),
        (["pair", "{e2}", "--xi", "{e1}", "--trials", "-3"], {}, "--trials"),
        (["pair", "{e2}", "--xi", "{e1}", "--trials", "0"], {}, "--trials"),
        (["random", "--dim", "0"], {}, "--dim"),
        (["random", "--dim", "-2"], {}, "--dim"),
        (["random", "--nodes", "-1"], {}, "--nodes"),
        (["random", "--seed", "-1"], {}, "--seed"),
        (["kgf", "{e2}", "--K", "{k}", "--A", "nan"], {}, "--A"),
        (["pair", "{e2}", "--xi", "{e1}", "--lambda1", "nan"], {}, "--lambda1"),
        (["pair", "{e2}", "--xi", "{e1}", "--lambda2", "inf"], {}, "--lambda2"),
        (["pair", "{e2}", "--xi", "{e1}", "--lam", "nan"], {}, "--lam"),
        # e1s has deviation 0.2, so every derived lambda is admissible and
        # only the value given is out of range.
        (["pair", "{e1s}", "--lambda1", "1.5"], {}, "--lambda1"),
        (["pair", "{e1s}", "--lambda2", "-2"], {}, "--lambda2"),
        (["pair", "{e1s}", "--lam", "1.5"], {}, "--lam"),
        # e2 against e1 has deviation 1, so the derived lambda1 is not
        # admissible either; the lambda2 given is still a usage error.
        (["pair", "{e2}", "--xi", "{e1}", "--lambda2", "-2"], {}, "--lambda2"),
    ])
    def test_invalid_number_exits_two(self, argv, env, named, e1_path, e2_path, tmp_path,
                                      monkeypatch, capsys):
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        paths = {"e1": e1_path, "e2": e2_path, "e1s": str(tmp_path / "e1s.json"),
                 "k": write_matrix(tmp_path, "k.json", [[1.0, 0.0], [0.0, 1.0]])}
        save_system(make_e1(), paths["e1s"], secondary_weights=[0.8, 1.0])
        assert exit_code([arg.format(**paths) for arg in argv]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--lambda1", "1.5", "--lambda2", "0.1"], "--lambda1: lambda1 must be < 1, got 1.5"),
        (["--lambda1", "0.5", "--lambda2", "-2"], "--lambda2: lambda2 must be > -1, got -2.0"),
    ])
    def test_only_the_rejected_lambda_is_named(self, argv, message, e1_path, e2_path, capsys):
        assert main(["pair", e2_path, "--xi", e1_path, *argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["kgf", "{e2}", "--K", "{k3}"], "comparison operator must be 2x2, got 3x3"),
        (["atomic", "{e2}", "--K", "{k3}"], "comparison operator must be 2x2, got 3x3"),
        (["transform", "{e2}", "--L", "{k3}"], "L must be 2x2, got 3x3"),
        (["pair", "{e2}", "--xi", "{r3}"], "ambient dimensions differ: 2 vs 3"),
        (["pair", "{e2}", "--xi", "{nodes3}"], "systems must share their measure nodes"),
        (["dsum", "{e2}", "--xi", "{r3}"], "systems must share their measure nodes"),
        (["dsum", "{e2}", "--xi", "{nodes3}"], "systems must share their measure nodes"),
        # A zero K is sized like any other before it counts as vacuous.
        (["atomic", "{e2}", "--K", "{z3}"], "comparison operator must be 2x2, got 3x3"),
    ])
    def test_mismatched_files_exit_two(self, argv, message, e2_path, tmp_path, capsys):
        paths = {"e2": e2_path, "k3": write_matrix(tmp_path, "k3.json", np.eye(3).tolist()),
                 "z3": write_matrix(tmp_path, "z3.json", np.zeros((3, 3)).tolist()),
                 "r3": str(tmp_path / "r3.json"), "nodes3": str(tmp_path / "nodes3.json")}
        save_system(random_system(np.random.default_rng(1), 3, 2), paths["r3"])
        lines = [[[1.0], [0.0]], [[0.0], [1.0]], [[1.0], [0.0]]]
        save_system(make_system(2, lines, [[[1.0]]] * 3, [1.0] * 3), paths["nodes3"])
        assert main([arg.format(**paths) for arg in argv]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["kgf", "{k}", "--A", "1e308"], "--A: A K K^T overflows at A = 1e+308"),
        (["kgf", "{khuge}"],
         "comparison operator of norm 1e+200 puts the kgf constant outside the double range"),
        (["atomic", "{khuge}"],
         "comparison operator of norm 1e+200 puts the kgf constant outside the double range"),
        (["kgf", "{ktiny}"],
         "comparison operator of norm 1e-170 puts the kgf constant outside the double range"),
        (["atomic", "{ktiny}"],
         "comparison operator of norm 1e-170 puts the kgf constant outside the double range"),
        # K K^T overflows before A scales it: the operator is named, not --A.
        (["kgf", "{khuge}", "--A", "1"], "comparison operator of norm 1e+200 overflows K K^T"),
    ], ids=["kgf-A", "kgf-huge-K", "atomic-huge-K", "kgf-tiny-K", "atomic-tiny-K", "kgf-A-huge-K"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_out_of_range_operator_exits_two(self, argv, message, tmp_path, capsys):
        # The kgf constant is 1/||diag(w)^(-1/2) Q^T K||^2, with S = I here.
        paths = {name: str(tmp_path / f"{name}.json") for name in ("k", "khuge", "ktiny")}
        for name, scale in (("k", 1.0), ("khuge", 1e200), ("ktiny", 1e-170)):
            save_system(make_system(2, [np.eye(2)], [np.eye(2)], [1.0]), paths[name],
                        operators={"K": Operator(scale * np.eye(2))})
        assert main([arg.format(**paths) for arg in argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["check", "{bad}"],
        ["kgf", "{e2}", "--K", "{bad}"],
        ["pair", "{e2}", "--xi", "{bad}"],
        ["transform", "{e2}", "--L", "{bad}"],
        ["transform", "{e2}", "--xi", "{e2}", "--L", "{eye}", "--G", "{bad}"],
    ])
    def test_unreadable_input_exits_two(self, argv, e2_path, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"[[\xff]]")
        eye = write_matrix(tmp_path, "eye.json", np.eye(2).tolist())
        assert main([arg.format(e2=e2_path, bad=bad, eye=eye) for arg in argv]) == 2
        assert capsys.readouterr().err == f"error: {bad}: not UTF-8 text: byte 2: invalid start byte\n"

    @pytest.mark.parametrize("target, reason", [
        ("missing/out.json", "No such file or directory"),
        ("taken", "Is a directory"),
    ])
    def test_unwritable_out_exits_two(self, target, reason, e2_path, tmp_path, capsys):
        (tmp_path / "taken").mkdir()
        (tmp_path / "taken" / "kept.json").write_text("old", encoding="utf-8")
        out = tmp_path / target
        assert main(["parseval", e2_path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {out}: cannot write: {reason}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["e2.json", "taken"]
        assert [p.name for p in (tmp_path / "taken").iterdir()] == ["kept.json"]
        assert (tmp_path / "taken" / "kept.json").read_text(encoding="utf-8") == "old"

    @pytest.mark.parametrize("case, reason", [
        ("seed", "Integer exceeds 64-bit range"),
        ("node-id", "str is not valid UTF-8: surrogates not allowed"),
        ("path", "str is not valid UTF-8: surrogates not allowed"),
    ], ids=["seed", "node-id", "path"])
    def test_unencodable_document_exits_two(self, case, reason, e2_path, tmp_path, capsys):
        # JSON text holds neither an int past 64 bits nor a lone surrogate: a node
        # id escaped as one, or a path argument whose bytes are not UTF-8.
        doc = json.loads(open(e2_path, encoding="utf-8").read())
        doc["nodes"][0]["id"] = "\ud800"
        lone_id = tmp_path / "id.json"
        lone_id.write_text(json.dumps(doc), encoding="utf-8")
        undecodable = tmp_path / "\udcff.json"
        shutil.copy(e2_path, undecodable)
        argv = {"seed": ["selftest", "--seed", str(2**70)],
                "node-id": ["parseval", str(lone_id)],
                "path": ["check", str(undecodable)]}[case]
        out = tmp_path / "out.json"
        out.write_text("old", encoding="utf-8")
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {out}: cannot write: {reason}\n"
        assert out.read_text(encoding="utf-8") == "old"

    @pytest.mark.parametrize("argv", [
        ["kgf", "{e2}", "--seed", "1"],
        ["atomic", "{e2}", "--trials", "5"],
        ["resolve", "{e2}", "--trials", "5"],
        ["resolve", "{e2}", "--seed", "1"],
        ["parseval", "{e2}", "--seed", "1"],
        ["random", "--tol", "1e-6"],
        ["selftest", "--parallel"],
        ["check", "{e2}", "--trials", "5"],
        ["check", "{e2}", "--seed", "1"],
        ["selftest", "--trials", "5"],
    ])
    def test_unread_flag_exits_two(self, argv, e2_path, capsys):
        assert exit_code([arg.format(e2=e2_path) for arg in argv]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
