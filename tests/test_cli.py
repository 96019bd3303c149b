import hashlib
import json
import shutil

import numpy as np
import pytest

import cgfusion.pair
from cgfusion import (
    random_shared_weight_frames,
    random_system,
    save_system,
    validate_nodes,
    weighted_gram,
)
from cgfusion.cli import main
from cgfusion.measure import WeightProfile

import oracles
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


@pytest.fixture
def e1w_path(tmp_path):
    """e1 with weights (0.8, 1): a second system on e1's nodes at deviation 0.2."""
    path = tmp_path / "e1w.json"
    save_system(make_e1().with_weights([0.8, 1.0]), path)
    return str(path)


def write_matrix(tmp_path, name, matrix):
    path = tmp_path / name
    path.write_text(json.dumps(matrix), encoding="utf-8")
    return str(path)


def with_operator_table(system_path, tmp_path):
    """A copy of the system file with an ``operators`` table holding K = I."""
    doc = json.loads(open(system_path, encoding="utf-8").read())
    doc["operators"] = {"K": [[1.0, 0.0], [0.0, 1.0]]}
    path = tmp_path / "ops.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
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

    @pytest.mark.parametrize("field", ["mu", "v"])
    @pytest.mark.parametrize("literal, problem", [
        ("Infinity", "must be finite"),
        ("1e400", "must be finite"),
        ("1" + "0" * 400, "must be finite"),
        ("-Infinity", "must be a number > 0, got -inf"),
        ("NaN", "must be a number > 0, got nan"),
    ], ids=["Infinity", "1e400", "int-1e400", "-Infinity", "NaN"])
    def test_non_finite_weight_is_usage_error(self, field, literal, problem, tmp_path, capsys):
        node = {"id": "a", "mu": 1, "v": 1, "subspace": [[1]], "local_operator": [[1]]}
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tiny_mass_keeps_a_huge_weight_in_range(self, tmp_path, capsys):
        # Both nodes have mu 1e-300 and v 1e200: v^2 is no double, but mu v^2 = 1e100
        # is, and S = 1e100 I is a tight frame by the scale-free rules.
        path, out = tmp_path / "tiny.json", tmp_path / "report.json"
        save_system(make_e1().with_weights([1e200, 1e200]), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        for node in doc["nodes"]:
            node["mu"] = 1e-300
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["check", str(path), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "upper = 1e+100" in printed and "classification: tight" in printed
        reports = json.loads(out.read_text())["reports"]
        constants = next(r["constants"] for r in reports if r["name"] == "frame_bounds")
        # The oracle's nodes carry mass 1 and weight 1e50: the same mu v^2.
        bases = [np.eye(2)[:, :1], np.eye(2)[:, 1:]]
        expected = oracles.spectral_bounds(
            oracles.frame_operator([1.0, 1.0], [1e50, 1e50], bases, [[[1.0]], [[1.0]]]))
        np.testing.assert_allclose([constants["lower"], constants["upper"]], expected,
                                   rtol=1e-14, atol=0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_mass_keeps_a_tiny_weight_in_range(self, tmp_path, capsys):
        # Node n1 has mu 1e300 and v 1e-200: v^2 underflows to 0, but mu v^2 = 1e-100
        # is a double, and S = diag(1, 1e-100) (bessel-only by the rank rule).
        path, out = tmp_path / "huge.json", tmp_path / "report.json"
        save_system(make_e1().with_weights([1.0, 1e-200]), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["nodes"][1]["mu"] = 1e300
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["check", str(path), "--out", str(out)]) == 1
        printed = capsys.readouterr().out
        assert "lower = 1e-100" in printed and "classification: bessel-only" in printed
        reports = json.loads(out.read_text())["reports"]
        constants = next(r["constants"] for r in reports if r["name"] == "frame_bounds")
        # The oracle's node n1 carries mass 1 and weight 1e-50: the same mu v^2.
        bases = [np.eye(2)[:, :1], np.eye(2)[:, 1:]]
        expected = oracles.spectral_bounds(
            oracles.frame_operator([1.0, 1.0], [1.0, 1e-50], bases, [[[1.0]], [[1.0]]]))
        np.testing.assert_allclose([constants["lower"], constants["upper"]], expected,
                                   rtol=1e-14, atol=0)

    def test_operator_table_is_usage_error(self, e2_path, tmp_path, capsys):
        # Operators come only from their flag files: a table in the system file is
        # refused, not left unread while atomic or transform fall back to defaults.
        path = with_operator_table(e2_path, tmp_path)
        assert main(["check", path]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: an 'operators' table is not read: pass each operator as a file "
            "with --K, --L or --G\n")


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

    def test_operator_from_system_file(self, e2_path, tmp_path, capsys):
        # K is read only from --K: a K in the system file is refused, even beside --K.
        k = write_matrix(tmp_path, "k.json", [[1.0, 0.0], [0.0, 1.0]])
        assert main(["kgf", with_operator_table(e2_path, tmp_path), "--K", k, "--A", "1"]) == 2
        assert "'operators'" in capsys.readouterr().err

    def test_missing_operator_is_usage_error(self, e2_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["kgf", e2_path, "--A", "1"])
        assert excinfo.value.code == 2
        assert "the following arguments are required: --K" in capsys.readouterr().err


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

    def test_shift_at_scale_passes_and_writes_the_same_system(self, tmp_path):
        # Weights x 1e3 and L = 10 I: the roundoff of M S M^T is about 1e-7.
        system = random_system(np.random.default_rng(0), 4, 3, ensure_frame=True)
        path, out = tmp_path / "s.json", tmp_path / "shifted.json"
        save_system(system.with_weights(system.weights * 1e3), path)
        l = write_matrix(tmp_path, "l.json", (10.0 * np.eye(4)).tolist())
        assert main(["transform", str(path), "--L", l, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "2b5f82d1e90f300c51aa93428b8185a7ff0d33ab3e565bfafa073d22f311f792")

    def test_missing_l_is_usage_error(self, e2_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["transform", e2_path])
        assert excinfo.value.code == 2
        assert "the following arguments are required: --L" in capsys.readouterr().err

    def test_combined_transform_without_g_is_usage_error(self, e2_path, tmp_path, capsys):
        eye = write_matrix(tmp_path, "eye.json", np.eye(2).tolist())
        assert main(["transform", e2_path, "--xi", e2_path, "--L", eye]) == 2
        assert capsys.readouterr().err == "error: --G: required by the combined transform (--xi)\n"

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

    def test_secondary_weights(self, e1_path, e1w_path):
        # The second system is e1 reweighted, read from its own --xi file.
        assert main(["pair", e1_path, "--xi", e1w_path, "--trials", "20"]) == 0

    def test_missing_xi_is_usage_error(self, e2_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["pair", e2_path])
        assert excinfo.value.code == 2
        assert "the following arguments are required: --xi" in capsys.readouterr().err

    def test_explicit_lambda_failure(self, e1_path, e1w_path):
        assert main(["pair", e1_path, "--xi", e1w_path, "--lam", "0.05", "--trials", "10"]) == 1

    @pytest.mark.parametrize("perturbed", [False, True])
    def test_mixed_operator_built_once(self, e2_path, e1_path, e1w_path, monkeypatch, perturbed):
        # One product for the mixed operator, shared by every check; with
        # e2 against e1 both perturbation checks are skipped, with e1 against
        # e1w both go ahead.
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return weighted_gram(*args, **kwargs)

        monkeypatch.setattr(cgfusion.pair, "weighted_gram", counted)
        if perturbed:
            argv = ["pair", e1_path, "--xi", e1w_path, "--lam", "0.3", "--trials", "10"]
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

    def test_dsum_at_scale_passes_and_writes_the_same_system(self, tmp_path):
        # Weights x 1e4: the bounds are near 1e8, with roundoff near 1e-8.
        chi, xi = random_shared_weight_frames(np.random.default_rng(0), 3, 3, 3)
        paths = [tmp_path / "chi.json", tmp_path / "xi.json"]
        for system, path in zip((chi, xi), paths):
            save_system(system.with_weights(system.weights * 1e4), path)
        out = tmp_path / "sum.json"
        assert main(["dsum", str(paths[0]), "--xi", str(paths[1]), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "a8b49001cb53a340695aad79bfe6d786a047c9748d8984edb965cdc63635b1eb")

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


class TestSeededChain:
    def test_deterministic_and_green(self, tmp_path, monkeypatch, capsys):
        # random, then parseval of it, then the pair of that frame with itself,
        # whose perturbation_bound samples directions seeded by --seed.  Each run
        # has its own folder and relative names, as the report records its paths.
        runs = []
        for run in ("a", "b"):
            (tmp_path / run).mkdir()
            monkeypatch.chdir(tmp_path / run)
            assert main(["random", "--seed", "0", "--out", "r.json"]) == 0
            assert main(["parseval", "r.json", "--out", "p.json"]) == 0
            assert main(["pair", "p.json", "--xi", "p.json", "--seed", "0",
                         "--out", "rep.json"]) == 0
            runs.append([(tmp_path / run / name).read_bytes()
                         for name in ("r.json", "p.json", "rep.json")])
        capsys.readouterr()
        assert runs[0] == runs[1]
        doc = json.loads(runs[0][2])
        assert doc["passed"] is True and doc["parameters"]["seed"] == 0
        provenance = {r["name"]: r["provenance"] for r in doc["reports"]}
        assert provenance["perturbation_bound"] == "sampled"


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
        (["parseval", "{e2}", "--tol", "nan"], {"CGFUSION_TOL": "1e-3"}, "--tol"),
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
        # e1 against e1w has deviation 0.2, so every derived lambda is
        # admissible and only the value given is out of range.
        (["pair", "{e1}", "--xi", "{e1w}", "--lambda1", "1.5"], {}, "--lambda1"),
        (["pair", "{e1}", "--xi", "{e1w}", "--lambda2", "-2"], {}, "--lambda2"),
        (["pair", "{e1}", "--xi", "{e1w}", "--lam", "1.5"], {}, "--lam"),
        # e2 against e1 has deviation 1, so the derived lambda1 is not
        # admissible either; the lambda2 given is still a usage error.
        (["pair", "{e2}", "--xi", "{e1}", "--lambda2", "-2"], {}, "--lambda2"),
    ])
    def test_invalid_number_exits_two(self, argv, env, named, e1_path, e2_path, e1w_path,
                                      tmp_path, monkeypatch, capsys):
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        paths = {"e1": e1_path, "e2": e2_path, "e1w": e1w_path,
                 "k": write_matrix(tmp_path, "k.json", [[1.0, 0.0], [0.0, 1.0]])}
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
        (["kgf", "{eye}", "--K", "{k}", "--A", "1e308"], "--A: A K K^T overflows at A = 1e+308"),
        (["kgf", "{eye}", "--K", "{khuge}"],
         "comparison operator of norm 1e+200 puts the kgf constant outside the double range"),
        (["atomic", "{eye}", "--K", "{khuge}"],
         "comparison operator of norm 1e+200 puts the kgf constant outside the double range"),
        (["kgf", "{eye}", "--K", "{ktiny}"],
         "comparison operator of norm 1e-170 puts the kgf constant outside the double range"),
        (["atomic", "{eye}", "--K", "{ktiny}"],
         "comparison operator of norm 1e-170 puts the kgf constant outside the double range"),
        # K K^T overflows before A scales it: the operator is named, not --A.
        (["kgf", "{eye}", "--K", "{khuge}", "--A", "1"],
         "comparison operator of norm 1e+200 overflows K K^T"),
    ], ids=["kgf-A", "kgf-huge-K", "atomic-huge-K", "kgf-tiny-K", "atomic-tiny-K", "kgf-A-huge-K"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_out_of_range_operator_exits_two(self, argv, message, tmp_path, capsys):
        # The kgf constant is 1/||diag(w)^(-1/2) Q^T K||^2, with S = I here.
        paths = {name: write_matrix(tmp_path, f"{name}.json", (scale * np.eye(2)).tolist())
                 for name, scale in (("k", 1.0), ("khuge", 1e200), ("ktiny", 1e-170))}
        paths["eye"] = str(tmp_path / "eye.json")
        save_system(make_system(2, [np.eye(2)], [np.eye(2)], [1.0]), paths["eye"])
        assert main([arg.format(**paths) for arg in argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["check", "{big}"],
        ["resolve", "{big}"],
        ["atomic", "{big}"],
        ["parseval", "{big}"],
        ["dual", "{big}"],
        ["pair", "{big}", "--xi", "{big}"],
        ["dsum", "{big}", "--xi", "{big}"],
        ["kgf", "{big}", "--K", "{eye}", "--A", "1"],
        ["transform", "{wide}", "--L", "{huge}"],
        # The weight to blame is the v of the --xi file.
        pytest.param(["pair", "{e1}", "--xi", "{bigxi}"], id="pair-xi"),
    ], ids=lambda argv: argv[0])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_result_exits_two(self, argv, tmp_path, capsys):
        # A weight of 1e200 is finite and positive, but its square is no double; nor is
        # the image of a local operator of 1e200 under L = 1e200 I.
        system = random_system(np.random.default_rng(1), 3, 2)
        paths = {name: str(tmp_path / f"{name}.json") for name in ("big", "wide")}
        save_system(system.with_weights([1e200, system.weights[1]]), paths["big"])
        save_system(make_system(3, [np.eye(3)], [1e200 * np.eye(3)], [1.0]), paths["wide"])
        paths["e1"], paths["bigxi"] = str(tmp_path / "e1.json"), str(tmp_path / "bigxi.json")
        save_system(make_e1(), paths["e1"])
        save_system(make_e1().with_weights([1e200, 1.0]), paths["bigxi"])
        paths["eye"] = write_matrix(tmp_path, "eye.json", np.eye(3).tolist())
        paths["huge"] = write_matrix(tmp_path, "huge.json", (1e200 * np.eye(3)).tolist())
        # The error names the node and the field of the file to blame.
        message = ("node 'n0': local_operator: pushed effective maps must be finite: "
                   "the transform overflows them"
                   if argv[0] == "transform" else
                   "node 'n0': v: too large: its term of a weighted Gram of the effective "
                   "maps, such as the frame operator, overflows")
        assert main([arg.format(**paths) for arg in argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("masses, locals_, weights, named", [
        # mu_1 times the unweighted term 4 passes the double range; 4 itself does not.
        ([1.0, 1e308], [1.0, 2.0], [1.0, 1.0], "node 'n1': mu: too large: its term"),
        ([1.0, 1.0], [1.0, 1e200], [1.0, 1.0], "node 'n1': local_operator: too large: its term"),
        ([1.0, 1.0], [1.0, 1.0], [1.0, 1e200], "node 'n1': v: too large: its term"),
        # Each term is 1e308 and only their sum overflows: no node is named.
        ([1.0, 1.0], [1.0, 1.0], [1e154, 1e154], "a weighted Gram"),
    ], ids=["mu", "local_operator", "v", "sum"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_gram_names_the_node_and_the_field(self, masses, locals_, weights,
                                                           named, tmp_path, capsys):
        path = tmp_path / "big.json"
        save_system(make_system(1, [[[1.0]]] * 2, [[[x]] for x in locals_], weights, masses),
                    path)
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {named}")

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
    def test_unencodable_document_exits_two(self, case, reason, e1_path, e2_path, tmp_path,
                                            capsys):
        # JSON text holds neither an int past 64 bits nor a lone surrogate: a node
        # id escaped as one, or a path argument whose bytes are not UTF-8.
        doc = json.loads(open(e2_path, encoding="utf-8").read())
        doc["nodes"][0]["id"] = "\ud800"
        lone_id = tmp_path / "id.json"
        lone_id.write_text(json.dumps(doc), encoding="utf-8")
        undecodable = tmp_path / "\udcff.json"
        shutil.copy(e2_path, undecodable)
        # pair writes its --seed into the report parameters.
        argv = {"seed": ["pair", e2_path, "--xi", e1_path, "--seed", str(2**70)],
                "node-id": ["parseval", str(lone_id)],
                "path": ["check", str(undecodable)]}[case]
        out = tmp_path / "out.json"
        out.write_text("old", encoding="utf-8")
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {out}: cannot write: {reason}\n"
        assert out.read_text(encoding="utf-8") == "old"

    @pytest.mark.parametrize("argv", [
        # --K is given so that only the unread flag is wrong; no file is read.
        ["kgf", "{e2}", "--K", "{e2}", "--seed", "1"],
        ["atomic", "{e2}", "--trials", "5"],
        ["resolve", "{e2}", "--trials", "5"],
        ["resolve", "{e2}", "--seed", "1"],
        ["parseval", "{e2}", "--seed", "1"],
        ["random", "--tol", "1e-6"],
        ["random", "--trials", "5"],
        ["check", "{e2}", "--trials", "5"],
        ["check", "{e2}", "--seed", "1"],
        # dsum measures nothing, so it takes no --tol.
        ["dsum", "{e2}", "--xi", "{e1}", "--tol", "1e-6"],
    ])
    def test_unread_flag_exits_two(self, argv, e1_path, e2_path, capsys):
        assert exit_code([arg.format(e1=e1_path, e2=e2_path) for arg in argv]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
