import pickle

import numpy as np
import pytest

from cgfusion import (
    PairSystem,
    ParameterError,
    ShapeError,
    bounded_below_analysis,
    pair_adjoint_and_norm,
    pair_frame_operator,
    perturbation_bound,
    frame_bounds,
    random_pair,
    random_system,
    symmetric_perturbation,
)

from cgfusion.report import SKIPPED

import oracles
from conftest import make_e1, make_e2, make_system, system_args, transpose_law_residual


def disjoint_pair():
    """Each side is live on one node only, so every mixed summand vanishes."""
    chi = make_system(
        2,
        bases=[[[1.0], [0.0]], [[0.0], [1.0]]],
        local_maps=[[[1.0]], [[0.0]]],
        weights=[1.0, 1.0],
    )
    xi = make_system(
        2,
        bases=[[[1.0], [0.0]], [[0.0], [1.0]]],
        local_maps=[[[0.0]], [[1.0]]],
        weights=[1.0, 1.0],
    )
    return PairSystem(chi, xi)


def shrunk_pair():
    """Mixed operator diag(0.8, 1): unit geometry, synthesis weights (0.8, 1)."""
    chi = make_e1()
    xi = make_e1().with_weights(np.array([0.8, 1.0]))
    return PairSystem(chi, xi)


class TestPairFrameOperator:
    def test_self_pair_of_parseval(self, e1):
        pair = PairSystem(e1, e1)
        np.testing.assert_allclose(pair_frame_operator(pair).entries, np.eye(2), atol=1e-15)

    def test_e2_e1_mixed(self, e2, e1):
        pair = PairSystem(e2, e1)
        np.testing.assert_allclose(
            pair_frame_operator(pair).entries, np.diag([2.0, 1.0]), atol=1e-15
        )

    def test_disjoint_supports_vanish(self):
        np.testing.assert_allclose(
            pair_frame_operator(disjoint_pair()).entries, np.zeros((2, 2)), atol=1e-15
        )

    def test_codomain_mismatch_rejected(self, e1):
        other = make_system(
            2,
            bases=[[[1.0], [0.0]], [[0.0], [1.0]]],
            local_maps=[[[1.0], [0.0]], [[1.0]]],
            weights=[1.0, 1.0],
        )
        with pytest.raises(ShapeError):
            PairSystem(e1, other)


class TestAdjointAndNorm:
    def test_self_pair(self, e1):
        report = pair_adjoint_and_norm(PairSystem(e1, e1))
        assert report.passed
        assert report.constants["operator_norm"] == pytest.approx(1.0, abs=1e-12)

    def test_e2_e1_attains_norm_bound(self, e2, e1):
        report = pair_adjoint_and_norm(PairSystem(e2, e1))
        assert report.passed
        assert report.constants["operator_norm"] == pytest.approx(2.0, abs=1e-12)
        assert report.constants["bessel_chi"] == pytest.approx(4.0, abs=1e-12)
        assert report.constants["bessel_xi"] == pytest.approx(1.0, abs=1e-12)
        bound = np.sqrt(report.constants["bessel_chi"] * report.constants["bessel_xi"])
        assert report.constants["operator_norm"] == pytest.approx(bound, abs=1e-9)

    def test_random_pairs_obey_laws(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            pair = random_pair(rng, int(rng.integers(2, 6)), int(rng.integers(1, 5)))
            report = pair_adjoint_and_norm(pair)
            assert transpose_law_residual(pair) <= 1e-12
            assert report.residuals["norm_excess"] <= 1e-9


class TestBoundedBelow:
    def test_self_pair_resolution(self, e1):
        report = bounded_below_analysis(PairSystem(e1, e1))
        assert report.passed
        assert report.constants["sigma_min"] == pytest.approx(1.0, abs=1e-12)
        assert report.residuals["identity_residual"] <= 1e-12
        assert report.constants["certified_chi_lower"] == pytest.approx(1.0, abs=1e-12)

    def test_e2_e1_hand_values(self, e2, e1):
        report = bounded_below_analysis(PairSystem(e2, e1))
        assert report.passed
        assert report.constants["sigma_min"] == pytest.approx(1.0, abs=1e-12)
        # certified lower bound sigma_min^2 / bessel_xi = 1/1, equal to the true 1
        assert report.constants["certified_chi_lower"] == pytest.approx(1.0, abs=1e-12)
        assert report.constants["spectral_chi_lower"] == pytest.approx(1.0, abs=1e-12)
        assert report.residuals["inverse_identity"] <= 1e-12

    def test_disjoint_pair_not_bounded_below(self):
        report = bounded_below_analysis(disjoint_pair())
        assert report.passed
        assert report.constants["sigma_min"] == pytest.approx(0.0, abs=1e-12)
        assert any("not bounded below" in note for note in report.notes)
        assert "identity_residual" not in report.residuals

    def test_roundtrip_on_random_pairs(self):
        rng = np.random.default_rng(42)
        seen_invertible = 0
        for _ in range(20):
            pair = random_pair(rng, int(rng.integers(2, 6)), int(rng.integers(2, 5)))
            mixed = pair_frame_operator(pair).entries
            sigma_min = float(np.linalg.svd(mixed, compute_uv=False)[-1])
            if sigma_min <= 1e-6:
                continue
            seen_invertible += 1
            report = bounded_below_analysis(pair, 1e-6)
            assert report.residuals["identity_residual"] <= 1e-12
            sides = [system_args(side)[2:] for side in (pair.chi, pair.xi)]
            total = oracles.pair_resolution_sum(
                pair.chi.nodes.mu, pair.chi.weights, pair.xi.weights, *sides)
            np.testing.assert_allclose(total, np.eye(pair.ambient_dim), rtol=0.0, atol=1e-10)
            assert report.residuals["inverse_identity"] <= 1e-8
            assert (
                report.constants["certified_chi_lower"]
                <= report.constants["spectral_chi_lower"] + 1e-8
            )
        assert seen_invertible >= 5


class TestPerturbationBound:
    def test_identity_pair_with_slack(self, e1):
        report = perturbation_bound(PairSystem(e1, e1), 0.5, 0.0)
        assert report.passed
        assert report.constants["hypothesis_max"] == pytest.approx(-0.5, abs=1e-12)
        assert report.constants["certified_chi_lower"] == pytest.approx(0.25, abs=1e-12)

    def test_shrunk_pair_tight_lambda(self):
        report = perturbation_bound(shrunk_pair(), 0.2, 0.0)
        assert report.passed
        assert report.constants["hypothesis_max"] == pytest.approx(0.0, abs=1e-12)
        assert report.constants["certified_chi_lower"] == pytest.approx(0.64, abs=1e-12)

    def test_shrunk_pair_lambda_too_small(self):
        report = perturbation_bound(shrunk_pair(), 0.1, 0.0)
        assert not report.passed
        assert report.constants["hypothesis_max"] == pytest.approx(0.1, abs=1e-12)

    def test_parameter_validation(self, e1):
        pair = PairSystem(e1, e1)
        with pytest.raises(ParameterError) as err:
            perturbation_bound(pair, 1.0, 0.0)
        assert err.value.parameter == "lambda1"
        with pytest.raises(ParameterError) as err:
            perturbation_bound(pair, 0.5, -1.0)
        assert err.value.parameter == "lambda2"
        # The parameter survives a pickle round trip, as out of a process pool.
        copy = pickle.loads(pickle.dumps(err.value))
        assert (str(copy), copy.parameter) == (str(err.value), "lambda2")

    def test_certified_bound_is_valid_on_random_pairs(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            pair = random_pair(rng, int(rng.integers(2, 5)), int(rng.integers(2, 4)))
            mixed = pair_frame_operator(pair).entries
            deviation = float(np.linalg.norm(np.eye(pair.ambient_dim) - mixed, 2))
            if deviation >= 1.0:
                continue
            report = perturbation_bound(pair, deviation, 0.0)
            assert report.passed
            assert report.residuals["lower_bound_excess"] <= 1e-9


class TestSymmetricPerturbation:
    def test_identity_pair(self, e1):
        report = symmetric_perturbation(PairSystem(e1, e1), 0.0)
        assert report.passed
        assert report.constants["certified_chi_lower"] == pytest.approx(1.0, abs=1e-12)
        assert report.constants["certified_xi_lower"] == pytest.approx(1.0, abs=1e-12)

    def test_shrunk_pair(self):
        report = symmetric_perturbation(shrunk_pair(), 0.2)
        assert report.passed
        assert report.constants["deviation_norm"] == pytest.approx(0.2, abs=1e-12)
        assert report.constants["certified_chi_lower"] == pytest.approx(0.64, abs=1e-12)
        assert report.constants["certified_xi_lower"] == pytest.approx(0.64, abs=1e-12)

    def test_e2_e1_hypothesis_fails(self, e2, e1):
        report = symmetric_perturbation(PairSystem(e2, e1), 0.5)
        assert not report.passed
        assert report.constants["deviation_norm"] == pytest.approx(1.0, abs=1e-12)

    def test_parameter_validation(self, e1):
        pair = PairSystem(e1, e1)
        with pytest.raises(ParameterError) as err:
            symmetric_perturbation(pair, 1.0)
        assert err.value.parameter == "lam"
        with pytest.raises(ParameterError):
            symmetric_perturbation(pair, -0.1)

    def test_both_bounds_valid_when_met(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            pair = random_pair(rng, int(rng.integers(2, 5)), int(rng.integers(2, 4)))
            mixed = pair_frame_operator(pair).entries
            deviation = float(np.linalg.norm(np.eye(pair.ambient_dim) - mixed, 2))
            if deviation >= 1.0:
                continue
            report = symmetric_perturbation(pair, deviation)
            assert report.passed
            assert report.residuals["chi_bound_excess"] <= 1e-9
            assert report.residuals["xi_bound_excess"] <= 1e-9


class TestDefaultLambdas:
    """With no lambda given, both bounds take ||I - M|| and skip when it is not below 1."""

    def test_deviation_one_skips_both(self, e2, e1):
        pair = PairSystem(e2, e1)
        skipped = [perturbation_bound(pair), symmetric_perturbation(pair)]
        assert [report.notes for report in skipped] == [
            ("skipped: deviation 1 leaves no admissible lambda1 < 1",),
            ("skipped: ||I - S|| = 1 is not below 1",),
        ]
        for report in skipped:
            assert report.passed and report.provenance == SKIPPED
            assert report.residuals == report.constants == {}
            assert report.tolerances == {"tol": 1e-9}
        # A lambda2 given is still checked, even beside a default lambda1 that would skip.
        with pytest.raises(ParameterError):
            perturbation_bound(pair, lambda2=-2.0)

    def test_deviation_below_one_is_the_lambda(self, e1):
        pair = PairSystem(e1, e1.with_weights(np.array([0.8, 1.0])))
        deviation = float(np.linalg.norm(np.eye(2) - pair_frame_operator(pair).entries, 2))
        assert deviation == pytest.approx(0.2, abs=1e-15)
        assert perturbation_bound(pair) == perturbation_bound(pair, deviation, 0.0)
        assert symmetric_perturbation(pair) == symmetric_perturbation(pair, deviation)


class TestPairValidation:
    def test_node_mismatch(self, e1):
        other = make_system(
            2,
            bases=[[[1.0], [0.0]], [[0.0], [1.0]]],
            local_maps=[[[1.0]], [[1.0]]],
            weights=[1.0, 1.0],
            masses=[1.0, 2.0],
        )
        with pytest.raises(ShapeError):
            PairSystem(e1, other)

    def test_mixed_operator_not_symmetrized(self):
        chi = make_e2()
        xi = make_system(
            2,
            bases=[[[1.0], [0.0]], [[1.0 / np.sqrt(2)], [1.0 / np.sqrt(2)]]],
            local_maps=[[[1.0]], [[1.0]]],
            weights=[1.0, 1.0],
        )
        mixed = pair_frame_operator(PairSystem(chi, xi)).entries
        assert np.abs(mixed - mixed.T).max() > 0.1


def certificate_pairs(rng, count):
    """Random pairs, plus pairs (chi, c chi) whose two Bessel bounds differ by c^2."""
    for _ in range(count):
        n, nodes = int(rng.integers(2, 6)), int(rng.integers(1, 6))
        yield random_pair(rng, n, nodes)
        chi = random_system(rng, n, nodes, ensure_frame=True)
        chi = chi.with_weights(chi.weights / np.sqrt(frame_bounds(chi).upper))
        chi = chi.with_weights(chi.weights * np.exp(rng.uniform(-1.5, 1.5)))
        yield PairSystem(chi, chi.with_weights(chi.weights * np.exp(rng.uniform(-1.5, 1.5))))


class TestCertifiedLowerBounds:
    def test_certificates_never_exceed_spectral_bounds(self):
        rng = np.random.default_rng(45)
        checked = {"chi": 0, "xi": 0}
        for pair in certificate_pairs(rng, 150):
            mixed = pair_frame_operator(pair).entries
            deviation = float(np.linalg.norm(np.eye(pair.ambient_dim) - mixed, 2))
            reports = [bounded_below_analysis(pair)]
            if deviation < 1.0:
                reports.append(perturbation_bound(pair, deviation, 0.0))
                reports.append(perturbation_bound(pair, deviation, 0.5))
                reports.append(symmetric_perturbation(pair, deviation))
            for report in reports:
                for side in checked:
                    if f"certified_{side}_lower" not in report.constants:
                        continue
                    certified = report.constants[f"certified_{side}_lower"]
                    spectral = report.constants[f"spectral_{side}_lower"]
                    assert certified <= spectral + 1e-12 * max(1.0, spectral), (
                        report.name, side, certified, spectral)
                    checked[side] += 1
        assert checked["chi"] >= 200
        assert checked["xi"] >= 50
