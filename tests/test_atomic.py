import numpy as np
import pytest

from cgfusion import (
    HypothesisNotMetError,
    NotPositiveError,
    Operator,
    RangeInclusionError,
    ShapeError,
    SingularFrameOperatorError,
    assemble_frame_operator,
    atomic_decompose,
    atomic_equiv_check,
    atomic_wrt_frame_operator,
    decomposition_operator,
    frame_bounds,
    kgf_lower_bound,
    random_positive_operator,
    random_system,
    synthesis,
    transform_combined,
    transform_shift,
    weighted_norm,
)

import oracles
from conftest import make_system


def ident(n=2):
    return Operator.identity(n)


def padded_half_systems():
    """Two systems on shared coordinate-line geometry, one live node each.

    The dead node carries a zero local map, so the cross synthesis of the
    pair vanishes identically.
    """
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
    return chi, xi


class TestAtomicDecompose:
    def test_e2_frame_operator_decomposition(self, e2):
        k = assemble_frame_operator(e2)
        phi, c = atomic_decompose(e2, k, np.array([1.0, 0.0]))
        np.testing.assert_allclose(phi.blocks[0], [2.0], atol=1e-13)
        np.testing.assert_allclose(phi.blocks[1], [0.0], atol=1e-13)
        assert c == pytest.approx(2.0, abs=1e-12)
        # the norm constant is attained at e1
        assert weighted_norm(phi, e2.nodes) == pytest.approx(2.0, abs=1e-13)
        blocks = oracles.minimal_norm_field(
            *oracles.system_args(oracles.E2), target=k.entries @ np.array([1.0, 0.0])
        )
        for got, expected in zip(phi.blocks, blocks):
            np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_e1_identity_is_reproducing(self, e1):
        phi, c = atomic_decompose(e1, ident(), np.array([3.0, 4.0]))
        np.testing.assert_allclose(phi.blocks[0], [3.0], atol=1e-13)
        np.testing.assert_allclose(phi.blocks[1], [4.0], atol=1e-13)
        assert c == pytest.approx(1.0, abs=1e-12)

    def test_out_of_range_raises(self, single_node):
        k = Operator(np.diag([0.0, 1.0]))
        with pytest.raises(RangeInclusionError):
            atomic_decompose(single_node, k, np.array([0.0, 1.0]))

    def test_reconstructs_on_random_frames(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            system = random_system(rng, int(rng.integers(2, 7)), int(rng.integers(2, 5)),
                                   ensure_frame=True)
            n = system.ambient_dim
            k = Operator(assemble_frame_operator(system).entries @ rng.standard_normal((n, n)))
            for _ in range(10):
                f = rng.standard_normal(n)
                phi, c = atomic_decompose(system, k, f)
                kf = k.apply(f)
                assert np.linalg.norm(synthesis(system, phi) - kf) <= 1e-8 * max(
                    1.0, np.linalg.norm(kf)
                )
                assert weighted_norm(phi, system.nodes) <= (c + 1e-8) * np.linalg.norm(f)


class TestAtomicEquivCheck:
    def test_e2_identity(self, e2):
        report = atomic_equiv_check(e2, ident(), 1e-9)
        assert report.passed
        assert report.constants["a_star"] == pytest.approx(1.0, abs=1e-6)
        assert report.constants["c"] == pytest.approx(1.0, abs=1e-9)

    def test_single_node_matched_comparison(self, single_node):
        report = atomic_equiv_check(single_node, Operator(np.diag([1.0, 0.0])), 1e-9)
        assert report.passed
        assert report.constants["a_star"] == pytest.approx(1.0, abs=1e-6)

    def test_single_node_identity_is_doubly_false(self, single_node):
        report = atomic_equiv_check(single_node, ident(), 1e-9)
        assert report.passed
        assert report.constants["a_star"] == pytest.approx(0.0, abs=1e-6)
        assert any("fails" in note for note in report.notes)

    def test_zero_comparison_is_vacuous(self, e2):
        report = atomic_equiv_check(e2, Operator.zeros(2, 2), 1e-9)
        assert report.passed
        assert any("vacuous" in note for note in report.notes)

    def test_quantitative_link_on_random_frames(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            system = random_system(rng, int(rng.integers(2, 7)), int(rng.integers(2, 5)),
                                   ensure_frame=True)
            n = system.ambient_dim
            k = Operator(assemble_frame_operator(system).entries @ rng.standard_normal((n, n)))
            report = atomic_equiv_check(system, k, 1e-9)
            assert report.passed
            c = report.constants["c"]
            a_star = report.constants["a_star"]
            if c > 0:
                assert 1.0 / c**2 <= a_star + 1e-6


class TestAtomicWrtFrameOperator:
    def test_e1(self, e1):
        report = atomic_wrt_frame_operator(e1)
        assert report.passed
        assert report.constants["a_star"] == pytest.approx(1.0, abs=1e-6)

    def test_e2(self, e2):
        report = atomic_wrt_frame_operator(e2)
        assert report.passed
        # S >= a S^2 holds exactly up to a = 1 / lmax(S)
        assert report.constants["a_star"] == pytest.approx(0.25, abs=1e-6)

    def test_bessel_only_rejected(self, single_node):
        with pytest.raises(SingularFrameOperatorError):
            atomic_wrt_frame_operator(single_node)


class TestTransformCombined:
    def test_identity_recombination(self, e1):
        chi, xi = padded_half_systems()
        half = Operator(0.5 * np.eye(2))
        combined, _ = transform_combined(chi, xi, half, half, ident(), 1e-9)
        np.testing.assert_allclose(
            assemble_frame_operator(combined).entries, np.eye(2), atol=1e-12
        )
        bounds = frame_bounds(combined)
        assert (bounds.lower, bounds.upper) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_scaling_transform(self):
        chi, xi = padded_half_systems()
        combined, _ = transform_combined(chi, xi, ident(), ident(), ident(), 1e-9)
        bounds = frame_bounds(combined)
        assert bounds.lower == pytest.approx(4.0, abs=1e-12)
        assert bounds.upper == pytest.approx(4.0, abs=1e-12)

    def test_singular_sum_rejected(self):
        chi, xi = padded_half_systems()
        with pytest.raises(HypothesisNotMetError) as excinfo:
            transform_combined(chi, xi, Operator(np.diag([1.0, 0.0])), Operator.zeros(2, 2),
                               ident(), 1e-9)
        assert excinfo.value.condition == "invertibility"

    def test_cross_synthesis_must_vanish(self, e1):
        with pytest.raises(HypothesisNotMetError) as excinfo:
            transform_combined(e1, e1, ident(), ident(), ident(), 1e-9)
        assert excinfo.value.condition == "vanishing_cross_synthesis"

    def test_commutation_required(self):
        chi, xi = padded_half_systems()
        k = Operator(np.array([[0.0, 1.0], [0.0, 0.0]]))
        m_half = Operator(np.diag([0.5, 1.5]))
        with pytest.raises(HypothesisNotMetError) as excinfo:
            transform_combined(chi, xi, m_half, m_half, k, 1e-9)
        assert excinfo.value.condition == "commutation"

    def test_weight_mismatch_detected(self):
        chi, xi = padded_half_systems()
        with pytest.raises(HypothesisNotMetError) as excinfo:
            transform_combined(chi, xi.with_weights(np.array([2.0, 1.0])), ident(), ident(),
                               ident(), 1e-9)
        assert excinfo.value.condition == "shared_weights"

    @pytest.mark.parametrize("xi_args, condition, message", [
        ((3, [[[1.0], [0.0], [0.0]], [[0.0], [1.0], [0.0]]], [[[0.0]], [[1.0]]], [1.0, 1.0]),
         "shared_nodes", "ambient dimensions differ"),
        ((2, [[[1.0], [0.0]], [[0.0], [1.0]]], [[[0.0]], [[1.0]]], [1.0, 1.0], None, ("a", "b")),
         "shared_nodes", "systems live on different nodes"),
        ((2, [[[1.0], [0.0]], [[0.0], [1.0]]], [[[0.0]], [[1.0]]], [1.0, 1.0], [1.0, 2.0]),
         "shared_nodes", "systems live on different nodes"),
        ((2, [[[1.0], [0.0]], [[0.0], [1.0]]], [[[0.0]], [[1.0], [0.0]]], [1.0, 1.0]),
         "matching_codomains", "local codomain dimensions differ"),
        ((2, [[[0.0], [1.0]], [[1.0], [0.0]]], [[[0.0]], [[1.0]]], [1.0, 1.0]),
         "shared_subspaces", "subspaces differ at node n0"),
    ], ids=["ambient-dim", "node-ids", "masses", "codomains", "subspaces"])
    def test_geometry_mismatch_names_the_condition(self, xi_args, condition, message):
        chi, _ = padded_half_systems()
        with pytest.raises(HypothesisNotMetError) as excinfo:
            transform_combined(chi, make_system(*xi_args), ident(), ident(), ident(), 1e-9)
        assert excinfo.value.condition == condition
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("name", ["L", "G", "K"])
    def test_operator_shape_is_checked(self, name):
        chi, xi = padded_half_systems()
        ops = {"L": ident(), "G": ident(), "K": ident()}
        ops[name] = ident(3)
        with pytest.raises(ShapeError, match=f"^{name} must be 2x2, got 3x3$"):
            transform_combined(chi, xi, ops["L"], ops["G"], ops["K"], 1e-9)

    def test_lower_bound_survives_transform(self):
        rng = np.random.default_rng(33)
        for _ in range(5):
            chi, xi = padded_half_systems()
            scale = float(rng.uniform(0.5, 2.0))
            m_half = Operator(scale * 0.5 * np.eye(2))
            combined, report = transform_combined(chi, xi, m_half, m_half, ident(), 1e-9)
            a_chi = kgf_lower_bound(chi, ident(), 1e-9)
            sigma_min = scale
            a_new = kgf_lower_bound(combined, ident(), 1e-9)
            assert a_new >= a_chi * sigma_min**2 - 1e-9
            assert report.passed
            assert (report.constants["a_chi"], report.constants["a_new"]) == (a_chi, a_new)
            assert report.constants["sigma_min"] == pytest.approx(sigma_min, rel=1e-15)

    def test_non_diagonal_geometry_conjugates_frame_operator(self):
        # node-disjoint halves on random lines: zero cross synthesis, so the
        # combined frame operator must equal M (S_chi + S_xi) M^T
        rng = np.random.default_rng(35)
        for _ in range(5):
            n = 3
            bases = []
            for _ in range(4):
                v = rng.standard_normal((n, 1))
                bases.append(v / np.linalg.norm(v))
            weights = rng.uniform(0.5, 2.0, 4)
            masses = rng.uniform(0.5, 2.0, 4)
            chi = make_system(n, bases, [[[1.0]], [[0.0]], [[1.0]], [[0.0]]],
                              weights, masses)
            xi = make_system(n, bases, [[[0.0]], [[1.0]], [[0.0]], [[1.0]]],
                             weights, masses)
            # xi on the same lines with bases -1 times chi's: its maps must be
            # carried into chi's coordinates before the push-through
            xi_flipped = make_system(n, [-b for b in bases],
                                     [[[0.0]], [[1.0]], [[0.0]], [[1.0]]], weights, masses)
            a = rng.standard_normal((n, n))
            m = a @ a.T / n + 0.5 * np.eye(n)
            half = Operator(m / 2)
            for other in (xi, xi_flipped):
                combined, _ = transform_combined(chi, other, half, half, Operator(m), 1e-9)
                expected = m @ (
                    assemble_frame_operator(chi).entries + assemble_frame_operator(other).entries
                ) @ m.T
                residual = np.linalg.norm(
                    assemble_frame_operator(combined).entries - expected, 2
                )
                assert residual <= 1e-12
                np.testing.assert_allclose(
                    combined.stacked, (chi.stacked + other.stacked) @ m.T, rtol=0.0, atol=1e-12
                )


class TestTransformShift:
    def test_zero_shift_is_identity(self, e2):
        shifted, report = transform_shift(e2, Operator.zeros(2, 2))
        assert report.passed
        np.testing.assert_allclose(
            assemble_frame_operator(shifted).entries,
            assemble_frame_operator(e2).entries,
            atol=1e-12,
        )

    def test_unit_shift_quadruples(self, e1):
        shifted, report = transform_shift(e1, ident())
        assert report.passed
        np.testing.assert_allclose(
            assemble_frame_operator(shifted).entries, 4.0 * np.eye(2), atol=1e-12
        )

    def test_partial_shift_hand_value(self, e2):
        shifted, report = transform_shift(e2, Operator(np.diag([1.0, 0.0])))
        assert report.passed
        np.testing.assert_allclose(
            assemble_frame_operator(shifted).entries, np.diag([16.0, 1.0]), atol=1e-12
        )

    def test_negative_shift_rejected(self, e2):
        with pytest.raises(NotPositiveError):
            transform_shift(e2, Operator(np.diag([-1.0, 0.0])))

    def test_asymmetric_shift_rejected(self, e2):
        with pytest.raises(NotPositiveError):
            transform_shift(e2, Operator(np.array([[0.0, 1.0], [0.0, 0.0]])))

    def test_conjugation_identity_on_random_pairs(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            system = random_system(rng, int(rng.integers(2, 7)), int(rng.integers(2, 5)),
                                   ensure_frame=True)
            shift = random_positive_operator(rng, system.ambient_dim)
            _, report = transform_shift(system, shift, 1e-8)
            assert report.passed
            assert report.residuals["conjugation_residual"] <= 1e-8


class TestDecompositionOperator:
    def test_operator_shape_check(self, e2):
        with pytest.raises(ShapeError):
            decomposition_operator(e2, Operator.zeros(3, 3))

    def test_range_defect_detects_deficiency(self, single_node):
        cert = decomposition_operator(single_node, ident())
        assert cert.range_defect == pytest.approx(1.0, abs=1e-12)
        cert_ok = decomposition_operator(single_node, Operator(np.diag([1.0, 0.0])))
        assert cert_ok.range_defect <= 1e-12
