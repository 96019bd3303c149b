import numpy as np
import pytest

from cgfusion import (
    ShapeError,
    SingularFrameOperatorError,
    analysis,
    assemble_frame_operator,
    canonical_dual,
    direct_sum_laws,
    direct_sum_system,
    frame_bounds,
    opnorm,
    parseval_residual,
    parsevalize,
    random_shared_weight_frames,
    random_system,
    synthesis,
)

import oracles
from conftest import make_e1, make_e2, make_system


def raw_args(system):
    """Masses, weights, bases and local maps, as the oracle takes them."""
    return (system.nodes.mu, system.weights, [sub.basis for sub in system.subspaces],
            [loc.entries for loc in system.local_maps])


class TestDirectSum:
    def test_e2_plus_e1(self, e2, e1):
        ds = direct_sum_system(e2, e1)
        np.testing.assert_allclose(
            assemble_frame_operator(ds).entries,
            np.diag([4.0, 1.0, 1.0, 1.0]),
            atol=1e-14,
        )
        bounds = frame_bounds(ds)
        assert bounds.lower == pytest.approx(1.0, abs=1e-12)
        assert bounds.upper == pytest.approx(4.0, abs=1e-12)

    def test_e1_plus_e1_is_parseval(self, e1):
        ds = direct_sum_system(e1, make_e1())
        np.testing.assert_allclose(
            assemble_frame_operator(ds).entries, np.eye(4), atol=1e-14
        )
        assert frame_bounds(ds).classification == "parseval"

    def test_e2_plus_e2(self, e2):
        ds = direct_sum_system(e2, make_e2())
        np.testing.assert_allclose(
            assemble_frame_operator(ds).entries,
            np.diag([4.0, 1.0, 4.0, 1.0]),
            atol=1e-14,
        )

    def test_node_mismatch_rejected(self, e1):
        other = make_system(
            2,
            bases=[[[1.0], [0.0]], [[0.0], [1.0]]],
            local_maps=[[[1.0]], [[1.0]]],
            weights=[1.0, 1.0],
            masses=[1.0, 2.0],
        )
        with pytest.raises(ShapeError):
            direct_sum_system(e1, other)

    def test_weight_mismatch_folds_into_local_maps(self, e1, e2):
        # combined carries e1's unit weights; e2's weights surface in the maps
        ds = direct_sum_system(e1, e2)
        np.testing.assert_allclose(ds.weights, [1.0, 1.0])
        np.testing.assert_allclose(
            assemble_frame_operator(ds).entries,
            np.diag([1.0, 1.0, 4.0, 1.0]),
            atol=1e-14,
        )

    def test_block_structure_invariant(self):
        rng = np.random.default_rng(51)
        chi, xi = random_shared_weight_frames(rng, 3, 4, 3)
        n = chi.ambient_dim
        ds = direct_sum_system(chi, xi)
        for lam, m_left in zip(ds.effective_maps, chi.codomain_dims):
            assert not lam[:m_left, n:].any()
            assert not lam[m_left:, :n].any()

    def test_blockdiag_and_minmax_laws_random(self):
        rng = np.random.default_rng(52)
        for _ in range(10):
            chi, xi = random_shared_weight_frames(
                rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)), int(rng.integers(2, 5))
            )
            ds = direct_sum_system(chi, xi)
            s = assemble_frame_operator(ds).entries
            block = np.zeros_like(s)
            block[: chi.ambient_dim, : chi.ambient_dim] = assemble_frame_operator(chi).entries
            block[chi.ambient_dim :, chi.ambient_dim :] = assemble_frame_operator(xi).entries
            assert opnorm(s - block) <= 1e-10
            b_chi, b_xi, b_sum = frame_bounds(chi), frame_bounds(xi), frame_bounds(ds)
            assert b_sum.lower == pytest.approx(min(b_chi.lower, b_xi.lower), abs=1e-9)
            assert b_sum.upper == pytest.approx(max(b_chi.upper, b_xi.upper), abs=1e-9)

    def test_direct_sum_laws_match_oracle(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            chi, xi = random_shared_weight_frames(
                rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)), int(rng.integers(2, 5))
            )
            ds, laws = direct_sum_laws(chi, xi)
            block = oracles.block_diagonal(
                oracles.frame_operator(*raw_args(chi)), oracles.frame_operator(*raw_args(xi))
            )
            assert laws.passed
            assert max(laws.residuals.values()) <= 1e-12
            assert opnorm(assemble_frame_operator(ds).entries - block) <= 1e-12
            lower, upper = oracles.spectral_bounds(block)
            assert laws.constants["lower"] == pytest.approx(lower, abs=1e-12)
            assert laws.constants["upper"] == pytest.approx(upper, abs=1e-12)


class TestParsevalize:
    def test_e1_unchanged(self, e1):
        flat = parsevalize(e1)
        np.testing.assert_allclose(
            assemble_frame_operator(flat).entries, np.eye(2), atol=1e-12
        )
        for old, new in zip(e1.subspaces, flat.subspaces):
            np.testing.assert_allclose(old.projector(), new.projector(), atol=1e-12)

    def test_e2_becomes_parseval(self, e2):
        flat = parsevalize(e2)
        np.testing.assert_allclose(
            assemble_frame_operator(flat).entries, np.eye(2), atol=1e-12
        )
        # effective maps pick up the inverse root: rows (1/2, 0) and (0, 1)
        np.testing.assert_allclose(flat.effective_maps[0], [[0.5, 0.0]], atol=1e-12)
        np.testing.assert_allclose(flat.effective_maps[1], [[0.0, 1.0]], atol=1e-12)

    def test_direct_sum_parsevalizes(self, e2, e1):
        ds = direct_sum_system(e2, e1)
        flat = parsevalize(ds)
        np.testing.assert_allclose(
            assemble_frame_operator(flat).entries, np.eye(4), atol=1e-12
        )

    def test_rejects_non_frame(self, single_node):
        with pytest.raises(SingularFrameOperatorError):
            parsevalize(single_node)

    def test_ill_conditioned_frame(self):
        # S = diag(1e13, 1/2): kappa = 2e13 is past the 1e-12 rank cut, and
        # the small eigenvalue must still be inverted, not cut to 0.
        e = np.eye(2)
        system = make_system(2, [e[:, :1], e[:, 1:]], [[[np.sqrt(1e13)]], [[np.sqrt(0.5)]]],
                             [1.0, 1.0])
        assert parseval_residual(parsevalize(system)) <= 1e-12

    def test_parseval_residual(self, e1, e2):
        assert parseval_residual(e1) == 0.0
        assert parseval_residual(e2) == pytest.approx(3.0, rel=1e-15)
        assert parseval_residual(parsevalize(e2)) <= 1e-12

    def test_random_frames(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            system = random_system(rng, int(rng.integers(2, 9)), int(rng.integers(2, 6)),
                                   ensure_frame=True)
            flat = parsevalize(system)
            residual = opnorm(
                assemble_frame_operator(flat).entries - np.eye(system.ambient_dim)
            )
            assert residual <= 1e-8


class TestCanonicalDual:
    def test_e1_self_dual(self, e1):
        dual, report = canonical_dual(e1)
        assert report.passed
        np.testing.assert_allclose(
            assemble_frame_operator(dual).entries, np.eye(2), atol=1e-12
        )

    def test_e2_dual_operator(self, e2):
        dual, report = canonical_dual(e2)
        assert report.passed
        np.testing.assert_allclose(
            assemble_frame_operator(dual).entries, np.diag([0.25, 1.0]), atol=1e-12
        )
        assert report.constants["dual_lower"] == pytest.approx(0.25, abs=1e-12)
        assert report.constants["dual_upper"] == pytest.approx(1.0, abs=1e-12)

    def test_direct_sum_dual(self, e2, e1):
        ds = direct_sum_system(e2, e1)
        dual, report = canonical_dual(ds)
        assert report.passed
        np.testing.assert_allclose(
            assemble_frame_operator(dual).entries,
            np.diag([0.25, 1.0, 1.0, 1.0]),
            atol=1e-12,
        )

    def test_rejects_non_frame(self, single_node):
        with pytest.raises(SingularFrameOperatorError):
            canonical_dual(single_node)

    def test_dual_laws_random(self):
        rng = np.random.default_rng(54)
        for _ in range(10):
            system = random_system(rng, int(rng.integers(2, 9)), int(rng.integers(2, 6)),
                                   ensure_frame=True)
            s = assemble_frame_operator(system).entries
            dual, report = canonical_dual(system)
            assert report.passed
            assert opnorm(assemble_frame_operator(dual).entries - np.linalg.inv(s)) <= 1e-8

    def test_mixed_reconstruction(self):
        # dual synthesis applied to original analysis reproduces the input
        rng = np.random.default_rng(55)
        for _ in range(10):
            system = random_system(rng, int(rng.integers(2, 7)), int(rng.integers(2, 5)),
                                   ensure_frame=True)
            dual, _ = canonical_dual(system)
            for _ in range(5):
                f = rng.standard_normal(system.ambient_dim)
                rebuilt = synthesis(dual, analysis(system, f))
                assert np.linalg.norm(rebuilt - f) <= 1e-7 * max(1.0, np.linalg.norm(f))
