"""Certificates do not depend on scale or on the basis.

Frames, tight frames and K-lower bounds are homogeneous notions: weights
times c make S into c^2 S, its optimal bounds into c^2 A and c^2 B and the
kgf constant into c^2 A*, and no property changes.  The library decides
them by two rules that read a scale it already computes: the rank rule
(an eigenvalue at most RANK_TOL times the largest is zero) and the
closeness rule (a residual passes within tol times the norm of the
operator it is measured in).  Reference values come from ``oracles``.
"""

import numpy as np
import pytest

from cgfusion import (
    Operator,
    PairSystem,
    atomic_equiv_check,
    canonical_dual,
    frame_bounds,
    kgf_check,
    kgf_lower_bound,
    pair_adjoint_and_norm,
    parsevalize,
    random_system,
    transform_shift,
)
from cgfusion.cli import main
from cgfusion.operators import ORDER_TOL
from cgfusion.sysio import save_system
from cgfusion.systems import KGF_SLACK, push_through

import oracles
from conftest import make_deficient_system, make_system, system_args

#: Weight factors c over [1e-6, 1e6]; S scales by c^2.
FACTORS = 10.0 ** np.arange(-6, 7)


def scaled(system, c):
    return system.with_weights(system.weights * c)


def orthogonal(rng, n):
    return np.linalg.qr(rng.standard_normal((n, n)))[0]


def oracle_bounds(system):
    return oracles.spectral_bounds(oracles.frame_operator(*system_args(system)))


def lines(weights, rng=None):
    """Coordinate lines of R^n with unit local maps: S = diag(weights^2), rotated by a
    seeded orthogonal matrix when ``rng`` is given."""
    n = len(weights)
    system = make_system(n, [np.eye(n)[:, i:i + 1] for i in range(n)], [[[1.0]]] * n,
                         weights)
    return system if rng is None else push_through(system, orthogonal(rng, n))


def labelled_corpus():
    """Systems of every label: parseval, tight, frame (one at kappa 1e8) and bessel-only."""
    rng = np.random.default_rng(33)
    corpus = [parsevalize(random_system(rng, 6, 4, ensure_frame=True)),
              lines([3.0, 3.0, 3.0]),
              lines([1.0, 1e-2, 1e-4], rng),
              make_deficient_system(rng, 5)]
    corpus += [random_system(rng, 4, 3, ensure_frame=True) for _ in range(4)]
    corpus += [random_system(rng, 5, 2) for _ in range(4)]
    return corpus


class TestLabels:
    def test_every_label_is_in_the_corpus(self):
        labels = {frame_bounds(system).classification for system in labelled_corpus()}
        assert labels == {"parseval", "tight", "frame", "bessel-only"}

    def test_unchanged_under_weight_scaling(self):
        # The one exception: parseval at c = 1 is tight at every other c.
        for system in labelled_corpus():
            label = frame_bounds(system).classification
            for c in FACTORS:
                want = "tight" if label == "parseval" and c != 1.0 else label
                assert frame_bounds(scaled(system, c)).classification == want, (label, c)

    def test_unchanged_under_an_orthogonal_change_of_basis(self):
        rng = np.random.default_rng(34)
        for system in labelled_corpus():
            for c in (1e-6, 1.0, 1e4):
                base = scaled(system, c)
                turned = push_through(base, orthogonal(rng, system.ambient_dim))
                assert (frame_bounds(turned).classification
                        == frame_bounds(base).classification), c

    def test_a_parseval_frame_scaled_far_is_tight(self):
        base = parsevalize(random_system(np.random.default_rng(0), 6, 4, ensure_frame=True))
        for c in (1e-10, 1e7):
            system = scaled(base, np.sqrt(c))
            assert frame_bounds(system).classification == "tight"
            np.testing.assert_allclose(oracle_bounds(system), [c, c], rtol=1e-12)

    def test_atomic_past_the_rank_rule_is_not_a_frame(self, tmp_path, capsys):
        # S = diag(1e13, 1/2): its lower bound is below 1e-12 of its upper one.
        e = np.eye(2)
        system = make_system(2, [e[:, :1], e[:, 1:]], [[[np.sqrt(1e13)]], [[np.sqrt(0.5)]]],
                             [1.0, 1.0])
        np.testing.assert_allclose(oracle_bounds(system), [0.5, 1e13], rtol=1e-15)
        path = tmp_path / "ill.json"
        save_system(system, path)
        assert main(["atomic", str(path)]) == 1
        assert "not a frame" in capsys.readouterr().err


class TestKgfScale:
    def test_lower_bound_scales_as_c_squared(self):
        rng = np.random.default_rng(35)
        for _ in range(8):
            system = random_system(rng, 4, 3, ensure_frame=True)
            k = Operator(rng.standard_normal((4, 4)))
            s = oracles.frame_operator(*system_args(system))
            expected = oracles.best_lower_constant(
                s, k.entries, KGF_SLACK * ORDER_TOL * oracles.spectral_bounds(s)[1])
            for c in FACTORS:
                got = kgf_lower_bound(scaled(system, c), k)
                assert got == pytest.approx(c**2 * expected, rel=1e-12, abs=0), c

    def test_check_certifies_the_lower_bound_at_weights_times_1e3(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            system = scaled(random_system(rng, 4, 3, ensure_frame=True), 1e3)
            k = Operator(rng.standard_normal((4, 4)))
            assert kgf_check(system, k, kgf_lower_bound(system, k)).holds, seed

    def test_outside_the_range_is_zero_at_every_scale(self):
        # K = I or an orthogonal K on a Bessel-only system: only the slack makes A positive.
        rng = np.random.default_rng(36)
        for n in (3, 5, 8):
            system = make_deficient_system(rng, n)
            for k in (np.eye(n), orthogonal(rng, n)):
                for c in FACTORS:
                    assert kgf_lower_bound(scaled(system, c), Operator(k)) == 0.0, (n, c)
                # Both faces of atomicity then agree: K is not atomic for the system.
                assert atomic_equiv_check(system, Operator(k)).passed, n


class TestDualScale:
    def test_bounds_are_the_reciprocals_at_every_scale(self):
        # The last frame has kappa 9: at weights x 1e-4 and 1e-6 the absolute
        # tolerance failed its dual and then called it no frame.
        rng = np.random.default_rng(37)
        frames = [random_system(rng, 4, 3, ensure_frame=True) for _ in range(3)]
        for system in frames + [lines([3.0, 1.0], rng)]:
            for c in FACTORS:
                frame = scaled(system, c)
                lower, upper = oracle_bounds(frame)
                dual, report = canonical_dual(frame)
                assert report.passed, c
                bounds = frame_bounds(dual)
                np.testing.assert_allclose([bounds.lower, bounds.upper],
                                           [1.0 / upper, 1.0 / lower], rtol=1e-9)

    @pytest.mark.parametrize("kappa", [2e3, 1e5, 2e6])
    def test_ill_conditioned_frames_pass(self, kappa):
        rng = np.random.default_rng(38)
        for _ in range(5):
            system = lines(np.sqrt(np.geomspace(0.1, 0.1 / kappa, 5)), rng)
            lower, upper = oracle_bounds(system)
            assert upper / lower == pytest.approx(kappa, rel=1e-6)
            assert canonical_dual(system)[1].passed


class TestPairAndShiftScale:
    def test_self_pair_norm_at_weights_times_1e3(self):
        for seed in range(100):
            system = scaled(random_system(np.random.default_rng(seed), 4, 3,
                                          ensure_frame=True), 1e3)
            assert pair_adjoint_and_norm(PairSystem(system, system)).passed, seed

    def test_a_large_positive_shift_is_accepted(self):
        system = random_system(np.random.default_rng(1), 4, 3, ensure_frame=True)
        for seed in range(100):
            g = np.random.default_rng(seed).standard_normal((4, 2))
            for c in (1e-6, 1.0, 1e8):
                assert transform_shift(system, Operator(c * g @ g.T))[1].passed, (seed, c)
