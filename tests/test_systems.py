import tracemalloc

import numpy as np
import pytest

from cgfusion import (
    CoefficientField,
    DegenerateKError,
    SingularFrameOperatorError,
    MeasureNodes,
    Operator,
    PairSystem,
    ShapeError,
    Subspace,
    adjoint_consistency,
    analysis,
    assemble_frame_operator,
    atomic_wrt_frame_operator,
    bounded_below_analysis,
    canonical_dual,
    canonical_resolution,
    dumps_canonical,
    frame_bounds,
    kgf_check,
    kgf_lower_bound,
    pair_adjoint_and_norm,
    pair_frame_operator,
    parseval_residual,
    parsevalize,
    pinv,
    positive_sqrt,
    random_positive_operator,
    random_system,
    require_frame,
    symmetric_perturbation,
    synthesis,
    system_to_document,
    transform_shift,
    validate_nodes,
    verify_resolution,
    weighted_gram,
)
from cgfusion import measure, systems
from cgfusion.operators import _positive_qr
from cgfusion.systems import (
    KGF_SLACK,
    GFusionSystem,
    _adjoint_mismatch,
    _frame_operator_power,
    push_through,
)

import oracles
from conftest import (
    make_deficient_system,
    make_e1,
    make_e2,
    make_single_node,
    make_system,
    make_wide_system,
)


class TestFrameOperator:
    def test_e1_is_identity(self, e1):
        np.testing.assert_allclose(assemble_frame_operator(e1).entries, np.eye(2), atol=1e-15)

    def test_e2_matches_direct_assembly(self, e2):
        s = assemble_frame_operator(e2).entries
        np.testing.assert_allclose(s, np.diag([4.0, 1.0]), atol=1e-15)
        np.testing.assert_allclose(s, oracles.frame_operator(*oracles.system_args(oracles.E2)))

    def test_single_node_rank_deficient(self, single_node):
        np.testing.assert_allclose(
            assemble_frame_operator(single_node).entries, np.diag([1.0, 0.0]), atol=1e-15
        )

    def test_symmetry_and_psd_on_random_systems(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            system = random_system(rng, int(rng.integers(2, 9)), int(rng.integers(1, 6)))
            s = assemble_frame_operator(system).entries
            assert np.abs(s - s.T).max() <= 1e-10
            assert np.linalg.eigvalsh(s)[0] >= -1e-9


class TestAnalysisSynthesis:
    def test_e1_analysis_reads_coordinates(self, e1):
        phi = analysis(e1, [3.0, 4.0])
        np.testing.assert_allclose(phi.blocks[0], [3.0])
        np.testing.assert_allclose(phi.blocks[1], [4.0])

    def test_e2_analysis_scales_by_weight(self, e2):
        phi = analysis(e2, [1.0, 1.0])
        np.testing.assert_allclose(phi.blocks[0], [2.0])
        np.testing.assert_allclose(phi.blocks[1], [1.0])

    def test_zero_vector_gives_zero_field(self, e2):
        phi = analysis(e2, [0.0, 0.0])
        assert all(np.all(b == 0) for b in phi.blocks)

    def test_e1_synthesis(self, e1):
        out = synthesis(e1, CoefficientField((np.array([3.0]), np.array([4.0]))))
        np.testing.assert_allclose(out, [3.0, 4.0])

    def test_e2_synthesis(self, e2):
        out = synthesis(e2, CoefficientField((np.array([2.0]), np.array([1.0]))))
        np.testing.assert_allclose(out, [4.0, 1.0])

    def test_zero_field_synthesizes_to_zero(self, e2):
        out = synthesis(e2, CoefficientField((np.zeros(1), np.zeros(1))))
        np.testing.assert_allclose(out, np.zeros(2))

    def test_shape_errors(self, e2):
        with pytest.raises(ShapeError):
            analysis(e2, [1.0, 2.0, 3.0])
        with pytest.raises(ShapeError):
            synthesis(e2, CoefficientField((np.zeros(2), np.zeros(1))))

    def test_composition_equals_frame_operator(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            system = random_system(rng, int(rng.integers(2, 9)), int(rng.integers(1, 6)))
            s = assemble_frame_operator(system).entries
            for _ in range(5):
                f = rng.standard_normal(system.ambient_dim)
                composed = synthesis(system, analysis(system, f))
                assert np.linalg.norm(s @ f - composed) <= 1e-9 * max(1.0, np.linalg.norm(f))


class TestFrameBounds:
    def test_e1_parseval(self, e1):
        bounds = frame_bounds(e1)
        assert (bounds.lower, bounds.upper, bounds.classification) == (1.0, 1.0, "parseval")

    def test_e2_frame(self, e2):
        bounds = frame_bounds(e2)
        assert bounds.classification == "frame"
        assert bounds.lower == pytest.approx(1.0, abs=1e-12)
        assert bounds.upper == pytest.approx(4.0, abs=1e-12)

    def test_single_node_bessel_only(self, single_node):
        bounds = frame_bounds(single_node)
        assert bounds.classification == "bessel-only"
        assert bounds.lower == pytest.approx(0.0, abs=1e-12)
        assert bounds.upper == pytest.approx(1.0, abs=1e-12)

    def test_require_frame_rejects_bessel_only(self, single_node):
        with pytest.raises(SingularFrameOperatorError,
                           match=r"^not a frame: smallest frame-operator eigenvalue 0\.000e\+00$"):
            require_frame(single_node)

    def test_require_frame_returns_frame_bounds(self, e1, e2):
        rng = np.random.default_rng(14)
        frames = [e1, e2] + [random_system(rng, 4, 3, ensure_frame=True) for _ in range(5)]
        for system in frames:
            for tol in (1e-9, 1e-3):
                assert require_frame(system, tol) == frame_bounds(system, tol)

    def test_tight_classification(self):
        system = make_system(
            2,
            bases=[[[1.0], [0.0]], [[0.0], [1.0]]],
            local_maps=[[[1.0]], [[1.0]]],
            weights=[3.0, 3.0],
        )
        bounds = frame_bounds(system)
        assert bounds.classification == "tight"
        assert bounds.lower == pytest.approx(9.0, abs=1e-12)

    def test_bounds_are_attained_by_eigenvectors(self):
        rng = np.random.default_rng(6)
        for _ in range(15):
            system = random_system(rng, int(rng.integers(2, 9)), int(rng.integers(1, 6)))
            s = assemble_frame_operator(system).entries
            bounds = frame_bounds(system)
            _, vectors = np.linalg.eigh(s)
            low = float(vectors[:, 0] @ (s @ vectors[:, 0]))
            high = float(vectors[:, -1] @ (s @ vectors[:, -1]))
            assert low == pytest.approx(bounds.lower, abs=1e-9)
            assert high == pytest.approx(bounds.upper, abs=1e-9)

    def test_weight_scaling_squares(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            system = random_system(rng, 4, 3)
            scaled = system.with_weights(system.weights * 3.0)
            b0 = frame_bounds(system)
            b1 = frame_bounds(scaled)
            assert b1.lower == pytest.approx(9.0 * b0.lower, rel=1e-9, abs=1e-12)
            assert b1.upper == pytest.approx(9.0 * b0.upper, rel=1e-9, abs=1e-12)

    def test_orthonormal_local_maps_reduce_to_projections(self):
        rng = np.random.default_rng(10)
        n = 5
        bases, locals_, weights, masses = [], [], [], []
        for _ in range(4):
            k = int(rng.integers(1, n + 1))
            basis = np.linalg.qr(rng.standard_normal((n, k)))[0][:, :k]
            ortho = np.linalg.qr(rng.standard_normal((k, k)))[0]
            bases.append(basis)
            locals_.append(ortho)
            weights.append(rng.uniform(0.5, 2.0))
            masses.append(rng.uniform(0.5, 2.0))
        system = make_system(n, bases, locals_, weights, masses)
        expected = np.zeros((n, n))
        for mu, v, basis in zip(masses, weights, bases):
            expected += mu * v**2 * basis @ basis.T
        np.testing.assert_allclose(
            assemble_frame_operator(system).entries, expected, atol=1e-12
        )


class TestKgf:
    def test_identity_lower_bound_holds(self, e2):
        cert = kgf_check(e2, Operator.identity(2), 1.0)
        assert cert.holds
        assert cert.gap == pytest.approx(0.0, abs=1e-12)

    def test_identity_lower_bound_two_fails(self, e2):
        cert = kgf_check(e2, Operator.identity(2), 2.0)
        assert not cert.holds
        assert cert.gap == pytest.approx(-1.0, abs=1e-12)

    def test_rank_deficient_comparison(self, single_node):
        cert = kgf_check(single_node, Operator(np.diag([1.0, 0.0])), 1.0)
        assert cert.holds
        assert cert.gap == pytest.approx(0.0, abs=1e-12)

    def test_lower_bound_identity(self, e2):
        assert kgf_lower_bound(e2, Operator.identity(2), 1e-13) == pytest.approx(1.0, abs=1e-12)

    def test_lower_bound_exact_match(self, single_node):
        value = kgf_lower_bound(single_node, Operator(np.diag([1.0, 0.0])), 1e-13)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_lower_bound_scaled_identity(self, e1):
        value = kgf_lower_bound(e1, Operator(3.0 * np.eye(2)), 1e-13)
        assert value == pytest.approx(1.0 / 9.0, abs=1e-12)

    def test_lower_bound_agrees_with_closed_form(self):
        rng = np.random.default_rng(12)
        tol = 1e-12
        for _ in range(10):
            system = random_system(rng, 4, 4, ensure_frame=True)
            k = Operator(rng.standard_normal((4, 4)))
            s = assemble_frame_operator(system).entries
            expected = oracles.best_lower_constant(s, k.entries, KGF_SLACK * tol)
            assert kgf_lower_bound(system, k, tol) == pytest.approx(expected, rel=1e-12)

    def test_lower_bound_matches_frame_bound_for_identity(self):
        rng = np.random.default_rng(14)
        tol = 1e-9
        for _ in range(10):
            system = random_system(rng, 4, 4, ensure_frame=True)
            a_star = kgf_lower_bound(system, Operator.identity(4), tol)
            assert abs(a_star - frame_bounds(system).lower) <= 2 * tol

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    def test_lower_bound_certifies_itself(self, scale, tol):
        # kgf_check's tolerance is absolute and S grows as scale^2, so tol
        # grows with S: unscaled, tol = 1e-12 at ||S|| ~ 1e6 lies below the
        # eigensolver's roundoff, and deficient systems fail even at 0.
        rng = np.random.default_rng(16)
        tol *= scale**2
        for i in range(40):
            if i % 2:
                base = random_system(rng, int(rng.integers(2, 9)), int(rng.integers(1, 6)),
                                     ensure_frame=True)
            else:
                base = make_deficient_system(rng, int(rng.integers(4, 10)))
            system = base.with_weights(scale * base.weights)
            n = system.ambient_dim
            for k in (Operator.identity(n), Operator(rng.standard_normal((n, n)))):
                a_star = kgf_lower_bound(system, k, tol)
                assert kgf_check(system, k, a_star, tol).holds

    def test_zero_comparison_operator_degenerate(self, e2):
        with pytest.raises(DegenerateKError):
            kgf_lower_bound(e2, Operator.zeros(2, 2))

    def test_range_defect_forces_zero(self, single_node):
        assert kgf_lower_bound(single_node, Operator.identity(2), 1e-9) == pytest.approx(
            0.0, abs=1e-6
        )

    def test_shape_error(self, e2):
        with pytest.raises(ShapeError):
            kgf_check(e2, Operator.zeros(3, 3), 1.0)


class TestAdjointConsistency:
    def test_e1(self, e1):
        report = adjoint_consistency(e1, trials=100, seed=0)
        assert report.passed
        assert report.residuals["adjoint_mismatch"] <= 1e-12

    def test_e2(self, e2):
        assert adjoint_consistency(e2, trials=100, seed=0).passed

    def test_degenerate_empty_subspaces(self):
        nodes = MeasureNodes(("a", "b"), np.array([1.0, 2.0]))
        system = GFusionSystem(
            2,
            nodes,
            (Subspace.empty(2), Subspace.empty(2)),
            (Operator(np.zeros((1, 0))), Operator(np.zeros((2, 0)))),
            np.array([1.0, 1.0]),
        )
        report = adjoint_consistency(system, trials=20, seed=0)
        assert report.passed
        assert report.residuals["adjoint_mismatch"] == 0.0


class TestSystemValidation:
    def test_local_map_column_mismatch(self):
        with pytest.raises(ShapeError):
            make_system(2, bases=[[[1.0], [0.0]]], local_maps=[[[1.0, 0.0]]], weights=[1.0])

    def test_wrong_ambient_dim(self):
        nodes = MeasureNodes(("a",), np.array([1.0]))
        with pytest.raises(ShapeError):
            GFusionSystem(3, nodes, (Subspace.full(2),), (Operator.identity(2),), np.array([1.0]))

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            make_system(2, bases=[[[1.0], [0.0]]], local_maps=[[[1.0]]], weights=[0.0])

    def test_invalid_nodes_rejected(self):
        nodes = MeasureNodes(("a",), np.array([0.0]))
        with pytest.raises(ValueError):
            GFusionSystem(2, nodes, (Subspace.full(2),), (Operator.identity(2),), np.array([1.0]))

    def test_invalid_nodes_raise_at_every_construction(self):
        nodes = MeasureNodes(("a", "b", "a"), np.array([1.0, 0.0, 1.0]))
        subspaces, locals_ = (Subspace.full(2),) * 3, (Operator.identity(2),) * 3
        for _ in range(3):
            with pytest.raises(ValueError) as err:
                GFusionSystem(2, nodes, subspaces, locals_, np.ones(3))
            assert str(err.value) == (
                "invalid nodes: nonpositive mass at node(s): b; duplicate node id(s): a"
            )

    def test_nodes_validated_once_per_node_set(self, monkeypatch):
        built = random_system(np.random.default_rng(53), 4, 5, ensure_frame=True)
        calls = []

        def counted(nodes, weights=None):
            calls.append(nodes)
            return validate_nodes(nodes, weights)

        monkeypatch.setattr(measure, "validate_nodes", counted)
        nodes = MeasureNodes(built.nodes.ids, built.nodes.mu)
        system = GFusionSystem(4, nodes, built.subspaces, built.local_maps, built.weights)
        derived = [parsevalize(system), canonical_dual(system)[0],
                   transform_shift(system, Operator(0.5 * np.eye(4)))[0],
                   system.with_weights(2.0 * system.weights)]
        assert all(other.nodes is nodes for other in derived)
        assert len(calls) == 1 and calls[0] is nodes

    def test_effective_maps_factor_through_projection(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            system = random_system(rng, 5, 3)
            for lam, sub in zip(system.effective_maps, system.subspaces):
                np.testing.assert_allclose(lam, lam @ sub.projector(), atol=1e-10)

    def test_large_local_operator_on_a_nearly_orthonormal_basis(self):
        # Gram defect 8e-11, inside BASIS_TOL: the system loads at any scale
        # of the local operator, and its maps are exactly local_i basis_i^T.
        basis = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 2)))[0]
        basis[:, 0] *= 1.0 + 4e-11
        assert np.abs(basis.T @ basis - np.eye(2)).max() > 7e-11
        for scale in (1.0, 10.0, 1e6):
            loc = scale * np.eye(2)
            system = make_system(4, [basis], [loc], [1.0])
            np.testing.assert_array_equal(system.stacked, loc @ basis.T)


def random_raw_system(rng, n, count):
    """Oracle arguments and the system built from them; every third node is trivial."""
    masses = rng.uniform(0.5, 2.0, count)
    weights = rng.uniform(0.5, 2.0, count)
    bases, locals_ = [], []
    for i in range(count):
        k = 0 if i % 3 == 1 else int(rng.integers(1, n + 1))
        m = int(rng.integers(0, n + 1))
        bases.append(np.linalg.qr(rng.standard_normal((n, n)))[0][:, :k])
        locals_.append(rng.uniform(-1.0, 1.0, size=(m, k)))
    args = (masses, weights, bases, locals_)
    return args, make_system(n, bases, locals_, weights, masses)


class TestStackedCore:
    SHAPES = [(1, 1), (3, 1), (4, 2), (5, 4), (2, 7), (6, 9)]

    @pytest.mark.parametrize("n,count", SHAPES)
    def test_matches_oracle(self, n, count):
        rng = np.random.default_rng(100 * n + count)
        args, system = random_raw_system(rng, n, count)
        masses, weights, bases, locals_ = args
        np.testing.assert_allclose(
            assemble_frame_operator(system).entries,
            oracles.frame_operator(*args), rtol=0.0, atol=1e-12,
        )
        f = rng.standard_normal(n)
        blocks = oracles.analysis_blocks(weights, bases, locals_, f)
        for got, expected in zip(analysis(system, f).blocks, blocks, strict=True):
            np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)
        phi = [rng.standard_normal(m) for m in system.codomain_dims]
        np.testing.assert_allclose(
            synthesis(system, CoefficientField(tuple(phi))),
            oracles.synthesis_vector(masses, weights, bases, locals_, phi),
            rtol=0.0, atol=1e-12,
        )

    @pytest.mark.parametrize("n,count", SHAPES)
    def test_maps_are_read_only_views_of_the_stacked_matrix(self, n, count):
        rng = np.random.default_rng(200 * n + count)
        args, system = random_raw_system(rng, n, count)
        maps = [oracles.effective_map(b, x) for b, x in zip(args[2], args[3])]
        np.testing.assert_allclose(system.stacked, np.vstack(maps), rtol=0.0, atol=1e-15)
        assert [lam.shape for lam in system.effective_maps] == [m.shape for m in maps]
        with pytest.raises(ValueError):
            system.stacked[...] = 0.0
        for lam in system.effective_maps:
            assert lam.base is system.stacked
            with pytest.raises(ValueError):
                lam[...] = 0.0

    def test_frame_operator_is_cached(self):
        system = random_system(np.random.default_rng(17), 4, 3)
        assert assemble_frame_operator(system) is assemble_frame_operator(system)

    def test_spectrum_is_cached(self, linalg_calls):
        _, system = random_raw_system(np.random.default_rng(17), 4, 3)
        linalg_calls.clear()
        first = frame_bounds(system)
        assert linalg_calls == {"eigh": 1}
        second = frame_bounds(system, tol=1e-3)
        assert linalg_calls == {"eigh": 1}
        assert (second.lower, second.upper) == (first.lower, first.upper)

    @pytest.mark.parametrize("trials", [0, 1, 2, 3, 7, 100, 101])
    def test_adjoint_trials_and_roundoff(self, trials, monkeypatch):
        args, system = random_raw_system(np.random.default_rng(trials), 3, 5)
        report = adjoint_consistency(system, trials=trials, seed=trials)
        assert report.passed
        assert report.constants["trials"] == float(trials)
        assert report.residuals["adjoint_mismatch"] <= 1e-13
        assert oracles.adjoint_cross_mismatch(*args, trials, trials) <= 1e-13
        # Off the roundoff floor, the largest mismatch pins the probes and the r^2 pairs.
        expected = misweight_synthesis(monkeypatch, args)(trials, trials)
        assert expected > 1e-3
        got = adjoint_consistency(system, trials=trials, seed=trials).residuals
        assert got["adjoint_mismatch"] == pytest.approx(expected, rel=1e-12)


def misweight_synthesis(monkeypatch, args, factor=1.5):
    """Scale one live node's mass in synthesis only, so it is no longer adjoint to analysis.

    Returns the oracle mismatch of the broken pair as a function of (trials, seed).
    """
    masses, _, bases, locals_ = args
    node = next(i for i, (b, x) in enumerate(zip(bases, locals_)) if b.shape[1] and x.shape[0])

    def broken(system):
        scale = np.ones(system.node_count)
        scale[node] = factor
        return system.nodes.mu * system.weights * scale

    monkeypatch.setattr(systems, "_synthesis_weights", broken)
    synthesis_masses = np.array(masses, dtype=float)
    synthesis_masses[node] *= factor
    return lambda trials, seed: oracles.adjoint_cross_mismatch(
        *args, trials, seed, synthesis_masses=synthesis_masses
    )


def tall_codomain_system(rng, n, rows_per_node, count):
    """A frame whose nodes are full-dimensional with rows_per_node codomain rows."""
    bases = [np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(count)]
    locals_ = [rng.uniform(-1.0, 1.0, (rows_per_node, n)) for _ in range(count)]
    return make_system(n, bases, locals_, rng.uniform(0.5, 2.0, count))


class TestAdjointBatches:
    """adjoint_consistency checks r x r probe pairs from one draw of r vectors and r fields."""

    @pytest.fixture
    def calls(self, monkeypatch):
        shapes = []

        def counting(system, f, phi):
            shapes.append((f.shape[0], phi.shape[0]))
            return _adjoint_mismatch(system, f, phi)

        monkeypatch.setattr(systems, "_adjoint_mismatch", counting)
        return shapes

    def test_small_system_draws_once(self, calls):
        _, system = random_raw_system(np.random.default_rng(2), 2, 4)
        assert system.ambient_dim == 2
        assert adjoint_consistency(system, trials=100, seed=0).passed
        assert calls == [(10, 10)]

    @pytest.mark.parametrize("trials", [1, 100])
    def test_misweighted_synthesis_fails(self, trials, monkeypatch):
        args, system = random_raw_system(np.random.default_rng(7), 5, 6)
        misweight_synthesis(monkeypatch, args)
        report = adjoint_consistency(system, trials=trials, seed=0)
        assert not report.passed
        assert report.residuals["adjoint_mismatch"] > 1e-6

    # Each system spans 16 blocks of h = 512 (n = 64) or 4096 (n = 8) rows,
    # so one more r x sum m_i temporary would break the bound.
    @pytest.mark.parametrize("n", [64, 8])
    def test_memory_stays_within_the_batch_bound(self, n):
        height = block_height(n)
        system = tall_codomain_system(np.random.default_rng(n), n, 4096, 16 * height // 4096)
        rows = system.stacked.shape[0]
        assert rows == 16 * height
        probes = 15  # ceil(sqrt(200))
        tracemalloc.start()
        try:
            report = adjoint_consistency(system, trials=200, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.passed
        # The draws, r (n + sum m_i) doubles, plus one block: an h x n block's
        # worth and four r x h temporaries.
        assert peak <= 8 * (probes * (n + rows) + height * n + 4 * probes * height)


def block_height(n):
    """Rows per block of the stacked matrix at ambient dimension n."""
    return max(systems._BLOCK_FLOATS // n, n)


def relative_error(got, expected):
    return np.linalg.norm(got - expected, 2) / np.linalg.norm(expected, 2)


class TestOneFactorization:
    """Every spectral function of S is read from its one cached eigendecomposition,
    and S^-1 from its one cached LU inverse."""

    def test_certificates_reuse_the_cached_eigenpairs(self, linalg_calls):
        rng = np.random.default_rng(23)
        chi = parsevalize(random_system(rng, 5, 4, ensure_frame=True))
        xi = chi.with_weights(1.1 * chi.weights)
        k = Operator(rng.standard_normal((5, 5)))
        frame_bounds(chi), frame_bounds(xi)
        linalg_calls.clear()
        # Every SVD counted is one opnorm: one in kgf_lower_bound, two in
        # atomic_wrt_frame_operator and one in symmetric_perturbation.
        kgf_lower_bound(chi, k)
        assert linalg_calls["eigh"] == linalg_calls["eigvalsh"] == 0
        assert linalg_calls["svd"] == 1
        report = atomic_wrt_frame_operator(chi)
        assert report.passed
        assert linalg_calls["eigh"] == linalg_calls["eigvalsh"] == 0
        assert linalg_calls["svd"] == 3
        report = symmetric_perturbation(PairSystem(chi, xi), 0.5)
        assert "spectral_xi_lower" in report.constants
        assert linalg_calls["eigh"] == linalg_calls["eigvalsh"] == 0
        assert linalg_calls["svd"] == 4

    def test_pair_reports_share_one_svd_of_the_mixed_operator(self, linalg_calls):
        rng = np.random.default_rng(37)
        chi = random_system(rng, 5, 4, ensure_frame=True)
        pair = PairSystem(chi, chi.with_weights(1.1 * chi.weights))
        linalg_calls.clear()
        # One SVD gives ||M|| and sigma_min; the other two are the identity residuals.
        assert pair_adjoint_and_norm(pair).passed
        report = bounded_below_analysis(pair)
        assert report.passed and "identity_residual" in report.residuals
        assert linalg_calls["svd"] == 3

    def test_dual_and_resolution_share_one_inverse(self, linalg_calls):
        system = random_system(np.random.default_rng(19), 5, 4, ensure_frame=True)
        linalg_calls.clear()
        family = canonical_resolution(system)
        _, report = canonical_dual(system)
        assert linalg_calls["inv"] == 1
        assert family.shared is system._inverse
        assert verify_resolution(family).passed and report.passed

    def test_pseudoinverse_matches_pinv(self):
        rng = np.random.default_rng(29)
        systems = [random_system(rng, int(rng.integers(2, 9)), int(rng.integers(1, 9)),
                                 ensure_frame=True) for _ in range(20)]
        systems += [make_deficient_system(rng, n) for n in range(3, 9)]
        for system in systems:
            s = assemble_frame_operator(system)
            expected = pinv(s).entries
            assert relative_error(_frame_operator_power(system, -1.0), expected) <= 1e-12

    def test_inverse_root_matches_positive_sqrt(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            system = random_system(rng, int(rng.integers(2, 9)), int(rng.integers(1, 9)),
                                   ensure_frame=True)
            expected = positive_sqrt(assemble_frame_operator(system), invert=True).entries
            assert relative_error(_frame_operator_power(system, -0.5, 0.0), expected) <= 1e-12


class TestPushThrough:
    """Every caller pushes through an invertible T, so no node may lose a dimension."""

    def test_ill_conditioned_shift_keeps_every_dimension(self):
        # M = I + diag(1e13, 0) = diag(1e13 + 1, 1): a rank cut at 1e-12 of
        # the largest singular value would drop the second direction of R^2.
        system = make_system(2, [np.eye(2), [[0.0], [1.0]], np.zeros((2, 0))],
                             [np.eye(2), [[1.0]], np.zeros((1, 0))], [1.0, 1.0, 1.0])
        shifted, report = transform_shift(system, Operator(np.diag([1e13, 0.0])))
        assert [sub.dim for sub in shifted.subspaces] == [2, 1, 0]
        assert report.passed

    def test_empty_subspace_stays_empty(self):
        rng = np.random.default_rng(37)
        n = 3
        full = np.linalg.qr(rng.standard_normal((n, n)))[0]
        system = make_system(n, [full, full[:, :1], np.zeros((n, 0))],
                             [rng.standard_normal((n, n)), [[2.0]], np.zeros((2, 0))],
                             rng.uniform(0.5, 2.0, 3), masses=rng.uniform(0.5, 2.0, 3))
        parseval = parsevalize(system)
        dual, dual_report = canonical_dual(system)
        shifted, shift_report = transform_shift(system, random_positive_operator(rng, n))
        for pushed in (parseval, dual, shifted):
            assert [sub.dim for sub in pushed.subspaces] == [n, 1, 0]
            assert pushed.codomain_dims == system.codomain_dims
        assert parseval_residual(parseval) <= 1e-12
        assert frame_bounds(parseval).classification == "parseval"
        assert dual_report.passed and shift_report.passed

    def test_overflowing_image_raises_at_push_time(self):
        # The local operator 4 times (T B)^T = 5e307 I is 2e308: not a float.
        system = make_system(2, [np.eye(2)], [4.0 * np.eye(2)], [1.0])
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="finite"):
                push_through(system, 5e307 * np.eye(2))
            with pytest.raises(ValueError, match="finite"):
                transform_shift(system, Operator(5e307 * np.eye(2)))

    def test_transform_must_be_square_on_the_ambient_space(self, e2):
        with pytest.raises(ShapeError):
            push_through(e2, np.eye(3))
        with pytest.raises(ShapeError):
            push_through(e2, np.ones((2, 3)))


def eager_push(system, t):
    """The pushed system formed node by node: a sign-fixed QR of T B_i, then a full build."""
    subspaces, locals_ = [], []
    for sub, loc in zip(system.subspaces, system.local_maps):
        q, r = _positive_qr(t @ sub.basis)
        subspaces.append(Subspace(system.ambient_dim, q))
        locals_.append(Operator(loc.entries @ r.T))
    return GFusionSystem(system.ambient_dim, system.nodes, tuple(subspaces), tuple(locals_),
                         system.weights)


def golden_corpus():
    """The systems of the CLI's golden inputs."""
    lines = [[[1.0], [0.0]], [[0.0], [1.0]]]
    return [make_e1(), make_e2(), make_single_node(),
            make_deficient_system(np.random.default_rng(5), 4),
            make_wide_system(np.random.default_rng(11)),
            make_system(2, lines, [[[1.0]], [[0.0]]], [1.0, 1.0]),
            make_system(2, lines, [[[0.0]], [[1.0]]], [1.0, 1.0])]


def pushes(system, rng):
    """(result, T) of every library push of ``system``: the shift, and for a frame Parseval and dual."""
    shift = random_positive_operator(rng, system.ambient_dim)
    out = [(transform_shift(system, shift)[0], np.eye(system.ambient_dim) + shift.entries)]
    if frame_bounds(system).lower > 1e-9:
        out.append((parsevalize(system), _frame_operator_power(system, -0.5, 0.0)))
        out.append((canonical_dual(system)[0],
                    np.linalg.inv(assemble_frame_operator(system).entries)))
    return out


def corpus_and_random_frames():
    rng = np.random.default_rng(41)
    frames = [random_system(rng, int(rng.integers(2, 9)), int(rng.integers(1, 9)),
                            ensure_frame=True) for _ in range(12)]
    return golden_corpus() + frames


class TestLazyGeometry:
    """A pushed system holds L T^T and forms its per-node geometry on first read."""

    def test_geometry_equals_the_per_node_push_bit_for_bit(self):
        rng = np.random.default_rng(43)
        for system in corpus_and_random_frames():
            for pushed, t in pushes(system, rng):
                eager = eager_push(system, t)
                assert pushed.codomain_dims == eager.codomain_dims
                for got, want in zip(pushed.subspaces, eager.subspaces, strict=True):
                    np.testing.assert_array_equal(got.basis, want.basis)
                for got, want in zip(pushed.local_maps, eager.local_maps, strict=True):
                    np.testing.assert_array_equal(got.entries, want.entries)

    def test_geometry_reproduces_the_stacked_rows(self):
        rng = np.random.default_rng(47)
        for system in corpus_and_random_frames():
            for pushed, t in pushes(system, rng):
                rows = [loc.entries @ sub.basis.T
                        for sub, loc in zip(pushed.subspaces, pushed.local_maps)]
                formed = np.vstack([np.zeros((0, system.ambient_dim))] + rows)
                np.testing.assert_allclose(formed, pushed.stacked, rtol=0.0,
                                           atol=1e-13 * np.linalg.norm(t, 2))
                assert not pushed.stacked.flags.writeable
                assert all(lam.base is pushed.stacked for lam in pushed.effective_maps)

    def test_results_are_certified_without_a_qr(self, linalg_calls):
        rng = np.random.default_rng(53)
        system = random_system(rng, 6, 5, ensure_frame=True)
        frame_bounds(system)
        linalg_calls.clear()
        assert frame_bounds(parsevalize(system)).classification == "parseval"
        assert canonical_dual(system)[1].passed
        assert transform_shift(system, random_positive_operator(rng, 6))[1].passed
        assert linalg_calls["qr"] == 0

    def test_writing_a_result_forms_its_geometry_once(self, linalg_calls):
        system = random_system(np.random.default_rng(59), 5, 7, ensure_frame=True)
        flat = parsevalize(system)
        linalg_calls.clear()
        first = dumps_canonical(system_to_document(flat))
        assert linalg_calls["qr"] == system.node_count
        assert dumps_canonical(system_to_document(flat)) == first
        assert linalg_calls["qr"] == system.node_count

    def test_dual_of_a_parseval_system_writes_the_bytes_of_its_steps(self):
        for system in corpus_and_random_frames():
            if frame_bounds(system).lower <= 1e-9:
                continue
            flat = parsevalize(system)
            dual = canonical_dual(flat)[0]
            expected = eager_push(
                eager_push(system, _frame_operator_power(system, -0.5, 0.0)),
                np.linalg.inv(assemble_frame_operator(flat).entries),
            )
            assert (dumps_canonical(system_to_document(dual))
                    == dumps_canonical(system_to_document(expected)))


class TestGramBlocks:
    """weighted_gram sums the row blocks of _row_blocks of the weighted stack."""

    def test_one_block_is_the_single_product(self):
        rng = np.random.default_rng(61)
        for system in corpus_and_random_frames():
            w = system.nodes.mu * system.weights**2
            expected = (system.stacked.T * system.per_row(w)) @ system.stacked
            np.testing.assert_array_equal(weighted_gram(system, w), expected)

    def test_blocks_sum_to_the_oracle(self, monkeypatch):
        monkeypatch.setattr(systems, "_BLOCK_FLOATS", 1)  # blocks of n rows
        for n, count in TestStackedCore.SHAPES:
            args, system = random_raw_system(np.random.default_rng(300 * n + count), n, count)
            np.testing.assert_allclose(
                assemble_frame_operator(system).entries,
                oracles.frame_operator(*args), rtol=0.0, atol=1e-12,
            )

    def test_memory_stays_within_a_few_blocks(self):
        n = 64
        system = tall_codomain_system(np.random.default_rng(67), n, 4096, 4)
        rows = system.stacked.shape[0]
        height = block_height(n)
        assert rows >= 8 * height
        w = system.nodes.mu * system.weights**2
        tracemalloc.start()
        try:
            gram = weighted_gram(system, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One scaled block and its product: no array spans all rows.
        assert peak <= 8 * (2 * height * n + 2 * n * n)
        np.testing.assert_allclose(gram, (system.stacked.T * system.per_row(w)) @ system.stacked,
                                   rtol=1e-13, atol=1e-13 * np.abs(gram).max())


def block_edge_args(rng, n, rows):
    """Oracle arguments of four nodes with ``rows`` stacked rows in all.

    The second node has no rows and the last has two, so at one block plus one
    row the last node straddles the block edge.
    """
    k = min(n, 2)
    bases = [np.linalg.qr(rng.standard_normal((n, n)))[0][:, :k] for _ in range(4)]
    dims = [rows // 3, 0, rows - rows // 3 - 2, 2]
    locals_ = [rng.uniform(-1.0, 1.0, (m, k)) for m in dims]
    return rng.uniform(0.5, 2.0, 4), rng.uniform(0.5, 2.0, 4), bases, locals_


class TestBlockEdges:
    """Grams and the adjoint check match the per-node oracles with sum m_i one block
    minus one, one block and one block plus one, the last node straddling the edge."""

    @pytest.fixture(params=[(n, d) for n in (1, 8, 64) for d in (-1, 0, 1)],
                    ids=lambda p: f"n{p[0]}-block{p[1]:+d}")
    def edge(self, request):
        n, offset = request.param
        rng = np.random.default_rng(n + 10 * offset + 20)
        args = block_edge_args(rng, n, block_height(n) + offset)
        system = make_system(n, args[2], args[3], args[1], args[0])
        assert system.stacked.shape[0] == block_height(n) + offset
        return rng, args, system

    def test_weighted_gram(self, edge):
        _, args, system = edge
        expected = oracles.frame_operator(*args)
        got = weighted_gram(system, system.nodes.mu * system.weights**2)
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-13 * np.abs(expected).max())

    def test_pair_gram(self, edge):
        rng, (masses, v, bases, locals_), chi = edge
        n = chi.ambient_dim
        xi_bases = [np.linalg.qr(rng.standard_normal((n, n)))[0][:, : b.shape[1]] for b in bases]
        xi_locals = [rng.uniform(-1.0, 1.0, x.shape) for x in locals_]
        s = rng.uniform(0.5, 2.0, 4)
        xi = make_system(n, xi_bases, xi_locals, s, masses)
        expected = oracles.mixed_operator(masses, v, s, (bases, locals_), (xi_bases, xi_locals))
        got = pair_frame_operator(PairSystem(chi, xi)).entries
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-13 * np.abs(expected).max())

    def test_adjoint_consistency(self, edge, monkeypatch):
        _, args, system = edge
        assert adjoint_consistency(system, trials=100, seed=3).residuals["adjoint_mismatch"] <= 1e-13
        expected = misweight_synthesis(monkeypatch, args)(100, 3)
        assert expected > 1e-3
        got = adjoint_consistency(system, trials=100, seed=3).residuals["adjoint_mismatch"]
        assert got == pytest.approx(expected, rel=1e-12)
