import tracemalloc

import numpy as np
import pytest

from cgfusion import (
    HypothesisNotMetError,
    MeasureNodes,
    Operator,
    PairSystem,
    ResolutionFamily,
    ShapeError,
    SingularFrameOperatorError,
    assemble_frame_operator,
    bounded_below_analysis,
    bounded_resolution_check,
    canonical_resolution,
    canonical_resolution_report,
    energy_lower_check,
    frame_bounds,
    frame_from_resolution,
    pair_frame_operator,
    random_system,
    save_system,
    symmetric_perturbation,
    verify_resolution,
)
from cgfusion.cli import main
from cgfusion.report import EXACT

import oracles
from conftest import make_e2, make_system, system_args


def family_from(masses, *diagonals):
    nodes = MeasureNodes(tuple(f"n{i}" for i in range(len(masses))), np.asarray(masses, float))
    ops = tuple(Operator(np.diag(np.asarray(d, float))) for d in diagonals)
    return ResolutionFamily(len(diagonals[0]), nodes, ops)


class TestCanonicalResolution:
    def test_e1_projections(self, e1):
        family = canonical_resolution(e1)
        np.testing.assert_allclose(family.operators[0].entries, np.diag([1.0, 0.0]), atol=1e-14)
        np.testing.assert_allclose(family.operators[1].entries, np.diag([0.0, 1.0]), atol=1e-14)
        np.testing.assert_allclose(family.factors[0].entries, [[1.0, 0.0]], atol=1e-14)
        assert verify_resolution(family).passed

    def test_e2_hand_values(self, e2):
        family = canonical_resolution(e2)
        np.testing.assert_allclose(family.factors[0].entries, [[0.25, 0.0]], atol=1e-14)
        np.testing.assert_allclose(family.factors[1].entries, [[0.0, 1.0]], atol=1e-14)
        np.testing.assert_allclose(family.operators[0].entries, np.diag([1.0, 0.0]), atol=1e-14)
        np.testing.assert_allclose(family.operators[1].entries, np.diag([0.0, 1.0]), atol=1e-14)
        factors, summands = oracles.canonical_factors(*oracles.system_args(oracles.E2))
        for op, expected in zip(family.operators, summands):
            np.testing.assert_allclose(op.entries, expected, atol=1e-13)
        for t, expected in zip(family.factors, factors):
            np.testing.assert_allclose(t.entries, expected, atol=1e-13)

    def test_e2_energy_hand_value(self, e2):
        family = canonical_resolution(e2)
        f = np.array([1.0, 0.0])
        energy = sum(
            float(mass) * float(w) ** 2 * float(np.sum((t.entries @ f) ** 2))
            for mass, w, t in zip(e2.nodes.mu, e2.weights, family.factors)
        )
        assert energy == pytest.approx(0.25, abs=1e-14)
        bounds = frame_bounds(e2)
        assert bounds.lower / bounds.upper**2 == pytest.approx(1.0 / 16.0)
        assert bounds.upper / bounds.lower**2 == pytest.approx(4.0)
        assert bounds.lower / bounds.upper**2 <= energy <= bounds.upper / bounds.lower**2

    def test_requires_frame(self, single_node):
        with pytest.raises(SingularFrameOperatorError):
            canonical_resolution(single_node)

    def test_report_fails_on_non_frame_without_sampling(self, single_node):
        report = canonical_resolution_report(single_node)
        assert not report.passed
        assert report.residuals == {}
        assert report.notes == ("not a frame; the canonical resolution is undefined",)

    def test_report_on_e2(self, e2):
        report = canonical_resolution_report(e2)
        assert report.passed
        assert report.provenance == EXACT
        assert report.constants == {"lower": pytest.approx(1.0), "upper": pytest.approx(4.0)}
        assert report.residuals["identity_residual"] <= 1e-14

    def test_report_residual_is_the_family_residual_without_the_family(self, monkeypatch):
        # The report reads ||S S^-1 - I|| from the cached S and S^-1: the
        # double verify_resolution gives the canonical family, bit for bit.
        import cgfusion.resolution as resolution

        rng = np.random.default_rng(27)
        systems = [random_system(rng, int(rng.integers(2, 9)), int(rng.integers(1, 6)),
                                 ensure_frame=True) for _ in range(30)]
        expected = [verify_resolution(canonical_resolution(s), 1e-8).residuals for s in systems]
        monkeypatch.setattr(resolution, "_held", None)  # building a family now fails
        for system, family in zip(systems, expected):
            report = canonical_resolution_report(system)
            assert report.residuals == family
            assert report.tolerances == {"tol": 1e-8}

    def test_tiny_tight_frames_pass(self):
        # S = v^2 I with v^2 in [1.3e-9, 1e-7]: tight frames whose energy
        # bounds A/B^2 = 1/B = B/A^2 hold exactly.
        rng = np.random.default_rng(28)
        for v_sq in np.exp(rng.uniform(np.log(1.3e-9), np.log(1e-7), 100)):
            system = make_system(2, [np.eye(2)], [np.eye(2)], [np.sqrt(v_sq)])
            assert frame_bounds(system).classification == "tight"
            assert canonical_resolution_report(system).passed

    def test_reconstruction_on_random_frames(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            system = random_system(rng, int(rng.integers(2, 9)), int(rng.integers(2, 6)),
                                   ensure_frame=True)
            family = canonical_resolution(system)
            total = family.weighted_sum()
            for _ in range(10):
                f = rng.standard_normal(system.ambient_dim)
                assert np.linalg.norm(total @ f - f) <= 1e-8 * max(1.0, np.linalg.norm(f))

    def test_energy_is_the_inverse_quadratic_form(self):
        # sum_i mu_i v_i^2 ||T_i f||^2 = f^T S^-1 f for the canonical factors,
        # so the energy extremes over unit f are 1/B and 1/A.
        rng = np.random.default_rng(26)
        for _ in range(10):
            system = random_system(rng, int(rng.integers(2, 9)), int(rng.integers(2, 6)),
                                   ensure_frame=True)
            args = system_args(system)
            factors, _ = oracles.canonical_factors(*args)
            energy = oracles.energy_operator(args[0], args[1], factors)
            library = oracles.energy_operator(
                args[0], args[1], [t.entries for t in canonical_resolution(system).factors])
            inverse = np.linalg.inv(oracles.frame_operator(*args))
            scale = 1e-12 * np.linalg.norm(inverse, 2)
            np.testing.assert_allclose(energy, inverse, rtol=0.0, atol=scale)
            np.testing.assert_allclose(library, inverse, rtol=0.0, atol=scale)
            report = canonical_resolution_report(system)
            extremes = np.linalg.eigvalsh(energy)[[0, -1]]
            np.testing.assert_allclose(
                extremes, [1.0 / report.constants["upper"], 1.0 / report.constants["lower"]],
                rtol=1e-12, atol=0.0)

    def test_energy_bounds_on_random_frames(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            system = random_system(rng, int(rng.integers(2, 9)), int(rng.integers(2, 6)),
                                   ensure_frame=True)
            family = canonical_resolution(system)
            bounds = frame_bounds(system)
            lo = bounds.lower / bounds.upper**2
            hi = bounds.upper / bounds.lower**2
            for _ in range(20):
                f = rng.standard_normal(system.ambient_dim)
                norm_sq = float(f @ f)
                energy = sum(
                    float(mass) * float(w) ** 2 * float(np.sum((t.entries @ f) ** 2))
                    for mass, w, t in zip(system.nodes.mu, system.weights, family.factors)
                )
                assert lo * norm_sq - 1e-8 <= energy <= hi * norm_sq + 1e-8


def oracle_args(system):
    return (system.nodes.mu, system.weights, [sub.basis for sub in system.subspaces],
            [loc.entries for loc in system.local_maps])


def frame_with_empty_nodes(rng):
    """A frame of R^4 with a zero-dimensional subspace and a zero-row codomain."""
    full = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    plane = np.linalg.qr(rng.standard_normal((4, 2)))[0]
    return make_system(
        4,
        [full, np.zeros((4, 0)), plane, plane],
        [rng.uniform(0.5, 1.5, (4, 4)) + 2 * np.eye(4), np.zeros((2, 0)),
         rng.uniform(0.5, 1.5, (3, 2)), np.zeros((0, 2))],
        rng.uniform(0.5, 2.0, 4),
        masses=rng.uniform(0.5, 2.0, 4),
    )


def oracle_frames():
    rng = np.random.default_rng(31)
    frames = [random_system(rng, int(rng.integers(2, 9)), int(rng.integers(2, 6)),
                            ensure_frame=True) for _ in range(10)]
    basis = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    frames.append(make_system(3, [basis], [rng.uniform(0.5, 1.5, (3, 3)) + 2 * np.eye(3)],
                              [1.5], masses=[0.7]))
    frames.append(frame_with_empty_nodes(rng))
    return frames


class TestStackedFamily:
    @pytest.mark.parametrize("system", oracle_frames())
    def test_canonical_family_matches_oracle(self, system):
        family = canonical_resolution(system)
        factors, summands = oracles.canonical_factors(*oracle_args(system))
        assert len(family.operators) == len(family.factors) == system.node_count
        for t, expected in zip(family.factors, factors):
            assert t.entries.shape == expected.shape
            np.testing.assert_allclose(t.entries, expected, rtol=0.0, atol=1e-12)
        for op, expected in zip(family.operators, summands):
            np.testing.assert_allclose(op.entries, expected, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(family.weighted_sum(), sum(
            mu * w for mu, w in zip(system.nodes.mu, summands)), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("system", oracle_frames())
    def test_operators_are_the_stacked_products(self, system):
        # P = T = L, the system's own stacked matrix, w = v^2 and B = S^-1.
        family = canonical_resolution(system)
        assert family.left is system.stacked and family.right is system.stacked
        np.testing.assert_array_equal(
            family.shared, np.linalg.inv(assemble_frame_operator(system).entries))
        assert not family.shared.flags.writeable and not family.row_weights.flags.writeable
        np.testing.assert_array_equal(family.row_weights, system.per_row(system.weights**2))
        for i, op in enumerate(family.operators):
            p_i, t_i, w_i = (system.split_rows(rows)[i]
                             for rows in (family.left, family.right, family.row_weights))
            np.testing.assert_allclose(op.entries, p_i.T @ np.diag(w_i) @ t_i @ family.shared,
                                       rtol=0.0, atol=1e-14)
            np.testing.assert_array_equal(family.factors[i].entries, t_i @ family.shared)

    def test_explicit_family_sum_as_before(self):
        rng = np.random.default_rng(32)
        masses = rng.uniform(0.5, 2.0, 7)
        ops = [Operator(rng.standard_normal((5, 5))) for _ in masses]
        nodes = MeasureNodes(tuple(f"n{i}" for i in range(7)), masses)
        family = ResolutionFamily(5, nodes, ops)
        expected = np.zeros((5, 5))
        for mass, op in zip(masses, ops):
            expected += mass * op.entries
        np.testing.assert_allclose(family.weighted_sum(), expected, rtol=1e-14, atol=1e-15)
        for op, factor, given in zip(family.operators, family.factors, ops):
            np.testing.assert_array_equal(op.entries, given.entries)
            np.testing.assert_array_equal(factor.entries, given.entries)

    def test_explicit_empty_family_sums_to_zero(self):
        family = ResolutionFamily(3, MeasureNodes((), np.zeros(0)), ())
        np.testing.assert_array_equal(family.weighted_sum(), np.zeros((3, 3)))
        assert len(family.operators) == 0 and family.ambient_dim == 3

    @staticmethod
    def traced_peak(check):
        tracemalloc.start()
        try:
            report = check()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return report, peak

    @staticmethod
    def tall_system(rng, bases):
        local_maps = [rng.uniform(0.5, 1.5, (2, 2)) for _ in bases]
        return make_system(bases[0].shape[0], bases, local_maps, rng.uniform(0.5, 2.0, len(bases)))

    def test_explicit_family_memory_stays_near_the_operators(self):
        # 200 operators of 40 x 40 take 2.56 MB; the family holds them and
        # the tiled identity P, and G = sum_i mu_i W_i adds no third block.
        rng = np.random.default_rng(36)
        n, count = 40, 200
        ops = [Operator(rng.standard_normal((n, n))) for _ in range(count)]
        nodes = MeasureNodes(tuple(f"n{i}" for i in range(count)), rng.uniform(0.5, 2.0, count))
        family, peak = self.traced_peak(lambda: ResolutionFamily(n, nodes, ops))
        assert peak < 2.5 * count * n * n * 8
        expected = sum(mass * op.entries for mass, op in zip(nodes.mu, ops))
        np.testing.assert_allclose(family.weighted_sum(), expected, rtol=1e-13, atol=1e-13)

    def test_canonical_memory_stays_at_the_stacked_size(self):
        # n = 48, N = 300, m_i = 2: N dense n x n operators take 5.5 MB,
        # one stacked block 230 kB; with S and its eigenpairs cached the
        # family allocates less than one block.
        rng = np.random.default_rng(33)
        n, count = 48, 300
        bases = [np.linalg.qr(rng.standard_normal((n, 2)))[0] for _ in range(count)]
        system = self.tall_system(rng, bases)
        frame_bounds(system)
        report, peak = self.traced_peak(lambda: verify_resolution(canonical_resolution(system)))
        assert report.passed
        assert peak < (2 * count) * n * 8

    def test_pair_memory_stays_below_the_stacked_size(self):
        # The same shape for the bounded-below family, with S of both
        # sides, their eigenpairs and the mixed operator M cached.
        rng = np.random.default_rng(34)
        n, count = 48, 300
        bases = [np.linalg.qr(rng.standard_normal((n, 2)))[0] for _ in range(count)]
        pair = PairSystem(self.tall_system(rng, bases), self.tall_system(rng, bases))
        pair.bessel_bounds()
        pair_frame_operator(pair)
        report, peak = self.traced_peak(lambda: bounded_below_analysis(pair))
        assert report.passed and "identity_residual" in report.residuals
        assert peak < (2 * count) * n * 8


class TestVerifyResolution:
    def test_exact_partition(self):
        report = verify_resolution(family_from([1.0, 1.0], [1.0, 0.0], [0.0, 1.0]))
        assert report.passed
        assert report.residuals["identity_residual"] == pytest.approx(0.0, abs=1e-15)

    def test_deficient_partition(self):
        report = verify_resolution(family_from([1.0, 1.0], [1.0, 0.0], [0.0, 0.5]))
        assert not report.passed
        assert report.residuals["identity_residual"] == pytest.approx(0.5, abs=1e-15)

    def test_empty_family(self):
        nodes = MeasureNodes((), np.zeros(0))
        report = verify_resolution(ResolutionFamily(2, nodes, ()))
        assert not report.passed
        assert report.residuals["identity_residual"] == pytest.approx(1.0, abs=1e-15)

    def test_shape_mismatch(self):
        nodes = MeasureNodes(("a",), np.array([1.0]))
        with pytest.raises(ShapeError):
            ResolutionFamily(2, nodes, (Operator.zeros(3, 3),))


class TestEnergyLowerCheck:
    def test_e2_canonical_equality(self, e2):
        family = canonical_resolution(e2)
        report = energy_lower_check(e2, family.factors, np.array([1.0, 0.0]))
        assert report.passed
        assert report.constants["lhs"] == pytest.approx(0.25, abs=1e-14)
        assert report.constants["rhs"] == pytest.approx(0.25, abs=1e-14)

    def test_zero_factors_trivial(self, e2):
        factors = [np.zeros((1, 2)), np.zeros((1, 2))]
        report = energy_lower_check(e2, factors, np.array([3.0, 4.0]))
        assert report.passed
        assert report.constants["lhs"] == 0.0
        assert report.constants["rhs"] == 0.0

    def test_e1_canonical_equality(self, e1):
        family = canonical_resolution(e1)
        report = energy_lower_check(e1, family.factors, np.array([1.0, 1.0]))
        assert report.passed
        assert report.constants["lhs"] == pytest.approx(2.0, abs=1e-14)
        assert report.constants["rhs"] == pytest.approx(2.0, abs=1e-14)

    def test_shape_error(self, e2):
        with pytest.raises(ShapeError):
            energy_lower_check(e2, [np.zeros((1, 3)), np.zeros((1, 3))], np.zeros(2))
        with pytest.raises(ShapeError):
            energy_lower_check(e2, [np.zeros((2, 2)), np.zeros((1, 2))], np.zeros(2))

    def test_violation_of_canonical_factors_is_roundoff(self, e2):
        family = canonical_resolution(e2)
        for f in np.eye(2):
            report = energy_lower_check(e2, family.factors, f)
            assert report.residuals["lower_energy_violation"] <= 1e-15

    def test_holds_for_arbitrary_factors(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            system = random_system(rng, int(rng.integers(2, 7)), int(rng.integers(1, 5)))
            factors = [rng.standard_normal((m, system.ambient_dim))
                       for m in system.codomain_dims]
            for _ in range(20):
                f = rng.standard_normal(system.ambient_dim)
                report = energy_lower_check(system, factors, f)
                assert report.residuals["lower_energy_violation"] <= 1e-9


class TestBoundedResolutionCheck:
    def test_energies_match_the_oracle(self):
        # Nodes measure R^n through orthogonal projections P_i, and
        # T_i = P_i C_i P_i with C_i symmetric meets T_i^T P_i = T_i; the
        # energies are the extreme eigenvalues of E = sum_i mu_i v_i^2 T_i^T T_i.
        rng = np.random.default_rng(27)
        for _ in range(10):
            n, count = int(rng.integers(2, 7)), int(rng.integers(1, 5))
            projections, factors = [], []
            for _ in range(count):
                q = np.linalg.qr(rng.standard_normal((n, n)))[0][:, : int(rng.integers(1, n + 1))]
                c = rng.standard_normal((n, n))
                projections.append(q @ q.T)
                factors.append(projections[-1] @ (c + c.T) @ projections[-1])
            system = make_system(n, [np.eye(n)] * count, projections,
                                 rng.uniform(0.5, 2.0, count), masses=rng.uniform(0.5, 2.0, count))
            report = bounded_resolution_check(system, factors)
            energy = oracles.energy_operator(system.nodes.mu, system.weights, factors)
            expected = np.linalg.eigvalsh(energy)[[0, -1]]
            got = [report.constants["energy_min"], report.constants["energy_max"]]
            np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12 * expected[1])
            upper = report.constants["upper_bound"]
            assert report.residuals["lower_energy_violation"] == max(0.0, 1.0 / upper - got[0])
            assert report.residuals["upper_energy_violation"] == max(
                0.0, got[1] - upper * report.constants["factor_norm_sup_sq"])

    def test_lifted_coordinate_partition(self, e1_lifted):
        factors = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        report = bounded_resolution_check(e1_lifted, factors)
        assert report.passed
        assert report.constants["factor_norm_sup_sq"] == pytest.approx(1.0)
        assert report.residuals["lower_energy_violation"] <= 1e-12
        assert report.residuals["upper_energy_violation"] <= 1e-12

    def test_zero_factors_fail_resolution_not_hypothesis(self, e1_lifted):
        factors = [np.zeros((2, 2)), np.zeros((2, 2))]
        report = bounded_resolution_check(e1_lifted, factors)
        assert not report.passed
        assert report.residuals["identity_residual"] == pytest.approx(1.0, abs=1e-15)

    def test_hypothesis_violation_raises(self, e1_lifted):
        factors = [np.array([[0.0, 1.0], [0.0, 0.0]]), np.diag([0.0, 1.0])]
        with pytest.raises(HypothesisNotMetError) as excinfo:
            bounded_resolution_check(e1_lifted, factors)
        assert excinfo.value.condition == "factor_fixed_by_measurement"

    def test_e2_lifted_canonical_factors_satisfy_hypothesis(self, e2_lifted):
        # diagonal geometry: every operator commutes, so the canonical
        # factors are fixed by their measurement and the check passes;
        # verified against the direct recomputation below
        family = canonical_resolution(e2_lifted)
        factors = [op.entries / float(w) ** 2
                   for op, w in zip(family.operators, e2_lifted.weights)]
        for lam, t in zip(e2_lifted.effective_maps, factors):
            assert np.abs(t.T @ lam - t).max() <= 1e-14
        report = bounded_resolution_check(e2_lifted, factors)
        assert report.passed

    def test_rectangular_codomain_is_shape_error(self, e1):
        with pytest.raises(ShapeError):
            bounded_resolution_check(e1, [np.eye(2), np.eye(2)])

    def test_rectangular_factor_is_shape_error(self, e1_lifted):
        with pytest.raises(ShapeError):
            bounded_resolution_check(e1_lifted, [np.zeros((1, 2)), np.zeros((1, 2))])


class TestFrameFromResolution:
    def test_e1_certifies_unit_bounds(self, e1):
        bounds = frame_from_resolution(e1, 1.0)
        assert bounds.lower == pytest.approx(1.0)
        assert bounds.upper == pytest.approx(1.0)
        assert bounds.classification == "parseval"

    def test_e2_fails_weighted_resolution(self, e2):
        with pytest.raises(HypothesisNotMetError) as excinfo:
            frame_from_resolution(e2, 1.0)
        assert excinfo.value.condition == "weighted_resolution"

    def test_energy_condition_fails_for_large_lower(self, e1):
        with pytest.raises(HypothesisNotMetError) as excinfo:
            frame_from_resolution(e1, 2.0)
        assert excinfo.value.condition == "energy_upper_bound"

    def test_lower_at_tol_is_bessel_only(self, e1):
        # One label rule with frame_bounds: a lower bound at or below tol.
        assert frame_from_resolution(e1, 1e-10, tol=1e-9).classification == "bessel-only"
        assert frame_from_resolution(e1, 1e-9, tol=1e-9).classification == "bessel-only"
        assert frame_from_resolution(e1, 0.5, tol=1e-9).classification == "frame"

    def test_certified_bounds_bracket_spectrum(self):
        scaled = make_e2().with_weights(np.array([1.0, 1.0]))
        bounds = frame_from_resolution(scaled, 1.0)
        spectral = frame_bounds(scaled)
        assert bounds.lower <= spectral.lower + 1e-12
        assert spectral.upper <= bounds.upper + 1e-12


class TestExactPathsDrawNothing:
    """The resolution checks and the symmetric perturbation bound draw no samples."""

    @pytest.fixture(autouse=True)
    def no_generator(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an exact check drew from a random generator")

        monkeypatch.setattr(np.random, "default_rng", refuse)

    @pytest.mark.parametrize("command", ["resolve", "check"])
    def test_command(self, command, tmp_path, capsys):
        path = tmp_path / "e2.json"
        save_system(make_e2(), path)
        assert main([command, str(path)]) == 0
        assert "sampled" not in capsys.readouterr().out

    def test_library_reports(self, e1, e2, e1_lifted):
        reports = [
            canonical_resolution_report(e2),
            bounded_resolution_check(e1_lifted, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]),
            symmetric_perturbation(PairSystem(e1, e1.with_weights(np.array([0.8, 1.0]))), 0.5),
        ]
        for report in reports:
            assert report.passed, report.name
            assert report.provenance == EXACT
