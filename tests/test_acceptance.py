"""Acceptance suite: every criterion runs at its stated tolerance and
prints one PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np

from cgfusion import (
    MeasureNodes,
    Operator,
    RangeInclusionError,
    Subspace,
    analysis,
    assemble_frame_operator,
    atomic_decompose,
    atomic_equiv_check,
    atomic_wrt_frame_operator,
    bounded_below_analysis,
    canonical_dual,
    canonical_resolution,
    decomposition_operator,
    direct_sum_system,
    douglas_factor,
    energy_lower_check,
    frame_bounds,
    frame_from_resolution,
    kgf_check,
    kgf_lower_bound,
    opnorm,
    pair_adjoint_and_norm,
    pair_frame_operator,
    parsevalize,
    perturbation_bound,
    pinv,
    positive_sqrt,
    project,
    random_pair,
    random_positive_operator,
    random_shared_weight_frames,
    random_system,
    symmetric_perturbation,
    synthesis,
    transform_combined,
    transform_shift,
    verify_resolution,
    weighted_norm,
)
from cgfusion.pair import PairSystem

import oracles
from conftest import (
    make_deficient_system,
    make_e1,
    make_e2,
    make_single_node,
    make_system,
    shift_law_gap,
    transpose_law_residual,
)


def _verdict(number, description, ok):
    print(f"ACCEPTANCE {number:02d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {number} failed: {description}"


def _corpus(seed, count, dim_range=(2, 17), node_range=(1, 9), ensure_frame=False):
    rng = np.random.default_rng(seed)
    return [
        random_system(rng, int(rng.integers(*dim_range)), int(rng.integers(*node_range)),
                      ensure_frame=ensure_frame)
        for _ in range(count)
    ]


def test_criterion_01_frame_operator_composition():
    start = time.perf_counter()
    systems = _corpus(seed=101, count=200)
    ok = True
    for system in systems:
        n = system.ambient_dim
        s = assemble_frame_operator(system).entries
        composed = np.column_stack(
            [synthesis(system, analysis(system, np.eye(n)[:, j])) for j in range(n)]
        )
        ok &= opnorm(s - composed) <= 1e-9
        ok &= opnorm(s - s.T) <= 1e-10
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    _verdict(1, f"composition law on 200 systems in {elapsed:.2f}s "
                "(residuals <= 1e-9 / 1e-10, runtime < 5s)", ok)


def test_criterion_02_bound_optimality():
    rng = np.random.default_rng(102)
    systems = _corpus(seed=101, count=200)
    ok = True
    for system in systems:
        n = system.ambient_dim
        s = assemble_frame_operator(system).entries
        bounds = frame_bounds(system)
        samples = rng.standard_normal((1000, n))
        norms = np.einsum("ij,ij->i", samples, samples)
        quads = np.einsum("ij,jk,ik->i", samples, s, samples)
        ratios = quads / norms
        ok &= ratios.min() >= bounds.lower - 1e-9
        ok &= ratios.max() <= bounds.upper + 1e-9
        _, vectors = np.linalg.eigh(s)
        low = float(vectors[:, 0] @ (s @ vectors[:, 0]))
        high = float(vectors[:, -1] @ (s @ vectors[:, -1]))
        ok &= abs(low - bounds.lower) <= 1e-9 and abs(high - bounds.upper) <= 1e-9
    _verdict(2, "Rayleigh quotients of 200 systems x 1000 vectors stay inside the "
                "bounds and both endpoints are attained (1e-9)", ok)


def test_criterion_03_canonical_resolution_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    ok = True
    for _ in range(100):
        system = random_system(rng, int(rng.integers(2, 17)), int(rng.integers(2, 9)),
                               ensure_frame=True)
        family = canonical_resolution(system)
        ok &= verify_resolution(family, 1e-8).passed
        bounds = frame_bounds(system)
        lo = bounds.lower / bounds.upper**2
        hi = bounds.upper / bounds.lower**2
        for _ in range(100):
            f = rng.standard_normal(system.ambient_dim)
            norm_sq = float(f @ f)
            energy = sum(
                float(mass) * float(w) ** 2 * float(np.sum((t.entries @ f) ** 2))
                for mass, w, t in zip(system.nodes.mu, system.weights, family.factors)
            )
            ok &= lo * norm_sq - 1e-8 <= energy <= hi * norm_sq + 1e-8
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    _verdict(3, f"canonical resolution + energy double bound on 100 frames x 100 "
                f"vectors in {elapsed:.2f}s (residual 1e-8, runtime < 10s)", ok)


def test_criterion_04_energy_lower_arbitrary_families():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        system = random_system(rng, int(rng.integers(2, 17)), int(rng.integers(1, 9)))
        factors = [rng.standard_normal((m, system.ambient_dim))
                   for m in system.codomain_dims]
        for _ in range(100):
            f = rng.standard_normal(system.ambient_dim)
            report = energy_lower_check(system, factors, f)
            worst = max(worst, report.residuals["lower_energy_violation"])
    _verdict(4, f"lower energy inequality on 100 systems x 100 vectors with random "
                f"factor families (worst violation {worst:.2e} <= 1e-9)", worst <= 1e-9)


def test_criterion_05_atomic_equivalence():
    rng = np.random.default_rng(105)
    ok = True
    for _ in range(100):
        system = random_system(rng, int(rng.integers(2, 10)), int(rng.integers(2, 6)),
                               ensure_frame=True)
        n = system.ambient_dim
        s = assemble_frame_operator(system)
        k = Operator(s.entries @ rng.standard_normal((n, n)))
        cert = decomposition_operator(system, k)
        a_star = kgf_lower_bound(system, k)
        for _ in range(5):
            f = rng.standard_normal(n)
            phi, c = atomic_decompose(system, k, f)
            kf = k.apply(f)
            ok &= np.linalg.norm(synthesis(system, phi) - kf) <= 1e-8 * max(
                1.0, np.linalg.norm(kf))
            ok &= weighted_norm(phi, system.nodes) <= (c + 1e-8) * np.linalg.norm(f)
        if cert.c > 0:
            ok &= 1.0 / cert.c**2 <= a_star + 1e-6
    for _ in range(50):
        system = make_deficient_system(rng, int(rng.integers(4, 10)))
        n = system.ambient_dim
        identity = Operator.identity(n)
        ok &= kgf_lower_bound(system, identity) <= 1e-6
        s = assemble_frame_operator(system).entries
        _, vectors = np.linalg.eigh(s)
        kernel_direction = vectors[:, 0]
        try:
            atomic_decompose(system, identity, kernel_direction)
            ok = False
        except RangeInclusionError:
            pass
    _verdict(5, "atomic decomposition matches the lower-bound certificate on 100 "
                "in-range operators and refuses 50 out-of-range ones", ok)


def test_criterion_06_shift_transform_identity():
    rng = np.random.default_rng(106)
    ok = True
    for _ in range(50):
        system = random_system(rng, int(rng.integers(2, 10)), int(rng.integers(2, 6)),
                               ensure_frame=True)
        shift = random_positive_operator(rng, system.ambient_dim)
        report, gap, scale = shift_law_gap(system, shift)
        ok &= report.passed and gap <= 1e-8 and gap <= 1e-14 * scale
    _verdict(6, "shift-transform conjugation identity S' = M S M^T against the oracle on 50 "
                "random (frame, positive shift) pairs (gap <= 1e-8 and <= 1e-14 ||M||^2 ||S||)",
             ok)


def test_criterion_07_pair_laws():
    rng = np.random.default_rng(107)
    ok = True
    for _ in range(50):
        pair = random_pair(rng, int(rng.integers(2, 8)), int(rng.integers(1, 6)))
        report = pair_adjoint_and_norm(pair)
        ok &= transpose_law_residual(pair) <= 1e-12
        ok &= report.residuals["norm_excess"] <= 1e-9
    tight = pair_adjoint_and_norm(PairSystem(make_e2(), make_e1()))
    bound = np.sqrt(tight.constants["bessel_chi"] * tight.constants["bessel_xi"])
    ok &= abs(tight.constants["operator_norm"] - bound) <= 1e-9
    _verdict(7, "mixed-operator adjoint law (against the oracle, 1e-12 relative) and "
                "norm law on 50 random pairs; the hand pair attains the norm bound "
                "within 1e-9", ok)


def test_criterion_08_bounded_below_roundtrip():
    rng = np.random.default_rng(108)
    checked = 0
    ok = True
    attempts = 0
    while checked < 50 and attempts < 500:
        attempts += 1
        pair = random_pair(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)),
                           ensure_frames=True)
        mixed = pair_frame_operator(pair).entries
        if float(np.linalg.svd(mixed, compute_uv=False)[-1]) <= 1e-6:
            continue
        checked += 1
        report = bounded_below_analysis(pair, 1e-6)
        ok &= report.residuals["identity_residual"] <= 1e-8
        ok &= report.residuals["inverse_identity"] <= 1e-8
        ok &= (report.constants["certified_chi_lower"]
               <= report.constants["spectral_chi_lower"] + 1e-8)
    ok &= checked == 50
    _verdict(8, f"bounded-below round trip on {checked} invertible pairs "
                "(resolution 1e-8, certified bound valid)", ok)


def test_criterion_09_direct_sum_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(109)
    ok = True
    for _ in range(50):
        chi, xi = random_shared_weight_frames(
            rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)), int(rng.integers(2, 6))
        )
        ds = direct_sum_system(chi, xi)
        s = assemble_frame_operator(ds).entries
        block = np.zeros_like(s)
        block[: chi.ambient_dim, : chi.ambient_dim] = assemble_frame_operator(chi).entries
        block[chi.ambient_dim :, chi.ambient_dim :] = assemble_frame_operator(xi).entries
        ok &= opnorm(s - block) <= 1e-10
        flat = parsevalize(ds)
        ok &= opnorm(assemble_frame_operator(flat).entries
                     - np.eye(flat.ambient_dim)) <= 1e-8
        dual, report = canonical_dual(ds)
        ok &= report.residuals["dual_operator_residual"] <= 1e-8
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    _verdict(9, f"direct sum / Parseval / dual laws on 50 component pairs in "
                f"{elapsed:.2f}s (1e-10 / 1e-8 / 1e-8, runtime < 10s)", ok)


# --- criterion 10: worked-oracle regression ------------------------------

TOL10 = 1e-12
#: Tolerance handed to the optimal constants and the atomic checks;
#: kgf_lower_bound's closed form moves by half of it, well inside TOL10.
CONSTANT_TOL = 1e-13


def _close(a, b, tol=TOL10):
    return np.allclose(np.asarray(a, float), np.asarray(b, float), rtol=0.0, atol=tol)


def _fixture_checks():
    e1, e2, single = make_e1(), make_e2(), make_single_node()
    ident = Operator.identity(2)
    checks = []

    def add(name, got, frozen, oracle=None, tol=TOL10):
        agree = _close(got, frozen, tol) and (oracle is None or _close(oracle, frozen, tol))
        checks.append((name, agree))

    # frame operators and bounds
    add("frame_operator_e1", assemble_frame_operator(e1).entries, np.eye(2),
        oracles.frame_operator(*oracles.system_args(oracles.E1)))
    add("frame_operator_e2", assemble_frame_operator(e2).entries, np.diag([4.0, 1.0]),
        oracles.frame_operator(*oracles.system_args(oracles.E2)))
    add("frame_operator_single", assemble_frame_operator(single).entries,
        np.diag([1.0, 0.0]), oracles.frame_operator(*oracles.system_args(oracles.SINGLE)))
    b2 = frame_bounds(e2)
    s_bounds = oracles.spectral_bounds(oracles.frame_operator(*oracles.system_args(oracles.E2)))
    add("bounds_e2", [b2.lower, b2.upper], [1.0, 4.0], list(s_bounds))
    checks.append(("classification_e2", b2.classification == "frame"))
    checks.append(("classification_e1", frame_bounds(e1).classification == "parseval"))
    checks.append(("classification_single",
                   frame_bounds(single).classification == "bessel-only"))

    # analysis / synthesis
    phi = analysis(e2, np.array([1.0, 1.0]))
    add("analysis_e2", np.concatenate(phi.blocks), [2.0, 1.0],
        np.concatenate(oracles.analysis_blocks(
            oracles.E2["weights"], oracles.E2["bases"], oracles.E2["locals"],
            np.array([1.0, 1.0]))))
    add("synthesis_e2", synthesis(e2, phi), [4.0, 1.0],
        oracles.synthesis_vector(*oracles.system_args(oracles.E2),
                                 blocks=[b for b in phi.blocks]))

    # order certificates against the frame operator
    add("kgf_gap_a1", kgf_check(e2, ident, 1.0).gap, 0.0,
        oracles.loewner_gap(np.eye(2), np.diag([4.0, 1.0]) - 0.0))
    add("kgf_gap_a2", kgf_check(e2, ident, 2.0).gap, -1.0,
        oracles.loewner_gap(2.0 * np.eye(2), np.diag([4.0, 1.0])))
    add("kgf_gap_single", kgf_check(single, Operator(np.diag([1.0, 0.0])), 1.0).gap, 0.0)

    # optimal constants in closed form, invoked at CONSTANT_TOL
    add("kgf_lower_e2_identity", kgf_lower_bound(e2, ident, CONSTANT_TOL), 1.0,
        oracles.best_lower_constant(np.diag([4.0, 1.0]), np.eye(2), CONSTANT_TOL))
    add("kgf_lower_single", kgf_lower_bound(single, Operator(np.diag([1.0, 0.0])),
                                            CONSTANT_TOL), 1.0)
    add("kgf_lower_e1_scaled", kgf_lower_bound(e1, Operator(3.0 * np.eye(2)),
                                               CONSTANT_TOL), 1.0 / 9.0,
        oracles.best_lower_constant(np.eye(2), 3.0 * np.eye(2), CONSTANT_TOL))

    # canonical resolution values
    family = canonical_resolution(e2)
    factors, summands = oracles.canonical_factors(*oracles.system_args(oracles.E2))
    add("canonical_factor_0", family.factors[0].entries, [[0.25, 0.0]], factors[0])
    add("canonical_factor_1", family.factors[1].entries, [[0.0, 1.0]], factors[1])
    add("canonical_operator_0", family.operators[0].entries, np.diag([1.0, 0.0]),
        summands[0])
    add("canonical_operator_1", family.operators[1].entries, np.diag([0.0, 1.0]),
        summands[1])
    energy = sum(
        float(mass) * float(w) ** 2 * float(np.sum((t.entries @ np.array([1.0, 0.0])) ** 2))
        for mass, w, t in zip(e2.nodes.mu, e2.weights, family.factors)
    )
    add("canonical_energy_e1_direction", energy, 0.25)
    add("energy_quotients", [b2.lower / b2.upper**2, b2.upper / b2.lower**2],
        [1.0 / 16.0, 4.0])

    # resolution verification residuals
    nodes2 = MeasureNodes(("n0", "n1"), np.array([1.0, 1.0]))
    from cgfusion import ResolutionFamily
    deficient = ResolutionFamily(2, nodes2, (Operator(np.diag([1.0, 0.0])),
                                             Operator(np.diag([0.0, 0.5]))))
    add("resolution_residual_deficient",
        verify_resolution(deficient).residuals["identity_residual"], 0.5)
    empty = ResolutionFamily(2, MeasureNodes((), np.zeros(0)), ())
    add("resolution_residual_empty",
        verify_resolution(empty).residuals["identity_residual"], 1.0)

    # lower energy check equalities
    rep = energy_lower_check(e2, family.factors, np.array([1.0, 0.0]))
    add("energy_lower_e2", [rep.constants["lhs"], rep.constants["rhs"]], [0.25, 0.25])
    family1 = canonical_resolution(e1)
    rep1 = energy_lower_check(e1, family1.factors, np.array([1.0, 1.0]))
    add("energy_lower_e1", [rep1.constants["lhs"], rep1.constants["rhs"]], [2.0, 2.0])

    # resolution-based certification
    certified = frame_from_resolution(e1, 1.0)
    add("frame_from_resolution_e1", [certified.lower, certified.upper], [1.0, 1.0])

    # atomic decomposition values
    phi_atomic, c_atomic = atomic_decompose(e2, assemble_frame_operator(e2),
                                            np.array([1.0, 0.0]))
    oracle_blocks = oracles.minimal_norm_field(
        *oracles.system_args(oracles.E2), target=np.array([4.0, 0.0]))
    add("atomic_phi_e2", np.concatenate(phi_atomic.blocks), [2.0, 0.0],
        np.concatenate(oracle_blocks))
    add("atomic_c_e2", c_atomic, 2.0)
    phi_e1, c_e1 = atomic_decompose(e1, ident, np.array([3.0, 4.0]))
    add("atomic_phi_e1", np.concatenate(phi_e1.blocks), [3.0, 4.0])
    add("atomic_c_e1", c_e1, 1.0)
    equiv = atomic_equiv_check(e2, ident, CONSTANT_TOL)
    add("atomic_equiv_constants", [equiv.constants["a_star"], equiv.constants["c"]],
        [1.0, 1.0], tol=1e-12)
    wrt = atomic_wrt_frame_operator(e2, CONSTANT_TOL)
    add("atomic_wrt_a_star", wrt.constants["a_star"], 0.25,
        oracles.best_lower_constant(np.diag([4.0, 1.0]),
                                    np.diag([4.0, 1.0]), CONSTANT_TOL))

    # combined and shift transforms
    chi = make_system(2, bases=[[[1.0], [0.0]], [[0.0], [1.0]]],
                      local_maps=[[[1.0]], [[0.0]]], weights=[1.0, 1.0])
    xi = make_system(2, bases=[[[1.0], [0.0]], [[0.0], [1.0]]],
                     local_maps=[[[0.0]], [[1.0]]], weights=[1.0, 1.0])
    half = Operator(0.5 * np.eye(2))
    recombined, _ = transform_combined(chi, xi, half, half, ident, 1e-9)
    add("combined_identity", assemble_frame_operator(recombined).entries, np.eye(2))
    doubled, _ = transform_combined(chi, xi, ident, ident, ident, 1e-9)
    b_doubled = frame_bounds(doubled)
    add("combined_doubled_bounds", [b_doubled.lower, b_doubled.upper], [4.0, 4.0])
    shifted, _ = transform_shift(e1, ident)
    add("shift_e1", assemble_frame_operator(shifted).entries, 4.0 * np.eye(2))
    shifted2, _ = transform_shift(e2, Operator(np.diag([1.0, 0.0])))
    m = np.eye(2) + np.diag([1.0, 0.0])
    add("shift_e2", assemble_frame_operator(shifted2).entries, np.diag([16.0, 1.0]),
        m @ oracles.frame_operator(*oracles.system_args(oracles.E2)) @ m.T)

    # pair operator values
    pair = PairSystem(e2, e1)
    add("pair_operator", pair_frame_operator(pair).entries, np.diag([2.0, 1.0]))
    adj = pair_adjoint_and_norm(pair)
    add("pair_norm_constants",
        [adj.constants["operator_norm"], adj.constants["bessel_chi"],
         adj.constants["bessel_xi"]], [2.0, 4.0, 1.0])
    below = bounded_below_analysis(pair)
    add("pair_bounded_below",
        [below.constants["sigma_min"], below.constants["certified_chi_lower"]],
        [1.0, 1.0])
    shrunk = PairSystem(make_e1(), make_e1().with_weights(np.array([0.8, 1.0])))
    pert = perturbation_bound(shrunk, 0.2, 0.0)
    add("perturbation_tight",
        [pert.constants["hypothesis_max"], pert.constants["certified_chi_lower"]],
        [0.0, 0.64])
    pert_fail = perturbation_bound(shrunk, 0.1, 0.0)
    add("perturbation_excess", pert_fail.constants["hypothesis_max"], 0.1)
    checks.append(("perturbation_fail_flag", not pert_fail.passed))
    sym = symmetric_perturbation(pair, 0.5)
    add("symmetric_deviation", sym.constants["deviation_norm"], 1.0)
    checks.append(("symmetric_fail_flag", not sym.passed))

    # direct sums, parseval, dual
    ds = direct_sum_system(e2, make_e1())
    add("dsum_operator", assemble_frame_operator(ds).entries,
        np.diag([4.0, 1.0, 1.0, 1.0]))
    b_sum = frame_bounds(ds)
    add("dsum_bounds", [b_sum.lower, b_sum.upper], [1.0, 4.0])
    ds22 = direct_sum_system(e2, make_e2())
    add("dsum_operator_e2e2", assemble_frame_operator(ds22).entries,
        np.diag([4.0, 1.0, 4.0, 1.0]))
    flat = parsevalize(e2)
    add("parseval_operator", assemble_frame_operator(flat).entries, np.eye(2))
    add("parseval_map_0", flat.effective_maps[0], [[0.5, 0.0]])
    add("parseval_map_1", flat.effective_maps[1], [[0.0, 1.0]])
    dual, _ = canonical_dual(e2)
    add("dual_operator", assemble_frame_operator(dual).entries, np.diag([0.25, 1.0]),
        np.linalg.inv(oracles.frame_operator(*oracles.system_args(oracles.E2))))
    dual_sum, _ = canonical_dual(ds)
    add("dual_sum_operator", assemble_frame_operator(dual_sum).entries,
        np.diag([0.25, 1.0, 1.0, 1.0]))

    # operator-core worked values
    s_factor, lam = douglas_factor(Operator(np.diag([1.0, 0.0])),
                                   Operator(np.diag([2.0, 0.0])), CONSTANT_TOL)
    oracle_factor, oracle_lam = oracles.douglas_minimal_factor(
        np.diag([1.0, 0.0]), np.diag([2.0, 0.0]))
    add("douglas_factor", s_factor.entries, np.diag([0.5, 0.0]), oracle_factor)
    add("douglas_lambda", lam, 0.5, oracle_lam)
    add("pinv_rank_one", pinv(Operator([[1.0, 1.0], [0.0, 0.0]])).entries,
        [[0.5, 0.0], [0.5, 0.0]],
        np.linalg.pinv(np.array([[1.0, 1.0], [0.0, 0.0]])))
    add("sqrt_diag", positive_sqrt(Operator(np.diag([4.0, 1.0]))).entries,
        np.diag([2.0, 1.0]))
    add("inv_sqrt_diag",
        positive_sqrt(Operator(np.diag([4.0, 1.0])), invert=True).entries,
        np.diag([0.5, 1.0]))
    line = Subspace(2, np.array([[1.0], [1.0]]) / np.sqrt(2))
    add("project_diagonal_line", project(line, np.array([1.0, 0.0])), [0.5, 0.5])
    return checks


def test_criterion_10_worked_oracle_regression():
    checks = _fixture_checks()
    failures = [name for name, agree in checks if not agree]
    _verdict(10, f"{len(checks)} worked example values recomputed by the independent "
                 f"oracle and pinned at 1e-12 (failures: {failures or 'none'})",
             not failures)


def test_criterion_11_cli_determinism(tmp_path):
    start = time.perf_counter()
    env = dict(os.environ)
    src = str((os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))
    env["PYTHONPATH"] = os.path.join(src, "src") + os.pathsep + env.get("PYTHONPATH", "")
    # random, parseval of it, and the pair of that frame with itself, whose
    # perturbation_bound samples directions seeded by --seed; each run in its
    # own folder, with relative names, as the report records its paths.
    chain = (["random", "--seed", "0", "--out", "r.json"],
             ["parseval", "r.json", "--out", "p.json"],
             ["pair", "p.json", "--xi", "p.json", "--seed", "0", "--out", "rep.json"])
    outputs = []
    for name in ("first", "second"):
        folder = tmp_path / name
        folder.mkdir()
        for argv in chain:
            result = subprocess.run(
                [sys.executable, "-m", "cgfusion", *argv],
                capture_output=True, text=True, env=env, cwd=folder,
            )
            assert result.returncode == 0, result.stdout + result.stderr
        outputs.append([(folder / out).read_bytes() for out in ("r.json", "p.json", "rep.json")])
    elapsed = time.perf_counter() - start
    ok = outputs[0] == outputs[1] and elapsed < 60.0
    doc = json.loads(outputs[0][2])
    ok &= doc["passed"] is True
    ok &= {r["name"]: r["provenance"] for r in doc["reports"]}["perturbation_bound"] == "sampled"
    _verdict(11, f"two seeded random -> parseval -> pair runs are byte-identical and green "
                 f"in {elapsed:.1f}s (< 60s)", ok)
