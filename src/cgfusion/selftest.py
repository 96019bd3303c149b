"""The seeded selftest campaign: the paper's laws run on a random corpus.

One generator draws the whole corpus up front, so identical seeds give
identical reports.  Each check maps the corpus items to rows of
residuals, taken from the library reports where one exists, and keeps
the worst value of each residual across the rows.
"""

from __future__ import annotations

import numpy as np

from .atomic import atomic_equiv_check, transform_shift
from .direct_sum import canonical_dual, direct_sum_laws, parseval_residual, parsevalize
from .operators import ORDER_TOL, TOL_FLOOR, Operator, opnorm
from .pair import bounded_below_analysis, pair_adjoint_and_norm
from .random_systems import (
    random_operator,
    random_pair,
    random_positive_operator,
    random_shared_weight_frames,
    random_system,
)
from .report import VerificationReport, build_report
from .resolution import canonical_resolution_report
from .systems import assemble_frame_operator, frame_bounds


def _worst(name: str, rows, tolerances: dict, summed=()) -> VerificationReport:
    """One report holding the largest value of each residual over ``rows``, from 0.0.

    ``rows`` yields one dict of residuals per corpus item; the residuals
    named in ``summed`` are totalled instead.
    """
    residuals = {}
    for row in rows:
        for key, value in row.items():
            held = residuals.get(key, 0.0)
            residuals[key] = held + value if key in summed else max(held, value)
    return build_report(name=name, residuals=residuals, tolerances=tolerances)


def _corpus(seed: int):
    rng = np.random.default_rng(seed)
    dims = [int(rng.integers(2, 9)) for _ in range(20)]
    systems = [random_system(rng, d, int(rng.integers(1, 6))) for d in dims]
    frames = [random_system(rng, int(rng.integers(2, 7)), int(rng.integers(2, 6)),
                            ensure_frame=True) for _ in range(10)]
    pairs = [random_pair(rng, int(rng.integers(2, 6)), int(rng.integers(2, 5)),
                         ensure_frames=True) for _ in range(12)]
    sum_parts = [random_shared_weight_frames(rng, int(rng.integers(2, 5)),
                                             int(rng.integers(2, 5)),
                                             int(rng.integers(2, 5))) for _ in range(8)]
    shifts = [(frames[i % len(frames)],
               random_positive_operator(rng, frames[i % len(frames)].ambient_dim))
              for i in range(10)]
    atomic_rand = [(frames[i % len(frames)],
                    random_operator(rng, frames[i % len(frames)].ambient_dim,
                                    frames[i % len(frames)].ambient_dim))
                   for i in range(10)]
    return systems, frames, pairs, sum_parts, shifts, atomic_rand


def _bounds_row(system):
    """How far the extreme eigenvectors' Rayleigh quotients are from the bounds.

    Every other quotient lies between them by Courant-Fischer, so none is sampled.
    """
    s = assemble_frame_operator(system).entries
    bounds = frame_bounds(system)
    _, basis = system._eigh
    attain = max(abs(float(basis[:, j] @ (s @ basis[:, j])) - target)
                 for j, target in ((0, bounds.lower), (-1, bounds.upper)))
    return {"attainment_residual": attain}


def _scaling_row(system, factor=1.7):
    s = assemble_frame_operator(system).entries
    s_scaled = assemble_frame_operator(system.with_weights(system.weights * factor)).entries
    return {"scaling_residual": opnorm(s_scaled - factor**2 * s) / max(1.0, opnorm(s))}


def _canonical_row(system):
    return canonical_resolution_report(system).residuals


def _atomic_row(system, r_op, tol):
    k = Operator(assemble_frame_operator(system).entries @ r_op.entries)
    rep = atomic_equiv_check(system, k, tol)
    return {"equivalence_mismatch": rep.residuals["equivalence_mismatch"],
            "quantitative_link_violation": rep.residuals.get("quantitative_link_violation", 0.0),
            "worst_reconstruction": rep.constants["worst_reconstruction"]}


def _pair_row(pair, tol):
    laws = pair_adjoint_and_norm(pair, tol).residuals
    r = bounded_below_analysis(pair, 1e-6).residuals
    roundtrip = (max(r["identity_residual"], r["inverse_identity"], r["lower_bound_excess"])
                 if "identity_residual" in r else 0.0)
    return {"norm_excess": laws["norm_excess"], "roundtrip_residual": roundtrip}


def _direct_sum_row(chi, xi):
    system, laws = direct_sum_laws(chi, xi)
    r = laws.residuals
    return {"blockdiag_residual": r["blockdiag_residual"],
            "bound_mismatch": max(r["lower_bound_mismatch"], r["upper_bound_mismatch"]),
            "parseval_residual": parseval_residual(parsevalize(system)),
            "dual_residual": canonical_dual(system)[1].residuals["dual_operator_residual"]}


def run_selftest(seed: int = 0, tol: float = ORDER_TOL) -> list[VerificationReport]:
    """Seeded property campaign across every subsystem.

    The corpus is drawn up front from one generator, so the reports are
    identical for identical seeds.
    """
    systems, frames, pairs, sum_parts, shifts, atomic_rand = _corpus(seed)
    loose = {"tol": max(tol, TOL_FLOOR)}
    return [
        _worst("selftest_bound_attainment", map(_bounds_row, systems + frames), {"tol": tol}),
        _worst("selftest_weight_scaling", map(_scaling_row, systems), {"tol": tol}),
        _worst("selftest_canonical_resolution", map(_canonical_row, frames), loose),
        _worst("selftest_atomic_equivalence",
               (_atomic_row(s, r_op, tol) for s, r_op in atomic_rand),
               {"tol": tol, "equivalence_mismatch": 0.0},
               summed=("equivalence_mismatch",)),
        _worst("selftest_shift_transform",
               (transform_shift(s, l_op, loose["tol"])[1].residuals for s, l_op in shifts),
               loose),
        _worst("selftest_pair_laws", (_pair_row(p, tol) for p in pairs), loose),
        _worst("selftest_direct_sum_parseval_dual",
               (_direct_sum_row(chi, xi) for chi, xi in sum_parts), loose),
    ]
