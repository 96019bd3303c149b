"""Direct sums of systems, Parseval canonicalization, and canonical duals.

The direct sum stacks two systems block-diagonally on the orthogonal sum
of their ambient spaces; by construction its frame operator is the block
diagonal of the component operators and its bounds are the componentwise
min/max.  These laws are tests against an independent oracle, not
runtime checks.
Parsevalization pushes any frame through the inverse square root of its
frame operator, and the canonical dual through the inverse; both accept
arbitrary frames, not only block-structured ones, since neither
construction uses the block structure.
"""

from __future__ import annotations

import numpy as np

from .operators import ORDER_TOL, TOL_FLOOR, Operator, Subspace, opnorm
from .report import VerificationReport, build_report
from .systems import (
    GFusionSystem,
    _frame_operator_power,
    _require_shared_nodes,
    assemble_frame_operator,
    frame_bounds,
    push_through,
    require_frame,
)


def direct_sum_system(chi: GFusionSystem, xi: GFusionSystem) -> GFusionSystem:
    """Stack two systems sharing nodes into one block system on R^(n + x).

    Each node's basis and local map are block diagonal, chi's block first.

    The combined system carries the left system's weights.  When the
    right system's weights differ per node, the ratio is folded into its
    block of the local maps, so both components keep their measurement
    energies exactly; the combined frame operator therefore equals
    blockdiag(S_chi, S_xi) and the combined bounds are the componentwise
    (min of lowers, max of uppers) in every case.
    """
    _require_shared_nodes(chi, xi)
    n, x = chi.ambient_dim, xi.ambient_dim
    subspaces = []
    locals_ = []
    for sub_a, sub_b, loc_a, loc_b, v, s in zip(
        chi.subspaces, xi.subspaces, chi.local_maps, xi.local_maps,
        chi.weights, xi.weights,
    ):
        basis = np.zeros((n + x, sub_a.dim + sub_b.dim))
        basis[:n, : sub_a.dim] = sub_a.basis
        basis[n:, sub_a.dim :] = sub_b.basis
        subspaces.append(Subspace(n + x, basis))
        local = np.zeros((loc_a.rows + loc_b.rows, loc_a.cols + loc_b.cols))
        local[: loc_a.rows, : loc_a.cols] = loc_a.entries
        local[loc_a.rows :, loc_a.cols :] = float(s) / float(v) * loc_b.entries
        locals_.append(Operator(local))
    return GFusionSystem(n + x, chi.nodes, tuple(subspaces), tuple(locals_), chi.weights)


def direct_sum_laws(chi: GFusionSystem, xi: GFusionSystem) -> tuple[GFusionSystem, VerificationReport]:
    """The direct sum of two systems, with a report of its bounds.

    By construction of :func:`direct_sum_system` the frame operator is
    blockdiag(S_chi, S_xi), so ``lower`` and ``upper`` are the min of the
    lower and the max of the upper component bounds; the report records
    them and measures nothing, so it has no residuals and no tolerances.
    """
    system = direct_sum_system(chi, xi)
    bounds = frame_bounds(system)
    return system, build_report("direct_sum_laws", {}, {},
                                {"lower": bounds.lower, "upper": bounds.upper})


def parsevalize(system: GFusionSystem) -> GFusionSystem:
    """Canonical Parseval version of a frame.

    Pushes the system through the invertible S^(-1/2) (``push_through``):
    subspaces become S^(-1/2) F_i, of the same dimensions, and effective maps
    pick up S^(-1/2) on the right.  The result's frame operator is the
    identity within roundoff.  A frame passes the rank cut of S^(-1/2).
    """
    require_frame(system)
    return push_through(system, _frame_operator_power(system, -0.5))


def parseval_residual(system: GFusionSystem) -> float:
    """||S - I||_2, the distance of the frame operator from the identity."""
    return opnorm(assemble_frame_operator(system).entries - np.eye(system.ambient_dim))


def parseval_report(system: GFusionSystem, tol: float = ORDER_TOL) -> VerificationReport:
    """The ``parseval_identity`` report: :func:`parseval_residual` within max(tol, TOL_FLOOR)."""
    return build_report("parseval_identity", {"identity_residual": parseval_residual(system)},
                        {"tol": max(tol, TOL_FLOOR)})


def canonical_dual(
    system: GFusionSystem, tol: float = ORDER_TOL
) -> tuple[GFusionSystem, VerificationReport]:
    """Canonical dual frame, with a verification of its frame operator.

    The dual is the system pushed through the invertible S^-1, dimensions
    kept; its frame operator must equal S^-1, and its optimal bounds are the
    reciprocals [1/B, 1/A] of the original ones, which the report checks.
    Each residual is in units of S^-1, so it passes within tol ||S^-1|| = tol / A.
    """
    bounds = require_frame(system)
    s_inv = system._inverse
    dual = push_through(system, s_inv)
    s_dual = assemble_frame_operator(dual).entries
    dual_bounds = frame_bounds(dual, tol)
    report = build_report(
        name="canonical_dual",
        residuals={
            "dual_operator_residual": opnorm(s_dual - s_inv),
            "lower_bound_defect": max(0.0, 1.0 / bounds.upper - dual_bounds.lower),
            "upper_bound_excess": max(0.0, dual_bounds.upper - 1.0 / bounds.lower),
        },
        tolerances={"tol": tol / bounds.lower},
        constants={
            "dual_lower": dual_bounds.lower,
            "dual_upper": dual_bounds.upper,
            "original_lower": bounds.lower,
            "original_upper": bounds.upper,
        },
    )
    return dual, report
