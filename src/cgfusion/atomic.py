"""Atomic decomposition of an operator through a measurement system.

An operator K admits an atomic decomposition through a system when every
K f can be reassembled by synthesis from a coefficient field whose
weighted norm is controlled by ||f||.  That happens exactly when the
frame operator dominates a positive multiple of K K^T, and the minimal
constants on both sides coincide; both directions are implemented and
cross-checked here.  The module also provides the two system transforms
that preserve atomicity: combining two cross-orthogonal systems through
an invertible operator, and shifting a system by I + L for positive L.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateKError,
    HypothesisNotMetError,
    NotPositiveError,
    RangeInclusionError,
    ShapeError,
)
from .measure import CoefficientField
from .operators import (
    ORDER_TOL,
    Operator,
    _require_positive,
    _require_symmetric,
    opnorm,
    symmetrize,
)
from .report import VerificationReport, build_report
from .systems import (
    GFusionSystem,
    _analysis_rows,
    _energy_weights,
    _frame_operator_power,
    _synthesis_rows,
    assemble_frame_operator,
    kgf_lower_bound,
    push_through,
    require_frame,
    weighted_gram,
)


@dataclass(frozen=True, eq=False)
class AtomicCertificate:
    """The blockwise map f -> phi behind an atomic decomposition.

    ``block_maps[i]`` sends f to the i-th block of phi; ``c`` is the
    operator norm of the whole map measured between the ambient norm and
    the mass-weighted field norm, so ||phi|| <= c ||f|| always.
    ``range_defect`` is the operator-level distance of K's range from
    the frame operator's range.
    """

    c: float
    block_maps: tuple[Operator, ...]
    range_defect: float


def _minimal_decomposition(system: GFusionSystem, k: Operator) -> tuple[np.ndarray, float, np.ndarray]:
    """Core S^+ K of the decomposition map, its norm c, and S S^+ K - K.

    S^+ comes from the cached eigenpairs of S, cut at ``RANK_TOL``.
    c^2 is the top eigenvalue of (S^+ K)^T S (S^+ K); column j of the
    residual is synthesis of the decomposition of e_j minus K e_j.
    """
    n = system.ambient_dim
    if k.rows != n or k.cols != n:
        raise ShapeError(f"operator must be {n}x{n}, got {k.rows}x{k.cols}")
    s = assemble_frame_operator(system).entries
    core = _frame_operator_power(system, -1.0) @ k.entries
    c = float(np.sqrt(opnorm(symmetrize(core.T @ s @ core))))
    return core, c, s @ core - k.entries


def decomposition_operator(system: GFusionSystem, k: Operator) -> AtomicCertificate:
    """Build the minimal-weighted-norm decomposition map for K.

    The map is analysis composed with S^+ K: block i of phi is
    v_i Lam_i S^+ K f.  Synthesis of the result gives the orthogonal
    projection of K f onto the frame operator's range, so the
    decomposition is exact precisely when K's range is included there.
    """
    core, c, residual = _minimal_decomposition(system, k)
    rows = system.per_row(system.weights)[:, None] * (system.stacked @ core)
    blocks = tuple(Operator(block) for block in system.split_rows(rows))
    return AtomicCertificate(c=c, block_maps=blocks, range_defect=opnorm(residual))


def atomic_decompose(
    system: GFusionSystem, k: Operator, f, tol: float = ORDER_TOL
) -> tuple[CoefficientField, float]:
    """Decompose K f through the system with minimal weighted norm.

    Returns the coefficient field phi with synthesis(phi) = K f and the
    norm constant c of the decomposition map; phi is the analysis of
    S^+ K f.  When K f falls outside
    the frame operator's range the reconstruction residual exceeds
    ``tol`` (relative to ||K f||) and :class:`RangeInclusionError` is
    raised.
    """
    core, c, _ = _minimal_decomposition(system, k)
    kf = k.apply(f)
    rows = _analysis_rows(system, core @ np.asarray(f, dtype=float))
    residual = float(np.linalg.norm(_synthesis_rows(system, rows) - kf))
    if residual > tol * max(1.0, float(np.linalg.norm(kf))):
        raise RangeInclusionError(
            f"K f is not in the range of the frame operator (residual {residual:.3e})",
            residual=residual,
        )
    return CoefficientField(system.split_rows(rows)), c


def atomic_equiv_check(
    system: GFusionSystem, k: Operator, tol: float = ORDER_TOL
) -> VerificationReport:
    """Cross-check the two faces of atomicity for K.

    Face one: the largest constant a_star with a_star K K^T below the
    frame operator.  Face two: decomposability of K f for every basis
    vector f.  The report asserts they agree (a_star > 0, past the cut of
    :func:`kgf_lower_bound`, iff all decompositions succeed) and, when
    decompositions exist, the quantitative link 1/c^2 <= a_star + tol.
    """
    try:
        a_star = kgf_lower_bound(system, k, tol)
    except DegenerateKError:
        return build_report(
            name="atomic_equiv_check",
            residuals={},
            tolerances={"tol": tol},
            constants={"c": 0.0},
            notes=("comparison operator is zero: decomposition is trivial and the "
                   "lower-bound condition is vacuous; both faces hold",),
        )
    _, c, residual = _minimal_decomposition(system, k)
    reconstruction = np.linalg.norm(residual, axis=0)
    worst_recon = float(reconstruction.max())
    decomposable = bool(
        np.all(reconstruction <= tol * np.maximum(1.0, np.linalg.norm(k.entries, axis=0)))
    )
    residuals = {"equivalence_mismatch": 0.0 if (a_star > 0.0) == decomposable else 1.0}
    constants = {"a_star": a_star, "c": c, "worst_reconstruction": worst_recon}
    notes = []
    if decomposable:
        residuals["quantitative_link_violation"] = (
            max(0.0, 1.0 / c**2 - a_star) if c > 0 else 0.0
        )
        notes.append("decomposition exists for every basis vector")
    else:
        notes.append("decomposition fails outside the frame operator's range")
    return build_report(
        name="atomic_equiv_check",
        residuals=residuals,
        tolerances={"tol": tol, "equivalence_mismatch": 0.0},
        constants=constants,
        notes=tuple(notes),
    )


def atomic_wrt_frame_operator(
    system: GFusionSystem, tol: float = ORDER_TOL
) -> VerificationReport:
    """Atomicity of a frame with respect to its own frame operator.

    Must hold for every frame, with a strictly positive a_star; raises
    :class:`SingularFrameOperatorError` when the system is not a frame.
    """
    require_frame(system)
    inner = atomic_equiv_check(system, assemble_frame_operator(system), tol)
    a_star = inner.constants.get("a_star", 0.0)
    residuals = dict(inner.residuals)
    residuals["a_star_nonpositive"] = 0.0 if a_star > 0.0 else 1.0
    tolerances = dict(inner.tolerances)
    tolerances["a_star_nonpositive"] = 0.0
    return build_report(
        name="atomic_wrt_frame_operator",
        residuals=residuals,
        tolerances=tolerances,
        constants=dict(inner.constants),
        notes=inner.notes,
    )


def _shared_geometry_or_raise(
    chi: GFusionSystem, xi: GFusionSystem, tol: float
) -> None:
    if chi.ambient_dim != xi.ambient_dim:
        raise HypothesisNotMetError("shared_nodes", "ambient dimensions differ")
    if chi.nodes.ids != xi.nodes.ids or not np.allclose(
        chi.nodes.mu, xi.nodes.mu, rtol=0.0, atol=tol
    ):
        raise HypothesisNotMetError("shared_nodes", "systems live on different nodes")
    if chi.weights.size and np.abs(chi.weights - xi.weights).max() > tol:
        raise HypothesisNotMetError("shared_weights", "weight profiles differ")
    if chi.codomain_dims != xi.codomain_dims:
        raise HypothesisNotMetError(
            "matching_codomains", "local codomain dimensions differ"
        )
    for i, (a, b) in enumerate(zip(chi.subspaces, xi.subspaces)):
        if opnorm(a.projector() - b.projector()) > tol:
            raise HypothesisNotMetError(
                "shared_subspaces", f"subspaces differ at node {chi.nodes.ids[i]}"
            )


def transform_combined(
    chi: GFusionSystem,
    xi: GFusionSystem,
    l: Operator,
    g: Operator,
    k: Operator,
    tol: float = ORDER_TOL,
) -> tuple[GFusionSystem, VerificationReport]:
    """Combine two cross-orthogonal systems through M = L + G, with a report on its bound.

    The systems must share nodes, subspaces, weights and codomains, the
    cross synthesis sum mu v^2 Lam^T Xi must vanish, M must be
    invertible, and K must commute with M.  The local operators
    (Lam_i + Xi_i) B_i on chi's bases B_i, pushed through M, give subspaces
    M F_i and effective maps (Lam_i + Xi_i) M^T.  Its lower bound with
    respect to K is at least a_star(chi, K) * sigma_min(M)^2, which the
    ``combined_transform_bound`` report checks with the kgf constants of
    :func:`kgf_lower_bound`; a zero K raises its :class:`DegenerateKError`.
    """
    n = chi.ambient_dim
    for name, op in (("L", l), ("G", g), ("K", k)):
        if op.rows != n or op.cols != n:
            raise ShapeError(f"{name} must be {n}x{n}, got {op.rows}x{op.cols}")
    _shared_geometry_or_raise(chi, xi, tol)
    cross = weighted_gram(chi, _energy_weights(chi), xi)
    if opnorm(cross) > tol:
        raise HypothesisNotMetError(
            "vanishing_cross_synthesis",
            f"cross synthesis norm {opnorm(cross):.3e} exceeds {tol:g}",
        )
    m = l.entries + g.entries
    singular = np.linalg.svd(m, compute_uv=False)
    if singular.size == 0 or singular[-1] <= tol:
        raise HypothesisNotMetError(
            "invertibility", "L + G is numerically singular"
        )
    commutator = opnorm(k.entries @ m - m @ k.entries)
    if commutator > tol:
        raise HypothesisNotMetError(
            "commutation", f"K does not commute with L + G (norm {commutator:.3e})"
        )
    summed = chi.split_rows(chi.stacked + xi.stacked)
    locals_ = tuple(Operator(rows @ sub.basis) for rows, sub in zip(summed, chi.subspaces))
    combined = push_through(GFusionSystem(n, chi.nodes, chi.subspaces, locals_, chi.weights), m)
    sigma_min = float(singular[-1])
    a_chi, a_new = kgf_lower_bound(chi, k, tol), kgf_lower_bound(combined, k, tol)
    return combined, build_report(
        "combined_transform_bound", {"bound_defect": max(0.0, a_chi * sigma_min**2 - a_new)},
        {"tol": tol}, {"a_chi": a_chi, "a_new": a_new, "sigma_min": sigma_min})


def transform_shift(
    system: GFusionSystem, l: Operator, tol: float = ORDER_TOL
) -> tuple[GFusionSystem, VerificationReport]:
    """Shift a system by M = I + L for positive semidefinite L.

    Positivity of L makes M invertible, so every subspace keeps its
    dimension at any condition number of M; ``tol`` is only that gate (L
    symmetric within ``SYM_TOL`` of its largest entry, no eigenvalue below
    -tol ||L||).  The shifted frame operator is M S M^T by
    construction of :func:`push_through`; the report carries ||L|| and,
    as it measures nothing, no tolerance.
    """
    n = system.ambient_dim
    if l.rows != n or l.cols != n:
        raise ShapeError(f"L must be {n}x{n}, got {l.rows}x{l.cols}")
    _require_positive(np.linalg.eigvalsh(_require_symmetric(l, "L", NotPositiveError)), tol, "L")
    shifted = push_through(system, np.eye(n) + l.entries)
    return shifted, build_report("shift_transform_frame_operator", {}, {},
                                 {"shift_norm": opnorm(l.entries)})
