"""Resolutions of the identity induced by measurement systems.

A resolution of the identity is a per-node family of operators whose
mass-weighted sum is the identity in operator norm.  An invertible frame
operator always induces one canonically (push each effective map through
the inverse); conversely, a resolution built from weighted projections
certifies frame bounds without touching the spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    HypothesisNotMetError,
    ParameterError,
    ShapeError,
    SingularFrameOperatorError,
)
from .measure import MeasureNodes
from .operators import ORDER_TOL, STRUCT_TOL, Operator, opnorm
from .report import EXACT, SAMPLED, VerificationReport, build_report
from .systems import (
    FrameBounds,
    GFusionSystem,
    assemble_frame_operator,
    classify,
    frame_bounds,
    require_frame,
    weighted_gram,
)


@dataclass(frozen=True, eq=False)
class ResolutionFamily:
    """Per-node operators W_i on the ambient space, plus optional factors.

    The family claims sum_i mu_i W_i = I; :func:`verify_resolution`
    measures how true that is.  ``factors`` carries the per-node maps
    T_i (shape m_i x ambient) when the family was built from them.
    """

    ambient_dim: int
    nodes: MeasureNodes
    operators: tuple[Operator, ...]
    factors: tuple[Operator, ...] | None = None

    def __post_init__(self):
        n = int(self.ambient_dim)
        operators = tuple(self.operators)
        if len(operators) != len(self.nodes):
            raise ShapeError(
                f"{len(operators)} operators for {len(self.nodes)} nodes"
            )
        for i, op in enumerate(operators):
            if op.rows != n or op.cols != n:
                raise ShapeError(f"operator {i} must be {n}x{n}, got {op.rows}x{op.cols}")
        if self.factors is not None:
            factors = tuple(self.factors)
            if len(factors) != len(self.nodes):
                raise ShapeError(f"{len(factors)} factors for {len(self.nodes)} nodes")
            for i, op in enumerate(factors):
                if op.cols != n:
                    raise ShapeError(f"factor {i} must act on R^{n}, got {op.cols} columns")
            object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "ambient_dim", n)
        object.__setattr__(self, "operators", operators)

    def weighted_sum(self) -> np.ndarray:
        total = np.zeros((self.ambient_dim, self.ambient_dim))
        for mass, op in zip(self.nodes.mu, self.operators):
            total += float(mass) * op.entries
        return total


def canonical_resolution(system: GFusionSystem, tol: float = ORDER_TOL) -> ResolutionFamily:
    """The resolution induced by an invertible frame operator.

    Factors are T_i = Lam_i S^-1 and the family is W_i = v_i^2 Lam_i^T T_i,
    so the mass-weighted sum telescopes to S S^-1 = I.  Raises
    :class:`SingularFrameOperatorError` when the system is not a frame.
    """
    require_frame(system, tol)
    s_inv = np.linalg.inv(assemble_frame_operator(system).entries)
    factors = tuple(Operator(t_i) for t_i in system.split_rows(system.stacked @ s_inv))
    operators = tuple(
        Operator(float(weight) ** 2 * (lam.T @ t_i.entries))
        for weight, lam, t_i in zip(system.weights, system.effective_maps, factors)
    )
    return ResolutionFamily(system.ambient_dim, system.nodes, operators, factors)


def verify_resolution(family: ResolutionFamily, tol: float = STRUCT_TOL) -> VerificationReport:
    """Measure || sum_i mu_i W_i - I ||; pass iff within ``tol``."""
    residual = opnorm(family.weighted_sum() - np.eye(family.ambient_dim))
    return build_report(
        name="resolution_identity",
        residuals={"identity_residual": residual},
        tolerances={"tol": tol},
        constants={"node_count": float(len(family.nodes))},
        provenance=EXACT,
    )


def canonical_resolution_report(
    system: GFusionSystem, draw_samples, tol: float = ORDER_TOL
) -> VerificationReport:
    """Check the canonical resolution of a frame with bounds A <= B.

    Measures its identity residual (to max(tol, 1e-8)) and, on the rows f
    of ``draw_samples()``, the energy bounds
    (A/B^2) ||f||^2 <= sum_i mu_i v_i^2 ||T_i f||^2 <= (B/A^2) ||f||^2.
    A system that is not a frame gets a failed report with a note;
    ``draw_samples`` is then never called, so a caller's seeded stream
    is left as it was.
    """
    try:
        bounds = require_frame(system, tol)
    except SingularFrameOperatorError:
        return build_report(
            name="canonical_resolution",
            residuals={},
            tolerances={"tol": tol},
            notes=("not a frame; the canonical resolution is undefined",),
            force_fail=True,
        )
    family = canonical_resolution(system, tol)
    identity_tol = max(tol, 1e-8)
    inner = verify_resolution(family, identity_tol)
    samples = draw_samples()
    ratio = factor_energy(system, family.factors, samples) / np.sum(samples**2, axis=1)
    lower_violation = float(np.max(bounds.lower / bounds.upper**2 - ratio))
    upper_violation = float(np.max(ratio - bounds.upper / bounds.lower**2))
    return build_report(
        name="canonical_resolution",
        residuals={
            "identity_residual": inner.residuals["identity_residual"],
            "energy_lower_violation": max(0.0, lower_violation),
            "energy_upper_violation": max(0.0, upper_violation),
        },
        tolerances={"tol": identity_tol},
        constants={"lower": bounds.lower, "upper": bounds.upper},
        provenance=SAMPLED,
    )


def _factor_matrices(system: GFusionSystem, factors) -> list[np.ndarray]:
    mats = []
    for i, factor in enumerate(factors):
        entries = factor.entries if isinstance(factor, Operator) else np.asarray(factor, float)
        if entries.ndim != 2 or entries.shape[1] != system.ambient_dim:
            raise ShapeError(
                f"factor {i} must have {system.ambient_dim} columns, got {entries.shape}"
            )
        mats.append(entries)
    if len(mats) != system.node_count:
        raise ShapeError(f"{len(mats)} factors for {system.node_count} nodes")
    return mats


def _stacked_factors(system: GFusionSystem, factors) -> np.ndarray:
    mats = _factor_matrices(system, factors)
    rows = tuple(t_i.shape[0] for t_i in mats)
    if rows != system.codomain_dims:
        raise ShapeError(f"factor rows {rows} do not match node codomains {system.codomain_dims}")
    return np.concatenate([np.zeros((0, system.ambient_dim)), *mats])


def factor_energy(system: GFusionSystem, factors, samples) -> np.ndarray:
    """Energy sum_i mu_i v_i^2 ||T_i f||^2 of the factors T_i, for each row f of ``samples``."""
    measured = np.asarray(samples, dtype=float) @ _stacked_factors(system, factors).T
    return measured**2 @ system.per_row(system.nodes.mu * system.weights**2)


def energy_lower_check(
    system: GFusionSystem, factors, f, tol: float = STRUCT_TOL
) -> VerificationReport:
    """Check (1/D) ||g||^2 <= sum_i mu_i v_i^2 ||T_i f||^2 for the given factors.

    Here g = sum_i mu_i v_i^2 Lam_i^T T_i f and D is the upper frame
    bound.  The inequality holds for arbitrary bounded factors, not only
    canonical ones, so a failure beyond ``tol`` indicates a broken
    system rather than a poor choice of factors.
    """
    stacked = _stacked_factors(system, factors)
    vec = np.asarray(f, dtype=float)
    if vec.shape != (system.ambient_dim,):
        raise ShapeError(f"vector must have shape ({system.ambient_dim},)")
    upper = frame_bounds(system).upper
    tf = stacked @ vec
    energy_weights = system.per_row(system.nodes.mu * system.weights**2)
    g = system.stacked.T @ (energy_weights * tf)
    energy = float(energy_weights @ tf**2)
    g_norm_sq = float(g @ g)
    lhs = 0.0 if g_norm_sq == 0.0 else g_norm_sq / max(upper, 1e-300)
    return build_report(
        name="energy_lower_check",
        residuals={"lower_energy_violation": max(0.0, lhs - energy)},
        tolerances={"tol": tol},
        constants={"lhs": lhs, "rhs": energy, "upper_bound": upper},
        provenance=EXACT,
    )


def bounded_resolution_check(
    system: GFusionSystem, factors, tol: float = STRUCT_TOL
) -> VerificationReport:
    """Two-sided energy bounds for square factors fixed by their measurement.

    Requires every factor T_i and every local codomain to equal the
    ambient dimension, so the hypothesis T_i^T Lam_i = T_i composes; a
    rectangular input is a shape error by design (there is no sound
    reading of the hypothesis across mismatched spaces).  If the
    hypothesis fails, :class:`HypothesisNotMetError` names it.  The
    family v_i^2 Lam_i^T T_i must resolve the identity; that residual is
    carried in the report, not raised.  On success the bounds
    (1/D) ||f||^2 <= sum mu v^2 ||T_i f||^2 <= D E ||f||^2 are verified
    on a deterministic sample, with E the largest squared factor norm.
    """
    n = system.ambient_dim
    for i, m_i in enumerate(system.codomain_dims):
        if m_i != n:
            raise ShapeError(
                f"node {i} has codomain dimension {m_i}, but this check requires all "
                f"local codomains to equal the ambient dimension {n}"
            )
    mats = _factor_matrices(system, factors)
    for i, t_i in enumerate(mats):
        if t_i.shape != (n, n):
            raise ShapeError(
                f"factor {i} must be square {n}x{n}, got {t_i.shape}; rectangular "
                "factors are unsupported by this check"
            )
    hypothesis = 0.0
    for lam, t_i in zip(system.effective_maps, mats):
        hypothesis = max(hypothesis, opnorm(t_i.T @ lam - t_i))
    if hypothesis > tol:
        raise HypothesisNotMetError(
            "factor_fixed_by_measurement",
            f"||T_i^T Lam_i - T_i|| = {hypothesis:.3e} exceeds {tol:g}",
        )
    family = ResolutionFamily(
        n,
        system.nodes,
        tuple(
            Operator(float(w) ** 2 * (lam.T @ t_i))
            for w, lam, t_i in zip(system.weights, system.effective_maps, mats)
        ),
    )
    resolution = verify_resolution(family, tol)
    upper = frame_bounds(system).upper
    largest = max((opnorm(t_i) ** 2 for t_i in mats), default=0.0)
    samples = np.vstack([np.eye(n), np.random.default_rng(0).standard_normal((50, n))])
    norm_sq = np.einsum("ij,ij->i", samples, samples)
    energy = factor_energy(system, mats, samples)
    lower_violation = max(0.0, float(np.max(norm_sq / max(upper, 1e-300) - energy)))
    upper_violation = max(0.0, float(np.max(energy - upper * largest * norm_sq)))
    residuals = {
        "identity_residual": resolution.residuals["identity_residual"],
        "lower_energy_violation": lower_violation,
        "upper_energy_violation": upper_violation,
        "hypothesis_residual": hypothesis,
    }
    return build_report(
        name="bounded_resolution_check",
        residuals=residuals,
        tolerances={"tol": tol},
        constants={"factor_norm_sup_sq": largest, "upper_bound": upper},
        provenance=SAMPLED,
    )


def frame_from_resolution(
    system: GFusionSystem, lower: float, tol: float = STRUCT_TOL
) -> FrameBounds:
    """Certify frame bounds (lower, sup v^2 / lower) from two conditions.

    Condition 1: the unweighted energy operator sum mu Lam^T Lam is
    dominated by 1/lower.  Condition 2: the weight-one family
    v_i Lam_i^T Lam_i resolves the identity.  Violations raise
    :class:`HypothesisNotMetError` naming the condition.  The certified
    bounds are cross-validated against the spectral ones before being
    returned.
    """
    if not lower > 0:
        raise ParameterError(f"lower bound must be positive, got {lower}")
    top = system._energy_top
    if top > 1.0 / lower + tol:
        raise HypothesisNotMetError(
            "energy_upper_bound",
            f"unweighted energy operator reaches {top:.6g} > 1/A = {1.0 / lower:.6g}",
        )
    family_sum = weighted_gram(system, system.nodes.mu * system.weights)
    residual = opnorm(family_sum - np.eye(system.ambient_dim))
    if residual > tol:
        raise HypothesisNotMetError(
            "weighted_resolution",
            "the weight-one projection family does not resolve the identity "
            f"(residual {residual:.3e})",
        )
    sup_weight_sq = float(np.max(system.weights) ** 2)
    upper = sup_weight_sq / lower
    spectral = frame_bounds(system, tol)
    if lower > spectral.lower + tol or spectral.upper > upper + tol:
        raise HypothesisNotMetError(
            "certified_bounds_consistency",
            "certified bounds disagree with the spectral bounds "
            f"([{lower:.6g}, {upper:.6g}] vs [{spectral.lower:.6g}, {spectral.upper:.6g}])",
        )
    return FrameBounds(lower, upper, classify(lower, upper, tol))
