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
from .operators import ORDER_TOL, TOL_FLOOR, Operator, _freeze, opnorm, symmetrize
from .report import VerificationReport, build_report, skipped_report
from .systems import (
    FrameBounds,
    GFusionSystem,
    assemble_frame_operator,
    classify,
    frame_bounds,
    require_frame,
    weighted_gram,
)


@dataclass(frozen=True, eq=False, init=False)
class ResolutionFamily:
    """Per-node operators W_i = P_i^T diag(w_i) T_i B on the ambient space.

    P (``left``) and T (``right``) are stacked sum m_i x n row blocks with
    node i's rows in block i, often a system's own read-only stacked
    matrix; w (``row_weights``) is one weight per row and B (``shared``)
    one n x n factor of every node.  The family claims sum_i mu_i W_i =
    G B = I, with G = P^T diag(mu w) T held as one n x n matrix;
    :func:`verify_resolution` measures how true that is.  The family's
    factors are T_i B.
    """

    ambient_dim: int
    nodes: MeasureNodes
    left: np.ndarray
    right: np.ndarray
    row_weights: np.ndarray
    shared: np.ndarray

    def __init__(self, ambient_dim: int, nodes: MeasureNodes, operators):
        """The family of explicit n x n operators W_i: P_i = I, T_i = W_i, w_i = 1, B = I."""
        n = int(ambient_dim)
        operators = tuple(operators)
        if len(operators) != len(nodes):
            raise ShapeError(f"{len(operators)} operators for {len(nodes)} nodes")
        for i, op in enumerate(operators):
            if op.rows != n or op.cols != n:
                raise ShapeError(f"operator {i} must be {n}x{n}, got {op.rows}x{op.cols}")
        count = len(operators)
        right = np.concatenate([np.zeros((0, n))] + [op.entries for op in operators])
        gram = np.tensordot(nodes.mu, right.reshape(count, n, n), axes=1)  # sum_i mu_i W_i
        _held(nodes, np.tile(np.eye(n), (count, 1)), right, np.ones(count * n),
              np.arange(count + 1) * n, np.eye(n), gram, family=self)

    def _split(self, rows: np.ndarray) -> list[np.ndarray]:
        return [rows[a:b] for a, b in zip(self._bounds[:-1], self._bounds[1:])]

    @property
    def operators(self) -> tuple[Operator, ...]:
        """The W_i as N dense n x n operators, formed on each access."""
        blocks = zip(self._split(self.left), self._split(self.row_weights), self.factors)
        return tuple(Operator((p.T * w) @ t.entries) for p, w, t in blocks)

    @property
    def factors(self) -> tuple[Operator, ...]:
        """The per-node factors T_i B, formed on each access."""
        return tuple(Operator(t @ self.shared) for t in self._split(self.right))

    def weighted_sum(self) -> np.ndarray:
        """sum_i mu_i W_i = G B, one n x n product."""
        return self._gram @ self.shared


def _held(nodes, left, right, row_weights, bounds, shared, gram, family=None):
    """Hold P = ``left``, T = ``right``, w, B = ``shared`` and G in ``family`` (default: a new one).

    Node i owns rows bounds[i]:bounds[i + 1] of P, T and w; ``gram`` is
    G = P^T diag(mu w) T, formed by the caller.
    """
    family = ResolutionFamily.__new__(ResolutionFamily) if family is None else family
    fields = dict(
        ambient_dim=left.shape[1], nodes=nodes, left=_freeze(left), right=_freeze(right),
        row_weights=_freeze(row_weights), shared=_freeze(shared), _gram=_freeze(gram),
        _bounds=bounds,
    )
    for name, value in fields.items():
        object.__setattr__(family, name, value)
    return family


def canonical_resolution(system: GFusionSystem, tol: float = ORDER_TOL) -> ResolutionFamily:
    """The resolution induced by an invertible frame operator.

    Factors are T_i = Lam_i S^-1 and the family is W_i = v_i^2 Lam_i^T T_i:
    P = T = L, w = v^2, B = S^-1, so the mass-weighted sum is the cached S
    times S^-1.  Raises :class:`SingularFrameOperatorError` when the
    system is not a frame.
    """
    require_frame(system, tol)
    s = assemble_frame_operator(system).entries
    return _held(system.nodes, system.stacked, system.stacked, system.per_row(system.weights**2),
                 system._bounds, system._inverse, s)


def verify_resolution(family: ResolutionFamily, tol: float = ORDER_TOL) -> VerificationReport:
    """Measure || sum_i mu_i W_i - I ||; pass iff within ``tol``."""
    residual = opnorm(family.weighted_sum() - np.eye(family.ambient_dim))
    return build_report(
        name="resolution_identity",
        residuals={"identity_residual": residual},
        tolerances={"tol": tol},
        constants={"node_count": float(len(family.nodes))},
    )


def canonical_resolution_report(
    system: GFusionSystem, tol: float = ORDER_TOL
) -> VerificationReport:
    """Check the canonical resolution of a frame with bounds A <= B.

    Measures its identity residual ||S S^-1 - I|| from the cached S and
    S^-1, the residual :func:`verify_resolution` gives the family of
    :func:`canonical_resolution`, bit for bit, without building it; it
    passes within max(tol, TOL_FLOOR).  The energy bounds (A/B^2) ||f||^2 <=
    sum_i mu_i v_i^2 ||T_i f||^2 <= (B/A^2) ||f||^2 hold in closed form
    (the energy is f^T S^-1 f, with extremes 1/B and 1/A over unit f), so
    they are not compared.  A system that is not a frame gets a failed
    report with a note.
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
    s = assemble_frame_operator(system).entries
    return build_report(
        name="canonical_resolution",
        residuals={"identity_residual": opnorm(s @ system._inverse - np.eye(system.ambient_dim))},
        tolerances={"tol": max(tol, TOL_FLOOR)},
        constants={"lower": bounds.lower, "upper": bounds.upper},
    )


def _stacked_factors(system: GFusionSystem, factors) -> np.ndarray:
    """The factors T_i, one m_i x n map per node, stacked into a sum m_i x n matrix."""
    n = system.ambient_dim
    mats = [t.entries if isinstance(t, Operator) else np.asarray(t, float) for t in factors]
    if len(mats) != system.node_count:
        raise ShapeError(f"{len(mats)} factors for {system.node_count} nodes")
    for i, (t_i, m_i) in enumerate(zip(mats, system.codomain_dims)):
        if t_i.shape != (m_i, n):
            raise ShapeError(f"factor {i} must have shape {(m_i, n)}, got {t_i.shape}")
    return np.concatenate([np.zeros((0, n)), *mats])


def energy_lower_check(
    system: GFusionSystem, factors, f, tol: float = ORDER_TOL
) -> VerificationReport:
    """Check (1/D) ||g||^2 <= sum_i mu_i v_i^2 ||T_i f||^2 for the given factors.

    Here g = sum_i mu_i v_i^2 Lam_i^T T_i f and D is the upper frame
    bound.  The inequality holds for arbitrary bounded factors, not only
    canonical ones, so a failure beyond ``tol`` indicates a broken
    system rather than a poor choice of factors.  ``factors`` is one map
    per node.
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
    lhs = float(g @ g) / max(upper, 1e-300)
    return build_report(
        name="energy_lower_check",
        residuals={"lower_energy_violation": max(0.0, lhs - energy)},
        tolerances={"tol": tol},
        constants={"lhs": lhs, "rhs": energy, "upper_bound": upper},
    )


def bounded_resolution_check(
    system: GFusionSystem, factors, tol: float = ORDER_TOL
) -> VerificationReport:
    """Two-sided energy bounds for square factors fixed by their measurement.

    Requires every factor T_i and every local codomain to equal the
    ambient dimension, so the hypothesis T_i^T Lam_i = T_i composes; a
    rectangular input is a shape error by design (there is no sound
    reading of the hypothesis across mismatched spaces).  If the
    hypothesis fails, :class:`HypothesisNotMetError` names it.  The
    family v_i^2 Lam_i^T T_i must resolve the identity; that residual is
    carried in the report, not raised.  On success the bounds
    (1/D) ||f||^2 <= sum mu v^2 ||T_i f||^2 <= D c ||f||^2 are checked
    exactly, with c the largest squared factor norm: the energy is
    f^T E f with E = T^T diag(mu v^2) T, so its extremes over unit f are
    the extreme eigenvalues of E, from one ``eigvalsh``.
    """
    n = system.ambient_dim
    for i, m_i in enumerate(system.codomain_dims):
        if m_i != n:
            raise ShapeError(
                f"node {i} has codomain dimension {m_i}, but this check requires all "
                f"local codomains to equal the ambient dimension {n}"
            )
    stacked = _stacked_factors(system, factors)
    cube = stacked.reshape(-1, n, n)
    defects = cube.transpose(0, 2, 1) @ system.stacked.reshape(-1, n, n) - cube
    hypothesis = float(np.max(np.linalg.norm(defects, 2, axis=(1, 2)), initial=0.0))
    if hypothesis > tol:
        raise HypothesisNotMetError(
            "factor_fixed_by_measurement",
            f"||T_i^T Lam_i - T_i|| = {hypothesis:.3e} exceeds {tol:g}",
        )
    # diag(mu v^2) T gives both G = L^T diag(mu v^2) T and E = T^T diag(mu v^2) T;
    # G is the sum of the family, so its identity residual is ||G - I||.
    weighted = stacked * system.per_row(system.nodes.mu * system.weights**2)[:, None]
    identity_residual = opnorm(system.stacked.T @ weighted - np.eye(n))
    upper = frame_bounds(system).upper
    largest = float(np.max(np.linalg.norm(cube, 2, axis=(1, 2)), initial=0.0)) ** 2
    energies = np.linalg.eigvalsh(symmetrize(stacked.T @ weighted))
    least, most = float(energies[0]), float(energies[-1])
    residuals = {
        "identity_residual": identity_residual,
        "lower_energy_violation": max(0.0, 1.0 / max(upper, 1e-300) - least),
        "upper_energy_violation": max(0.0, most - upper * largest),
        "hypothesis_residual": hypothesis,
    }
    return build_report(
        name="bounded_resolution_check",
        residuals=residuals,
        tolerances={"tol": tol},
        constants={"factor_norm_sup_sq": largest, "upper_bound": upper,
                   "energy_min": least, "energy_max": most},
    )


def frame_from_resolution(
    system: GFusionSystem, lower: float, tol: float = ORDER_TOL
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
        raise ParameterError(f"lower bound must be positive, got {lower}", "lower")
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


def frame_from_resolution_report(
    system: GFusionSystem, tol: float = ORDER_TOL
) -> VerificationReport:
    """The ``frame_from_resolution`` report at the largest lower bound that condition 1 admits.

    That bound is 1 / (top eigenvalue of the energy operator).  The check is
    skipped when the energy operator is zero or a hypothesis is not met.
    """
    name, top = "frame_from_resolution", system._energy_top
    if not top > 0:
        return skipped_report(name, "skipped: zero energy operator", tol)
    try:
        certified = frame_from_resolution(system, 1.0 / top, tol)
    except HypothesisNotMetError as err:
        return skipped_report(name, f"skipped: hypotheses not met ({err.condition})", tol)
    return build_report(name, {}, {"tol": tol}, {"certified_lower": certified.lower,
                                                 "certified_upper": certified.upper},
                        notes=(f"classification: {certified.classification}",))
