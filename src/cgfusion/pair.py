"""Mixed frame operators for pairs of measurement systems.

Two systems over the same nodes, with matching local codomains, induce a
mixed operator: analyze with the first system, then reassemble through
the second.  Its norm is controlled by the geometric mean of the two
upper frame bounds, its adjoint is the swapped mixed operator, and
invertibility of the mixed operator forces the analysis-side system to
be a frame, with an explicit lower bound.

Naming convention used throughout the reports: ``bessel_chi`` (D2) is
the upper frame bound of the analysis-side system chi, and ``bessel_xi``
(D1) that of the synthesis-side system xi.  A certified lower bound for
one side divides by the other side's bound: ||M f|| <= sqrt(D1) ||U_chi f||
for the mixed operator M and chi's analysis U_chi, so
lambda_min(S_chi) >= sigma_min(M)^2 / D1, and by transposition
lambda_min(S_xi) >= sigma_min(M)^2 / D2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError, ShapeError
from .operators import ORDER_TOL, Operator, _freeze, opnorm, symmetrize
from .report import SAMPLED, VerificationReport, build_report, skipped_report
from .systems import GFusionSystem, frame_bounds, weighted_gram


@dataclass(frozen=True, eq=False)
class PairSystem:
    """Two systems sharing nodes and local codomains.

    ``chi`` is the analysis side (weights v), ``xi`` the synthesis side
    (weights s).  Finite dimension makes both automatically Bessel; the
    relevant upper bounds are read off their frame operators on demand.
    """

    chi: GFusionSystem
    xi: GFusionSystem

    def __post_init__(self):
        if self.chi.ambient_dim != self.xi.ambient_dim:
            raise ShapeError(
                f"ambient dimensions differ: {self.chi.ambient_dim} vs {self.xi.ambient_dim}"
            )
        if self.chi.nodes.ids != self.xi.nodes.ids or not np.array_equal(
            self.chi.nodes.mu, self.xi.nodes.mu
        ):
            raise ShapeError("systems must share their measure nodes")
        if self.chi.codomain_dims != self.xi.codomain_dims:
            raise ShapeError(
                f"local codomains differ: {self.chi.codomain_dims} vs {self.xi.codomain_dims}"
            )

    @property
    def ambient_dim(self) -> int:
        return self.chi.ambient_dim

    @cached_property
    def _mixed_operator(self) -> Operator:
        # Safe to cache: the pair and both systems are immutable.
        weights = self.chi.nodes.mu * self.chi.weights * self.xi.weights
        return Operator(weighted_gram(self.xi, weights, self.chi))

    @cached_property
    def _singular_values(self) -> np.ndarray:
        # The singular values of M, descending, from one SVD; read-only like M.
        return _freeze(np.linalg.svd(self._mixed_operator.entries, compute_uv=False))

    @cached_property
    def _deviation(self) -> float:
        # ||I - M||, the default lambda of both perturbation bounds.
        return opnorm(np.eye(self.ambient_dim) - self._mixed_operator.entries)

    def bessel_bounds(self) -> tuple[float, float]:
        """(bessel_xi, bessel_chi) = (D1, D2): upper bounds of xi and chi."""
        d1 = frame_bounds(self.xi).upper
        d2 = frame_bounds(self.chi).upper
        return d1, d2


def pair_frame_operator(pair: PairSystem) -> Operator:
    """Mixed operator sum_i mu_i v_i s_i Xi_i^T Lam_i (not symmetric), cached per pair."""
    return pair._mixed_operator


def pair_adjoint_and_norm(pair: PairSystem, tol: float = ORDER_TOL) -> VerificationReport:
    """Verify the norm bound ||M|| <= sqrt(D1 D2) for the mixed operator M.

    The adjoint law, that M^T is the mixed operator of the swapped pair,
    holds by construction: both are products of the same two stacked
    matrices, so it is not measured here.
    """
    d1, d2 = pair.bessel_bounds()
    norm = float(pair._singular_values[0])
    return build_report(
        name="pair_adjoint_and_norm",
        residuals={"norm_excess": max(0.0, norm - float(np.sqrt(d1 * d2)))},
        tolerances={"tol": tol},
        constants={"operator_norm": norm, "bessel_xi": d1, "bessel_chi": d2},
        notes=("convention: bessel_chi bounds the analysis-side system, "
               "bessel_xi the synthesis side",),
    )


def bounded_below_analysis(pair: PairSystem, tol: float = ORDER_TOL) -> VerificationReport:
    """Decide bounded-belowness of the mixed operator and exploit it.

    When the smallest singular value of the mixed operator M exceeds
    ``tol``, the family W_i = v_i s_i Xi_i^T Lam_i M^-1 is the right-hand
    resolution f = sum_i mu_i v_i s_i Xi_i^T Lam_i (M^-1 f): its sum is the
    cached M times M^-1, so the family itself is never formed.  Its
    ``identity_residual`` ||M M^-1 - I||, the
    ``inverse_identity`` ||M^-1 M - I|| and the induced frame lower bound
    sigma_min^2 / D1 for the analysis side (D1 = ``bessel_xi``, the
    synthesis side's upper bound) are verified.  Otherwise the pair is
    reported as not bounded below, an analysis outcome, not a failure.
    """
    mixed = pair_frame_operator(pair).entries
    n = pair.ambient_dim
    sigma_min = float(pair._singular_values[-1])
    d1, d2 = pair.bessel_bounds()
    if sigma_min <= tol:
        return build_report(
            name="bounded_below_analysis",
            residuals={},
            tolerances={"tol": tol},
            constants={"sigma_min": sigma_min, "bessel_xi": d1, "bessel_chi": d2},
            notes=("mixed operator is not bounded below; no resolution induced",),
        )
    inverse = np.linalg.inv(mixed)
    chi_lower = frame_bounds(pair.chi).lower
    certified = sigma_min**2 / d1
    return build_report(
        name="bounded_below_analysis",
        residuals={
            "identity_residual": opnorm(mixed @ inverse - np.eye(n)),
            "inverse_identity": opnorm(inverse @ mixed - np.eye(n)),
            "lower_bound_excess": max(0.0, certified - chi_lower),
        },
        tolerances={"tol": tol},
        constants={
            "sigma_min": sigma_min,
            "certified_chi_lower": certified,
            "spectral_chi_lower": chi_lower,
            "bessel_xi": d1,
            "bessel_chi": d2,
        },
        notes=("mixed operator is bounded below; induced resolution verified",),
    )


def _unit_directions(mixed: np.ndarray, trials: int, seed: int) -> np.ndarray:
    """Seeded random unit directions, then the eigenvectors of three matrices, as rows."""
    n = mixed.shape[0]
    draws = np.random.default_rng(seed).standard_normal((max(int(trials), 0), n))
    norms = np.linalg.norm(draws, axis=1)
    directions = [draws[norms > 0] / norms[norms > 0, None]]
    eye = np.eye(n)
    for matrix in (
        symmetrize(mixed),
        mixed.T @ mixed,
        (eye - mixed).T @ (eye - mixed),
    ):
        _, vectors = np.linalg.eigh(symmetrize(matrix))
        directions.append(vectors.T)
    return np.vstack(directions)


def perturbation_bound(
    pair: PairSystem,
    lambda1: float | None = None,
    lambda2: float = 0.0,
    trials: int = 100,
    seed: int = 0,
    tol: float = ORDER_TOL,
) -> VerificationReport:
    """Frame bound from the mixed-norm perturbation hypothesis.

    The hypothesis ||f - S f|| <= lambda1 ||f|| + lambda2 ||S f|| is
    checked on seeded random unit directions plus the eigenvector
    directions of the symmetric part of S, of S^T S, and of
    (I - S)^T (I - S); it mixes two norms, so this is a sampled
    certificate, flagged as such.  When the hypothesis holds, the
    analysis side is certified a frame with lower bound
    ((1 - lambda1) / (1 + lambda2))^2 / D1, cross-checked against its
    spectral lower bound.  With ``lambda1`` None it is ||I - S||, and the
    check is skipped when that is not below 1.
    """
    if not lambda2 > -1.0:
        raise ParameterError(f"lambda2 must be > -1, got {lambda2}", "lambda2")
    if lambda1 is None:
        lambda1 = pair._deviation
        if not lambda1 < 1.0:
            return skipped_report("perturbation_bound", f"skipped: deviation {lambda1:.3g} "
                                  "leaves no admissible lambda1 < 1", tol)
    if not lambda1 < 1.0:
        raise ParameterError(f"lambda1 must be < 1, got {lambda1}", "lambda1")
    mixed = pair_frame_operator(pair).entries
    directions = _unit_directions(mixed, trials, seed)
    images = directions @ mixed.T
    worst = float(np.max(
        np.linalg.norm(directions - images, axis=1)
        - lambda1 * np.linalg.norm(directions, axis=1)
        - lambda2 * np.linalg.norm(images, axis=1)
    ))
    d1, d2 = pair.bessel_bounds()
    met = worst <= tol
    constants = {
        "hypothesis_max": worst,
        "bessel_xi": d1,
        "bessel_chi": d2,
    }
    residuals = {"hypothesis_excess": max(0.0, worst)}
    notes = ["hypothesis checked by structured sampling, not exhaustively"]
    if met:
        certified = ((1.0 - lambda1) / (1.0 + lambda2)) ** 2 / d1
        chi_lower = frame_bounds(pair.chi).lower
        constants["certified_chi_lower"] = certified
        constants["spectral_chi_lower"] = chi_lower
        residuals["lower_bound_excess"] = max(0.0, certified - chi_lower)
        notes.append("hypothesis met on all sampled directions")
    else:
        notes.append("hypothesis fails on a sampled direction")
    return build_report(
        name="perturbation_bound",
        residuals=residuals,
        tolerances={"tol": tol},
        constants=constants,
        provenance=SAMPLED,
        notes=tuple(notes),
    )


def symmetric_perturbation(
    pair: PairSystem,
    lam: float | None = None,
    tol: float = ORDER_TOL,
) -> VerificationReport:
    """Frame bounds for both systems from ||I - S|| <= lam.

    Unlike the mixed-norm hypothesis this one is equivalent to an
    operator-norm inequality, so it is verified exactly through singular
    values.  When met, both systems are certified frames: the analysis
    side with (1 - lam)^2 / D1, the synthesis side with (1 - lam)^2 / D2,
    each compared with its spectral lower bound.  No Rayleigh quotient
    lies below that bound, so the comparison covers every direction.
    With ``lam`` None it is ||I - S|| itself, and the check is skipped when
    that is not below 1.
    """
    deviation = pair._deviation
    if lam is None:
        if not deviation < 1.0:
            return skipped_report("symmetric_perturbation",
                                  f"skipped: ||I - S|| = {deviation:.3g} is not below 1", tol)
        lam = deviation
    if not 0.0 <= lam < 1.0:
        raise ParameterError(f"lambda must lie in [0, 1), got {lam}", "lam")
    d1, d2 = pair.bessel_bounds()
    met = deviation <= lam + tol
    residuals = {"hypothesis_excess": max(0.0, deviation - lam)}
    constants = {"deviation_norm": deviation, "bessel_xi": d1, "bessel_chi": d2}
    notes = []
    if met:
        chi_cert = (1.0 - lam) ** 2 / d1
        xi_cert = (1.0 - lam) ** 2 / d2
        chi_lower = frame_bounds(pair.chi).lower
        xi_lower = frame_bounds(pair.xi).lower
        residuals["chi_bound_excess"] = max(0.0, chi_cert - chi_lower)
        residuals["xi_bound_excess"] = max(0.0, xi_cert - xi_lower)
        constants.update(
            {
                "certified_chi_lower": chi_cert,
                "certified_xi_lower": xi_cert,
                "spectral_chi_lower": chi_lower,
                "spectral_xi_lower": xi_lower,
            }
        )
        notes.append("hypothesis met: both systems certified")
    else:
        notes.append("hypothesis ||I - S|| <= lambda fails")
    return build_report(
        name="symmetric_perturbation",
        residuals=residuals,
        tolerances={"tol": tol},
        constants=constants,
        notes=tuple(notes),
    )
