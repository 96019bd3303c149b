"""Weighted-subspace measurement systems and their frame operators.

A system attaches to every measure node a subspace of the ambient space,
a local operator acting in that subspace's coordinates, and a positive
weight.  Node i measures a vector f as

    weight_i * local_i @ (basis_i^T f),

i.e. project, express in basis coordinates, apply the local operator.
Storing the local operator in basis coordinates makes the effective map
factor through the subspace projection by construction; the rank-typed
alternative (arbitrary maps silently ignoring the projection) cannot be
represented at all.

The effective maps Lam of all nodes are the row blocks of one stacked
matrix L, so each sum over nodes is one product with L.  The frame
operator S = L^T diag(mass * weight^2) L; its spectral extremes are the
optimal frame bounds because the measurement energy equals the Rayleigh
quotient of S.  S is eigendecomposed once per system, and the bounds, the
kgf constant, S^+ and S^(-1/2) are all read from that one S = Q diag(w) Q^T.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateKError,
    OperatorRangeError,
    ParameterError,
    ShapeError,
    SingularFrameOperatorError,
)
from .measure import CoefficientField, MeasureNodes
from .operators import (
    ORDER_TOL,
    RANK_TOL,
    Operator,
    OrderCertificate,
    Subspace,
    _as_vector,
    _freeze,
    _positive_qr,
    _spectral_power,
    operator_leq,
    opnorm,
    symmetrize,
)
from .report import SAMPLED, VerificationReport, build_report

#: Legal frame classifications, from worst to best.
CLASSIFICATIONS = (
    "not-bessel-input-error",
    "bessel-only",
    "frame",
    "tight",
    "parseval",
)

#: Share of ``tol`` added to S when :func:`kgf_lower_bound` takes its
#: closed form; keeps the constant inside :func:`kgf_check`'s boundary.
KGF_SLACK = 0.5

#: Floats (256 KB) per row block of the stacked matrix in :func:`_row_blocks`,
#: whose blocks have max(_BLOCK_FLOATS // n, n) rows; chosen by timing at
#: n = 8, 64, 200 and 400 (README, "Row blocks").
_BLOCK_FLOATS = 2**15


@dataclass(frozen=True, eq=False)
class GFusionSystem:
    """A family over measure nodes of (subspace, local operator, weight).

    A system made by :func:`push_through` is built without ``__post_init__``
    from its stacked matrix; its ``subspaces`` and ``local_maps`` are formed
    on first read (:meth:`__getattr__`) and then kept.  :meth:`with_weights`
    shares the stacked matrix and geometry, formed or not, of its source.
    """

    ambient_dim: int
    nodes: MeasureNodes
    subspaces: tuple[Subspace, ...]
    local_maps: tuple[Operator, ...]
    weights: np.ndarray

    def __post_init__(self):
        n = int(self.ambient_dim)
        if n < 1:
            raise ShapeError("ambient_dim must be >= 1")
        object.__setattr__(self, "ambient_dim", n)
        node_report = self.nodes._validation
        if not node_report.passed:
            raise ValueError("invalid nodes: " + "; ".join(node_report.notes))
        count = len(self.nodes)
        subspaces = tuple(self.subspaces)
        local_maps = tuple(self.local_maps)
        weights = _checked_weights(self.weights, count)
        if len(subspaces) != count or len(local_maps) != count:
            raise ShapeError(
                f"{count} nodes but {len(subspaces)} subspaces / {len(local_maps)} local maps"
            )
        offsets = np.concatenate(([0], np.cumsum([loc.rows for loc in local_maps], dtype=int)))
        stacked = np.empty((int(offsets[-1]), n))
        for i in range(count):
            sub = subspaces[i]
            loc = local_maps[i]
            if sub.ambient_dim != n:
                raise ShapeError(f"node {i}: subspace lives in R^{sub.ambient_dim}, not R^{n}")
            if loc.cols != sub.dim:
                raise ShapeError(
                    f"node {i}: local operator has {loc.cols} columns, "
                    f"subspace dimension is {sub.dim}"
                )
            np.matmul(loc.entries, sub.basis.T, out=stacked[offsets[i] : offsets[i + 1]])
        object.__setattr__(self, "subspaces", subspaces)
        object.__setattr__(self, "local_maps", local_maps)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_stacked", _freeze(stacked))
        object.__setattr__(self, "_bounds", tuple(offsets.tolist()))
        object.__setattr__(self, "_row_counts", _freeze(np.diff(offsets)))

    def __getattr__(self, name):
        # Reached only when ``name`` is not set: on a pushed system, its
        # geometry before the first read.
        push = self.__dict__.get("_push")
        if push is None or name not in ("subspaces", "local_maps"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        source, t = push
        subspaces, local_maps = [], []
        for sub, loc in zip(source.subspaces, source.local_maps):
            q, r = _positive_qr(t @ sub.basis)
            subspaces.append(Subspace(self.ambient_dim, q))
            local_maps.append(Operator(loc.entries @ r.T))
        object.__setattr__(self, "subspaces", tuple(subspaces))
        object.__setattr__(self, "local_maps", tuple(local_maps))
        self.__dict__.pop("_push", None)
        return self.__dict__[name]

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def codomain_dims(self) -> tuple[int, ...]:
        return tuple(self._row_counts.tolist())

    @property
    def stacked(self) -> np.ndarray:
        """All effective maps stacked by node: read-only, shape (sum m_i, ambient_dim)."""
        return self._stacked

    @property
    def effective_maps(self) -> tuple[np.ndarray, ...]:
        """Per-node maps local_i basis_i^T, shape (m_i, ambient_dim); views of :attr:`stacked`."""
        return self.split_rows(self._stacked)

    def per_row(self, node_values) -> np.ndarray:
        """Expand one value per node to one value per row of :attr:`stacked`."""
        return np.repeat(np.asarray(node_values, dtype=float), self._row_counts)

    def split_rows(self, rows: np.ndarray) -> tuple[np.ndarray, ...]:
        """Split an array indexed like the rows of :attr:`stacked` into per-node views."""
        return tuple(rows[a:b] for a, b in zip(self._bounds, self._bounds[1:]))

    @cached_property
    def _frame_operator(self) -> Operator:
        # Safe to cache: the system and all its arrays are immutable.
        return Operator(symmetrize(weighted_gram(self, self.nodes.mu * self.weights**2)))

    @cached_property
    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        # S = Q diag(w) Q^T, w ascending; the one factorization of S, read-only like S.
        w, q = np.linalg.eigh(self._frame_operator.entries)
        return _freeze(w), _freeze(q)

    @cached_property
    def _inverse(self) -> np.ndarray:
        # S^-1 as one LU ``inv`` of S, read-only; read by the canonical dual and resolution.
        return _freeze(np.linalg.inv(self._frame_operator.entries))

    @cached_property
    def _energy_top(self) -> float:
        # Top eigenvalue of the unweighted energy operator sum_i mu_i Lam_i^T Lam_i.
        return float(np.linalg.eigvalsh(symmetrize(weighted_gram(self, self.nodes.mu)))[-1])

    def with_weights(self, weights) -> "GFusionSystem":
        """The system with ``weights``, checked as at construction; the rest is shared."""
        weights = _checked_weights(weights, self.node_count)
        geometry = {k: v for k, v in vars(self).items() if k in ("subspaces", "local_maps", "_push")}
        return _sharing(self, self._stacked, weights=weights, **geometry)


def _checked_weights(weights, count: int) -> np.ndarray:
    """``weights`` as a read-only float array of ``count`` finite positive values."""
    weights = np.array(weights, dtype=float)
    if weights.ndim != 1 or weights.shape[0] != count:
        raise ShapeError(f"expected {count} weights, got shape {weights.shape}")
    if weights.size and (not np.isfinite(weights).all() or not (weights > 0).all()):
        raise ValueError("weights must be finite and positive")
    return _freeze(weights)


def _sharing(system: GFusionSystem, stacked: np.ndarray, **fields) -> GFusionSystem:
    """A system on ``stacked`` in the layout of ``system``, built without ``__post_init__``."""
    made = object.__new__(GFusionSystem)
    made.__dict__.update(ambient_dim=system.ambient_dim, nodes=system.nodes, weights=system.weights,
                         _stacked=stacked, _bounds=system._bounds, _row_counts=system._row_counts)
    made.__dict__.update(fields)
    return made


@dataclass(frozen=True)
class FrameBounds:
    """Optimal frame bounds with a classification label."""

    lower: float
    upper: float
    classification: str

    def __post_init__(self):
        if self.classification not in CLASSIFICATIONS:
            raise ValueError(f"unknown classification {self.classification!r}")
        if self.lower > self.upper + 1e-12:
            raise ValueError("lower bound exceeds upper bound")

    def report(self, tol: float = ORDER_TOL) -> VerificationReport:
        """The ``frame_bounds`` report of bounds classified at ``tol``; it fails below a frame."""
        constants = {"lower": self.lower, "upper": self.upper}
        return build_report("frame_bounds", {}, {"tol": tol}, constants,
                            notes=(f"classification: {self.classification}",),
                            force_fail=self.classification not in CLASSIFICATIONS[2:])


def _row_blocks(system: GFusionSystem, *node_values):
    """Row blocks of the stacked matrix, each with ``node_values`` spread over its rows.

    Yields ``(rows, values)`` per block, in row order.  ``rows`` indexes a
    block of h = max(:data:`_BLOCK_FLOATS` // n, n) rows of
    :attr:`GFusionSystem.stacked` (the last may be shorter): a block holds
    about :data:`_BLOCK_FLOATS` floats, and at least n rows, so that the
    n x n product a Gram adds per block is no larger than the block.
    ``values`` has one row per entry of ``node_values`` (one value per
    node), repeated over the block's rows as :meth:`GFusionSystem.per_row`
    repeats it over all rows.

    A system of at most one block, no rows included, is yielded whole with
    ``rows`` = ``...``, in the fewest numpy calls: many small systems take
    this path.
    """
    total = system.stacked.shape[0]
    n = system.ambient_dim
    height = max(_BLOCK_FLOATS // n, n)
    values = np.array(node_values, dtype=float)
    if total <= height:
        yield ..., values.repeat(system._row_counts, axis=1)
        return
    bounds = system._bounds
    for a in range(0, total, height):
        b = min(a + height, total)
        first = bisect_right(bounds, a) - 1
        last = bisect_left(bounds, b, first)
        counts = system._row_counts[first:last].copy()
        counts[0] -= a - bounds[first]
        counts[-1] -= bounds[last] - b
        yield slice(a, b), values[:, first:last].repeat(counts, axis=1)


def weighted_gram(
    system: GFusionSystem, node_weights, other: GFusionSystem | None = None
) -> np.ndarray:
    """Sum over nodes of w_i Lam_i^T Xi_i, as products of the stacked maps.

    Lam_i are the effective maps of ``system`` and Xi_i those of
    ``other`` (default: ``system`` itself), which must share the node
    codomain dimensions.  With w = mu v^2 this is the frame operator.  The
    product is summed over the row blocks of :func:`_row_blocks`, so the
    weighted copy of L it needs is one block; a system of one block gets
    the single product (L^T diag(w)) Xi.
    """
    other = system if other is None else other
    if other.codomain_dims != system.codomain_dims:
        raise ShapeError(f"codomains differ: {system.codomain_dims} vs {other.codomain_dims}")
    left, right = system.stacked, other.stacked
    blocks = _row_blocks(system, node_weights)
    rows, w = next(blocks)  # w: the block's weights as one row, so w.T is a column
    gram = (left[rows] * w.T).T @ right[rows]
    for rows, w in blocks:
        gram += (left[rows] * w.T).T @ right[rows]
    return gram


def _frame_operator_power(
    system: GFusionSystem, power: float, rank_tol: float = RANK_TOL
) -> np.ndarray:
    """S^power from the cached eigenpairs of S by :func:`~cgfusion.operators._spectral_power`.

    With ``power`` = -1 and the default cut (that of
    :func:`~cgfusion.operators.pinv`) this is S^+.
    """
    return _spectral_power(*system._eigh, power, rank_tol)


def assemble_frame_operator(system: GFusionSystem) -> Operator:
    """Frame operator S = sum_i mu_i v_i^2 Lam_i^T Lam_i (symmetrized).

    Computed once per system, as L^T diag(mu v^2) L, and cached; the
    result is symmetric positive semidefinite and equals synthesis
    composed with analysis.
    """
    return system._frame_operator


def _analysis_rows(system: GFusionSystem, f: np.ndarray) -> np.ndarray:
    """Stacked analysis v_i Lam_i f of each row of f (or of the vector f)."""
    rows = f @ system.stacked.T
    rows *= system.per_row(system.weights)
    return rows


def _synthesis_weights(system: GFusionSystem) -> np.ndarray:
    """The node weights mu_i v_i that synthesis applies to its fields."""
    return system.nodes.mu * system.weights


def _synthesis_rows(system: GFusionSystem, phi: np.ndarray) -> np.ndarray:
    """Synthesis sum_i mu_i v_i Lam_i^T phi_i of each stacked field row of phi."""
    return (phi * system.per_row(_synthesis_weights(system))) @ system.stacked


def analysis(system: GFusionSystem, f) -> CoefficientField:
    """Measure f at every node: block i is v_i Lam_i f."""
    vec = _as_vector(f, system.ambient_dim)
    return CoefficientField(system.split_rows(_analysis_rows(system, vec)))


def synthesis(system: GFusionSystem, phi: CoefficientField) -> np.ndarray:
    """Reassemble a vector from a coefficient field: sum_i mu_i v_i Lam_i^T phi_i.

    Adjoint to :func:`analysis` with respect to the mass-weighted inner
    product.
    """
    if len(phi) != system.node_count:
        raise ShapeError(f"{len(phi)} blocks for {system.node_count} nodes")
    if phi.block_dims != system.codomain_dims:
        raise ShapeError(
            f"block dims {phi.block_dims} do not match node codomains {system.codomain_dims}"
        )
    return _synthesis_rows(system, np.concatenate((np.zeros(0),) + phi.blocks))


def classify(lower: float, upper: float, tol: float) -> str:
    """Label of bounds: "bessel-only" at lower <= tol, else "parseval", "tight" or "frame"."""
    if lower <= tol:
        return "bessel-only"
    if abs(lower - 1.0) <= tol and abs(upper - 1.0) <= tol:
        return "parseval"
    if abs(lower - upper) <= tol:
        return "tight"
    return "frame"


def frame_bounds(system: GFusionSystem, tol: float = ORDER_TOL) -> FrameBounds:
    """Optimal bounds, the extreme cached eigenvalues of S, labelled by :func:`classify`."""
    w, _ = system._eigh
    lower = max(float(w[0]), 0.0)
    upper = max(float(w[-1]), 0.0)
    return FrameBounds(lower, upper, classify(lower, upper, tol))


def require_frame(system: GFusionSystem, tol: float = ORDER_TOL) -> FrameBounds:
    """The frame bounds of ``system``, which must be a frame.

    Raises :class:`SingularFrameOperatorError` when the lower bound is at
    most ``tol``.
    """
    bounds = frame_bounds(system, tol)
    if bounds.lower <= tol:
        raise SingularFrameOperatorError(
            f"not a frame: smallest frame-operator eigenvalue {bounds.lower:.3e}"
        )
    return bounds


def push_through(system: GFusionSystem, transform: np.ndarray) -> GFusionSystem:
    """The system with subspaces T F_i and effective maps Lam_i T^T, for an invertible n x n T.

    The result holds its stacked matrix L T^T, one product, checked finite
    here, and shares the nodes, weights and row layout of ``system``; every
    certificate reads only these.  Its subspaces and local operators are
    formed on first read: with the sign-fixed QR T B_i = Q_i R_i of each
    image basis, the new basis is Q_i and the new local operator
    local_i R_i^T, as Lam_i T^T = local_i (T B_i)^T, so every dimension is
    kept.  Until then the result keeps ``system`` and T.  The bases B_i are
    read from ``system`` (forming them first if it is pushed too), not from
    a composed transform, so a chain of pushes writes the bytes of its
    steps formed one by one.
    """
    n = system.ambient_dim
    t = Operator(transform).entries
    if t.shape != (n, n):
        raise ShapeError(f"transform must be {n}x{n}, got {t.shape[0]}x{t.shape[1]}")
    stacked = system.stacked @ t.T
    if not np.isfinite(stacked).all():
        raise ValueError("pushed effective maps must be finite")
    return _sharing(system, _freeze(stacked), _push=(system, t))


def _require_comparison_operator(system: GFusionSystem, k: Operator) -> None:
    n = system.ambient_dim
    if k.rows != n or k.cols != n:
        raise ShapeError(f"comparison operator must be {n}x{n}, got {k.rows}x{k.cols}")


def kgf_check(
    system: GFusionSystem, k: Operator, lower: float, tol: float = ORDER_TOL
) -> OrderCertificate:
    """Certify that the frame operator dominates lower * K K^T.

    A K whose K K^T overflows raises :class:`OperatorRangeError`; a ``lower``
    that takes A K K^T out of the double range, :class:`ParameterError`.
    """
    _require_comparison_operator(system, k)
    with np.errstate(over="ignore"):
        gram = k.entries @ k.entries.T
        if not np.isfinite(gram).all():
            raise OperatorRangeError(
                f"comparison operator of norm {opnorm(k.entries):.3g} overflows K K^T"
            )
        target = symmetrize(float(lower) * gram)
    if not np.isfinite(target).all():
        raise ParameterError(f"A K K^T overflows at A = {lower:g}", "lower")
    return operator_leq(Operator(target), assemble_frame_operator(system), tol)


def kgf_lower_bound(system: GFusionSystem, k: Operator, tol: float = ORDER_TOL) -> float:
    """Largest constant A with A K K^T <= S + KGF_SLACK * tol * I, in closed form.

    With S + c tol I = Q diag(w) Q^T (c = :data:`KGF_SLACK`), the
    supremum is A = 1 / ||diag(w)^(-1/2) Q^T K||_2^2, read from the cached
    eigenpairs of S (w - c tol, Q).  The slack keeps A half of ``tol`` inside
    the -tol boundary of :func:`kgf_check`, so ``kgf_check(system, k, A, tol)``
    certifies the returned constant whenever ``tol`` exceeds the
    eigensolver's roundoff on S (about 1e-16 ||S||).  Returns 0 when A
    is at most ``tol``: no positive constant works beyond that slack.
    K = 0 raises :class:`DegenerateKError`: every constant works, so the
    condition certifies nothing.  A K that puts the squared norm above
    outside the positive doubles raises :class:`OperatorRangeError`.
    """
    _require_comparison_operator(system, k)
    if np.abs(k.entries).max() == 0.0:
        raise DegenerateKError("comparison operator is zero; the bound is vacuous")
    w, q = system._eigh
    w = w + KGF_SLACK * tol
    if w[0] <= 0.0:
        return 0.0
    norm = opnorm((q.T @ k.entries) / np.sqrt(w)[:, None])
    if not 0.0 < norm * norm < math.inf:
        raise OperatorRangeError(f"comparison operator of norm {opnorm(k.entries):.3g} "
                                 "puts the kgf constant outside the double range")
    a = 1.0 / norm**2
    return a if a > tol else 0.0


def kgf_report(
    system: GFusionSystem, k: Operator, lower: float | None, tol: float = ORDER_TOL
) -> VerificationReport:
    """The ``kgf_check`` report at ``lower``, or with ``lower`` None the ``kgf_lower_bound`` one.

    Its ``order_defect`` is how far the :func:`kgf_check` gap at ``lower``
    falls below -``tol``, or the gap at the constant of :func:`kgf_lower_bound`
    below -10 ``tol``.  A zero K fails the lower bound with a note: it
    certifies nothing.
    """
    if lower is not None:
        name, slack, constants = "kgf_check", tol, {"lower": lower}
    else:
        name, slack = "kgf_lower_bound", 10 * tol
        try:
            lower = kgf_lower_bound(system, k, tol)
        except DegenerateKError as err:
            return build_report(name, {}, {"tol": tol}, notes=(str(err),), force_fail=True)
        constants = {"a_star": lower}
    gap = kgf_check(system, k, lower, tol).gap
    return build_report(name, {"order_defect": max(0.0, -(gap + slack))}, {"order_defect": 0.0},
                        {**constants, "gap": gap})


def _adjoint_mismatch(system: GFusionSystem, f: np.ndarray, phi: np.ndarray) -> float:
    """Largest scale-normalized mismatch over the cross pairs of ``phi`` and ``f``.

    Row s of ``phi`` is a field phi_s in node order and row t of ``f`` a
    vector f_t; entry (s, t) compares <synthesis(phi_s), f_t> with the
    mass-weighted <phi_s, analysis(f_t)>.  One pass over the row blocks of
    :func:`_row_blocks` analyses f on a block, adds the block's share of the
    synthesis of phi, of the mass-weighted inner products and of the squared
    field norms, so each block of L is read once.
    """
    stacked = system.stacked
    # Probes as columns: block @ probes runs faster than f @ block.T for few probes.
    probes = np.ascontiguousarray(f.T)
    # Sums over the blocks, each started by the first block's terms.
    synthesized = right = squares = 0.0
    for rows, (mass, v, syn) in _row_blocks(
        system, system.nodes.mu, system.weights, _synthesis_weights(system)
    ):
        block = stacked[rows]
        fields = phi[:, rows]
        measured = block @ probes
        measured *= v[:, None]
        weighted = fields * mass
        right += weighted @ measured
        squares += np.einsum("ij,ij->i", weighted, fields)
        synthesized += (fields * syn) @ block
    left = synthesized @ f.T
    scale = np.maximum(1.0, np.sqrt(squares)[:, None] * np.linalg.norm(f, axis=1))
    return float((np.abs(left - right) / scale).max())


def adjoint_consistency(
    system: GFusionSystem, trials: int = 100, seed: int = 0
) -> VerificationReport:
    """Sampled check that synthesis and analysis are mutually adjoint.

    Draws r = ceil(sqrt(trials)) vectors f (r x n), then r fields phi
    (r x sum m_i), from one seeded row-major stream, and compares
    <synthesis(phi_s), f_t> in the ambient space with the mass-weighted
    <phi_s, analysis(f_t)> on all r^2 >= trials pairs; reports the largest
    scale-normalized mismatch.  Both sides come from one pass over the row
    blocks of the stacked matrix L (:func:`_adjoint_mismatch`), which reads
    L once and holds, beside the r (n + sum m_i) drawn doubles, only the
    temporaries of one block.

    The law holds by construction (both sides are products with the same
    stacked matrix), so no CLI path calls this check.  It stays only because
    the benchmark's workloads call it by this signature; see ROADMAP item 1.
    """
    rng = np.random.default_rng(seed)
    probes = math.isqrt(max(int(trials), 1) - 1) + 1
    f = rng.standard_normal((probes, system.ambient_dim))
    phi = rng.standard_normal((probes, system.stacked.shape[0]))
    worst = _adjoint_mismatch(system, f, phi)
    return build_report(
        name="adjoint_consistency",
        residuals={"adjoint_mismatch": worst},
        tolerances={"tol": 1e-9},
        constants={"trials": float(trials)},
        provenance=SAMPLED,
    )
