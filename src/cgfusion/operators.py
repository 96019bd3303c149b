"""Dense operator algebra on finite-dimensional real spaces.

Everything downstream builds on the pieces here: matrices with explicit
domain/codomain dimensions, subspaces carried as orthonormal column bases,
orthogonal projections, the semidefinite (Loewner) order, Moore-Penrose
pseudoinverses, positive square roots, and range-inclusion factorization
with a certified majorization constant.

Scalars are real throughout.  All values are immutable after construction
(backing arrays are marked read-only) and every function is pure, so the
module is safe to use from concurrent code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NotPositiveError,
    NotSymmetricError,
    RangeInclusionError,
    ShapeError,
    SingularError,
)

#: Default tolerance, relative by the closeness rule: a residual or gap passes within
#: tol times the norm of the operator it is measured in, a dimensionless one within tol.
ORDER_TOL = 1e-9
#: Floor of the tolerance of the Parseval identity and canonical resolution
#: reports: each passes within max(tol, TOL_FLOOR).
TOL_FLOOR = 1e-8
#: The rank rule (:func:`is_singular`): a singular value or eigenvalue at most
#: RANK_TOL times the largest one counts as zero.
RANK_TOL = 1e-12
#: Symmetry tolerance of an input, relative: max|A - A^T| <= SYM_TOL max|A|.
SYM_TOL = 1e-8
#: Orthonormality tolerance for subspace bases.
BASIS_TOL = 1e-10


def is_singular(smallest: float, largest: float) -> bool:
    """The rank rule: ``smallest`` counts as zero when at most ``RANK_TOL`` times ``largest``."""
    return smallest <= RANK_TOL * largest


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _as_matrix(entries, what: str = "matrix") -> np.ndarray:
    arr = np.array(entries, dtype=float)
    if arr.ndim != 2:
        raise ShapeError(f"{what} must be 2-d, got ndim={arr.ndim}")
    if arr.size and not np.isfinite(arr).all():
        raise ValueError(f"{what} entries must be finite")
    return _freeze(arr)


def _as_vector(f, dim: int, what: str = "vector") -> np.ndarray:
    vec = np.asarray(f, dtype=float)
    if vec.shape != (dim,):
        raise ShapeError(f"{what} must have shape ({dim},), got {vec.shape}")
    return vec


def opnorm(a: np.ndarray) -> float:
    """Spectral norm of a 2-d array, its largest singular value by one LAPACK SVD; zero if empty."""
    if a.ndim != 2:
        raise ShapeError(f"opnorm needs a 2-d array, got ndim={a.ndim}")
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def _basis_defect(basis: np.ndarray) -> float:
    """Orthonormality defect max|B^T B - I| of the columns of ``basis``; zero if there are none."""
    gram = basis.T @ basis
    gram.flat[:: gram.shape[0] + 1] -= 1.0
    return float(np.abs(gram).max(initial=0.0))


def symmetrize(a: np.ndarray) -> np.ndarray:
    return (a + a.T) / 2


@dataclass(frozen=True, eq=False)
class Operator:
    """A dense real matrix acting from R^cols into R^rows."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _as_matrix(self.entries, "operator"))

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    @classmethod
    def identity(cls, n: int) -> "Operator":
        return cls(np.eye(n))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Operator":
        return cls(np.zeros((rows, cols)))

    def __matmul__(self, other: "Operator") -> "Operator":
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}"
            )
        return Operator(self.entries @ other.entries)

    def apply(self, f) -> np.ndarray:
        vec = _as_vector(f, self.cols, "input vector")
        return self.entries @ vec

    def is_square(self) -> bool:
        return self.rows == self.cols


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of R^ambient_dim, carried as an orthonormal column basis.

    A zero-dimensional basis (shape ``(n, 0)``) is legal and denotes the
    trivial subspace; its projector is the zero operator.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        basis = _as_matrix(self.basis, "basis")
        if basis.shape[0] != self.ambient_dim:
            raise ShapeError(
                f"basis has {basis.shape[0]} rows, expected ambient_dim={self.ambient_dim}"
            )
        gram_defect = _basis_defect(basis)
        if gram_defect > BASIS_TOL:
            raise ValueError(f"basis columns are not orthonormal (defect {gram_defect:.3e})")
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.T

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls(n, np.eye(n))

    @classmethod
    def empty(cls, n: int) -> "Subspace":
        return cls(n, np.zeros((n, 0)))

    @classmethod
    def coordinate(cls, n: int, indices) -> "Subspace":
        cols = np.zeros((n, len(indices)))
        for j, i in enumerate(indices):
            cols[i, j] = 1.0
        return cls(n, cols)


@dataclass(frozen=True)
class OrderCertificate:
    """Outcome of a semidefinite-order comparison T <= S.

    ``gap`` is the minimum eigenvalue of S - T; the order holds when the
    gap is at least -tol.
    """

    holds: bool
    gap: float


def _require_symmetric(op: Operator, label: str, error=NotSymmetricError) -> np.ndarray:
    """The symmetric part of a square ``op``; ``error`` unless symmetric within ``SYM_TOL``."""
    if not op.is_square():
        raise ShapeError(f"{label} must be square, got {op.rows}x{op.cols}")
    a = op.entries
    defect = np.abs(a - a.T).max(initial=0.0)
    if defect and defect > SYM_TOL * np.abs(a).max():
        raise error(f"{label} is not symmetric within {SYM_TOL:g} of its largest entry "
                    f"(defect {defect:.3e})")
    return symmetrize(a)


def _require_positive(w: np.ndarray, tol: float, label: str) -> None:
    """Raise :class:`NotPositiveError` if ascending eigenvalues ``w`` reach below -tol max|w|."""
    if w.size and w[0] < -tol * max(-w[0], w[-1]):
        raise NotPositiveError(f"{label} has negative eigenvalue {w[0]:.3e}")


def project(subspace: Subspace, f) -> np.ndarray:
    """Orthogonal projection of ``f`` onto the subspace.

    Computed as basis (basis^T f); idempotent and symmetric by construction.
    """
    vec = _as_vector(f, subspace.ambient_dim)
    b = subspace.basis
    return b @ (b.T @ vec)


def operator_leq(t: Operator, s: Operator, tol: float = ORDER_TOL) -> OrderCertificate:
    """Certify T <= S in the semidefinite order.

    Both operators must be square, the same size, and symmetric within
    ``SYM_TOL`` of their largest entry.  The gap is computed with a symmetric
    eigensolver and must be at least -``tol``.
    """
    a = _require_symmetric(t, "T")
    b = _require_symmetric(s, "S")
    if a.shape != b.shape:
        raise ShapeError(f"size mismatch: {a.shape} vs {b.shape}")
    if a.shape[0] == 0:
        return OrderCertificate(holds=True, gap=0.0)
    gap = float(np.linalg.eigvalsh(symmetrize(b - a))[0])
    return OrderCertificate(holds=gap >= -tol, gap=gap)


def pinv(t: Operator) -> Operator:
    """Moore-Penrose pseudoinverse via singular value decomposition.

    Singular values at or below ``RANK_TOL`` times the largest one are
    treated as exact zeros.
    """
    a = t.entries
    if a.size == 0 or not a.any():
        return Operator(np.zeros((t.cols, t.rows)))
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    cutoff = RANK_TOL * s[0]
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > cutoff)
    return Operator((vt.T * inv) @ u.T)


def douglas_factor(l: Operator, t: Operator, tol: float = ORDER_TOL) -> tuple[Operator, float]:
    """Factor L = T S and certify the majorization L L^T <= lam^2 T T^T.

    S is the minimal-norm solution pinv(T) L.  The factorization is
    accepted when the recomposition residual ||T S - L|| is within
    ``tol``; otherwise the range of L is not contained in the range of T
    and :class:`RangeInclusionError` carries the measured residual.

    ``lam`` is the smallest nonnegative value with L L^T <= lam^2 T T^T.
    By Douglas' range-inclusion lemma it is the norm of the
    minimal-norm factor, lam = ||pinv(T) L||_2.
    """
    if l.rows != t.rows:
        raise ShapeError(f"codomain mismatch: L has {l.rows} rows, T has {t.rows}")
    s_factor = pinv(t) @ l
    residual = opnorm(t.entries @ s_factor.entries - l.entries)
    if residual > tol:
        raise RangeInclusionError(
            f"range(L) is not contained in range(T): residual {residual:.3e} > {tol:g}",
            residual=residual,
        )
    return s_factor, opnorm(s_factor.entries)


def _spectral_power(w: np.ndarray, q: np.ndarray, power: float, rank_tol: float) -> np.ndarray:
    """Q diag(w^power) Q^T (symmetrized) for the eigenpairs (w, Q) of a symmetric matrix.

    Eigenvalues with |w| <= rank_tol * max|w| map to 0, the cut of
    :func:`pinv`; ``rank_tol`` = 0 maps only exact zeros to 0.
    """
    kept = np.abs(w) > rank_tol * np.abs(w).max(initial=0.0)
    mapped = np.power(w, power, out=np.zeros_like(w), where=kept)
    return symmetrize((q * mapped) @ q.T)


def positive_sqrt(s: Operator, invert: bool = False) -> Operator:
    """Symmetric positive square root S^(1/2), or S^(-1/2) with ``invert``.

    Eigendecomposes S = Q diag(w) Q^T, clips w at 0 and maps it through
    :func:`_spectral_power`, the map of the cached S^p of a system.
    Raises :class:`NotPositiveError` when an eigenvalue sits below
    -``ORDER_TOL`` ||S|| and :class:`SingularError` when inversion is
    requested of an S singular by the rank rule.  The map is uncut
    (rank_tol 0): past these checks every eigenvalue it inverts is positive.
    """
    a = _require_symmetric(s, "S")
    w, q = np.linalg.eigh(a)
    _require_positive(w, ORDER_TOL, "operator")
    if invert and (w.size == 0 or is_singular(w[0], w[-1])):
        raise SingularError("cannot invert: the operator is singular by the rank rule")
    return Operator(_spectral_power(np.clip(w, 0.0, None), q, -0.5 if invert else 0.5, 0.0))


def _positive_qr(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR m = Q R with diag R >= 0, i.e. Gram-Schmidt of the columns in order."""
    q, r = np.linalg.qr(m)
    signs = np.copysign(1.0, r.diagonal())
    return q * signs, r * signs[:, None]


def orthonormal_columns(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column range of ``m``, from its SVD.

    Keeps the left singular vectors whose singular value exceeds
    ``RANK_TOL`` times the largest one, so the number of columns is the
    numerical rank.  An empty or all-zero input gives an ``(n, 0)``
    basis.  The basis spans the same range as ``m`` but its columns are
    singular vectors, not orthonormalized input columns.
    """
    m = np.asarray(m, dtype=float)
    if m.size == 0 or not m.any():
        return np.zeros((m.shape[0], 0))
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, s > RANK_TOL * s[0]]
