"""Finite quadrature measure spaces and blockwise coefficient fields.

A measure space here is a finite, ordered list of nodes, each with a
positive mass.  Square-integrable fields over the nodes are stored
blockwise (one vector per node) and the inner product weighs each block
by the node mass, so integrals elsewhere in the library are plain sums
against these masses.  Nodes are treated as exact: discretizing a
continuous index set, and the quadrature error that entails, is the
caller's business.

Masses live in the inner product and are never absorbed into the field
blocks; that keeps blocks equal to the pointwise measurement values and
makes the analysis operator the literal adjoint of synthesis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ShapeError
from .report import VerificationReport, build_report


@dataclass(frozen=True, eq=False)
class MeasureNodes:
    """Ordered quadrature nodes: an id and a mass per node.

    The constructor checks structure only; positivity and id uniqueness
    are certified by :func:`validate_nodes` (and enforced wherever a
    system is built), so that invalid data can still be loaded and
    reported on.
    """

    ids: tuple[str, ...]
    mu: np.ndarray

    def __post_init__(self):
        ids = tuple(str(i) for i in self.ids)
        mu = np.array(self.mu, dtype=float)
        if mu.ndim != 1:
            raise ShapeError("node masses must form a 1-d array")
        if len(ids) != mu.shape[0]:
            raise ShapeError(f"{len(ids)} ids but {mu.shape[0]} masses")
        if mu.size and not np.isfinite(mu).all():
            raise ValueError("node masses must be finite")
        mu.setflags(write=False)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "mu", mu)

    def __len__(self) -> int:
        return len(self.ids)

    @cached_property
    def _validation(self) -> VerificationReport:
        # validate_nodes of these immutable nodes, once for every system built on them.
        return validate_nodes(self)


@dataclass(frozen=True, eq=False)
class WeightProfile:
    """Per-node positive weights (structure-checked only, like MeasureNodes)."""

    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.ndim != 1:
            raise ShapeError("weights must form a 1-d array")
        if values.size and not np.isfinite(values).all():
            raise ValueError("weights must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True, eq=False)
class CoefficientField:
    """One vector per node; an element of the blockwise representation space."""

    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        frozen = []
        for i, block in enumerate(self.blocks):
            arr = np.array(block, dtype=float)
            if arr.ndim != 1:
                raise ShapeError(f"block {i} must be 1-d, got ndim={arr.ndim}")
            if arr.size and not np.isfinite(arr).all():
                raise ValueError(f"block {i} has non-finite entries")
            arr.setflags(write=False)
            frozen.append(arr)
        object.__setattr__(self, "blocks", tuple(frozen))

    @property
    def block_dims(self) -> tuple[int, ...]:
        return tuple(b.shape[0] for b in self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)


def _check_field(field: CoefficientField, nodes: MeasureNodes, what: str) -> None:
    if len(field) != len(nodes):
        raise ShapeError(f"{what} has {len(field)} blocks but there are {len(nodes)} nodes")


def weighted_inner(a: CoefficientField, b: CoefficientField, nodes: MeasureNodes) -> float:
    """Mass-weighted inner product: sum_i mu_i <a_i, b_i>."""
    _check_field(a, nodes, "first field")
    _check_field(b, nodes, "second field")
    if a.block_dims != b.block_dims:
        raise ShapeError(f"block shapes differ: {a.block_dims} vs {b.block_dims}")
    total = 0.0
    for mass, x, y in zip(nodes.mu, a.blocks, b.blocks):
        total += float(mass) * float(x @ y)
    return total


def weighted_norm(a: CoefficientField, nodes: MeasureNodes) -> float:
    """Norm induced by :func:`weighted_inner`; zero iff every block is zero."""
    return float(np.sqrt(max(weighted_inner(a, a, nodes), 0.0)))


def validate_nodes(nodes: MeasureNodes, weights: WeightProfile | None = None) -> VerificationReport:
    """Certify node masses positive, ids unique, and weights positive/matching.

    Failures are carried in the report (never raised), with the offending
    node ids in the notes.
    """
    notes: list[str] = []
    bad_mass = [nodes.ids[i] for i in np.flatnonzero(~(nodes.mu > 0.0))]
    if bad_mass:
        notes.append("nonpositive mass at node(s): " + ", ".join(bad_mass))
    seen: set[str] = set()
    dupes: list[str] = []
    for node_id in nodes.ids:
        if node_id in seen:
            dupes.append(node_id)
        seen.add(node_id)
    if dupes:
        notes.append("duplicate node id(s): " + ", ".join(sorted(set(dupes))))
    residuals = {
        "nonpositive_mass_count": float(len(bad_mass)),
        "duplicate_id_count": float(len(dupes)),
    }
    if weights is not None:
        if len(weights) != len(nodes):
            residuals["weight_length_mismatch"] = 1.0
            notes.append(f"{len(weights)} weights for {len(nodes)} nodes")
        else:
            residuals["weight_length_mismatch"] = 0.0
            bad_weight = [nodes.ids[i] for i in np.flatnonzero(~(weights.values > 0.0))]
            residuals["nonpositive_weight_count"] = float(len(bad_weight))
            if bad_weight:
                notes.append("nonpositive weight at node(s): " + ", ".join(bad_weight))
    return build_report(
        name="validate_nodes",
        residuals=residuals,
        tolerances={"tol": 0.0},
        notes=tuple(notes),
    )
