"""Seeded random generation of systems, operators, and pairs.

Used by the property campaigns and the CLI ``random`` subcommand.  All
draws go through a single numpy Generator in a fixed order, so a given
seed always produces the same objects.
"""

from __future__ import annotations

import numpy as np

from .measure import MeasureNodes
from .operators import Operator, Subspace, _positive_qr, symmetrize
from .pair import PairSystem
from .systems import GFusionSystem, frame_bounds

#: Weight range for generated systems.
WEIGHT_RANGE = (0.5, 2.0)
#: Mass range for generated measure nodes.
MASS_RANGE = (0.5, 2.0)

_CONDITION_FLOOR = 1e-6


def random_orthonormal_basis(rng, n: int, k: int) -> np.ndarray:
    """Haar-distributed n x k orthonormal basis (k <= n): Q of a sign-fixed QR of Gaussians."""
    return _positive_qr(np.random.default_rng(rng).standard_normal((n, k)))[0]


def random_operator(rng, rows: int, cols: int) -> Operator:
    """Dense operator with entries uniform in [-1, 1]."""
    return Operator(np.random.default_rng(rng).uniform(-1.0, 1.0, size=(rows, cols)))


def random_positive_operator(rng, n: int) -> Operator:
    """Random symmetric positive semidefinite operator."""
    a = np.random.default_rng(rng).standard_normal((n, n))
    return Operator(symmetrize(a @ a.T) / max(n, 1))


def _draw_geometry(generator, ambient_dim, node_count, anchor_first, codomain_dims=None):
    subspaces = []
    locals_ = []
    for i in range(node_count):
        if anchor_first and i == 0:
            k = m = ambient_dim
        else:
            k = int(generator.integers(1, ambient_dim + 1))
            m = int(generator.integers(1, ambient_dim + 1))
        if codomain_dims is not None:
            m = codomain_dims[i]
        subspaces.append(
            Subspace(ambient_dim, random_orthonormal_basis(generator, ambient_dim, k))
        )
        locals_.append(random_operator(generator, m, k))
    return tuple(subspaces), tuple(locals_)


def _is_well_conditioned(system: GFusionSystem) -> bool:
    bounds = frame_bounds(system)
    return bounds.lower > _CONDITION_FLOOR * max(1.0, bounds.upper)


def random_system(
    rng,
    ambient_dim: int,
    node_count: int,
    ensure_frame: bool = False,
) -> GFusionSystem:
    """Draw a system: orthonormalized Gaussian bases, uniform weights and maps.

    Subspace and codomain dimensions are drawn in [1, ambient_dim].  With
    ``ensure_frame`` the first node is anchored at full dimension and the
    draw repeats until the frame operator is well conditioned, so the
    result is always a frame.
    """
    generator = np.random.default_rng(rng)
    for _ in range(64):
        ids = tuple(f"n{i}" for i in range(node_count))
        nodes = MeasureNodes(ids, generator.uniform(*MASS_RANGE, size=node_count))
        weights = generator.uniform(*WEIGHT_RANGE, size=node_count)
        subspaces, locals_ = _draw_geometry(generator, ambient_dim, node_count, ensure_frame)
        system = GFusionSystem(ambient_dim, nodes, subspaces, locals_, weights)
        if not ensure_frame or _is_well_conditioned(system):
            return system
    raise RuntimeError("could not draw a well-conditioned frame")


def random_pair(
    rng,
    ambient_dim: int,
    node_count: int,
    ensure_frames: bool = False,
) -> PairSystem:
    """Two systems over shared nodes with matching codomains."""
    generator = np.random.default_rng(rng)
    chi = random_system(generator, ambient_dim, node_count, ensure_frame=ensure_frames)
    for _ in range(64):
        subspaces, locals_ = _draw_geometry(
            generator, ambient_dim, node_count, ensure_frames, chi.codomain_dims
        )
        xi = GFusionSystem(
            ambient_dim,
            chi.nodes,
            subspaces,
            locals_,
            generator.uniform(*WEIGHT_RANGE, size=node_count),
        )
        if not ensure_frames or _is_well_conditioned(xi):
            return PairSystem(chi, xi)
    raise RuntimeError("could not draw a well-conditioned pair")


def random_shared_weight_frames(
    rng, ambient_dim_left: int, ambient_dim_right: int, node_count: int
) -> tuple[GFusionSystem, GFusionSystem]:
    """Two frames on possibly different spaces, sharing nodes and weights.

    The layout direct sums expect.
    """
    generator = np.random.default_rng(rng)
    chi = random_system(generator, ambient_dim_left, node_count, ensure_frame=True)
    for _ in range(64):
        subspaces, locals_ = _draw_geometry(generator, ambient_dim_right, node_count, True)
        xi = GFusionSystem(
            ambient_dim_right, chi.nodes, subspaces, locals_, chi.weights
        )
        if _is_well_conditioned(xi):
            return chi, xi
    raise RuntimeError("could not draw a well-conditioned frame")
