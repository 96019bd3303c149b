import sys
from collections import Counter
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from cgfusion import GFusionSystem, MeasureNodes, Operator, PairSystem, Subspace
from cgfusion import assemble_frame_operator, pair_frame_operator, transform_shift

import oracles

settings.register_profile(
    "ci",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=list(HealthCheck),
)
settings.load_profile("ci")


def make_system(ambient_dim, bases, local_maps, weights, masses=None, ids=None):
    """Build a system from raw arrays; bases are (ambient_dim x k) columns."""
    count = len(bases)
    if masses is None:
        masses = [1.0] * count
    if ids is None:
        ids = tuple(f"n{i}" for i in range(count))
    nodes = MeasureNodes(tuple(ids), np.asarray(masses, dtype=float))
    subspaces = tuple(Subspace(ambient_dim, np.asarray(b, dtype=float)) for b in bases)
    locals_ = tuple(Operator(np.asarray(x, dtype=float)) for x in local_maps)
    return GFusionSystem(ambient_dim, nodes, subspaces, locals_, np.asarray(weights, dtype=float))


def system_args(system):
    """The oracle arguments (masses, weights, bases, local maps) of a built system."""
    return (system.nodes.mu, system.weights, [sub.basis for sub in system.subspaces],
            [loc.entries for loc in system.local_maps])


def transpose_law_residual(pair):
    """Gap of M^T to the swapped pair's mixed operator and to the oracle's swapped sum.

    M is the pair's mixed operator; the larger spectral-norm gap is
    returned relative to the norm of the oracle's sum.
    """
    transposed = pair_frame_operator(pair).entries.T
    swapped = pair_frame_operator(PairSystem(pair.xi, pair.chi)).entries
    mu, v, chi_bases, chi_locals = system_args(pair.chi)
    _, s, xi_bases, xi_locals = system_args(pair.xi)
    oracle = oracles.mixed_operator(mu, s, v, (xi_bases, xi_locals), (chi_bases, chi_locals))
    gap = max(np.linalg.norm(transposed - swapped, 2), np.linalg.norm(transposed - oracle, 2))
    return gap / max(np.linalg.norm(oracle, 2), np.finfo(float).tiny)


def shift_law_gap(system, shift):
    """The shift's report, and the gap of the shifted frame operator to M S M^T, M = I + L.

    S is the oracle's.  The shifted operator is taken both from the library
    and from the oracle on the shifted system's per-node geometry; the
    larger spectral-norm gap is returned with its scale ||M||^2 ||S||.
    """
    shifted, report = transform_shift(system, shift)
    m = np.eye(system.ambient_dim) + shift.entries
    s = oracles.frame_operator(*system_args(system))
    want = m @ s @ m.T
    gap = max(np.linalg.norm(got - want, 2) for got in (
        assemble_frame_operator(shifted).entries, oracles.frame_operator(*system_args(shifted))))
    return report, gap, np.linalg.norm(m, 2) ** 2 * np.linalg.norm(s, 2)


def make_deficient_system(rng, n):
    """A Bessel-only system: fewer rank-one nodes than dimensions."""
    count = n - 2
    bases, locals_ = [], []
    for _ in range(count):
        direction = rng.standard_normal((n, 1))
        bases.append(direction / np.linalg.norm(direction))
        locals_.append(rng.uniform(0.5, 2.0, size=(1, 1)))
    return make_system(n, bases, locals_, rng.uniform(0.5, 2.0, count),
                       masses=rng.uniform(0.5, 2.0, count))


def make_wide_system(rng, n=40, count=6):
    """A frame with long rows: node 0 spans R^n, the others random subspaces.

    Node dimensions spread over [1, n]; each local operator is a square
    uniform draw, so rows of both the bases and the local operators hold
    up to n numbers.
    """
    dims = [n] + [max(1, n * i // count) for i in range(1, count)]
    bases = [np.linalg.qr(rng.standard_normal((n, k)))[0] for k in dims]
    locals_ = [rng.uniform(0.5, 1.5, size=(k, k)) for k in dims]
    return make_system(n, bases, locals_, rng.uniform(0.5, 2.0, count),
                       masses=rng.uniform(0.5, 2.0, count))


def make_e1():
    """Two coordinate lines in R^2, scalar local maps, unit weights."""
    return make_system(
        2,
        bases=[[[1.0], [0.0]], [[0.0], [1.0]]],
        local_maps=[[[1.0]], [[1.0]]],
        weights=[1.0, 1.0],
    )


def make_e2():
    """E1 geometry with weights (2, 1); frame operator diag(4, 1)."""
    return make_system(
        2,
        bases=[[[1.0], [0.0]], [[0.0], [1.0]]],
        local_maps=[[[1.0]], [[1.0]]],
        weights=[2.0, 1.0],
    )


def make_single_node():
    """One node measuring span{e1} in R^2; frame operator diag(1, 0)."""
    return make_system(2, bases=[[[1.0], [0.0]]], local_maps=[[[1.0]]], weights=[1.0])


def lift_codomains(system):
    """Re-express local maps with codomain equal to the ambient space.

    Each scalar-coded local map X (m x k) becomes B X (n x k), embedding
    the measurement values along the subspace directions; effective maps
    become n x n without changing the frame operator.
    """
    locals_ = tuple(
        Operator(sub.basis @ loc.entries)
        for sub, loc in zip(system.subspaces, system.local_maps)
    )
    return GFusionSystem(
        system.ambient_dim, system.nodes, system.subspaces, locals_, system.weights
    )


def diagonal_defect_basis(d):
    """Three orthogonal columns in R^4, the first of norm sqrt(1 + d): B^T B - I is diagonal."""
    basis = np.eye(4)[:, :3]
    basis[0, 0] = np.sqrt(1.0 + d)
    return basis


def off_diagonal_defect_basis(d):
    """Three unit columns in R^4, the first two at inner product d: B^T B - I is off-diagonal."""
    basis = np.eye(4)[:, :3]
    basis[:2, 1] = d, np.sqrt(1.0 - d * d)
    return basis


@pytest.fixture
def linalg_calls(monkeypatch):
    """A Counter of the numpy.linalg eigvalsh, eigh, svd, inv and qr calls made in the test.

    Counts calls through the ``numpy.linalg`` module attributes, as the
    library makes them, so every ``opnorm`` counts as one ``svd``; numpy's
    own internal calls (the SVD behind ``norm(a, 2)``) are not counted.
    ``clear()`` it to count a later step.
    """
    calls = Counter()

    def counted(name, original):
        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return call

    for name in ("eigvalsh", "eigh", "svd", "inv", "qr"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    return calls


@pytest.fixture
def e1():
    return make_e1()


@pytest.fixture
def e2():
    return make_e2()


@pytest.fixture
def single_node():
    return make_single_node()


@pytest.fixture
def e1_lifted():
    return lift_codomains(make_e1())


@pytest.fixture
def e2_lifted():
    return lift_codomains(make_e2())
