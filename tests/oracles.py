"""Independent brute-force recomputation of the worked example values.

Pure numpy, no package imports: every quantity is assembled directly
from its defining formula (dense sums, pseudoinverses, eigensolves), so
the library's code paths can be regression-pinned against these values.
:func:`canonical_text` is a plain writer of the canonical JSON layout, and
:func:`masked_numbers` and :func:`assert_shortest_floats` check the
numbers of a canonical text apart from that layout.
"""

import json
import re

import numpy as np


def effective_map(basis, local):
    return np.asarray(local, float) @ np.asarray(basis, float).T


def frame_operator(masses, weights, bases, local_maps):
    n = np.asarray(bases[0], float).shape[0]
    s = np.zeros((n, n))
    for mu, v, b, x in zip(masses, weights, bases, local_maps):
        lam = effective_map(b, x)
        s += mu * v**2 * (lam.T @ lam)
    return s


def analysis_blocks(weights, bases, local_maps, f):
    return [v * (effective_map(b, x) @ np.asarray(f, float))
            for v, b, x in zip(weights, bases, local_maps)]


def synthesis_vector(masses, weights, bases, local_maps, blocks):
    n = np.asarray(bases[0], float).shape[0]
    out = np.zeros(n)
    for mu, v, b, x, phi in zip(masses, weights, bases, local_maps, blocks):
        out += mu * v * (effective_map(b, x).T @ np.asarray(phi, float))
    return out


def weighted_field_norm(masses, blocks):
    return float(np.sqrt(sum(
        mu * float(np.asarray(p, float) @ np.asarray(p, float))
        for mu, p in zip(masses, blocks)
    )))


def adjoint_probes(n, rows, trials, seed):
    """r = ceil(sqrt(max(trials, 1))) vectors (r x n), then r fields (r x rows), from one stream."""
    r = 1
    while r * r < max(trials, 1):
        r += 1
    rng = np.random.default_rng(seed)
    return rng.standard_normal((r, n)), rng.standard_normal((r, rows))


def adjoint_cross_mismatch(masses, weights, bases, local_maps, trials, seed,
                           synthesis_masses=None):
    """Largest normalized |<Syn phi_s, f_t> - <phi_s, Ana f_t>_mu| over all r x r probe pairs.

    Each pair is divided by max(1, ||phi_s||_mu ||f_t||).  ``synthesis_masses``
    replaces the masses in the synthesis only, giving a known non-adjoint pair.
    """
    dims = [np.asarray(x, float).shape[0] for x in local_maps]
    n = np.asarray(bases[0], float).shape[0]
    f, phi = adjoint_probes(n, sum(dims), trials, seed)
    syn_masses = masses if synthesis_masses is None else synthesis_masses
    worst = 0.0
    for field in phi:
        blocks = np.split(field, np.cumsum(dims)[:-1])
        synthesized = synthesis_vector(syn_masses, weights, bases, local_maps, blocks)
        field_norm = weighted_field_norm(masses, blocks)
        for vec in f:
            measured = analysis_blocks(weights, bases, local_maps, vec)
            right = sum(mu * float(p @ a) for mu, p, a in zip(masses, blocks, measured))
            scale = max(1.0, field_norm * float(np.linalg.norm(vec)))
            worst = max(worst, abs(float(synthesized @ vec) - right) / scale)
    return worst


def block_diagonal(a, b):
    """The matrix with diagonal blocks A and B and zeros elsewhere."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]))
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0] :, a.shape[1] :] = b
    return out


def spectral_bounds(s):
    eigenvalues = np.linalg.eigvalsh(np.asarray(s, float))
    return max(float(eigenvalues[0]), 0.0), max(float(eigenvalues[-1]), 0.0)


def loewner_gap(t, s):
    diff = np.asarray(s, float) - np.asarray(t, float)
    return float(np.linalg.eigvalsh((diff + diff.T) / 2)[0])


def best_lower_constant(s, k, tol):
    """Largest a with lmin(S - a K K^T) >= -tol, by a closed-form eigensolve.

    The -tol slack is equivalent to a K K^T <= S + tol I, whose exact
    supremum is 1 / lmax(K^T (S + tol I)^-1 K); computed here through an
    explicit inverse, a different route than the library's eigensolve.
    """
    s = np.asarray(s, float)
    k = np.asarray(k, float)
    shifted_inv = np.linalg.inv(s + tol * np.eye(s.shape[0]))
    quotient = k.T @ shifted_inv @ k
    top = float(np.linalg.eigvalsh((quotient + quotient.T) / 2)[-1])
    if top <= 0.0:
        return 0.0
    return 1.0 / top


def minimal_norm_field(masses, weights, bases, local_maps, target):
    """Minimal weighted-norm phi with synthesis(phi) = target, via least squares.

    Solves through the mass-rescaled stacked synthesis matrix, a wholly
    different route than composing analysis with the frame operator
    pseudoinverse.
    """
    dims = [effective_map(b, x).shape[0] for b, x in zip(bases, local_maps)]
    columns = []
    for mu, v, b, x in zip(masses, weights, bases, local_maps):
        lam = effective_map(b, x)
        # synthesis acts on block phi_i as mu v lam^T phi_i; substituting
        # psi_i = sqrt(mu) phi_i turns the weighted norm into the plain norm
        columns.append(mu * v * lam.T / np.sqrt(mu))
    matrix = np.hstack(columns)
    psi = np.linalg.pinv(matrix, rcond=1e-12) @ np.asarray(target, float)
    blocks = []
    offset = 0
    for mu, m in zip(masses, dims):
        blocks.append(psi[offset : offset + m] / np.sqrt(mu))
        offset += m
    return blocks


def canonical_factors(masses, weights, bases, local_maps):
    """T_i = Lam_i S^-1 and W_i = v_i^2 Lam_i^T T_i from the raw formulas."""
    s_inv = np.linalg.inv(frame_operator(masses, weights, bases, local_maps))
    factors = []
    summands = []
    for v, b, x in zip(weights, bases, local_maps):
        lam = effective_map(b, x)
        t = lam @ s_inv
        factors.append(t)
        summands.append(v**2 * (lam.T @ t))
    return factors, summands


def energy_operator(masses, weights, factors):
    """E = sum_i mu_i v_i^2 T_i^T T_i, one node at a time: f^T E f is the factor energy."""
    n = np.asarray(factors[0], float).shape[1]
    total = np.zeros((n, n))
    for mu, v, t in zip(masses, weights, factors):
        t = np.asarray(t, float)
        total += mu * v**2 * (t.T @ t)
    return total


def mixed_operator(masses, chi_weights, xi_weights, chi_args, xi_args):
    """Sum of mu_i v_i s_i Xi_i^T Lam_i over the nodes, one node at a time.

    ``chi_args`` and ``xi_args`` are the (bases, local maps) of the
    analysis side chi (maps Lam_i, weights v) and the synthesis side xi
    (maps Xi_i, weights s).
    """
    n = np.asarray(chi_args[0][0], float).shape[0]
    mixed = np.zeros((n, n))
    for mu, v, s, bc, xc, bx, xx in zip(masses, chi_weights, xi_weights, *chi_args, *xi_args):
        mixed += mu * v * s * (effective_map(bx, xx).T @ effective_map(bc, xc))
    return mixed


def pair_resolution_sum(masses, chi_weights, xi_weights, chi_args, xi_args):
    """Sum of mu_i v_i s_i Xi_i^T Lam_i M^-1 over the nodes, one node at a time.

    The arguments are those of :func:`mixed_operator`, which gives M; its
    inverse comes from solving against the identity.
    """
    mixed = mixed_operator(masses, chi_weights, xi_weights, chi_args, xi_args)
    n = mixed.shape[0]
    inverse = np.linalg.solve(mixed, np.eye(n))
    total = np.zeros((n, n))
    for mu, v, s, bc, xc, bx, xx in zip(masses, chi_weights, xi_weights, *chi_args, *xi_args):
        total += mu * v * s * (effective_map(bx, xx).T @ (effective_map(bc, xc) @ inverse))
    return total


def douglas_minimal_factor(l, t):
    """Minimal-norm S with L = T S and its norm (the optimal majorization)."""
    l = np.asarray(l, float)
    t = np.asarray(t, float)
    s = np.linalg.pinv(t, rcond=1e-12) @ l
    return s, float(np.linalg.norm(s, 2)) if s.size else 0.0


def range_projector(m):
    """Orthogonal projector m pinv(m) onto the column range of m, cut at rank 1e-12."""
    m = np.asarray(m, float)
    return m @ np.linalg.pinv(m, rcond=1e-12)


E1 = {
    "masses": [1.0, 1.0],
    "weights": [1.0, 1.0],
    "bases": [np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])],
    "locals": [np.array([[1.0]]), np.array([[1.0]])],
}

E2 = dict(E1, weights=[2.0, 1.0])

SINGLE = {
    "masses": [1.0],
    "weights": [1.0],
    "bases": [np.array([[1.0], [0.0]])],
    "locals": [np.array([[1.0]])],
}


def system_args(spec):
    return spec["masses"], spec["weights"], spec["bases"], spec["locals"]


def canonical_text(doc, indent=2):
    """Canonical JSON layout of ``doc``, built value by value.

    Sorted keys, one item per line, ``indent`` spaces per level, empty
    containers as {} and []; every float is format(v, ".17g"), every int
    str(v), strings and keys go through json.dumps as raw UTF-8; an array
    is written as its nested lists.  The canonical writer writes floats in
    their shortest form, so compare the two through :func:`masked_numbers`.
    """
    def text(value, level):
        if isinstance(value, np.ndarray):
            value = value.tolist()
        pad = " " * (indent * level)
        inner = " " * (indent * (level + 1))
        if isinstance(value, dict):
            if not value:
                return "{}"
            items = [inner + json.dumps(k, ensure_ascii=False) + ": " + text(value[k], level + 1)
                     for k in sorted(value)]
            return "{\n" + ",\n".join(items) + "\n" + pad + "}"
        if isinstance(value, (list, tuple)):
            if not value:
                return "[]"
            items = [inner + text(item, level + 1) for item in value]
            return "[\n" + ",\n".join(items) + "\n" + pad + "]"
        if value is True:
            return "true"
        if value is False:
            return "false"
        if value is None:
            return "null"
        if isinstance(value, float):
            return format(value, ".17g")
        if isinstance(value, int):
            return str(value)
        if isinstance(value, str):
            return json.dumps(value, ensure_ascii=False)
        raise TypeError(f"cannot write {type(value).__name__}")

    return text(doc, 0) + "\n"


#: A JSON string (kept whole, so digits inside it are not numbers) or a number.
_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?')


def number_tokens(text):
    """The number tokens of JSON ``text``, in order."""
    return [t for t in _TOKEN.findall(text) if not t.startswith('"')]


def masked_numbers(text):
    """JSON ``text`` with every number token replaced by ``#``."""
    return _TOKEN.sub(lambda m: m.group() if m.group().startswith('"') else "#", text)


def significant_digits(token):
    """Digits of a decimal token's mantissa, leading and trailing zeros dropped."""
    mantissa = re.split("[eE]", token)[0].lstrip("-").replace(".", "")
    return len(mantissa.strip("0"))


def number_leaves(doc):
    """The int and float leaves of ``doc`` in canonical order (keys sorted)."""
    if isinstance(doc, np.ndarray):
        doc = doc.tolist()
    if isinstance(doc, dict):
        return [leaf for key in sorted(doc) for leaf in number_leaves(doc[key])]
    if isinstance(doc, (list, tuple)):
        return [leaf for item in doc for leaf in number_leaves(item)]
    if isinstance(doc, (int, float)) and not isinstance(doc, bool):
        return [doc]
    return []


def assert_shortest_floats(text, doc):
    """Each number token of ``text`` is the matching leaf of ``doc``: an int
    token the same int, a float token the same double (sign of zero too)
    with as many significant digits as ``repr`` gives, the shortest decimal
    that round-trips."""
    tokens, leaves = number_tokens(text), number_leaves(doc)
    assert len(tokens) == len(leaves)
    for token, leaf in zip(tokens, leaves):
        if isinstance(leaf, int):
            assert token == str(leaf)
            continue
        assert any(mark in token for mark in ".eE"), token  # it loads as a float
        assert float(token) == leaf and np.signbit(float(token)) == np.signbit(leaf), token
        assert significant_digits(token) == significant_digits(repr(float(leaf))), token
