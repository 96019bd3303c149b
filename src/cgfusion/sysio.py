"""Reading and writing system and operator files.

Files are UTF-8 JSON with a required ``"version": "1"`` tag.  A system
file looks like::

    {
      "version": "1",
      "ambient_dim": 2,
      "nodes": [
        {"id": "n0", "mu": 1.0, "v": 2.0,
         "subspace": [[1.0, 0.0]],
         "local_operator": [[1.0]]},
        ...
      ]
    }

``subspace`` lists basis vectors as rows (each of length ambient_dim);
``local_operator`` is an m x k row-list acting on basis coordinates.
An operator (K, L or G) is a file of its own, read by
:func:`load_operator`; a system file with an ``operators`` table is
rejected, so that no operator in it is silently left unread.  Writing
serializes every float as the shortest decimal that round-trips, so a
written file loads to bit-identical doubles.

A basis whose orthonormality defect exceeds 1e-10 but stays within 1e-6
is silently re-orthonormalized on load (column order and signs
preserved); a worse defect rejects the file.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import orjson

from .errors import SystemFileError
from .measure import MeasureNodes
from .operators import BASIS_TOL, Operator, Subspace, _basis_defect, _positive_qr
from .report import _save_canonical
from .systems import GFusionSystem

SCHEMA_VERSION = "1"
REPAIR_ORTHONORMALITY = 1e-6


def _fail(where: str, message: str):
    raise SystemFileError(f"{where}: {message}")


def _matrix_from(value, where: str, cols: int | None = None) -> np.ndarray:
    try:
        arr = np.array(value, dtype=float)
    except OverflowError:  # an integer literal beyond the double range
        _fail(where, "entries must be finite")
    except (TypeError, ValueError):
        _fail(where, "expected a rectangular array of numbers")
    if arr.ndim == 1 and arr.size == 0:
        arr = arr.reshape(0, 0 if cols is None else cols)
    if arr.ndim != 2:
        _fail(where, f"expected a 2-d array, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        _fail(where, "entries must be finite")
    if cols is not None and arr.shape[1] != cols:
        _fail(where, f"expected {cols} columns, got {arr.shape[1]}")
    return arr


def _read_json(path: str | os.PathLike):
    """Parse the file at ``path``; every failure is a :class:`SystemFileError`.

    orjson parses the bytes.  Only what it rejects (NaN and Infinity
    literals, numbers beyond the double range, lone surrogates, invalid
    JSON) goes to the stdlib parser, which accepts the first three as
    before and names the line of a syntax error.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        raise SystemFileError(f"{path}: file not found")
    except OSError as err:
        raise SystemFileError(f"{path}: cannot read: {err.strerror or err}")
    try:
        return orjson.loads(data)
    except orjson.JSONDecodeError:
        pass
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise SystemFileError(f"{path}: not UTF-8 text: byte {err.start}: {err.reason}")
    try:
        # Newlines as text-mode reading gives them, for the error's line number.
        return json.loads(text.replace("\r\n", "\n").replace("\r", "\n"))
    except json.JSONDecodeError as err:
        raise SystemFileError(f"{path}: invalid JSON at line {err.lineno}: {err.msg}")
    except RecursionError:
        raise SystemFileError(f"{path}: invalid JSON: nested too deeply")


def _check_version(version, where: str) -> None:
    if version != SCHEMA_VERSION:
        _fail(where, f"unsupported schema version {version!r} (expected {SCHEMA_VERSION!r})")


def load_document(path: str | os.PathLike) -> dict:
    """Parse a JSON document and check the schema version."""
    doc = _read_json(path)
    if not isinstance(doc, dict):
        _fail(str(path), "top level must be an object")
    _check_version(doc.get("version"), str(path))
    return doc


def _is_number(value) -> bool:
    # JSON true/false load as bool, a subclass of int: they are not numbers here.
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _subspace_from(value, where: str, ambient_dim: int) -> Subspace:
    if not isinstance(value, (list, np.ndarray)):
        _fail(where, f"expected a list of basis rows, got {value!r}")
    rows = _matrix_from(value, where, cols=ambient_dim) if len(value) else np.zeros((0, ambient_dim))
    basis = rows.T
    defect = _basis_defect(basis)
    if defect > REPAIR_ORTHONORMALITY:
        _fail(where, f"basis orthonormality defect {defect:.3e} exceeds {REPAIR_ORTHONORMALITY:g}")
    if defect > BASIS_TOL:
        # QR with diag R > 0 is Gram-Schmidt in column order: the repaired
        # basis stays close to the file's, which the local operator uses.
        # The gate above keeps every eigenvalue of B^T B above 1 - k 1e-6
        # (Gershgorin), so k < 10^6 columns are independent.
        basis = _positive_qr(basis)[0]
    return Subspace(ambient_dim, basis)


def system_from_document(doc: dict, where: str = "document") -> GFusionSystem:
    """Build and validate a system from a parsed document."""
    if "operators" in doc:
        _fail(where, "an 'operators' table is not read: pass each operator as a file "
                     "with --K, --L or --G")
    ambient_dim = doc.get("ambient_dim")
    if not isinstance(ambient_dim, int) or isinstance(ambient_dim, bool) or ambient_dim < 1:
        _fail(where, f"ambient_dim must be a positive integer, got {ambient_dim!r}")
    raw_nodes = doc.get("nodes")
    if not isinstance(raw_nodes, list) or not raw_nodes:
        _fail(where, "nodes must be a non-empty list")
    ids = []
    masses = []
    weights = []
    subspaces = []
    locals_ = []
    for index, raw in enumerate(raw_nodes):
        spot = f"{where}: nodes[{index}]"
        if not isinstance(raw, dict):
            _fail(spot, "expected an object")
        node_id = raw.get("id")
        if not isinstance(node_id, str) or not node_id:
            _fail(spot, "id must be a non-empty string")
        spot = f"{where}: node {node_id!r}"
        for key in ("mu", "v"):
            value = raw.get(key)
            if not _is_number(value) or not value > 0:
                _fail(spot, f"{key} must be a number > 0, got {value!r}")
            if not value <= sys.float_info.max:  # infinity, or an int past the double range
                _fail(spot, f"{key} must be finite")
        subspace = _subspace_from(raw.get("subspace", []), f"{spot}: subspace", ambient_dim)
        local = Operator(
            _matrix_from(raw.get("local_operator"), f"{spot}: local_operator", cols=subspace.dim)
        )
        ids.append(node_id)
        masses.append(float(raw["mu"]))
        weights.append(float(raw["v"]))
        subspaces.append(subspace)
        locals_.append(local)
    nodes = MeasureNodes(tuple(ids), np.array(masses))
    try:
        return GFusionSystem(ambient_dim, nodes, tuple(subspaces), tuple(locals_), np.array(weights))
    except ValueError as err:
        _fail(where, str(err))


def load_system(path: str | os.PathLike) -> GFusionSystem:
    """Load and validate a system file."""
    return system_from_document(load_document(path), str(path))


def load_operator(path: str | os.PathLike) -> Operator:
    """Load an operator file: either {"version","matrix"} or a bare row-list.

    The version of a wrapped file may be left out; if present it must be
    the schema version.
    """
    doc = _read_json(path)
    if isinstance(doc, dict):
        if "version" in doc:
            _check_version(doc["version"], str(path))
        value = doc.get("matrix")
        if value is None:
            _fail(str(path), "no 'matrix' entry")
    else:
        value = doc
    return Operator(_matrix_from(value, str(path)))


def _plain(matrix: np.ndarray) -> np.ndarray:
    # orjson writes only C-contiguous arrays; adding 0.0 turns -0.0 into 0.
    return np.add(matrix, 0.0, order="C")


def system_to_document(system: GFusionSystem) -> dict:
    """Document for a system (inverse of :func:`system_from_document`).

    Each matrix is a C-ordered float array with -0.0 written as 0 (equal
    systems, equal bytes).  The document is for ``dumps_canonical`` and
    :func:`save_system`; ``json.dumps`` needs each array as ``.tolist()``.
    """
    nodes = []
    for i in range(system.node_count):
        nodes.append({
            "id": system.nodes.ids[i],
            "mu": float(system.nodes.mu[i]),
            "v": float(system.weights[i]),
            "subspace": _plain(system.subspaces[i].basis.T),
            "local_operator": _plain(system.local_maps[i].entries),
        })
    return {
        "version": SCHEMA_VERSION,
        "ambient_dim": system.ambient_dim,
        "nodes": nodes,
    }


def save_system(system: GFusionSystem, path: str | os.PathLike) -> None:
    """Write a system file in canonical form."""
    _save_canonical(system_to_document(system), path)
