"""Structured pass/fail reports and a canonical JSON writer.

Reports are the uniform result type for every verification in the library:
named residuals measured against named tolerances, plus certified constants
and a provenance note saying whether the check was exact or sampled.  The
JSON form is canonical (sorted keys, fixed float format), so identical runs
serialize to identical bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

import numpy as np


def format_float(x: float) -> str:
    """Decimal form with 17 significant digits; round-trips any double."""
    v = float(x)
    if not math.isfinite(v):
        raise ValueError(f"non-finite value cannot be serialized: {x!r}")
    return format(v, ".17g")


def _write_json(value, out: list[str], level: int) -> None:
    if isinstance(value, np.ndarray):
        value = value.tolist()  # one array at a time, so only its lists are held
    pad = "  " * level
    pad_in = pad + "  "
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(value)
        for i, key in enumerate(keys):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be strings, got {key!r}")
            out.append(pad_in + encode_basestring_ascii(key) + ": ")
            _write_json(value[key], out, level + 1)
            out.append(",\n" if i < len(keys) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        seq = tuple(value)
        if not seq:
            out.append("[]")
            return
        if set(map(type, seq)) == {float}:
            # A row of plain floats is one %-format call; "%.17g" % v is
            # the text of format_float(v).  A non-finite sum means some
            # item may be non-finite: format_float names the first one.
            if not math.isfinite(sum(seq)):
                for item in seq:
                    format_float(item)
            sep = ",\n" + pad_in
            out.append("[\n" + pad_in + sep.join(["%.17g"] * len(seq)) % seq)
            out.append("\n" + pad + "]")
            return
        out.append("[\n")
        for i, item in enumerate(seq):
            out.append(pad_in)
            _write_json(item, out, level + 1)
            out.append(",\n" if i < len(seq) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(format_float(value))
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps_canonical(document) -> str:
    """Serialize nested dict/list data to deterministic JSON text.

    Keys are emitted sorted, each level is indented by two spaces, and
    every float is written as :func:`format_float` writes it, so equal
    documents produce byte-equal text.  A list of plain floats is
    formatted in one call; a numpy array is written as its nested lists.
    """
    out: list[str] = []
    _write_json(document, out, 0)
    out.append("\n")
    return "".join(out)


def _save_canonical(document, path) -> None:
    """Write ``document`` canonically to the file ``path``.

    The whole text is built before the file is opened, so a document that
    cannot be serialized leaves an existing file as it was.  It is written
    in 1 MiB slices, so its encoded bytes are never a second whole copy.
    """
    text = dumps_canonical(document)
    with open(path, "w", encoding="utf-8") as handle:
        for start in range(0, len(text), 2**20):
            handle.write(text[start : start + 2**20])


EXACT = "exact spectral"
SAMPLED = "sampled"


def _tolerance_for(name: str, tolerances: dict[str, float], key: str) -> float:
    if key not in tolerances and "tol" not in tolerances:
        raise KeyError(f"report {name}: no tolerance recorded for residual {key}")
    return tolerances[key] if key in tolerances else tolerances["tol"]


def _residuals_ok(name: str, residuals: dict[str, float], tolerances: dict[str, float]) -> bool:
    return all(value <= _tolerance_for(name, tolerances, key) for key, value in residuals.items())


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one named check.

    ``passed`` may only be True when every residual is within its
    tolerance (looked up by matching key, falling back to "tol").
    A report may be forced to fail regardless of residuals, e.g. when a
    hypothesis cannot be evaluated at all.
    """

    name: str
    passed: bool
    residuals: dict[str, float] = field(default_factory=dict)
    tolerances: dict[str, float] = field(default_factory=dict)
    constants: dict[str, float] = field(default_factory=dict)
    provenance: str = EXACT
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        for group in (self.residuals, self.tolerances, self.constants):
            for key, value in group.items():
                if not math.isfinite(value):
                    raise ValueError(f"report {self.name}: field {key} is not finite")
        if self.passed and not _residuals_ok(self.name, self.residuals, self.tolerances):
            raise ValueError(f"report {self.name}: passed despite residuals over tolerance")

    def tolerance_for(self, key: str) -> float:
        return _tolerance_for(self.name, self.tolerances, key)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "residuals": dict(self.residuals),
            "tolerances": dict(self.tolerances),
            "constants": dict(self.constants),
            "provenance": self.provenance,
            "notes": list(self.notes),
        }


def build_report(
    name: str,
    residuals: dict[str, float],
    tolerances: dict[str, float],
    constants: dict[str, float] | None = None,
    provenance: str = EXACT,
    notes: tuple[str, ...] = (),
    force_fail: bool = False,
) -> VerificationReport:
    """Assemble a report, deciding pass/fail from the residuals."""
    residuals, tolerances = dict(residuals), dict(tolerances)
    return VerificationReport(
        name=name,
        passed=_residuals_ok(name, residuals, tolerances) and not force_fail,
        residuals=residuals,
        tolerances=tolerances,
        constants=dict(constants or {}),
        provenance=provenance,
        notes=tuple(notes),
    )
