"""Structured pass/fail reports and a canonical JSON writer.

Reports are the uniform result type for every verification in the library:
named residuals measured against named tolerances, plus certified constants
and a provenance note saying whether the check was exact, sampled or
skipped.  The JSON form is canonical (sorted keys, two-space indent, each
float the shortest decimal that round-trips), so identical runs serialize
to identical bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import orjson

_CANONICAL = (orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY
              | orjson.OPT_APPEND_NEWLINE)


def _check_finite(value) -> None:
    """Raise ValueError on a NaN or infinity in ``value``, which orjson writes as null."""
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise ValueError(f"non-finite value cannot be serialized: {value!r}")
    elif isinstance(value, np.ndarray):
        finite = np.isfinite(value)
        if not finite.all():
            _check_finite(float(value[~finite][0]))
    elif isinstance(value, dict):
        for item in value.values():
            _check_finite(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _check_finite(item)


def dumps_canonical(document) -> bytes:
    """Serialize nested dict/list data to deterministic JSON bytes.

    Keys are emitted sorted, each level is indented by two spaces, every
    float is the shortest decimal that round-trips, strings are raw UTF-8
    and the text ends in a newline, so equal documents produce byte-equal
    output.  A numpy array (C-contiguous) is written as its nested lists.
    A NaN or infinity raises ValueError; a value orjson cannot write (an
    int outside [-2**63, 2**64), a lone surrogate) raises
    ``orjson.JSONEncodeError``, a TypeError.
    """
    _check_finite(document)
    return orjson.dumps(document, option=_CANONICAL)


def _save_canonical(document, path) -> None:
    """Write ``document`` canonically to the file ``path``.

    The bytes are built before the file is opened, so a document that
    cannot be serialized leaves an existing file as it was.
    """
    data = dumps_canonical(document)
    with open(path, "wb") as handle:
        handle.write(data)


EXACT = "exact spectral"
SAMPLED = "sampled"
SKIPPED = "skipped"


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


def skipped_report(name: str, note: str, tol: float) -> VerificationReport:
    """A check that measured nothing: it passes, with no residuals and ``note`` saying why."""
    return VerificationReport(name=name, passed=True, tolerances={"tol": tol},
                              provenance=SKIPPED, notes=(note,))
