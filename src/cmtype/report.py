"""Report documents: one serializer and one document step for every subcommand.

:func:`plain` writes any result object out as report data by one rule, whose
only exceptions are the field names in :data:`FIELD_KEYS`.
:func:`finalize_document` adds the header, the canonical digest (SHA-256 of
the compact sorted JSON of everything but the digest and `timings`) and the
timings in one step, so two runs on the same input agree byte for byte on
all digest-covered content.
"""

from __future__ import annotations

import hashlib
import json
from enum import Enum
from fractions import Fraction
from typing import Any

from . import __version__
from .poly import Polynomial
from .presentation import render_polynomial

# The exceptions to the field rule: the report key of a field, or None to leave
# the field out of the report.
FIELD_KEYS = {
    "lam": "lambda",  # DrozdRoiterReport: `lambda` cannot be a field name
    "jacobian_ideal": None,  # SingularityReport: kept for callers, not reported
}


def plain(value: Any, names=()) -> Any:
    """The JSON-ready form of a result object.

    A record (a NamedTuple) becomes the dict of its fields, in declaration
    order; any other tuple, and a list, becomes a list; a dict becomes a
    dict with `str` keys in sorted key order; an `Enum` becomes its value; a
    `Fraction` becomes an `int` or ``"p/q"``; a `Polynomial` is rendered
    over the variable `names`.  Anything else passes through unchanged.
    """
    if hasattr(value, "_fields"):
        fields = {}
        for field, item in zip(value._fields, value):
            key = FIELD_KEYS.get(field, field)
            if key is not None:
                fields[key] = plain(item, names)
        return fields
    if isinstance(value, (tuple, list)):
        return [plain(item, names) for item in value]
    if isinstance(value, dict):
        return {str(key): plain(value[key], names) for key in sorted(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else str(value)
    if isinstance(value, Polynomial):
        return render_polynomial(value, names)
    return value


def digest_text(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def finalize_document(
    command: str, source_text: str, sections: dict[str, Any], total_ms: float
) -> dict[str, Any]:
    """The report document of one run; `source_text` is what the input digest hashes."""
    doc: dict[str, Any] = {
        "tool_version": __version__,
        "command": command,
        "input_digest": digest_text(source_text),
        **sections,
    }
    doc["canonical_digest"] = digest_text(
        json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    )
    doc["timings"] = {"total_ms": round(total_ms, 3)}
    return doc


def render_json(doc: dict[str, Any]) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def _flat(prefix: str, value: Any, lines: list[str]):
    if isinstance(value, dict):
        for k, v in value.items():
            _flat(f"{prefix}.{k}" if prefix else str(k), v, lines)
    elif isinstance(value, list):
        lines.append(f"{prefix}: {json.dumps(value, ensure_ascii=False)}")
    else:
        lines.append(f"{prefix}: {value}")


def render_text(doc: dict[str, Any]) -> str:
    lines: list[str] = []
    for key, value in doc.items():
        _flat(key, value, lines)
    return "\n".join(lines) + "\n"
