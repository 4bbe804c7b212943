"""Report documents: canonical serialization shared by all subcommands.

A document is an insertion-ordered mapping with a fixed key order.  The
canonical digest is the SHA-256 of the compact JSON encoding of everything
except the `timings` and `canonical_digest` entries, so two runs on the same
input agree byte for byte on all digest-covered content.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Any

from .classifier import ClassificationReport, ObstructionData
from .drozd_roiter import DrozdRoiterReport
from .families import FamilyTag
from .invariants import ArtinianReduction, RingInvariants
from .presentation import render_polynomial
from .singularity import SingularityReport

TOOL_VERSION = "0.1.0"


def digest_bytes(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def digest_text(text: str) -> str:
    return digest_bytes(text.encode("utf-8"))


def _fraction(value: Fraction) -> str | int:
    if value.denominator == 1:
        return int(value)
    return str(value)


def invariants_section(inv: RingInvariants | None) -> dict[str, Any] | None:
    if inv is None:
        return None
    return {
        "dim": inv.dim,
        "embdim": inv.embdim,
        "hvector": list(inv.hvector),
        "multiplicity": inv.multiplicity,
        "is_cm": inv.is_cm,
        "cm_type": inv.cm_type,
        "is_gorenstein": inv.is_gorenstein,
        "is_min_mult": inv.is_min_mult,
        "is_hypersurface": inv.is_hypersurface,
        "is_regular": inv.is_regular,
    }


def singularity_section(report: SingularityReport | None) -> dict[str, Any] | None:
    if report is None:
        return None
    return {
        "codim": report.codim,
        "singular_dim": report.singular_dim,
        "isolated": report.isolated,
        "equidimensional_assumed": report.equidimensional_assumed,
    }


def reduction_section(reduction: ArtinianReduction, names) -> dict[str, Any]:
    return {
        "lsop": [render_polynomial(f, names) for f in reduction.lsop],
        "standard_monomial_counts": list(reduction.standard_monomial_counts),
        "length": reduction.length,
        "seed": reduction.seed,
    }


def family_section(tag: FamilyTag | None) -> dict[str, Any] | None:
    if tag is None:
        return None
    param: Any = tag.param
    if isinstance(param, tuple):
        param = list(param)
    return {
        "kind": tag.kind,
        "param": param,
        "certificate": list(tag.certificate) if tag.certificate is not None else None,
        "attempted": tag.attempted,
    }


def obstruction_section(data: ObstructionData | None) -> dict[str, Any] | None:
    if data is None:
        return None
    return {
        "x_index": data.x_index,
        "u_index": data.u_index,
        "v_index": data.v_index,
        "basis": list(data.basis),
        "matrix": [[_fraction(c) for c in row] for row in data.matrix],
        "f_columns": {
            str(j): [_fraction(c) for c in triple] for j, triple in sorted(data.f_columns.items())
        },
    }


def classification_sections(report: ClassificationReport) -> dict[str, Any]:
    return {
        "invariants": invariants_section(report.invariants),
        "singularity": singularity_section(report.singularity),
        "family": family_section(report.family),
        "obstruction": obstruction_section(report.obstruction),
        "verdict": report.verdict.value,
        "reason": report.reason,
        "justification": [
            {"rule": j.rule, "citation": j.citation, "quote": j.quote}
            for j in report.justification
        ],
        "assumptions_used": list(report.assumptions_used),
    }


def dr_section(report: DrozdRoiterReport) -> dict[str, Any]:
    return {
        "e": report.e,
        "lambda": report.lam,
        "dr1": report.dr1,
        "dr2": report.dr2,
        "finite_type": report.finite_type,
        "witnesses": list(report.witnesses),
    }


def build_document(command: str, input_digest: str, sections: dict[str, Any]) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "tool_version": TOOL_VERSION,
        "command": command,
        "input_digest": input_digest,
    }
    doc.update(sections)
    return doc


def canonical_digest(doc: dict[str, Any]) -> str:
    core = {k: v for k, v in doc.items() if k not in ("timings", "canonical_digest")}
    blob = json.dumps(core, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return digest_text(blob)


def finalize_document(doc: dict[str, Any], total_ms: float) -> dict[str, Any]:
    doc["canonical_digest"] = canonical_digest(doc)
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
