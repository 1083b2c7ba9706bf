"""JSON wire formats and table persistence.

All rationals cross the wire as ``"p/q"`` strings; coordinates are integers.
A table file holds its header (the format version, the descriptor, the norm
spec and the depth N) and a SHA-256 digest of the header's canonical JSON.
The construction is inductive, so the header fixes every anchor: loading
reads the header and checks the digest, so an edited header is rejected
rather than silently trusted, and makes no anchor; the table makes each one
when a query first reaches it.  No power is ever written as text: the
deepest ones run to thousands of decimal digits.
"""

from __future__ import annotations

import dataclasses
import decimal
import hashlib
import json
import sys
from functools import lru_cache
from pathlib import Path
from typing import Any

from .construction import AnchorTable, build_anchor_table
from .counterexample import ContradictionReport, ScanSummary
from .errors import CorruptedTableError, TableFormatError
from .evaluator import Decomposition, DensityWitness, EvalResult, ExactResult
from .groups import (
    CappedLInf,
    CappedWeightedL1,
    CyclicScaled,
    ExtElement,
    GroupDescriptor,
    HElement,
    NormSpec,
    RationalRotation,
)
from .rat import format_fraction, parse_fraction

TABLE_VERSION = 3


# What json.dumps writes for the string dumps_stable puts in place of a raw
# number; no path and no string the program makes holds a NUL.
_SPLICE = json.dumps("\0")


def dumps_stable(payload: Any) -> str:
    """Canonical JSON rendering: sorted keys, fixed separators.

    A ``decimal.Decimal`` is written as a bare JSON number.  Powers go in as
    ``Decimal(k)``: ``json.dumps`` renders an int with ``int.__repr__``, which
    CPython refuses past 4300 digits, while ``str(Decimal(k))`` has no such
    limit, runs in subquadratic time and gives the same digits.
    """
    numbers: list[str] = []

    def splice(value: Any) -> str:
        if not isinstance(value, decimal.Decimal):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        numbers.append(str(value))
        return "\0"

    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=splice)
    if not numbers:
        return text
    parts = text.split(_SPLICE)
    if len(parts) != len(numbers) + 1:
        raise ValueError("a string in the payload is the raw-number marker")
    return "".join(part + number for part, number in zip(parts, numbers)) + parts[-1]


# --- descriptors and norms -------------------------------------------------

def descriptor_to_json(descriptor: GroupDescriptor) -> dict:
    return {
        "free_rank": descriptor.free_rank,
        "torsion_moduli": list(descriptor.torsion_moduli),
    }


def descriptor_from_json(payload: dict) -> GroupDescriptor:
    if not isinstance(payload, dict):
        raise TableFormatError("group descriptor must be a JSON object")
    moduli = payload.get("torsion_moduli", [])
    if not isinstance(moduli, list):
        raise TableFormatError("torsion_moduli must be a JSON array of integers")
    return _shared_descriptor(
        _json_int("free_rank", payload.get("free_rank", 0)),
        tuple(_json_int("torsion modulus", q) for q in moduli),
    )


# One object per group shape, so that tables loaded apart share their
# descriptor: evaluate's identity check and enumerate_h's cache then hit.
@lru_cache(maxsize=64)
def _shared_descriptor(free_rank: int, torsion_moduli: tuple[int, ...]) -> GroupDescriptor:
    return GroupDescriptor(free_rank, torsion_moduli)


def norm_spec_to_json(spec: NormSpec) -> dict:
    if isinstance(spec, CappedWeightedL1):
        return {"type": spec.kind, "weights": [format_fraction(w) for w in spec.weights]}
    if isinstance(spec, CappedLInf):
        return {"type": spec.kind, "scale": format_fraction(spec.scale)}
    if isinstance(spec, CyclicScaled):
        return {"type": spec.kind}
    if isinstance(spec, RationalRotation):
        return {"type": spec.kind, "alpha": format_fraction(spec.alpha)}
    raise TableFormatError(f"unknown norm spec {spec!r}")


def norm_spec_from_json(payload: dict) -> NormSpec:
    if not isinstance(payload, dict):
        raise TableFormatError("norm spec must be a JSON object")
    kind = payload.get("type")
    try:
        if kind == "capped_l1":
            weights = payload["weights"]
            if not isinstance(weights, list):
                raise TableFormatError("capped_l1 weights must be a JSON array")
            return CappedWeightedL1(tuple(parse_fraction(w) for w in weights))
        if kind == "capped_linf":
            return CappedLInf(parse_fraction(payload["scale"]))
        if kind == "cyclic_scaled":
            return CyclicScaled()
        if kind == "rational_rotation":
            return RationalRotation(parse_fraction(payload["alpha"]))
    except KeyError as exc:
        raise TableFormatError(f"norm spec {kind!r} is missing key {exc}") from exc
    raise TableFormatError(f"unknown norm type {kind!r}")


# --- elements ---------------------------------------------------------------

def h_element_to_json(h: HElement) -> list[int]:
    return list(h.coords())


def _json_int(label: str, value: Any) -> int:
    # json.loads gives floats for 0.5 and bools for true; int() would coerce both.
    if isinstance(value, bool) or not isinstance(value, int):
        raise TableFormatError(f"{label} must be a JSON integer, got {value!r}")
    return value


def h_element_from_json(descriptor: GroupDescriptor, payload: list) -> HElement:
    if not isinstance(payload, list):
        raise TableFormatError("base element must be a JSON array of integers")
    return descriptor.element([_json_int("coordinate", c) for c in payload])


def ext_element_from_json(descriptor: GroupDescriptor, payload: dict) -> ExtElement:
    if not isinstance(payload, dict) or "h" not in payload or "k" not in payload:
        raise TableFormatError('element must be a JSON object with keys "h" and "k"')
    return ExtElement(
        h_element_from_json(descriptor, payload["h"]), _json_int("k", payload["k"])
    )


# --- evaluation results ------------------------------------------------------

def decomposition_to_json(witness: Decomposition) -> dict:
    return {
        "coeffs": {str(n): m for n, m in witness.coefficients},
        "residual": h_element_to_json(witness.residual),
        "cost": format_fraction(witness.cost),
    }


def eval_result_to_json(result: EvalResult) -> dict:
    if isinstance(result, ExactResult):
        return {
            "kind": "exact",
            "value": format_fraction(result.value),
            "witness": decomposition_to_json(result.witness),
            "truncation_level": result.truncation_level,
        }
    return {
        "kind": "interval",
        "lower": format_fraction(result.lower),
        "upper": format_fraction(result.upper),
    }


def density_witness_to_json(witness: DensityWitness) -> dict:
    return {
        "target_index": witness.target_index,
        "precision_index": witness.precision_index,
        "anchor_index": witness.anchor_index,
        "power": witness.power,
        "bound": format_fraction(witness.bound),
        "certified": witness.certified,
        "certificate": eval_result_to_json(witness.certificate),
    }


# --- reports -----------------------------------------------------------------

def suite_report_to_json(report) -> dict:
    return {
        "suite": report.suite,
        "samples": report.samples,
        "skipped": report.skipped,
        "passed": report.passed,
        "violations": [dataclasses.asdict(v) for v in report.violations],
    }


def contradiction_to_json(report: ContradictionReport) -> dict:
    return {
        "n": report.n,
        "m": report.m,
        "v1": format_fraction(report.v1),
        "v2": format_fraction(report.v2),
        "required_norm": report.required_norm,
        "implied_bound": format_fraction(report.implied_bound),
        "margin": format_fraction(report.margin),
        "identity_verified": report.identity_verified,
    }


def scan_summary_to_json(summary: ScanSummary) -> dict:
    return {
        "limit": summary.limit,
        "worst_case_value": format_fraction(summary.worst_case_value),
        "certificate_count": summary.certificate_count,
        "min_margin": format_fraction(summary.min_margin),
        "all_margins_positive": summary.all_margins_positive,
        "conclusion": summary.conclusion,
    }


# --- table persistence --------------------------------------------------------

def _table_file(table: AnchorTable) -> dict:
    """A table file's contents: the header and the SHA-256 of its canonical JSON."""
    header = {
        "version": TABLE_VERSION,
        "descriptor": descriptor_to_json(table.descriptor),
        "spec": norm_spec_to_json(table.spec),
        "N": table.depth,
    }
    return {**header, "sha256": hashlib.sha256(dumps_stable(header).encode()).hexdigest()}


def parse_json(text: str, source: str) -> Any:
    """``json.loads``, with every refusal one :class:`TableFormatError` naming ``source``.

    Besides malformed text, ``json.loads`` raises a plain ``ValueError`` for an
    integer past CPython's int-from-string digit limit and ``RecursionError``
    for arrays or objects nested too deeply.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        reason = str(exc)
    except ValueError:
        reason = f"an integer has more than {sys.get_int_max_str_digits()} digits"
    except RecursionError:
        reason = "arrays or objects nested too deeply"
    raise TableFormatError(f"parse error in {source}: {reason}")


def save_table(table: AnchorTable, path: str | Path) -> None:
    Path(path).write_text(dumps_stable(_table_file(table)) + "\n")


def load_table(path: str | Path) -> AnchorTable:
    """Load the table a file's header describes, making none of its anchors.

    The version, descriptor, spec and depth N are read, N is capped at
    ``MAX_TABLE_DEPTH`` and the spec's shape checked against the descriptor.
    Then the stored digest must equal the SHA-256 of the header; any
    disagreement is a corruption, not a value to be trusted.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise TableFormatError(
            f"parse error: cannot read {path}: {exc.strerror or exc}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise TableFormatError(f"parse error: cannot read {path}: not UTF-8 text") from exc
    raw = parse_json(text, str(path))

    if not isinstance(raw, dict):
        raise TableFormatError("parse error: table file must hold a JSON object")
    version = raw.get("version")
    if type(version) is not int or version != TABLE_VERSION:
        raise TableFormatError(
            f"version mismatch: expected {TABLE_VERSION}, found {version!r}; "
            "rebuild the table with 'monothetic build'"
        )
    try:
        descriptor = descriptor_from_json(raw["descriptor"])
        spec = norm_spec_from_json(raw["spec"])
        depth = _json_int("N", raw["N"])
        stored = raw["sha256"]
    except (KeyError, TypeError, ValueError) as exc:
        raise TableFormatError(f"parse error: {exc}") from exc

    table = build_anchor_table(descriptor, spec, depth)
    if _table_file(table)["sha256"] != stored:
        raise CorruptedTableError("corrupted table: digest does not match the header")
    return table
