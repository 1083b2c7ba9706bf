"""JSON wire formats and table persistence.

All rationals cross the wire as ``"p/q"`` strings; powers and coordinates are
integers.  Loading a table re-derives the whole construction from the
recurrence and cross-checks the file against it, so edited files are rejected
rather than silently trusted.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .construction import AnchorTable, build_anchor_table
from .counterexample import ContradictionReport, ScanSummary
from .errors import CorruptedTableError, TableFormatError
from .evaluator import Decomposition, DensityWitness, EvalResult, ExactResult
from .groups import (
    AxiomReport,
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

TABLE_VERSION = 1


def dumps_stable(payload: Any) -> str:
    """Canonical JSON rendering: sorted keys, fixed separators."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# --- descriptors and norms -------------------------------------------------

def descriptor_to_json(descriptor: GroupDescriptor) -> dict:
    return {
        "free_rank": descriptor.free_rank,
        "torsion_moduli": list(descriptor.torsion_moduli),
    }


def descriptor_from_json(payload: dict) -> GroupDescriptor:
    return GroupDescriptor(
        free_rank=int(payload.get("free_rank", 0)),
        torsion_moduli=tuple(int(q) for q in payload.get("torsion_moduli", [])),
    )


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
    kind = payload.get("type")
    if kind == "capped_l1":
        return CappedWeightedL1(tuple(parse_fraction(w) for w in payload["weights"]))
    if kind == "capped_linf":
        return CappedLInf(parse_fraction(payload["scale"]))
    if kind == "cyclic_scaled":
        return CyclicScaled()
    if kind == "rational_rotation":
        return RationalRotation(parse_fraction(payload["alpha"]))
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


def ext_element_to_json(x: ExtElement) -> dict:
    return {"h": h_element_to_json(x.h), "k": x.k}


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

def suite_report_to_json(report, include_timing: bool = False) -> dict:
    payload = {
        "suite": report.suite,
        "samples": report.samples,
        "skipped": report.skipped,
        "passed": report.passed,
        "violations": [
            {
                "sample_index": v.sample_index,
                "check": v.check,
                "inputs": v.inputs,
                "expected": v.expected,
                "got": v.got,
            }
            for v in report.violations
        ],
    }
    if include_timing:
        payload["wall_time_ms"] = report.wall_time_ms
    return payload


def axiom_report_to_json(report: AxiomReport) -> dict:
    return {
        "spec": report.spec_kind,
        "samples": report.samples,
        "passed": report.passed,
        "flagged_pseudonorm": report.flagged_pseudonorm,
        "pseudonorm_witnesses": [list(h.coords()) for h in report.pseudonorm_witnesses],
        "violations": [
            {"check": v.check, "inputs": v.inputs, "expected": v.expected, "got": v.got}
            for v in report.violations
        ],
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

def table_to_json(table: AnchorTable) -> dict:
    return {
        "version": TABLE_VERSION,
        "descriptor": descriptor_to_json(table.descriptor),
        "spec": norm_spec_to_json(table.spec),
        "N": table.depth,
        "anchors": [
            {"n": a.index, "m": a.target_index, "j": a.precision_index, "k": a.power}
            for a in table.anchors
        ],
    }


def save_table(table: AnchorTable, path: str | Path) -> None:
    Path(path).write_text(json.dumps(table_to_json(table), sort_keys=True, indent=2) + "\n")


def load_table(path: str | Path) -> AnchorTable:
    """Load a table, re-deriving and cross-checking the construction data.

    The powers, thresholds, pairing, and targets are rebuilt from the
    recurrence; any disagreement with the file is a corruption, not a value
    to be trusted.
    """
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise TableFormatError(f"parse error: cannot read {path}") from exc
    except json.JSONDecodeError as exc:
        raise TableFormatError(f"parse error: {exc}") from exc

    if not isinstance(raw, dict):
        raise TableFormatError("parse error: table file must hold a JSON object")
    if raw.get("version") != TABLE_VERSION:
        raise TableFormatError(
            f"version mismatch: expected {TABLE_VERSION}, found {raw.get('version')!r}"
        )
    try:
        descriptor = descriptor_from_json(raw["descriptor"])
        spec = norm_spec_from_json(raw["spec"])
        depth = int(raw["N"])
        entries = raw["anchors"]
    except (KeyError, TypeError, ValueError) as exc:
        raise TableFormatError(f"parse error: {exc}") from exc

    rebuilt = build_anchor_table(descriptor, spec, depth)
    if len(entries) != depth:
        raise CorruptedTableError("corrupted table: anchor count does not match depth")
    for entry, anchor in zip(entries, rebuilt.anchors):
        stored = (entry.get("n"), entry.get("m"), entry.get("j"), entry.get("k"))
        derived = (anchor.index, anchor.target_index, anchor.precision_index, anchor.power)
        if stored != derived:
            raise CorruptedTableError(
                f"corrupted table: anchor {entry.get('n')} fails the recurrence cross-check"
            )
    return rebuilt
