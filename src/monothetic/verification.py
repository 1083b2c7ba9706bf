"""Packaged, seeded property suites over the construction and the evaluator.

Each suite is deterministic given (table, seed): sampling is an affine scan
over a small documented grid, so two runs always see the same inputs.
Reports carry every violation with exact rationals.

Two sizes are fixed: pairs are drawn from the first PAIR_INDEX_POOL = 4
enumerated base elements, and the truncation suite probes levels up to the
certified level + TRUNCATION_PROBE_EXTRA = 2.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .construction import AnchorTable, check_table_consistency, require_depth, unpair_index
from .errors import DomainError
from .evaluator import (
    DEFAULT_EPSILON,
    EvalResult,
    ExactResult,
    density_witness,
    evaluate,
    evaluate_truncated,
)
from .groups import ExtElement, GroupDescriptor, HElement, base_norm, enumerate_h
from .rat import ONE, ZERO


@dataclass(frozen=True)
class Violation:
    sample_index: int
    check: str
    inputs: str
    expected: str
    got: str


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    samples: int
    violations: tuple[Violation, ...]
    skipped: int
    wall_time_ms: float

    @property
    def passed(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------------
# Seeded sampling.
#
# Single elements: sample i maps to the counter (seed + i) mod (pool * kspan)
# decoded row-major as (enumeration index, c-power), with the power in
# [-k_range, k_range] varying fastest.  Pairs: the counter runs over the grid
# (index_x, index_y, k_x, k_y) with the powers varying fastest, so even short
# scans sweep every power combination.  For a finite base group the index
# pool is clamped to the group order, so a sample count at least the order
# covers every torsion coset representative.
# ---------------------------------------------------------------------------

PAIR_INDEX_POOL = 4
TRUNCATION_PROBE_EXTRA = 2


def _clamped_pool(descriptor: GroupDescriptor, requested: int) -> int:
    order = descriptor.order
    if order is not None:
        return min(order, requested)
    return requested


def sample_elements(
    descriptor: GroupDescriptor,
    count: int,
    seed: int,
    k_range: int = 5,
) -> list[ExtElement]:
    """The documented single-element sample stream.

    With ``k_range=0`` the stream repeats after ``count // 2 + 1`` samples
    (after the group order, if that is smaller).
    """
    pool = _clamped_pool(descriptor, count // 2 + 1)
    kspan = 2 * k_range + 1
    grid = pool * kspan
    built: dict[int, ExtElement] = {}   # a repeated counter gives the same element
    out = []
    for i in range(count):
        c = (seed + i) % grid
        x = built.get(c)
        if x is None:
            index, kslot = divmod(c, kspan)
            x = built[c] = ExtElement(enumerate_h(descriptor, index + 1), kslot - k_range)
        out.append(x)
    return out


def sample_pairs(
    descriptor: GroupDescriptor,
    count: int,
    seed: int,
    k_range: int = 5,
) -> list[tuple[ExtElement, ExtElement]]:
    """The documented pair sample stream (indices slowest, powers fastest)."""
    pool = _clamped_pool(descriptor, PAIR_INDEX_POOL)
    kspan = 2 * k_range + 1
    grid = kspan * kspan * pool * pool
    # Single element (index, k slot) sits at index * kspan + k slot.
    singles = [ExtElement(enumerate_h(descriptor, index + 1), k)
               for index in range(pool) for k in range(-k_range, k_range + 1)]
    out = []
    for i in range(count):
        c = (seed + i) % grid
        c, ky = divmod(c, kspan)
        c, kx = divmod(c, kspan)
        ix, iy = divmod(c, pool)
        out.append((singles[ix * kspan + kx], singles[iy * kspan + ky]))
    return out


def _report(suite: str, samples: int, violations: list, skipped: int, start: float) -> SuiteReport:
    return SuiteReport(suite, samples, tuple(violations), skipped,
                       (time.perf_counter() - start) * 1000.0)


# --- extension suite -------------------------------------------------------

def verify_extension(table: AnchorTable, sample_count: int, seed: int) -> SuiteReport:
    """The extended norm restricted to the base group equals the base norm."""
    start = time.perf_counter()
    elements = sample_elements(table.descriptor, sample_count, seed, k_range=0)
    if not elements:
        raise DomainError("the extension suite needs at least one sample")
    violations = []
    # The stream repeats (see sample_elements), so each distinct element is
    # checked once and its findings re-emitted at every index that holds it.
    problems: dict[tuple, list] = {}
    for i, x in enumerate(elements):
        key = (x.h.free, x.h.torsion, x.k)
        if key not in problems:
            expected = base_norm(table.spec, x.h)
            result = evaluate(table, x)
            problems[key] = found = []
            if not isinstance(result, ExactResult):
                found.append(("extension-exact", f"h={x.h.coords()}", "exact result", "interval"))
            elif result.value != expected:
                found.append(("extension-value", f"h={x.h.coords()}",
                              str(expected), str(result.value)))
        violations.extend(Violation(i, *p) for p in problems[key])
    return _report("extension", len(elements), violations, 0, start)


# --- norm axiom suite ------------------------------------------------------

def _certified_value(result: EvalResult) -> Optional[Fraction]:
    return result.value if isinstance(result, ExactResult) else None


def verify_norm_axioms(
    table: AnchorTable,
    sample_count: int,
    seed: int,
    epsilon: Fraction = DEFAULT_EPSILON,
    k_range: int = 5,
) -> SuiteReport:
    """Sampled symmetry, triangle casework, cap, and zero checks.

    Starts with a structural cross-check of the table against the recurrence:
    a tampered table voids every certificate downstream, so it is reported as
    a violation rather than silently trusted.
    """
    start = time.perf_counter()
    violations = [
        Violation(-1, "table-invariant", problem, "recurrence holds", "mismatch")
        for problem in check_table_consistency(table)
    ]
    zero = ExtElement(table.descriptor.zero(), 0)
    rzero = evaluate(table, zero, epsilon)
    if not (isinstance(rzero, ExactResult) and rzero.value == ZERO):
        violations.append(Violation(-1, "zero", "0", "0/1", _describe(rzero)))

    pairs = sample_pairs(table.descriptor, sample_count, seed, k_range)
    if not pairs:
        raise DomainError("the axioms suite needs at least one sample")
    budget = ONE - epsilon
    skipped = 0
    # The memos are keyed by raw coordinates: hashing the frozen element
    # dataclasses would cost more than the checks.  ``results`` holds each
    # evaluation by (free, torsion, k), ``problems`` each single's symmetry and
    # cap findings, and ``sums`` each base sum x.h + y.h by its two base parts.
    results: dict[tuple, EvalResult] = {}
    problems: dict[tuple, list] = {}
    sums: dict[tuple, HElement] = {}

    def ev(h: HElement, k: int) -> EvalResult:
        key = (h.free, h.torsion, k)
        if key not in results:
            results[key] = evaluate(table, ExtElement(h, k), epsilon)
        return results[key]

    for i, (x, y) in enumerate(pairs):
        for z in (x, y):
            key = (z.h.free, z.h.torsion, z.k)
            if key not in problems:
                r, mirror = ev(z.h, z.k), ev(-z.h, -z.k)
                problems[key] = found = []
                if _certified_value(r) != _certified_value(mirror):
                    found.append(("symmetry", f"z=({z.h.coords()},{z.k})",
                                  _describe(r), _describe(mirror)))
                if isinstance(r, ExactResult) and r.value > ONE:
                    found.append(("cap", f"z=({z.h.coords()},{z.k})", "<= 1", str(r.value)))
            violations.extend(Violation(i, *p) for p in problems[key])
        base = (x.h.free, x.h.torsion, y.h.free, y.h.torsion)
        if base not in sums:
            sums[base] = x.h + y.h
        rx, ry, rxy = ev(x.h, x.k), ev(y.h, y.k), ev(sums[base], x.k + y.k)
        vx, vy = _certified_value(rx), _certified_value(ry)
        if vx is None or vy is None:
            skipped += 1
            continue
        if isinstance(rxy, ExactResult):
            if rxy.value > vx + vy:
                violations.append(
                    Violation(
                        i, "triangle",
                        f"x=({x.h.coords()},{x.k}) y=({y.h.coords()},{y.k})",
                        f"<= {vx + vy}", str(rxy.value),
                    )
                )
        else:
            # The interval certifies the sum's norm exceeds the budget, so the
            # only provable statement is min(1, vx + vy) > budget.
            if min(ONE, vx + vy) <= budget:
                violations.append(
                    Violation(
                        i, "triangle",
                        f"x=({x.h.coords()},{x.k}) y=({y.h.coords()},{y.k})",
                        f"min(1, {vx + vy}) > {budget}", "interval certificate",
                    )
                )
    return _report("axioms", len(pairs), violations, skipped, start)


def _describe(result: EvalResult) -> str:
    if isinstance(result, ExactResult):
        return f"exact {result.value}"
    return f"interval ({result.lower}, {result.upper}]"


# --- density suite ---------------------------------------------------------

def verify_density(
    table: AnchorTable,
    max_target: int,
    max_precision: int,
    epsilon: Fraction = DEFAULT_EPSILON,
) -> SuiteReport:
    """Every (target, precision) demand in the box is served by its anchor."""
    start = time.perf_counter()
    require_depth(table, unpair_index(max_target, max_precision))
    demands = list(itertools.product(range(1, max_target + 1), range(1, max_precision + 1)))
    violations = []
    for i, (m, j) in enumerate(demands, start=1):
        witness = density_witness(table, m, j, epsilon)
        if not witness.certified:
            violations.append(Violation(i, "density", f"target={m} precision={j}",
                                        f"<= 1/{j}", _describe(witness.certificate)))
    return _report("density", len(demands), violations, 0, start)


# --- truncation suite ------------------------------------------------------

def verify_truncation(table: AnchorTable, sample_count: int, seed: int) -> SuiteReport:
    """Truncated values decrease with depth and stabilize at the certified level.

    Levels are probed on 0..level+TRUNCATION_PROBE_EXTRA plus the table
    depth.  Together with monotonicity and the certified lower bound this pins
    every deeper level as well: a non-increasing sequence that already equals
    the certified value cannot move again.
    """
    start = time.perf_counter()
    elements = sample_elements(table.descriptor, sample_count, seed)
    if not elements:
        raise DomainError("the truncation suite needs at least one sample")
    violations = []
    for i, x in enumerate(elements):
        result = evaluate(table, x)
        level = result.truncation_level
        top = min(table.depth, level + TRUNCATION_PROBE_EXTRA)
        probes = sorted(set(range(0, top + 1)) | {table.depth})
        values = [evaluate_truncated(table, x, n) for n in probes]
        for (na, va), (nb, vb) in zip(zip(probes, values), zip(probes[1:], values[1:])):
            if vb > va:
                violations.append(
                    Violation(i, "truncation-monotone",
                              f"x=({x.h.coords()},{x.k}) N={na}->{nb}",
                              f"<= {va}", str(vb))
                )
        if isinstance(result, ExactResult):
            for n, v in zip(probes, values):
                if n >= level and v != result.value:
                    violations.append(
                        Violation(i, "truncation-stabilized",
                                  f"x=({x.h.coords()},{x.k}) N={n}",
                                  str(result.value), str(v))
                    )
        else:
            for n, v in zip(probes, values):
                if v <= result.lower:
                    violations.append(
                        Violation(i, "truncation-interval",
                                  f"x=({x.h.coords()},{x.k}) N={n}",
                                  f"> {result.lower}", str(v))
                    )
    return _report("truncation", len(elements), violations, 0, start)


ALL_SUITES = ("extension", "axioms", "density", "truncation")
