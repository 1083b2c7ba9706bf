"""Packaged, seeded property suites over the construction and the evaluator.

Each suite is deterministic given (table, seed): sampling is an affine scan
over a small documented grid, so two runs always see the same inputs.
Reports carry every violation with exact rationals, by stream index.

A suite keeps its memos for one call only.  The extension suite's stream
repeats once it is longer than its grid, so the suite checks the first
period and re-emits each finding at every index that holds the same sample.
It compares each value with the base norm as an integer over the spec's
denominator D, and makes a ``Fraction`` only for a finding.
The axioms suite keeps each evaluation by raw coordinates and, by object id,
each sampled single's findings and certified value and each base sum; a
single's findings are emitted at every pair index that holds it.  The
truncation suite checks every sample it is given, and for each sample runs
one truncated search shared by every probe at or above the sample's start
level, plus one per probe below it (see
:func:`~monothetic.evaluator.truncated_values`).  Probes that share a search
share its value object, so no two of them are compared for a rise.

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
    truncated_values,
)
from .groups import ExtElement, GroupDescriptor, HElement, enumerate_h
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


def _single_grid(descriptor: GroupDescriptor, count: int, k_range: int) -> int:
    """Counters of the single-element stream of ``count`` samples: its period."""
    return _clamped_pool(descriptor, count // 2 + 1) * (2 * k_range + 1)


def sample_elements(
    descriptor: GroupDescriptor,
    count: int,
    seed: int,
    k_range: int = 5,
) -> list[ExtElement]:
    """The documented single-element sample stream.

    With ``k_range=0`` the stream repeats after ``count // 2 + 1`` samples
    (after the group order, if that is smaller).  A repeated sample is the
    same object.
    """
    kspan = 2 * k_range + 1
    grid = _single_grid(descriptor, count, k_range)
    first = []
    for i in range(min(count, grid)):
        index, kslot = divmod((seed + i) % grid, kspan)
        first.append(ExtElement(enumerate_h(descriptor, index + 1), kslot - k_range))
    if count <= grid:
        return first
    return (first * (count // grid + 1))[:count]


def sample_pairs(
    descriptor: GroupDescriptor,
    count: int,
    seed: int,
    k_range: int = 5,
) -> list[tuple[ExtElement, ExtElement]]:
    """The documented pair sample stream (indices slowest, powers fastest).

    Every pair is drawn from one list of the grid's single elements, so a
    single that recurs is the same object.
    """
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
    spec, descriptor = table.spec, table.descriptor
    elements = sample_elements(descriptor, sample_count, seed, k_range=0)
    if not elements:
        raise DomainError("the extension suite needs at least one sample")
    # The stream repeats (see sample_elements), so only its first period is
    # checked, and each finding is re-emitted at every index that holds it.
    count = len(elements)
    period = min(count, _single_grid(descriptor, count, 0))
    # base_norm(spec, h) is min(scaled value, D) / D, and the table's
    # constructor has checked the spec's shape: compare it in integers.
    d = spec.denominator(descriptor)
    found = {}
    for c, x in enumerate(elements[:period]):
        result = evaluate(table, x)
        if not isinstance(result, ExactResult):
            found[c] = ("extension-exact", f"h={x.h.coords()}", "exact result", "interval")
            continue
        expected = min(spec.scaled_value(x.h.coords(), descriptor), d)
        value = result.value
        if value.numerator * d != expected * value.denominator:
            found[c] = ("extension-value", f"h={x.h.coords()}",
                        str(Fraction(expected, d)), str(value))
    violations = [Violation(first + c, *problem)
                  for first in range(0, count, period)
                  for c, problem in found.items() if first + c < count]
    return _report("extension", count, violations, 0, start)


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
    skipped = 0
    # Evaluations are keyed by raw coordinates, (free, torsion, k): hashing
    # the frozen element dataclasses would cost more than the checks.
    # sample_pairs draws every pair from one list of single elements, so the
    # other memos are keyed by object id.
    results: dict[tuple, EvalResult] = {}
    singles: dict[int, tuple[list, Optional[Fraction]]] = {}
    bases: dict[tuple, HElement] = {}

    def ev(h: HElement, k: int) -> EvalResult:
        key = (h.free, h.torsion, k)
        if key not in results:
            results[key] = evaluate(table, ExtElement(h, k), epsilon)
        return results[key]

    def single(z: ExtElement) -> tuple[list, Optional[Fraction]]:
        r, mirror = ev(z.h, z.k), ev(-z.h, -z.k)
        found = []
        if _certified_value(r) != _certified_value(mirror):
            found.append(("symmetry", f"z=({z.h.coords()},{z.k})",
                          _describe(r), _describe(mirror)))
        if isinstance(r, ExactResult) and r.value > ONE:
            found.append(("cap", f"z=({z.h.coords()},{z.k})", "<= 1", str(r.value)))
        singles[id(z)] = entry = found, _certified_value(r)
        return entry

    for i, (x, y) in enumerate(pairs):
        found_x, vx = singles.get(id(x)) or single(x)
        found_y, vy = singles.get(id(y)) or single(y)
        if found_x or found_y:
            violations.extend(Violation(i, *p) for p in found_x + found_y)
        base = (id(x.h), id(y.h))
        h = bases.get(base)
        if h is None:
            h = bases[base] = x.h + y.h
        rxy = ev(h, x.k + y.k)
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
            # The interval certifies the sum's norm exceeds its lower end,
            # 1 - epsilon, so the only provable statement is
            # min(1, vx + vy) > rxy.lower.
            if min(ONE, vx + vy) <= rxy.lower:
                violations.append(
                    Violation(
                        i, "triangle",
                        f"x=({x.h.coords()},{x.k}) y=({y.h.coords()},{y.k})",
                        f"min(1, {vx + vy}) > {rxy.lower}", "interval certificate",
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

    Every sample is checked.  Its probe values come from
    :func:`~monothetic.evaluator.truncated_values`: every probe at or above
    the sample's start level shares one search, and each probe below it is
    searched on its own.
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
        probes = list(range(top + 1))
        if top < table.depth:
            probes.append(table.depth)
        values = truncated_values(table, x, probes)
        # Probes that share a search share its value object: no rise there.
        rising = [b for b in range(1, len(values))
                  if values[b] is not values[b - 1] and values[b] > values[b - 1]]
        for b in rising:
            violations.append(
                Violation(i, "truncation-monotone",
                          f"x=({x.h.coords()},{x.k}) N={probes[b - 1]}->{probes[b]}",
                          f"<= {values[b - 1]}", str(values[b]))
            )
        if isinstance(result, ExactResult):
            for n, v in zip(probes, values):
                if n >= level and v != result.value:
                    violations.append(
                        Violation(i, "truncation-stabilized",
                                  f"x=({x.h.coords()},{x.k}) N={n}",
                                  str(result.value), str(v))
                    )
        elif rising or values[-1] <= result.lower:
            # Values that never rise all lie above the bound when the last does.
            for n, v in zip(probes, values):
                if v <= result.lower:
                    violations.append(
                        Violation(i, "truncation-interval",
                                  f"x=({x.h.coords()},{x.k}) N={n}",
                                  f"> {result.lower}", str(v))
                    )
    return _report("truncation", len(elements), violations, 0, start)


ALL_SUITES = ("extension", "axioms", "density", "truncation")
