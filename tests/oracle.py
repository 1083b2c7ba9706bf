"""Exhaustive oracles the tests compare the package against.

Each one computes its answer the slow, direct way and shares no code path
with what it checks.
"""

import hashlib
import itertools
import json
import struct
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from monothetic import AnchorTable, DomainError, ExtElement, GroupDescriptor, base_norm
from monothetic.construction import check_table_consistency
from monothetic.evaluator import (
    DEFAULT_EPSILON,
    EvalResult,
    ExactResult,
    evaluate,
    evaluate_truncated,
)
from monothetic.groups import HElement
from monothetic.serialize import descriptor_to_json, norm_spec_to_json
from monothetic.verification import (
    TRUNCATION_PROBE_EXTRA,
    SuiteReport,
    Violation,
    sample_elements,
    sample_pairs,
)

ONE = Fraction(1)
LATTICE = GroupDescriptor(free_rank=2)


@lru_cache(maxsize=8)
def _bounded_sums(table: AnchorTable, max_summands: int, radius: int) -> dict:
    """Minimum summed partial-norm value per reachable element.

    Pool: base-group elements whose free coordinates are bounded by the radius
    (torsion coordinates bounded in cyclic distance), plus anchors with power
    and target coordinates inside the same box, with both signs.  All
    multisets of at most ``max_summands`` pool elements are enumerated.
    """
    descriptor = table.descriptor
    free_box = range(-radius, radius + 1)
    torsion_boxes = [
        {t for t in range(q) if min(t, q - t) <= radius} for q in descriptor.torsion_moduli
    ]

    def h_in_box(h) -> bool:
        return all(v in free_box for v in h.free) and all(
            t in box for t, box in zip(h.torsion, torsion_boxes)
        )

    pool = []
    for coords in itertools.product(
        *[free_box] * descriptor.free_rank, *(sorted(box) for box in torsion_boxes)
    ):
        h = descriptor.element(coords)
        pool.append((ExtElement(h, 0), base_norm(table.spec, h)))
    for anchor in table.anchors:
        if anchor.power <= radius and h_in_box(anchor.target):
            element = ExtElement(-anchor.target, anchor.power)
            pool.append((element, anchor.value))
            pool.append((-element, anchor.value))

    sums = {ExtElement(descriptor.zero(), 0): Fraction(0)}
    for size in range(1, max_summands + 1):
        for combo in itertools.combinations_with_replacement(pool, size):
            total, cost = combo[0]
            for element, value in combo[1:]:
                total = total + element
                cost += value
            previous = sums.get(total)
            if previous is None or cost < previous:
                sums[total] = cost
    return sums


def brute_force_eval(
    table: AnchorTable, x: ExtElement, max_summands: int, radius: int
) -> Fraction:
    """Exhaustive value over arbitrary small decompositions, capped at 1.

    Enumerates all multisets of at most ``max_summands`` partial-norm domain
    elements with coordinates bounded by ``radius`` and returns the cheapest
    that sums to x (1 when none does).  Independent of the canonical search:
    repeated anchors and multiple base-group summands are enumerated as-is.
    """
    assert max_summands >= 1 and radius >= 0
    assert x.descriptor == table.descriptor
    return min(ONE, _bounded_sums(table, max_summands, radius).get(x, ONE))


def tampered(table: AnchorTable, **edits: dict) -> AnchorTable:
    """A table of the same depth whose made prefix is ``table``'s anchors, some fields rewritten.

    Each keyword names an ``Anchor`` field and maps anchor numbers to new
    values: ``tampered(table, power={3: 3}, precision_index={5: 1})``.  The
    copy's made prefix and ``powers`` are replaced in full, so ``prefix``,
    the one place that makes anchors, makes none on it: ``truncation_index``
    bisects the edited powers, and the copy is searched as any table is.
    The search is exact only on the recurrence's powers: on such a table it
    returns the first leaf it meets, which need not be the cheapest.  So
    what such a table must fail is ``check_table_consistency``.
    """
    anchors = list(table.anchors)
    for field, values in edits.items():
        for n, value in values.items():
            anchors[n - 1] = anchors[n - 1]._replace(**{field: value})
    copy = AnchorTable(table.descriptor, table.spec, table.depth)
    copy._made = anchors
    copy.powers = [a.power for a in anchors]
    return copy


def construction_digest(table: AnchorTable) -> str:
    """SHA-256 over a whole table: header, then every anchor with its target.

    The header is the canonical JSON of descriptor and spec.  Each anchor then
    adds its n, m, j and the byte length of its power as four big-endian
    64-bit words, the power as big-endian two's-complement bytes, and its
    target's coordinates as big-endian signed 64-bit words.  Decimal text is
    avoided: CPython refuses powers past 4300 digits.
    """
    header = {
        "descriptor": descriptor_to_json(table.descriptor),
        "spec": norm_spec_to_json(table.spec),
    }
    digest = hashlib.sha256(json.dumps(header, sort_keys=True, separators=(",", ":")).encode())
    for a in table.anchors:
        power = a.power.to_bytes((a.power.bit_length() + 8) // 8, "big", signed=True)
        coords = a.target.coords()
        digest.update(struct.pack(">4Q", a.index, a.target_index, a.precision_index, len(power)))
        digest.update(power)
        digest.update(struct.pack(f">{len(coords)}q", *coords))
    return digest.hexdigest()


def lattice_identity(n: int, m: int) -> tuple[ExtElement, ExtElement]:
    """Both sides of m*(c^n - e1) + n*(e2 - c^m) = -m*e1 + n*e2 in Z^2 + <c>.

    Built from group elements, independently of the certificate's integer triples.
    """
    e1, e2 = LATTICE.element((1, 0)), LATTICE.element((0, 1))
    combined = ExtElement(-e1, n).scale(m) + ExtElement(e2, -m).scale(n)
    return combined, ExtElement(e1.scale(-m) + e2.scale(n), 0)


# --- per-sample suite loops ---------------------------------------------------
#
# The extension and axioms suites in their per-sample form: one pass over
# every sample, memoized by raw coordinates only, where the package checks the
# extension stream's first period and keys the axioms memos by object id.  The
# truncation suite in its per-probe form: one ``evaluate_truncated`` call per
# probe level, where the package searches once per distinct start level.
# They read the package's sample streams and call ``evaluate`` through this
# module's name, so a test can plant one fault in both.


def _describe(result: EvalResult) -> str:
    if isinstance(result, ExactResult):
        return f"exact {result.value}"
    return f"interval ({result.lower}, {result.upper}]"


def _certified_value(result: EvalResult) -> Optional[Fraction]:
    return result.value if isinstance(result, ExactResult) else None


def _report(suite: str, samples: int, violations: list, skipped: int) -> SuiteReport:
    return SuiteReport(suite, samples, tuple(violations), skipped, 0.0)


def per_sample_extension(table: AnchorTable, sample_count: int, seed: int) -> SuiteReport:
    elements = sample_elements(table.descriptor, sample_count, seed, k_range=0)
    if not elements:
        raise DomainError("the extension suite needs at least one sample")
    violations = []
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
    return _report("extension", len(elements), violations, 0)


def per_sample_axioms(
    table: AnchorTable,
    sample_count: int,
    seed: int,
    epsilon: Fraction = DEFAULT_EPSILON,
    k_range: int = 5,
) -> SuiteReport:
    violations = [
        Violation(-1, "table-invariant", problem, "recurrence holds", "mismatch")
        for problem in check_table_consistency(table)
    ]
    zero = ExtElement(table.descriptor.zero(), 0)
    rzero = evaluate(table, zero, epsilon)
    if not (isinstance(rzero, ExactResult) and rzero.value == 0):
        violations.append(Violation(-1, "zero", "0", "0/1", _describe(rzero)))

    pairs = sample_pairs(table.descriptor, sample_count, seed, k_range)
    if not pairs:
        raise DomainError("the axioms suite needs at least one sample")
    budget = ONE - epsilon
    skipped = 0
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
            if min(ONE, vx + vy) <= budget:
                violations.append(
                    Violation(
                        i, "triangle",
                        f"x=({x.h.coords()},{x.k}) y=({y.h.coords()},{y.k})",
                        f"min(1, {vx + vy}) > {budget}", "interval certificate",
                    )
                )
    return _report("axioms", len(pairs), violations, skipped)


def per_probe_truncation(table: AnchorTable, sample_count: int, seed: int) -> SuiteReport:
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
        values = [evaluate_truncated(table, x, n) for n in probes]
        rising = [b for b in range(1, len(values)) if values[b] > values[b - 1]]
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
    return _report("truncation", len(elements), violations, 0)
