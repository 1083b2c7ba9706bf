"""Inductive construction data: the pairing of (target, precision) demands,
the power sequence, and the anchor table that defines the partial norm on the
extended group.

The power sequence is norm-independent: it is fixed by the pairing alone, so
every norm over the same base group shares the identical table skeleton.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .errors import DomainError, ExtendTableError
from .groups import (
    ExtElement,
    GroupDescriptor,
    HElement,
    NormSpec,
    enumerate_h,
)


def pair_index(n: int) -> tuple[int, int]:
    """The n-th pair (target index, precision index) in anti-diagonal order.

    Order: (1,1), (1,2), (2,1), (1,3), (2,2), (3,1), ...  Bijective from the
    positive integers onto pairs of positive integers.
    """
    if n < 1:
        raise DomainError("pair index must be >= 1")
    diag = (math.isqrt(8 * (n - 1) + 1) - 1) // 2
    offset = n - 1 - diag * (diag + 1) // 2
    return offset + 1, diag - offset + 1


def unpair_index(m: int, j: int) -> int:
    """Inverse of :func:`pair_index`: n = (m+j-1)(m+j-2)/2 + m."""
    if m < 1 or j < 1:
        raise DomainError("pair coordinates must be >= 1")
    return (m + j - 1) * (m + j - 2) // 2 + m


def _pairs():
    """Every pair (target index, precision index) in :func:`pair_index` order.

    Walks the anti-diagonals m + j = 2, 3, ... directly, so no pair costs an
    ``isqrt``.
    """
    for total in itertools.count(2):
        for m in range(1, total):
            yield m, total - m


def k_sequence(length: int) -> tuple[int, ...]:
    """Powers k_1..k_N of the anchor table.

    k_1 = 1.  For n >= 2, with J_n the largest precision index among pairs
    1..n-1, k_n = k_{n-1} * J_n + 1: the least integer above k_{n-1} / delta_n
    for the threshold delta_n = 1/J_n, the smallest anchor value declared so
    far.  Since J_n >= 1 this also forces strict growth.  Pair n-1 = (m, j)
    lies on the anti-diagonal m + j, whose first pair (1, m + j - 1) carries
    the largest precision index yet, so J_n = m + j - 1.
    """
    if length < 1:
        raise DomainError("sequence length must be >= 1")
    powers = [1]
    for m, j in itertools.islice(_pairs(), length - 1):
        powers.append(powers[-1] * (m + j - 1) + 1)
    return tuple(powers)


class Anchor(NamedTuple):
    """One declared value: the element c^power - target gets value 1/precision.

    A named tuple, the cheapest record to make: every build and load of a
    deep table makes thousands.
    """

    index: int
    target_index: int
    precision_index: int
    power: int
    target: HElement

    @property
    def value(self) -> Fraction:
        return Fraction(1, self.precision_index)


@dataclass(frozen=True)
class AnchorTable:
    """Construction state shared by every evaluation query.

    The anchors carry the whole skeleton: each one's pair, power and target;
    its value 1/j follows from the pair.  The fields are immutable;
    ``search_frames`` is the evaluator's cache, which grows in place and is
    pickled with the table, so evaluate on one table from one thread at a time.
    """

    descriptor: GroupDescriptor
    spec: NormSpec
    anchors: tuple[Anchor, ...]

    @property
    def depth(self) -> int:
        return len(self.anchors)

    @cached_property
    def powers(self) -> tuple[int, ...]:
        return tuple(a.power for a in self.anchors)

    @cached_property
    def power_floors(self) -> tuple[int, ...]:
        """Suffix minima of the powers: entry i (from 0) is min(K[i+1], ..., K[N]).

        Non-decreasing for every table, so it can be bisected even when a
        tampered table's powers are not; on a built table it equals ``powers``.
        """
        return tuple(itertools.accumulate(reversed(self.powers), min))[::-1]

    @cached_property
    def precision_lcm(self) -> int:
        """lcm of every anchor's precision index j: anchor costs 1/j are multiples of 1/L."""
        return math.lcm(*{a.precision_index for a in self.anchors})

    @cached_property
    def search_frames(self) -> dict:
        """The evaluator's search set-up per budget, which it keeps bounded."""
        return {}

    def anchor(self, n: int) -> Anchor:
        if not 1 <= n <= self.depth:
            raise DomainError(f"anchor index {n} outside table of depth {self.depth}")
        return self.anchors[n - 1]

    def anchor_element(self, n: int) -> ExtElement:
        """The group element c^{k_n} - target_n carried by anchor n."""
        a = self.anchor(n)
        return ExtElement(-a.target, a.power)


def _target_element(descriptor: GroupDescriptor, target_index: int) -> HElement:
    # For a finite base group the enumeration is finite, so target demands
    # wrap around it; every (element, precision) demand still occurs.
    order = descriptor.order
    if order is not None:
        target_index = (target_index - 1) % order + 1
    return enumerate_h(descriptor, target_index)


# The powers grow super-exponentially (k_2500 has 4080 decimal digits), so a
# depth read from a table file or the command line is capped before any work.
MAX_TABLE_DEPTH = 10_000


def require_depth(table: AnchorTable, n: int) -> None:
    """Raise unless the table reaches anchor n.

    :class:`ExtendTableError` names n when a table that deep can be built;
    past ``MAX_TABLE_DEPTH`` none can, so that is a :class:`DomainError`.
    """
    if n > MAX_TABLE_DEPTH:
        raise DomainError(
            f"this query needs a table deeper than the depth cap {MAX_TABLE_DEPTH}"
        )
    if n > table.depth:
        raise ExtendTableError(n)


def build_anchor_table(
    descriptor: GroupDescriptor, spec: NormSpec, depth: int
) -> AnchorTable:
    """Deterministically build the first ``depth`` anchors for (descriptor, spec)."""
    if depth < 1:
        raise DomainError("table depth must be >= 1")
    if depth > MAX_TABLE_DEPTH:
        raise DomainError(f"table depth must be <= {MAX_TABLE_DEPTH}, got {depth}")
    spec.check_shape(descriptor)
    # About 70 distinct targets at depth 2500: each is looked up once.
    targets: dict[int, HElement] = {}
    anchors = []
    for n, (m, j), power in zip(range(1, depth + 1), _pairs(), k_sequence(depth)):
        target = targets.get(m)
        if target is None:
            target = targets[m] = _target_element(descriptor, m)
        anchors.append(Anchor(n, m, j, power, target))
    return AnchorTable(descriptor, spec, tuple(anchors))


def check_table_consistency(table: AnchorTable) -> list[str]:
    """Cross-check a table against the recurrence; returns human-readable defects.

    An empty list means the table is exactly what ``build_anchor_table`` would
    produce for its descriptor, spec, and depth.  The pairs come from the
    closed form :func:`pair_index`, not from the walk the build uses.  The
    growth law is checked in integers, K_n > K_{n-1} * J_n, with J_n the
    largest precision index of the recurrence's own pairs 1..n-1, not of the
    stored anchors.
    """
    problems: list[str] = []
    for n, power, a in zip(range(1, table.depth + 1), k_sequence(table.depth), table.anchors):
        m, j = pair_index(n)
        if a.index != n:
            problems.append(f"anchor {n}: stored index {a.index}")
        if (a.target_index, a.precision_index) != (m, j):
            problems.append(
                f"anchor {n}: pair ({a.target_index},{a.precision_index}) != ({m},{j})"
            )
        if a.power != power:
            problems.append(f"anchor {n}: power {a.power} != {power}")
        if a.target != _target_element(table.descriptor, m):
            problems.append(f"anchor {n}: target does not match enumeration")
        if n >= 2:
            prev = table.anchors[n - 2]
            largest = sum(pair_index(n - 1)) - 1   # J_n, as in k_sequence
            if not (a.power > prev.power and a.power > prev.power * largest):
                problems.append(f"anchor {n}: growth law violated against anchor {n - 1}")
    return problems
