"""Inductive construction data: the pairing of (target, precision) demands,
the power sequence, and the anchor table that defines the partial norm on the
extended group.

The power sequence is norm-independent: it is fixed by the pairing alone, so
every norm over the same base group shares the identical table skeleton.
"""

from __future__ import annotations

import itertools
import math
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


def _recurrence():
    """(target index m, precision index j, power k) of anchors 1, 2, ... in order.

    k_1 = 1.  For n >= 2, with J_n the largest precision index among pairs
    1..n-1, k_n = k_{n-1} * J_n + 1: the least integer above k_{n-1} / delta_n
    for the threshold delta_n = 1/J_n, the smallest anchor value declared so
    far.  Since J_n >= 1 this also forces strict growth.  Pair n-1 = (m, j)
    lies on the anti-diagonal m + j, whose first pair (1, m + j - 1) carries
    the largest precision index yet, so J_n = m + j - 1.  Every step from a
    pair on anti-diagonal s therefore multiplies by the same a = s - 1, which
    :func:`_diagonal_starts` uses to jump a whole anti-diagonal at once.  The
    walk takes the anti-diagonals s = 2, 3, ... in :func:`pair_index` order,
    so no pair costs an ``isqrt``.
    """
    power = 1
    for s in itertools.count(2):
        for m in range(1, s):
            yield m, s - m, power
            power = power * (s - 1) + 1


def k_sequence(length: int) -> tuple[int, ...]:
    """Powers k_1..k_N of the anchor table, as the recurrence makes them.

    One step per anchor; :func:`k_power` gives k_N alone in closed form per
    anti-diagonal.
    """
    if length < 1:
        raise DomainError("sequence length must be >= 1")
    return tuple(power for _, _, power in itertools.islice(_recurrence(), length))


def _steps(power: int, a: int, r: int) -> int:
    """r steps of K -> K * a + 1 from K = power, in closed form.

    K * a^r + (a^r - 1) / (a - 1) for a >= 2, and K + r for a = 1.
    """
    if a == 1:
        return power + r
    ar = a ** r
    return power * ar + (ar - 1) // (a - 1)


def _diagonal_starts():
    """(index n, power K_n, factor a) at the first anchor of each anti-diagonal.

    The a pairs on anti-diagonal m + j = a + 1 each step by K -> K * a + 1, so
    the next diagonal starts at n + a with power ``_steps(K_n, a, a)``: about
    sqrt(2n) big products reach anchor n, against n single steps.
    """
    n, power = 1, 1
    for a in itertools.count(1):
        yield n, power, a
        power = _steps(power, a, a)
        n += a


def k_power(n: int) -> int:
    """K_n, the power of anchor n, without making K_1..K_{n-1}.

    Jumps whole anti-diagonals, then finishes the partial one in closed form
    (see :func:`_diagonal_starts`).  Equal to ``k_sequence(n)[-1]``.
    """
    if n < 1:
        raise DomainError("anchor index must be >= 1")
    for first, power, a in _diagonal_starts():
        if n <= first + a - 1:
            return _steps(power, a, n - first)


class Anchor(NamedTuple):
    """One declared value: the element c^power - target gets value 1/precision.

    A named tuple, the cheapest record to make: a deep query or a full check
    of a deep table makes thousands.
    """

    index: int
    target_index: int
    precision_index: int
    power: int
    target: HElement

    @property
    def value(self) -> Fraction:
        return Fraction(1, self.precision_index)


# The powers grow super-exponentially (k_2500 has 4080 decimal digits), so a
# depth read from a table file or the command line is capped before any work.
MAX_TABLE_DEPTH = 10_000


class AnchorTable:
    """Construction state shared by every evaluation query.

    The header (descriptor, spec and depth N) fixes the table, and the
    constructor refuses a depth outside 1..``MAX_TABLE_DEPTH`` and a spec
    that does not fit the descriptor.  Anchors are made by :meth:`prefix`
    alone, from the recurrence, as far as a query asks and never past N;
    each carries its pair, power and target, and its value 1/j follows from
    the pair.  The prefix, its ``powers`` and ``search_frame`` (the
    evaluator's set-up, made on the first search) grow in place, so use one
    table from one thread at a time.
    """

    def __init__(self, descriptor: GroupDescriptor, spec: NormSpec, depth: int):
        if depth < 1:
            raise DomainError("table depth must be >= 1")
        if depth > MAX_TABLE_DEPTH:
            raise DomainError(f"table depth must be <= {MAX_TABLE_DEPTH}, got {depth}")
        spec.check_shape(descriptor)
        self.depth = depth
        self.descriptor = descriptor
        self.spec = spec
        self._source = _recurrence()
        self._made: list[Anchor] = []
        self.powers: list[int] = []   # of the made anchors: they rise strictly
        self.search_frame = None   # the evaluator's, made on the first search

    def prefix(self, n: int) -> list[Anchor]:
        """The anchors made so far, at least 1..n of them (n <= depth); read only."""
        made = self._made
        while len(made) < n:
            m, j, power = next(self._source)
            made.append(Anchor(len(made) + 1, m, j, power, _target_element(self.descriptor, m)))
            self.powers.append(power)
        return made

    @property
    def anchors(self) -> tuple[Anchor, ...]:
        """Every anchor 1..N, made first where it is not yet."""
        return tuple(self.prefix(self.depth))

    @cached_property
    def precision_lcm(self) -> int:
        """lcm of every anchor's precision index j: anchor costs 1/j are multiples of 1/L.

        It needs none of the anchors: pairs 1..N hold every j up to m + j - 1
        for pair N = (m, j), the first pair of that anti-diagonal having the
        largest.
        """
        m, j = pair_index(self.depth)
        return math.lcm(*range(1, m + j))

    def anchor(self, n: int) -> Anchor:
        if not 1 <= n <= self.depth:
            raise DomainError(f"anchor index {n} outside table of depth {self.depth}")
        return self.prefix(n)[n - 1]

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


def first_index_reaching(bound: int) -> int:
    """The least n with K_n >= bound, or ``MAX_TABLE_DEPTH + 1`` if no n up to the cap has one.

    Jumps anti-diagonal starts (see :func:`_diagonal_starts`) while the next
    start's power is below the bound, then steps singly inside the last
    diagonal: at most 141 steps at the cap.  The powers increase strictly, so
    this is ``bisect_left(k_sequence(MAX_TABLE_DEPTH), bound) + 1``, capped.
    """
    starts = _diagonal_starts()
    n, power, a = next(starts)
    for start in starts:
        if start[1] >= bound or start[0] > MAX_TABLE_DEPTH:
            break
        n, power, a = start
    while power < bound and n <= MAX_TABLE_DEPTH:
        power = power * a + 1
        n += 1
    return min(n, MAX_TABLE_DEPTH + 1)


def build_anchor_table(
    descriptor: GroupDescriptor, spec: NormSpec, depth: int
) -> AnchorTable:
    """The depth-N table for (descriptor, spec); its anchors are made as queries reach them.

    The constructor checks the depth and the spec's shape.
    """
    return AnchorTable(descriptor, spec, depth)


def check_table_consistency(table: AnchorTable) -> list[str]:
    """Cross-check a table against the recurrence; returns human-readable defects.

    An empty list means the table is exactly what ``build_anchor_table`` would
    produce for its descriptor, spec, and depth.  The growth law is checked in
    integers, K_n > K_{n-1} * J_n, with J_n the largest precision index of the
    recurrence's own pairs 1..n-1, not of the stored anchors.

    It makes every anchor the table has not made yet.  On a fresh depth-10000
    Z^2 ``capped_l1`` table that takes 0.055 s and the check 0.066 s more
    (Python 3.11, 2 vCPUs).
    """
    problems: list[str] = []
    anchors = table.anchors
    largest = 1   # J_n: m + j - 1 for the recurrence's pair n - 1
    for (n, a), (m, j, power) in zip(enumerate(anchors, 1), _recurrence()):
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
            prev = anchors[n - 2]
            if not (a.power > prev.power and a.power > prev.power * largest):
                problems.append(f"anchor {n}: growth law violated against anchor {n - 1}")
        largest = m + j - 1
    return problems
