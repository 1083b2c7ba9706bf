"""Certified evaluation of the extended norm.

The extended norm of x is the capped infimum, over all ways of writing x as a
finite sum of partial-norm domain elements, of the summed partial-norm values.
Decompositions are searched in canonical form: one residual base-group element
plus an integer multiplicity per anchor.  Canonicalization loses nothing
because merging base-group summands never increases cost (the base norm is
subadditive) and opposite uses of one anchor cancel.

What makes the infinite infimum computable is a truncation bound.  Write
k* for the largest anchor index used with a nonzero multiplicity, K for the
anchor powers, and epsilon for a tolerance in (0, 1).  Matching the c-power
of x forces
    sum_{i<k*} |m_i| >= (K[k*] - |x.k|) / K[k*-1],
and each of those units costs at least the running threshold delta_{k*}, so
the growth law delta_{k*} * K[k*] > K[k*-1] yields
    cost > 1 - |x.k| / K[k*-1].
Hence every decomposition that reaches past the level where K[n-1] >=
|x.k|/epsilon costs more than 1 - epsilon, and a search below that level
decides exactly every value up to 1 - epsilon.  For x with zero c-power
every anchor-using decomposition costs more than 1, which certifies that
the extension restricts to the base norm on the base group.

The same growth law, K_n = J_n * K_{n-1} + 1 with J_n the largest j among
anchors 1..n-1, gives each search at most one leaf.  Write
C(v) = sum |v_i|/j_i for the anchor cost of a multiplicity vector v, and
W_p = max_{i<=p} j_i*K_i, so that W_p <= J_{p+1} * K_p = K_{p+1} - 1.

Lemma.  Every nonzero integer vector d with sum d_i*K_i = 0 has C(d) > 2.

(a) Anchors 1..p give c-power r only at cost at least |r|/W_p, since
    |r| <= sum |v_i|*K_i = sum (|v_i|/j_i) * j_i*K_i <= C(v) * W_p.
(b) Let n be d's deepest nonzero index and, negating d if need be, d_n > 0;
    n >= 2, since d_1*K_1 = 0 forces d_1 = 0.  Anchors 1..n-1 give
    -d_n*K_n, so by (a) C(d) >= d_n/j_n + d_n*K_n/(K_n - 1) > d_n + d_n/j_n,
    which is above 2 unless d_n = 1.
(c) A vector v of c-power +-1 has C(v) >= 1.  If its deepest nonzero index
    q is 1, v = +-e_1 at cost 1 (j_1 = 1).  Otherwise anchors 1..q-1 give at
    least |v_q|*K_q - 1 >= K_q - 1 >= W_{q-1}, at cost at least 1 by (a).
(d) Let d_n = 1 and g = J_n + d_{n-1}.  Then anchors 1..n-2 give
    -(g*K_{n-1} + 1).  For n = 2 that forces g = -1, so d_1 = -2 and
    C(d) = 5/2.  For n >= 3, note j_{n-1} <= J_n.
    - If g = 0, by (c) C(d) >= 1/j_n + J_n/j_{n-1} + 1 > 2.
    - If g != 0, by (a) anchors 1..n-2 cost at least
      (|g|*K_{n-1} - 1)/(K_{n-1} - 1) >= |g|, so
      C(d) >= 1/j_n + |d_{n-1}|/j_{n-1} + |g|.  Anchor n is pair
      (m, s - m) on anti-diagonal s.  For m >= 2 anchor n-1 is on it too,
      so J_n = s - 1 > j_n; with |d_{n-1}| >= J_n - |g|,
      C(d) >= 1/j_n + 1 + |g|*(1 - 1/J_n) >= 2 + 1/j_n - 1/J_n > 2.
      For m = 1 and s >= 4 (n = 2 is s = 3), anchor n-1 is (s - 2, 1), so
      j_{n-1} = 1, J_n = s - 2 >= 2, and
      C(d) >= 1/j_n + |d_{n-1}| + |g| >= 1/j_n + |g - d_{n-1}| = 1/j_n + J_n.

So two distinct anchor vectors of cost at most 1 and one c-power would differ
by a relation of cost at most 2: no two share a c-power.  A leaf of the
search is an anchor vector of cost below 1, so a search meets at most one,
and it takes no budget: :func:`evaluate` compares the leaf's total with
1 - epsilon, and :func:`evaluate_truncated` caps it at 1.  The bound is
sharp: for anchor n = pair (2, s - 2), K_n = (s - 1)*K_{n-1} + K_1 is a
relation of cost 1/(s - 2) + 1 + 1 = 2 + 1/(s - 2).

The search itself runs on integers.  Every anchor value 1/j has a
denominator dividing L = lcm(j of every anchor in the table), so running
anchor costs are exact integers over L; every base norm value has a
denominator dividing the spec's D, so a leaf's total cost is an exact
integer over L*D.  The branches are tested against anchor cost 1
cross-multiplied by positive integers, so each test decides exactly as the
rational comparison would.  A node reads one record per level, kept on the
table's search frame, so a search sets nothing up of its own, and a
``Fraction`` is built once, for the witness returned.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

from .construction import (
    Anchor,
    AnchorTable,
    first_index_reaching,
    require_depth,
    unpair_index,
)
from .errors import DomainError, ShapeError
from .groups import ExtElement, HElement, base_norm
from .rat import ONE, ZERO


@dataclass(frozen=True)
class Decomposition:
    """Canonical decomposition: anchor multiplicities plus one residual element.

    ``coefficients`` holds (anchor index, nonzero multiplicity) pairs in
    ascending index order.  ``cost`` is exact: the weighted anchor values plus
    the base norm of the residual.
    """

    coefficients: tuple[tuple[int, int], ...]
    residual: HElement
    cost: Fraction

    def check_against(self, table: AnchorTable, x: ExtElement) -> bool:
        """Recompute the defining identities; True when internally consistent."""
        power_sum = 0
        shift = x.h.descriptor.zero()
        cost = ZERO
        for index, mult in self.coefficients:
            anchor = table.anchor(index)
            power_sum += mult * anchor.power
            shift = shift + anchor.target.scale(mult)
            cost += abs(mult) * anchor.value
        cost += base_norm(table.spec, self.residual)
        return (
            power_sum == x.k
            and self.residual == x.h + shift
            and cost == self.cost
        )


@dataclass(frozen=True)
class ExactResult:
    """The norm value is pinned exactly, with a witness decomposition."""

    value: Fraction
    witness: Decomposition
    truncation_level: int
    is_exact = True


@dataclass(frozen=True)
class IntervalResult:
    """Certified two-sided enclosure: the value lies in (lower, upper].

    ``truncation_level`` is the level the search ran to, as in
    :class:`ExactResult`; JSON output prints only ``lower`` and ``upper``.
    """

    lower: Fraction
    upper: Fraction
    truncation_level: int
    is_exact = False


EvalResult = Union[ExactResult, IntervalResult]

DEFAULT_EPSILON = Fraction(1, 1024)


# One (epsilon, level) pair per entry, keyed by epsilon's integers since
# hashing a Fraction is slow.  A certify-stream run meets 90 pairs and one
# verify call 2-3, so 256 entries hold them all.
@lru_cache(maxsize=256)
def _interval(num: int, den: int, level: int) -> IntervalResult:
    """The certificate (1 - num/den, 1] at ``level``, one object for every caller."""
    # 1 - epsilon, made from epsilon's integers: already in lowest terms.
    return IntervalResult(Fraction(den - num, den), ONE, level)


def truncation_index(table: AnchorTable, k: int, epsilon: Fraction) -> int:
    """Deepest anchor index a decomposition of cost at most 1 - epsilon can use.

    Returns the largest n with n == 1 or K[n-1] < |k|/epsilon; every
    decomposition of an element with c-power k that uses a deeper anchor
    costs more than 1 - epsilon.  For k == 0 anchors are excluded entirely
    (any anchor-using decomposition costs more than 1), so the index is 0.

    The test runs on integers: with epsilon = num/den, an integer power K
    satisfies K < |k|*den/num exactly when K < ceil(|k|*den/num), and the
    largest such index is found by bisecting ``table.powers``.  When no
    power made yet reaches that bound, the table first makes anchors 1..N
    for the first N with K[N] >= bound, which :func:`first_index_reaching`
    finds by jumping the recurrence one anti-diagonal at a time in closed
    form (r steps at factor a take K to K*a^r + (a^r - 1)/(a - 1)); no power
    past K[N] can change a comparison with the bound.

    When N lies past the table's depth it raises through
    :func:`require_depth` before it makes any anchor: an
    :class:`ExtendTableError` naming N, or a :class:`DomainError` when no
    depth up to ``MAX_TABLE_DEPTH`` reaches the bound.
    """
    try:
        num, den = epsilon.numerator, epsilon.denominator
    except AttributeError:
        raise DomainError(
            f"epsilon must be a rational, got {type(epsilon).__name__}") from None
    if not 0 < num < den:   # 0 < epsilon < 1, the denominator being positive
        raise DomainError("epsilon must lie strictly between 0 and 1")
    if k == 0:
        return 0
    bound = -(-abs(k) * den // num)   # ceil(|k| / epsilon)
    powers = table.powers
    if not powers or powers[-1] < bound:
        n = first_index_reaching(bound)
        require_depth(table, n)
        table.prefix(n)
    # powers[i] = K[i+1] < bound iff level i + 2 is admissible; the last
    # power made reaches the bound.
    return bisect_left(powers, bound) + 1


class _SearchFrame:
    """Integer set-up of the search below anchor cost 1 on one table.

    Built once per table, on its first search, and grown only as far as
    searches need (see :func:`_search_start`): each level multiplies out a
    power that can run to thousands of digits.  The search takes no budget,
    so neither does the frame.  Level n >= 1 is one record in ``levels[n]``,
    entry 0 standing for "no anchors":

    - K_n, the power of anchor n;
    - L // j_n, the cost over L of one unit of anchor n;
    - the cap j_n - 1, since a larger |m_n| costs at least 1 on its own;
    - reach[n-1], the largest |sum of c-powers| anchors 1..n-1 reach under
      their caps;
    - widest[n-1], max j*k over anchors 1..n-1, so covering r units of
      c-power with them costs at least r / widest[n-1]; widest[0] = 1, since
      a branch at level 1, where reach[0] = 0, leaves no c-power to cover;
    - the coordinates of anchor n's target.

    ``reach`` and ``widest`` hold those two values for the last level made.
    ``gaps[n]`` is K_n - reach[n-1]: a target with |target| < gaps[n] forces
    multiplicity 0 at anchor n.  The gaps rise strictly: j_n - 1 <= J_{n+1} - 1
    and K_{n+1} = J_{n+1} * K_n + 1, so gaps[n+1] - gaps[n] =
    K_{n+1} - j_n * K_n >= 1.  They can therefore be bisected for the next
    level that allows a nonzero multiplicity, and no level past the first
    whose gap exceeds |k| can take one.  A frame is grown only to that level,
    so its size is bounded by the largest |k| searched, not by the depth.
    """

    def __init__(self, table: AnchorTable):
        self.scale = table.precision_lcm
        self.denominator = table.spec.denominator(table.descriptor)
        self.levels = [None]
        self.gaps = [0]
        self.reach = 0
        self.widest = 1

    def grow(self, anchor: Anchor) -> None:
        """Add the next level, whose anchor is given."""
        j, k = anchor.precision_index, anchor.power
        self.levels.append((k, self.scale // j, j - 1, self.reach, self.widest,
                            anchor.target.coords()))
        self.gaps.append(k - self.reach)
        self.reach += (j - 1) * k
        self.widest = max(self.widest, j * k)


def _search_start(table: AnchorTable, k: int, index_cap: int) -> tuple[_SearchFrame, int]:
    """The table's frame and the level a search over anchors 1..index_cap starts at.

    The frame, made on the table's first search, first grows one level at a
    time until its last gap exceeds |k| or it reaches ``index_cap`` (see
    :class:`_SearchFrame`).  The start is then bisect_right(gaps, |k|, 1,
    stop) - 1 with stop = min(index_cap, the frame's last level) + 1: the
    deepest level n <= index_cap whose gap is at most |k|, every level above
    it forcing multiplicity 0.  The start is its own start, so a search to
    level n and a search to its start visit the same nodes.
    """
    frame = table.search_frame
    if frame is None:
        frame = table.search_frame = _SearchFrame(table)
    target = abs(k)
    gaps = frame.gaps
    stop = len(gaps)   # one past the deepest level the search may start at
    while stop <= index_cap and gaps[-1] <= target:
        frame.grow(table.anchor(stop))
        stop += 1
    if stop > index_cap:
        stop = index_cap + 1
    return frame, bisect_right(gaps, target, 1, stop) - 1


def _descend(levels: list, gaps: list, scale: int, n: int, target: int,
             running: int) -> Optional[tuple]:
    """The coefficients at levels 1..n of the leaf below, or None.

    ``target`` is the c-power left for anchors 1..n and ``running`` the
    anchor cost over L spent above them (see :class:`_SearchFrame`).
    """
    if n == 0:
        return None if target else ()
    power, unit, cap, below, width, _ = levels[n]
    lo = max(-((below - target) // power), -cap)   # ceil((target - below) / power)
    hi = min((target + below) // power, cap)
    for mult in range(lo, hi + 1):
        cost = running + abs(mult) * unit
        rest = target - mult * power
        # (cost/L + |rest|/width) * L * width, against anchor cost 1.
        if cost * width + abs(rest) * scale >= scale * width:
            continue
        # The next level below n that allows a nonzero multiplicity.
        land = bisect_right(gaps, abs(rest), 1, n) - 1
        leaf = _descend(levels, gaps, scale, land, rest, cost)
        if leaf is not None:
            return leaf + ((n, mult),) if mult else leaf
    return None


def best_decomposition(
    table: AnchorTable, x: ExtElement, *, index_cap: int
) -> Optional[Decomposition]:
    """The decomposition over anchors 1..index_cap whose anchor part costs below 1, or None.

    Depth-first search over multiplicity vectors for anchors 1..index_cap,
    assigning the deepest anchor first, for the one anchor vector of c-power
    x.k whose anchor cost is below 1.  It starts at the level
    :func:`_search_start` gives, so the frame it needs is bounded by |x.k|,
    not by ``index_cap``, and :func:`_descend` reads one frame record per
    node.  Per-anchor caps and the reach of the leftover caps bound each
    level's multiplicities.  A branch is then tested once, on the admissible
    bound cost + |rest| / widest[n-1], which no leaf below it undercuts and
    which is the cost itself when no c-power is left to cover: a bound of 1
    or more is cut.  Levels whose only multiplicity is 0 are skipped in one
    bisection with no test of their own: every anchor at or below the level
    landed on covers c-power at no less than 1/widest[land] per unit, so the
    tests there cut whatever a skipped level's test, on a widest no
    narrower, would.

    By the lemma in the module docstring no other vector of cost below 1
    has that c-power, so the first leaf ends the search, and its
    coefficients are gathered on the way back up.  The answer is that
    vector with its residual, whose base norm may take the total to 1 or
    more.  Every decomposition of cost below 1 uses that vector, so a caller
    decides by comparing the total with its own bound.

    Costs run as integers (see the module docstring), so the nodes visited
    and the witness do not depend on the scaling; the residual and the
    ``Fraction`` cost are built once, for the leaf.
    """
    if not 0 <= index_cap <= table.depth:
        raise DomainError("index cap outside table depth")
    descriptor = x.h.descriptor
    if descriptor is not table.descriptor and descriptor != table.descriptor:
        raise ShapeError("element does not conform to the table's descriptor")

    frame, start = _search_start(table, x.k, index_cap)
    levels, scale = frame.levels, frame.scale
    coefficients = _descend(levels, frame.gaps, scale, start, x.k, 0)
    if coefficients is None:
        return None
    shift, running = x.h.coords(), 0
    for index, mult in coefficients:
        _, unit, _, _, _, target = levels[index]
        shift = tuple(s + mult * t for s, t in zip(shift, target))
        running += abs(mult) * unit
    d = frame.denominator
    total = running * d + min(table.spec.scaled_value(shift, descriptor), d) * scale
    r = descriptor.free_rank
    residual = HElement(descriptor, shift[:r], shift[r:])
    return Decomposition(coefficients, residual, Fraction(total, scale * d))


def evaluate(
    table: AnchorTable,
    x: ExtElement,
    epsilon: Fraction = DEFAULT_EPSILON,
) -> EvalResult:
    """Certified value of the extended norm at x.

    Either an :class:`ExactResult` whose value is the true infimum over all
    decompositions (including anchors beyond the truncation level), or an
    :class:`IntervalResult` certifying that the value lies in (1 - epsilon, 1].
    Every decomposition of cost at most 1 - epsilon uses the search's one
    leaf below the truncation level, so the leaf is the value when its total
    is within 1 - epsilon, and the interval holds otherwise.
    """
    try:
        num, den = epsilon.numerator, epsilon.denominator
    except AttributeError:
        raise DomainError(
            f"epsilon must be a rational, got {type(epsilon).__name__}") from None
    if not 0 < num < den:
        raise DomainError("epsilon must lie strictly between 0 and 1")
    descriptor = x.h.descriptor
    if descriptor is not table.descriptor and descriptor != table.descriptor:
        raise ShapeError("element does not conform to the table's descriptor")
    if x.k == 0:
        value = base_norm(table.spec, x.h)
        witness = Decomposition((), x.h, value)
        return ExactResult(value, witness, 0)
    level = truncation_index(table, x.k, epsilon)
    found = best_decomposition(table, x, index_cap=level)
    # found.cost > 1 - epsilon, cross-multiplied by the positive denominators.
    if found is None or found.cost.numerator * den > (den - num) * found.cost.denominator:
        return _interval(num, den, level)
    return ExactResult(found.cost, found, level)


def evaluate_truncated(table: AnchorTable, x: ExtElement, level: int) -> Fraction:
    """Finite-table value: min cost over anchor indices <= level, capped at 1.

    Not certified against deeper anchors; used as a monotonicity diagnostic.
    Every decomposition of cost below 1 uses the search's one leaf, so the
    value is that leaf's total capped at 1, and 1 when there is no leaf.
    """
    found = best_decomposition(table, x, index_cap=level)
    return ONE if found is None else min(found.cost, ONE)


def truncated_values(table: AnchorTable, x: ExtElement, levels: list[int]) -> list[Fraction]:
    """``[evaluate_truncated(table, x, n) for n in levels]``, one search for the deepest start.

    A truncated search to level n is the search from its start level (see
    :func:`_search_start`), which is its own start.  The gaps rise, so once
    the deepest level's start s is taken, every level at or above s starts
    at s and shares one search and its value object; a level below s is its
    own start and gets a search of its own.
    """
    if not levels:
        return []
    top = max(levels)
    if min(levels) < 0 or top > table.depth:
        raise DomainError("truncation level outside table depth")
    deepest = _search_start(table, x.k, top)[1]
    shared = evaluate_truncated(table, x, deepest)
    return [shared if n >= deepest else evaluate_truncated(table, x, n) for n in levels]


@dataclass(frozen=True)
class DensityWitness:
    """Certified evidence that some power of c sits within 1/precision of a target."""

    target_index: int
    precision_index: int
    anchor_index: int
    power: int
    bound: Fraction
    certificate: EvalResult

    @property
    def certified(self) -> bool:
        if isinstance(self.certificate, ExactResult):
            return self.certificate.value <= self.bound
        return self.bound >= ONE


def density_witness(
    table: AnchorTable,
    target_index: int,
    precision_index: int,
    epsilon: Fraction = DEFAULT_EPSILON,
) -> DensityWitness:
    """Locate and certify the anchor serving the (target, precision) demand."""
    n = unpair_index(target_index, precision_index)
    require_depth(table, n)
    anchor = table.anchor(n)
    certificate = evaluate(table, table.anchor_element(n), epsilon)
    return DensityWitness(
        target_index=target_index,
        precision_index=precision_index,
        anchor_index=n,
        power=anchor.power,
        bound=Fraction(1, precision_index),
        certificate=certificate,
    )

