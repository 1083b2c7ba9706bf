"""Base group model: descriptors, elements, a fixed enumeration, and the
built-in menu of bounded invariant (pseudo)norms.

The base group is H = Z^r x Z_{q_1} x ... x Z_{q_s}, presented by a
:class:`GroupDescriptor`.  The ambient group adjoins one integer coordinate,
the power of a distinguished generator c, giving :class:`ExtElement`.

Everything here is exact: norm values are ``fractions.Fraction`` and no code
path in the package touches floating point.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional, Sequence, Union

from .errors import DomainError, ShapeError


# The coordinate count comes from outside input, and the enumeration's count
# rows, the coordinate bounds and zero() all cost time linear in it.
MAX_COORDINATES = 64


@dataclass(frozen=True)
class GroupDescriptor:
    """Finitely generated abelian group Z^free_rank x prod Z_{q}."""

    free_rank: int = 0
    torsion_moduli: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ShapeError("free_rank must be non-negative")
        coordinates = self.free_rank + len(self.torsion_moduli)
        if coordinates > MAX_COORDINATES:
            raise ShapeError(
                f"descriptor must have at most {MAX_COORDINATES} coordinates, got {coordinates}"
            )
        if any(q < 2 for q in self.torsion_moduli):
            raise ShapeError("torsion moduli must be >= 2")
        if coordinates < 1:
            raise ShapeError("descriptor must have at least one coordinate")
        # Hashed once: the enumeration's caches are keyed by descriptor.
        object.__setattr__(self, "_hash", hash((self.free_rank, self.torsion_moduli)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def order(self) -> Optional[int]:
        """Group order, or None when the group is infinite."""
        if self.free_rank > 0:
            return None
        return math.prod(self.torsion_moduli)

    def zero(self) -> "HElement":
        return HElement(self, (0,) * self.free_rank, (0,) * len(self.torsion_moduli))

    def element(self, coords: tuple[int, ...] | list[int]) -> "HElement":
        """Build an element from flat integer coordinates (free part then torsion part)."""
        coords = tuple(coords)
        if len(coords) != self.free_rank + len(self.torsion_moduli):
            raise ShapeError(
                f"expected {self.free_rank + len(self.torsion_moduli)} coordinates, got {len(coords)}"
            )
        return HElement(self, coords[: self.free_rank], coords[self.free_rank:])


def _integer(name: str, value) -> int:
    """``value`` as an int; a float, string or bool raises rather than being converted."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise DomainError(f"{name} must be an integer, got {type(value).__name__}")


@dataclass(frozen=True)
class HElement:
    """Element of the base group; torsion coordinates are kept reduced.

    Coordinates, like :class:`ExtElement`'s c-power, are ints: a value that
    ``operator.index`` takes is converted, and a float, string or bool raises.
    """

    descriptor: GroupDescriptor
    free: tuple[int, ...]
    torsion: tuple[int, ...]

    def __post_init__(self):
        d = self.descriptor
        if len(self.free) != d.free_rank or len(self.torsion) != len(d.torsion_moduli):
            raise ShapeError("coordinate count does not match descriptor")
        for c in self.free + self.torsion:
            if type(c) is not int:   # every internal caller passes plain ints
                coords = tuple(_integer(f"coordinate {i}", c)
                               for i, c in enumerate(self.free + self.torsion))
                object.__setattr__(self, "free", coords[:d.free_rank])
                object.__setattr__(self, "torsion", coords[d.free_rank:])
                break
        object.__setattr__(
            self, "torsion",
            tuple(t % q for t, q in zip(self.torsion, d.torsion_moduli)),
        )

    def _require_same(self, other: "HElement") -> None:
        if self.descriptor is not other.descriptor and self.descriptor != other.descriptor:
            raise ShapeError("elements belong to different groups")

    def __add__(self, other: "HElement") -> "HElement":
        self._require_same(other)
        return HElement(
            self.descriptor,
            tuple(a + b for a, b in zip(self.free, other.free)),
            tuple(a + b for a, b in zip(self.torsion, other.torsion)),
        )

    def __neg__(self) -> "HElement":
        return HElement(
            self.descriptor,
            tuple(-a for a in self.free),
            tuple(-a for a in self.torsion),
        )

    def __sub__(self, other: "HElement") -> "HElement":
        return self + (-other)

    def scale(self, factor: int) -> "HElement":
        return HElement(
            self.descriptor,
            tuple(factor * a for a in self.free),
            tuple(factor * a for a in self.torsion),
        )

    def coords(self) -> tuple[int, ...]:
        return self.free + self.torsion


@dataclass(frozen=True)
class ExtElement:
    """Element h + c^k of the extended group; the (h, k) split is unique."""

    h: HElement
    k: int

    def __post_init__(self):
        if type(self.k) is not int:
            object.__setattr__(self, "k", _integer("c-power", self.k))

    @property
    def descriptor(self) -> GroupDescriptor:
        return self.h.descriptor

    def __add__(self, other: "ExtElement") -> "ExtElement":
        return ExtElement(self.h + other.h, self.k + other.k)

    def __neg__(self) -> "ExtElement":
        return ExtElement(-self.h, -self.k)

    def __sub__(self, other: "ExtElement") -> "ExtElement":
        return self + (-other)

    def scale(self, factor: int) -> "ExtElement":
        return ExtElement(self.h.scale(factor), factor * self.k)


# ---------------------------------------------------------------------------
# Enumeration of H.
#
# Each free coordinate v is encoded by the zigzag map 0,1,-1,2,-2,... ->
# 0,1,2,3,4,...; torsion coordinates stand for themselves.  Encoded tuples are
# enumerated in graded-lexicographic order (by coordinate sum, ties broken
# lexicographically), 1-based, so index 1 is the zero element.
# ---------------------------------------------------------------------------

def zigzag_decode(u: int) -> int:
    if u < 0:
        raise DomainError("encoded value must be non-negative")
    return (u + 1) // 2 if u % 2 else -(u // 2)


def _coord_bounds(descriptor: GroupDescriptor) -> tuple[Optional[int], ...]:
    # None marks an unbounded (free) coordinate; torsion coordinate i is
    # bounded by q_i - 1.
    return (None,) * descriptor.free_rank + tuple(
        q - 1 for q in descriptor.torsion_moduli
    )


@lru_cache(maxsize=64)
def _count_table(descriptor: GroupDescriptor) -> tuple[list[list[int]], list[int]]:
    """One descriptor's count rows and cumulative counts; _counts grows them."""
    return [], []


def _counts(
    descriptor: GroupDescriptor, grade: int, elements: int = 0
) -> tuple[list[list[int]], list[int]]:
    """Count rows and cumulative counts, grown past ``grade`` and ``elements``.

    rows[s][i] = number of encoded tuples over coordinates i.. summing to s;
    cums[s] = number of elements with grade <= s.  Rows follow the identity
      count(i, s) = count(i, s-1) + count(i+1, s) - count(i+1, s-1-bound),
    the last term dropping the value that would overflow a bounded
    coordinate, so each row costs O(coords).  The cache holds at most 64
    descriptors.  Every grade holds an element, so a table grown to index n
    has at most n rows.  The CLI asks for no index past the sample pool,
    cli.MAX_SAMPLES // 2 + 1 = 10001 (anchor targets stop at 140 at depth
    MAX_TABLE_DEPTH, the pair pool at 4), so a table there has at most 10001
    rows of at most MAX_COORDINATES + 1 entries.  Library callers asking
    enumerate_h for larger indices are not bounded by this.  Callers
    guarantee ``elements`` is attainable, so this stops.
    """
    rows, cums = _count_table(descriptor)
    bounds = _coord_bounds(descriptor)
    width = len(bounds)
    while len(rows) <= grade or cums[-1] < elements:
        s = len(rows)
        row = [0] * (width + 1)
        row[width] = 1 if s == 0 else 0
        for i in range(width - 1, -1, -1):
            total = row[i + 1]
            if s >= 1:
                total += rows[s - 1][i]
            bound = bounds[i]
            if bound is not None and s - 1 - bound >= 0:
                total -= rows[s - 1 - bound][i + 1]
            row[i] = total
        rows.append(row)
        cums.append((cums[-1] if cums else 0) + row[0])
    return rows, cums


# sample_elements walks its pool of indices cyclically from the seed's
# offset, over up to count//2 + 1 of them (10001 under cli.MAX_SAMPLES), and
# the extension and truncation suites of one verify run, like repeated calls
# in a long-running process, walk the same indices again.  Under an LRU bound
# below the pool each walk would evict every entry before the next one came
# back to it, so every lookup would miss.
@lru_cache(maxsize=1 << 14)
def enumerate_h(descriptor: GroupDescriptor, n: int) -> HElement:
    """Return the n-th element (1-based) of the fixed graded-lex enumeration."""
    if n < 1:
        raise DomainError("enumeration index must be >= 1")
    order = descriptor.order
    if order is not None and n > order:
        raise DomainError(f"group has only {order} elements, index {n} out of range")
    rows, cums = _counts(descriptor, 0, n)
    grade = bisect.bisect_right(cums, n - 1)
    remaining = n - 1 - (cums[grade - 1] if grade else 0)
    encoded = []
    left = grade
    for i, bound in enumerate(_coord_bounds(descriptor)[:-1]):
        top = left if bound is None else min(left, bound)
        for v in range(top + 1):
            below = rows[left - v][i + 1]
            if remaining < below:
                encoded.append(v)
                left -= v
                break
            remaining -= below
    # The last coordinate absorbs the remaining grade outright.
    encoded.append(left)
    r = descriptor.free_rank
    return HElement(descriptor, tuple(zigzag_decode(u) for u in encoded[:r]), tuple(encoded[r:]))


# ---------------------------------------------------------------------------
# Bounded invariant (pseudo)norms.  Each variant pins the descriptor shape it
# applies to and states a denominator D that all its raw values divide:
# ``scaled_value`` is the raw formula times D, an integer, and the cap
# min(1, .) is applied after it.  Both read flat coordinates (free part then
# torsion part) whose torsion entries need not be reduced.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CappedWeightedL1:
    """d(h) = min(1, sum_i w_i * |h_i|) on a free group, one weight per coordinate."""

    weights: tuple[Fraction, ...]
    kind = "capped_l1"

    def __post_init__(self):
        if any(w <= 0 for w in self.weights):
            raise ShapeError("capped_l1 weights must be positive")

    def check_shape(self, descriptor: GroupDescriptor) -> None:
        if descriptor.torsion_moduli:
            raise ShapeError("capped_l1 applies to torsion-free groups")
        if len(self.weights) != descriptor.free_rank:
            raise ShapeError(
                f"capped_l1 has {len(self.weights)} weights for rank {descriptor.free_rank}"
            )

    # Cached on the instance: a cache keyed by the weights would hash every
    # Fraction on every call and cost more than the scaling saves.
    @cached_property
    def _scaled_weights(self) -> tuple[int, tuple[int, ...]]:
        d = math.lcm(*(w.denominator for w in self.weights))
        return d, tuple(w.numerator * (d // w.denominator) for w in self.weights)

    def denominator(self, descriptor: GroupDescriptor) -> int:
        return self._scaled_weights[0]

    def scaled_value(self, coords: Sequence[int], descriptor: GroupDescriptor) -> int:
        return sum(map(operator.mul, self._scaled_weights[1], map(abs, coords)))


@dataclass(frozen=True)
class CappedLInf:
    """d(h) = min(1, scale * max_i |h_i|) on a free group."""

    scale: Fraction
    kind = "capped_linf"

    def __post_init__(self):
        if self.scale <= 0:
            raise ShapeError("capped_linf scale must be positive")

    def check_shape(self, descriptor: GroupDescriptor) -> None:
        if descriptor.torsion_moduli:
            raise ShapeError("capped_linf applies to torsion-free groups")
        if descriptor.free_rank < 1:
            raise ShapeError("capped_linf needs at least one free coordinate")

    def denominator(self, descriptor: GroupDescriptor) -> int:
        return self.scale.denominator

    def scaled_value(self, coords: Sequence[int], descriptor: GroupDescriptor) -> int:
        return self.scale.numerator * max(map(abs, coords))


@lru_cache(maxsize=64)
def _cyclic_weights(moduli: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    d = math.lcm(*moduli)
    return d, tuple(2 * (d // q) for q in moduli)


@dataclass(frozen=True)
class CyclicScaled:
    """d(t) = min(1, sum_i min(t_i, q_i - t_i) * 2/q_i) on a finite group."""

    kind = "cyclic_scaled"

    def check_shape(self, descriptor: GroupDescriptor) -> None:
        if descriptor.free_rank != 0 or not descriptor.torsion_moduli:
            raise ShapeError("cyclic_scaled applies to purely torsion groups")

    def denominator(self, descriptor: GroupDescriptor) -> int:
        return _cyclic_weights(descriptor.torsion_moduli)[0]

    def scaled_value(self, coords: Sequence[int], descriptor: GroupDescriptor) -> int:
        moduli = descriptor.torsion_moduli
        total = 0
        for t, q, w in zip(coords, moduli, _cyclic_weights(moduli)[1]):
            t %= q
            total += w * min(t, q - t)
        return total


@dataclass(frozen=True)
class RationalRotation:
    """Pseudonorm d(x) = distance from x*alpha to the nearest integer, rank one.

    Vanishes on multiples of alpha's denominator, so it is a pseudonorm, not a
    norm; downstream checks must not assume positivity off zero.
    """

    alpha: Fraction
    kind = "rational_rotation"

    def __post_init__(self):
        if self.alpha.denominator < 2:
            raise ShapeError("alpha must be a non-integer rational p/q with q >= 2")

    def check_shape(self, descriptor: GroupDescriptor) -> None:
        if descriptor.free_rank != 1 or descriptor.torsion_moduli:
            raise ShapeError("rational_rotation applies to the rank-one free group")

    def denominator(self, descriptor: GroupDescriptor) -> int:
        return self.alpha.denominator

    def scaled_value(self, coords: Sequence[int], descriptor: GroupDescriptor) -> int:
        q = self.alpha.denominator
        r = (coords[0] * self.alpha.numerator) % q
        return min(r, q - r)


NormSpec = Union[CappedWeightedL1, CappedLInf, CyclicScaled, RationalRotation]


def base_norm(spec: NormSpec, h: HElement) -> Fraction:
    """Exact value of the base (pseudo)norm, capped at 1."""
    descriptor = h.descriptor
    spec.check_shape(descriptor)
    d = spec.denominator(descriptor)
    return Fraction(min(spec.scaled_value(h.coords(), descriptor), d), d)
