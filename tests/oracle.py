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

from monothetic import AnchorTable, ExtElement, GroupDescriptor, base_norm
from monothetic.serialize import descriptor_to_json, norm_spec_to_json

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
