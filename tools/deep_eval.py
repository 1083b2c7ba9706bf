"""Median time of ``evaluate`` on sums of two anchors of a depth-800 table.

    python3 tools/deep_eval.py SRC

SRC is the ``src`` directory of the checkout to import ``monothetic`` from.
The table is Z^2 with the capped sum norm min(1, |a| + |b|).  Each element
is +-a_n +- a_m with n and m drawn uniformly from the whole table, so its
certified level is about max(n, m) + 1.  One untimed pass runs first, then
every element is timed once per round; the script prints the median and the
quartiles in milliseconds.
"""

import random
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path


DEPTH = 800
ELEMENTS = 300
ROUNDS = 3


def main():
    sys.path.insert(0, str(Path(sys.argv[1]).resolve()))
    from monothetic import CappedWeightedL1, GroupDescriptor, build_anchor_table, evaluate

    table = build_anchor_table(
        GroupDescriptor(2), CappedWeightedL1((Fraction(1), Fraction(1))), DEPTH)
    rng = random.Random(800)
    elements = []
    for _ in range(ELEMENTS):
        a = table.anchor_element(rng.randint(1, DEPTH - 1))
        b = table.anchor_element(rng.randint(1, DEPTH - 1))
        elements.append((a if rng.random() < 0.5 else -a) + (b if rng.random() < 0.5 else -b))
    for x in elements:
        evaluate(table, x)
    times = []
    for _ in range(ROUNDS):
        for x in elements:
            start = time.perf_counter()
            evaluate(table, x)
            times.append((time.perf_counter() - start) * 1e3)
    q1, p50, q3 = statistics.quantiles(times, n=4)
    print(f"depth {DEPTH}: evaluate p50 {p50:.3f} ms (quartiles {q1:.3f}, {q3:.3f}) "
          f"over {len(times)} calls")


if __name__ == "__main__":
    main()
