"""Print the evaluator's outputs on a fixed case set, one line per case.

    python3 tools/differential.py SRC > outputs.txt

SRC is the ``src`` directory of the checkout to import ``monothetic`` from.
Run it on two checkouts and compare the files with ``cmp``: a change that
must not alter any output passes when they are byte-identical.  The last
line is the SHA-256 of all the lines before it.

Tables: Z^2 capped_l1 1,1; Z capped_l1 1/4; Z5xZ9xZ7 cyclic_scaled; Z
rational_rotation 3/7, each grown from the recurrence at depths 70 and 410,
plus three tampered copies of each depth-70 table (collapsed powers, a
raised power, edited precisions).  A tampered copy is a table of the same
depth whose made anchors and powers are replaced by the edited ones.

Each grown table gets one line per case.  Elements: +-anchor, anchor plus a
small base element, sums of two anchors, and random base elements with |k|
up to 10^30.  Each case runs ``evaluate`` at four epsilons,
``evaluate_truncated`` at a random level up to 64, and
``best_decomposition`` capped at the truncation level of budgets 5/7 and
1023/1024, that is of epsilons 2/7 and 1/1024.  The search takes no budget,
so each budget is applied to its answer: a decomposition that costs more
than the budget prints as None.
Each depth-70 table, tampered or not, gets one line per suite report:
extension, axioms and truncation at 200 samples and seed 7, and density
over targets and precisions up to 5.  Two more lines put repeated
samples through the suites: axioms at 2000 samples, past its 1936-pair
grid, and extension at 500 samples, whose stream repeats after 251.  Last,
six elements per grown depth-70 table get one line each with
``evaluate_truncated`` at every level 0..70: +-anchor 1, whose best cost is
exactly 1, and four drawn as above.

A tampered table gets its suite lines only: they are what ``table-invariant``
and ``density`` must convict.  The search promises nothing on a table whose
powers break the recurrence, so its values there pin nothing.
"""

import hashlib
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(sys.argv[1]).resolve()))

from monothetic import (  # noqa: E402
    CappedWeightedL1,
    CyclicScaled,
    ExtElement,
    ExtendTableError,
    GroupDescriptor,
    RationalRotation,
    best_decomposition,
    build_anchor_table,
    enumerate_h,
    evaluate,
    evaluate_truncated,
    truncation_index,
    verify_density,
    verify_extension,
    verify_norm_axioms,
    verify_truncation,
)
from monothetic.serialize import (  # noqa: E402
    dumps_stable,
    eval_result_to_json,
    suite_report_to_json,
)

SPECS = (
    (GroupDescriptor(2), CappedWeightedL1((Fraction(1), Fraction(1)))),
    (GroupDescriptor(1), CappedWeightedL1((Fraction(1, 4),))),
    (GroupDescriptor(0, (5, 9, 7)), CyclicScaled()),
    (GroupDescriptor(1), RationalRotation(Fraction(3, 7))),
)
EPSILONS = (Fraction(1, 2), Fraction(1, 8), Fraction(1, 1024), Fraction(1, 2 ** 30))
BUDGETS = (Fraction(5, 7), Fraction(1023, 1024))
CASES_PER_TABLE = 160
SUITE_SAMPLES = 200
SUITE_SEED = 7
REPEATED_AXIOM_SAMPLES = 2000
REPEATED_EXTENSION_SAMPLES = 500
LEVEL_SWEEP_ELEMENTS = 6


def tampered(table, powers=(), precisions=()):
    anchors = list(table.anchors)
    for n, k in powers:
        anchors[n - 1] = anchors[n - 1]._replace(power=k)
    for n, j in precisions:
        anchors[n - 1] = anchors[n - 1]._replace(precision_index=j)
    copy = build_anchor_table(table.descriptor, table.spec, table.depth)
    copy._made = anchors
    copy.powers = [a.power for a in anchors]
    return copy


def tables():
    """(name, table, whether it is grown from the recurrence), in print order."""
    for descriptor, spec in SPECS:
        for depth in (70, 410):
            yield f"{spec.kind}-{depth}", build_anchor_table(descriptor, spec, depth), True
        base = build_anchor_table(descriptor, spec, 70)
        yield f"{spec.kind}-collapsed", tampered(base, powers=((4, 1), (5, 1))), False
        yield (f"{spec.kind}-raised",
               tampered(base, powers=((6, 3 * base.anchor(6).power),)), False)
        yield (f"{spec.kind}-precisions",
               tampered(base, precisions=((5, 1), (7, 9), (12, 2))), False)


def element(table, rng):
    anchors = min(table.depth, 60)
    roll = rng.random()
    if roll < 0.6:
        x = table.anchor_element(rng.randint(1, anchors))
        x = -x if rng.random() < 0.5 else x
        if roll < 0.3:
            return x + ExtElement(enumerate_h(table.descriptor, rng.randint(2, 9)), 0)
        y = table.anchor_element(rng.randint(1, anchors))
        return x + (-y if rng.random() < 0.5 else y) if roll < 0.45 else x
    if roll < 0.7:
        x = table.anchor_element(rng.randint(1, table.depth))
        return -x if rng.random() < 0.5 else x
    h = enumerate_h(table.descriptor, rng.randint(1, 64))
    digits = rng.randint(1, 30)
    return ExtElement(h, rng.randint(0, 10 ** digits) * rng.choice((1, -1)))


def attempt(call):
    try:
        return call()
    except ExtendTableError as exc:
        return f"ExtendTableError({exc.required_depth})"


def decomposition(found):
    if found is None:
        return "None"
    return f"{found.coefficients} {found.residual.coords()} {found.cost}"


def case(table, x, rng):
    out = [f"{x.h.coords()} {x.k}"]
    for epsilon in EPSILONS:
        out.append(attempt(lambda: dumps_stable(eval_result_to_json(evaluate(table, x, epsilon)))))
    level = rng.randint(0, min(64, table.depth))
    out.append(f"N={level} {evaluate_truncated(table, x, level)}")
    for budget in BUDGETS:
        if x.k == 0:
            cap = 0
        else:
            cap = attempt(lambda: truncation_index(table, x.k, 1 - budget))
            cap = table.depth if isinstance(cap, str) else cap
        found = best_decomposition(table, x, index_cap=cap)
        found = found if found is not None and found.cost <= budget else None
        out.append(f"{budget}@{cap} {decomposition(found)}")
    return " | ".join(out)


def suite_reports(table):
    yield verify_extension(table, SUITE_SAMPLES, SUITE_SEED)
    yield verify_norm_axioms(table, SUITE_SAMPLES, SUITE_SEED)
    yield verify_density(table, 5, 5)
    yield verify_truncation(table, SUITE_SAMPLES, SUITE_SEED)
    yield verify_norm_axioms(table, REPEATED_AXIOM_SAMPLES, SUITE_SEED)
    yield verify_extension(table, REPEATED_EXTENSION_SAMPLES, SUITE_SEED)


def level_sweeps(table, rng):
    elements = [table.anchor_element(1), -table.anchor_element(1)]
    elements += [element(table, rng) for _ in range(LEVEL_SWEEP_ELEMENTS - 2)]
    for x in elements:
        values = " ".join(str(evaluate_truncated(table, x, n)) for n in range(table.depth + 1))
        yield f"{x.h.coords()} {x.k} levels {values}"


def main():
    digest = hashlib.sha256()
    count = 0

    def emit(line):
        nonlocal count
        digest.update(line.encode() + b"\n")
        print(line)
        count += 1

    for name, table, grown in tables():
        if grown:
            rng = random.Random(f"differential/{name}")
            for _ in range(CASES_PER_TABLE):
                emit(f"{name} {case(table, element(table, rng), rng)}")
        if table.depth == 70:
            for report in suite_reports(table):
                emit(f"{name} suite {dumps_stable(suite_report_to_json(report))}")
            if grown:
                for line in level_sweeps(table, random.Random(f"levels/{name}")):
                    emit(f"{name} {line}")
    print(f"{count} lines sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
