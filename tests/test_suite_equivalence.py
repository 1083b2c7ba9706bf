"""The suites report exactly what their per-sample loops in ``tests/oracle.py`` do.

The package checks the extension stream's first period only and compares
its base norms in integers, keeps its axioms memos by object id and runs one
truncated search per start level; the oracle loops walk every sample and
every probe, and compare ``base_norm`` fractions.  The tables cover every
norm in the menu, a pseudonorm that vanishes off zero among them.  A planted
fault makes the reports carry violations, so their indices are compared, not
only empty lists.
"""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import monothetic.verification as verification
import oracle
from monothetic import (
    CappedLInf,
    CappedWeightedL1,
    CyclicScaled,
    ExtendTableError,
    GroupDescriptor,
    RationalRotation,
    build_anchor_table,
    evaluate,
)
from monothetic.evaluator import ExactResult

Z = GroupDescriptor(free_rank=1)
Z2 = GroupDescriptor(free_rank=2)
Z3 = GroupDescriptor(free_rank=3)
Z5 = GroupDescriptor(free_rank=0, torsion_moduli=(5,))


TABLES = {
    "Z2": build_anchor_table(Z2, CappedWeightedL1(weights=(Fraction(1), Fraction(1))), 50),
    "Z5": build_anchor_table(Z5, CyclicScaled(), 30),
    "Z3-linf": build_anchor_table(Z3, CappedLInf(scale=Fraction(1, 2)), 30),
    # A pseudonorm: zero on every multiple of 7.
    "Z-rotation": build_anchor_table(Z, RationalRotation(alpha=Fraction(3, 7)), 30),
    "Z-quarter": build_anchor_table(Z, CappedWeightedL1(weights=(Fraction(1, 4),)), 30),
}

# Each suite with its per-sample loop.
SUITES = {
    "extension": (verification.verify_extension, oracle.per_sample_extension),
    "axioms": (verification.verify_norm_axioms, oracle.per_sample_axioms),
    "truncation": (verification.verify_truncation, oracle.per_probe_truncation),
}


def outcome(suite, *args):
    """The report's compared fields, or the error the suite raised."""
    try:
        report = suite(*args)
    except ExtendTableError as exc:
        return "extend", exc.required_depth
    return report.suite, report.samples, report.violations, report.skipped


def planted(fault):
    """``evaluate`` with ``fault`` planted, or unchanged."""
    if fault is None:
        return evaluate
    modulus, residue = fault

    def hit(x):
        return (sum(x.h.coords()) + 3 * x.k) % modulus == residue

    def perturbed(table, x, *args):
        # One more than every exact value on the hit elements.
        result = evaluate(table, x, *args)
        if hit(x) and isinstance(result, ExactResult):
            return replace(result, value=result.value + 1)
        return result

    return perturbed


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    table=st.sampled_from(sorted(TABLES)),
    suite=st.sampled_from(sorted(SUITES)),
    count=st.integers(1, 300),
    seed=st.integers(-50, 5000),
    k_range=st.integers(0, 2),
    epsilon=st.sampled_from([Fraction(1, 1024), Fraction(1, 2), Fraction(1, 7)]),
    fault=st.none() | st.tuples(st.integers(2, 7), st.integers(0, 6)),
)
def test_suites_match_the_per_sample_loops(table, suite, count, seed, k_range, epsilon, fault):
    table = TABLES[table]
    package, loop = SUITES[suite]
    args = (table, count, seed)
    if suite == "axioms":
        # k_range at most 2 puts the pair grid at 16, 144 or 400 pairs, so
        # counts run past it.
        args += (epsilon, k_range)
    with pytest.MonkeyPatch.context() as patch:
        faulty = planted(fault)
        for module in (verification, oracle):
            patch.setattr(module, "evaluate", faulty)
        assert outcome(package, *args) == outcome(loop, *args)


@pytest.mark.parametrize("table", sorted(TABLES))
@pytest.mark.parametrize("suite", sorted(SUITES))
def test_planted_fault_repeats_past_the_period(table, suite):
    # 600 samples run past the extension stream's period of 301 (5 on Z/5)
    # and the 144-pair grid at k_range 1, and the fault fires, so re-emitted
    # indices are compared.
    package, loop = SUITES[suite]
    args = (TABLES[table], 600, 11)
    if suite == "axioms":
        args += (Fraction(1, 1024), 1)
    with pytest.MonkeyPatch.context() as patch:
        faulty = planted((3, 1))
        for module in (verification, oracle):
            patch.setattr(module, "evaluate", faulty)
        got = outcome(package, *args)
        assert got == outcome(loop, *args)
    assert got[0] == "extend" or any(v.sample_index >= 300 for v in got[2])
