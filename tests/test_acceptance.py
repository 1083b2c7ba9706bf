"""Acceptance battery: one test per criterion, each printing a pass line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every numeric comparison is exact rational equality; the only
tolerances are the stated wall-clock budgets.
"""

import time
from dataclasses import replace
from fractions import Fraction

import pytest

import monothetic.verification as verification
from monothetic import (
    CappedLInf,
    CappedWeightedL1,
    ExactResult,
    ExtElement,
    GroupDescriptor,
    RationalRotation,
    build_anchor_table,
    check_table_consistency,
    counterexample_scan,
    evaluate,
    k_sequence,
    pair_index,
    verify_density,
    verify_extension,
    verify_norm_axioms,
    verify_truncation,
)
from monothetic.verification import sample_elements
from oracle import brute_force_eval, tampered

Z = GroupDescriptor(free_rank=1)
Z2 = GroupDescriptor(free_rank=2)


def _pass(number, detail, elapsed, budget):
    print(f"PASS criterion {number}: {detail} [{elapsed:.2f}s < {budget}s]")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def _witness_fits(table, witness, max_summands, radius):
    units = sum(abs(m) for _, m in witness.coefficients)
    if witness.residual != table.descriptor.zero():
        units += 1
    if units > max_summands:
        return False
    for n, _ in witness.coefficients:
        anchor = table.anchor(n)
        if anchor.power > radius:
            return False
        if any(abs(c) > radius for c in anchor.target.coords()):
            return False
    return all(abs(c) <= radius for c in witness.residual.coords())


def _extension_battery(table, samples, seed):
    report = verify_extension(table, samples, seed)
    assert report.passed, report.violations[:3]
    return report


def _anchor_bound_battery(table, count):
    for n in range(1, count + 1):
        anchor = table.anchor(n)
        result = evaluate(table, table.anchor_element(n))
        if isinstance(result, ExactResult):
            assert result.value <= anchor.value
        else:
            assert anchor.value == 1


def _oracle_battery(table, h_radius, k_radius, max_summands, radius):
    descriptor = table.descriptor
    rank = descriptor.free_rank
    boxes = [range(-h_radius, h_radius + 1)] * rank
    import itertools

    for coords in itertools.product(*boxes):
        for k in range(-k_radius, k_radius + 1):
            x = ExtElement(descriptor.element(coords), k)
            result = evaluate(table, x)
            oracle = brute_force_eval(table, x, max_summands, radius)
            if isinstance(result, ExactResult):
                assert oracle >= result.value, (coords, k)
                if _witness_fits(table, result.witness, max_summands, radius):
                    assert oracle == result.value, (coords, k)
            else:
                assert oracle > result.lower, (coords, k)


def test_criterion_1_extension_exactness(quarter_table):
    start = time.perf_counter()
    stream = sample_elements(Z, 200, 42, k_range=0)
    assert all(abs(x.h.free[0]) <= 50 and x.k == 0 for x in stream)
    report = _extension_battery(quarter_table, 200, 42)
    _pass(1, f"extension exact on {report.samples} samples", time.perf_counter() - start, 10)


def test_criterion_2_anchor_bounds(quarter_table):
    start = time.perf_counter()
    _anchor_bound_battery(quarter_table, 30)
    _pass(2, "first 30 anchors certified within declared values",
          time.perf_counter() - start, 30)


def test_criterion_3_power_sequence_law():
    start = time.perf_counter()
    powers = k_sequence(200)
    assert powers[:6] == (1, 2, 5, 11, 34, 103)
    for n in range(2, 201):
        biggest = max(pair_index(i)[1] for i in range(1, n))
        assert powers[n - 1] > powers[n - 2] * biggest
        assert powers[n - 1] > powers[n - 2]
    assert k_sequence(200) == powers  # repeated runs agree
    specs = [
        CappedWeightedL1(weights=(Fraction(1),)),
        CappedLInf(scale=Fraction(1, 3)),
        RationalRotation(alpha=Fraction(1, 3)),
    ]
    tables = [build_anchor_table(Z, spec, 40) for spec in specs]
    assert len({tuple(a.power for a in t.anchors) for t in tables}) == 1  # norm-independent
    _pass(3, "growth law to n=200, fixed prefix, norm-independent",
          time.perf_counter() - start, 1)


def test_criterion_4_norm_axioms(quarter_table, linf_table):
    start = time.perf_counter()
    for table in (quarter_table, linf_table):
        report = verify_norm_axioms(table, 500, 42, k_range=3)
        assert report.passed, report.violations[:3]
        assert report.samples == 500

    # The corrupted fixtures must fail: the literal lowered third power and
    # the collapsed mid-table powers are convicted structurally.
    base = build_anchor_table(Z, CappedWeightedL1(weights=(Fraction(1),)), 16)
    for fixture in (tampered(base, power={3: 3}), tampered(base, power={4: 1, 5: 1})):
        report = verify_norm_axioms(fixture, 500, 42, k_range=3)
        assert any(v.check == "table-invariant" for v in report.violations)

    # A planted fault, a sum valued above its summands, breaks the triangle.
    def raised(table, x, *args):
        result = evaluate(table, x, *args)
        if x.k == 0 and abs(x.h.free[0]) == 2:
            return replace(result, value=Fraction(3, 4))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verification, "evaluate", raised)
        report = verify_norm_axioms(quarter_table, 500, 42, k_range=3)
    assert any(v.check == "triangle" for v in report.violations)
    _pass(4, "axioms clean on two norms; corrupted fixtures and a planted fault convicted",
          time.perf_counter() - start, 60)


def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()
    table = build_anchor_table(Z, CappedWeightedL1(weights=(Fraction(1, 4),)), 10)
    _oracle_battery(table, h_radius=2, k_radius=3, max_summands=3, radius=3)
    _pass(5, "brute-force oracle agrees on the |h|<=2, |k|<=3 box",
          time.perf_counter() - start, 120)


def test_criterion_6_density(quarter_table):
    start = time.perf_counter()
    report = verify_density(quarter_table, 5, 5)
    assert report.passed
    assert report.samples == 25
    _pass(6, "density witnesses certified for all demands up to (5,5)",
          time.perf_counter() - start, 60)


def test_criterion_7_truncation_stabilization():
    start = time.perf_counter()
    table = build_anchor_table(Z, CappedWeightedL1(weights=(Fraction(1, 4),)), 16)
    stream = sample_elements(Z, 100, 42)
    assert all(abs(x.k) <= 5 for x in stream)
    report = verify_truncation(table, 100, 42)
    assert report.passed, report.violations[:3]
    _pass(7, "truncated values monotone and stabilized on 100 samples",
          time.perf_counter() - start, 120)


def test_criterion_8_counterexample_and_contrast(lattice_table):
    start = time.perf_counter()
    cells = []
    summary = counterexample_scan(
        50, lambda n, row: cells.extend((n, m, cert) for m, cert in enumerate(row, 1)))
    assert summary.worst_case_value == Fraction(1, 2) - Fraction(1, 2500)
    assert summary.certificate_count == len(cells) == 2500
    assert summary.all_margins_positive
    for n, m, cert in cells:
        assert cert.identity_verified
        assert cert.required_norm == n + m
        assert cert.implied_bound < Fraction(cert.required_norm, 2)

    # Contrast: the capped variant of the same norm on the same lattice
    # satisfies the whole battery, isolating boundedness as the failing
    # hypothesis.  (The power-sequence law is group independent and is
    # criterion 3's run.)
    _extension_battery(lattice_table, 200, 42)
    _anchor_bound_battery(lattice_table, 30)
    report = verify_norm_axioms(lattice_table, 500, 42, k_range=3)
    assert report.passed
    shallow = build_anchor_table(
        Z2, CappedWeightedL1(weights=(Fraction(1), Fraction(1))), 10
    )
    _oracle_battery(shallow, h_radius=1, k_radius=2, max_summands=3, radius=2)
    assert verify_density(lattice_table, 5, 5).passed
    assert verify_truncation(lattice_table, 100, 42).passed
    _pass(8, "2500 contradiction certificates; capped lattice norm passes 1-7",
          time.perf_counter() - start, 10)


def test_criterion_9_family_extension():
    start = time.perf_counter()
    specs = [
        CappedWeightedL1(weights=(Fraction(1),)),
        CappedLInf(scale=Fraction(3)),
        RationalRotation(alpha=Fraction(1, 3)),
    ]
    tables = [build_anchor_table(Z, spec, 10) for spec in specs]
    skeletons = {
        tuple((a.index, a.target_index, a.precision_index, a.power) for a in t.anchors)
        for t in tables
    }
    assert len(skeletons) == 1
    # Each member satisfies the growth law K_n > K_{n-1} * J_n, in integers.
    assert all(check_table_consistency(t) == [] for t in tables)
    for table in tables:
        report = verify_extension(table, 200, 42)
        assert report.passed, (table.spec, report.violations[:3])
    _pass(9, "family shares construction data; members extend their own bases",
          time.perf_counter() - start, 60)
