"""Pairing, power recurrence, and anchor tables."""

import inspect
import math
from bisect import bisect_left
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from monothetic import (
    AnchorTable,
    CappedLInf,
    CappedWeightedL1,
    DomainError,
    GroupDescriptor,
    ShapeError,
    build_anchor_table,
    check_table_consistency,
    k_sequence,
    pair_index,
    unpair_index,
)
from monothetic.construction import MAX_TABLE_DEPTH, first_index_reaching, k_power
from oracle import tampered

Z = GroupDescriptor(free_rank=1)


def antidiagonal_oracle(count):
    """Independent enumeration of positive pairs by anti-diagonals."""
    pairs = []
    total = 2
    while len(pairs) < count:
        for m in range(1, total):
            pairs.append((m, total - m))
        total += 1
    return pairs[:count]


class TestPairing:
    def test_first_pairs(self):
        assert pair_index(1) == (1, 1)
        assert pair_index(2) == (1, 2)
        assert pair_index(3) == (2, 1)
        assert pair_index(5) == (2, 2)

    def test_matches_oracle(self):
        oracle = antidiagonal_oracle(500)
        assert [pair_index(n) for n in range(1, 501)] == oracle

    def test_unpair_closed_form(self):
        assert unpair_index(1, 1) == 1
        assert unpair_index(2, 2) == 5
        assert unpair_index(5, 5) == 41

    @given(st.integers(1, 50), st.integers(1, 50))
    def test_roundtrip(self, m, j):
        assert pair_index(unpair_index(m, j)) == (m, j)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            pair_index(0)
        with pytest.raises(DomainError):
            unpair_index(0, 1)


def recurrence_oracle(length):
    """Power sequence recomputed from scratch with an explicit running max."""
    powers = [1]
    for n in range(2, length + 1):
        biggest = max(pair_index(i)[1] for i in range(1, n))
        powers.append(powers[-1] * biggest + 1)
    return powers


class TestPowerSequence:
    def test_base_case(self):
        assert k_sequence(1) == (1,)

    def test_known_prefix(self):
        assert k_sequence(6) == (1, 2, 5, 11, 34, 103)

    def test_matches_recurrence_oracle(self):
        assert list(k_sequence(80)) == recurrence_oracle(80)

    def test_prefix_stability(self):
        assert k_sequence(30)[:12] == k_sequence(12)

    def test_growth_law(self):
        # K_n > K_{n-1} * J_n in integers, J_n the largest precision index of
        # pairs 1..n-1; delta_n = 1/J_n is the smallest value declared so far.
        powers = k_sequence(200)
        for n in range(2, 201):
            biggest = max(pair_index(i)[1] for i in range(1, n))
            assert powers[n - 1] > powers[n - 2] * biggest
            assert powers[n - 1] > powers[n - 2]

    def test_growth_factor_non_decreasing(self):
        # K_n = K_{n-1} * J_n + 1, and J_n never shrinks: the smallest
        # declared value only falls.
        powers = k_sequence(60)
        factors = [(b - 1) // a for a, b in zip(powers, powers[1:])]
        assert factors == [
            max(pair_index(i)[1] for i in range(1, n)) for n in range(2, 61)
        ]
        assert all(a <= b for a, b in zip(factors, factors[1:]))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            k_sequence(0)


def diagonal_ends(limit):
    """First and last index of every anti-diagonal that starts at or below ``limit``."""
    ends = []
    for a in range(1, limit + 1):
        first = a * (a - 1) // 2 + 1
        if first > limit:
            break
        ends += [first, min(first + a - 1, limit)]
    return ends


class TestDiagonalJumps:
    def test_diagonal_ends(self):
        assert diagonal_ends(11) == [1, 1, 2, 3, 4, 6, 7, 10, 11, 11]

    def test_power_matches_the_sequence(self, cap_powers):
        indices = [*range(1, 601), *diagonal_ends(MAX_TABLE_DEPTH), 2619, 10000]
        for n in indices:
            assert k_power(n) == cap_powers[n - 1], n

    def test_power_domain_error(self):
        with pytest.raises(DomainError):
            k_power(0)

    def test_first_index_reaching_matches_bisect(self, cap_powers):
        def reference(bound):
            return min(bisect_left(cap_powers, bound) + 1, MAX_TABLE_DEPTH + 1)

        interior = [5, 8, 9, 100, 2619, 5000, 9998]
        for n in [*diagonal_ends(MAX_TABLE_DEPTH), *interior]:
            kn = cap_powers[n - 1]
            for bound in (kn - 1, kn, kn + 1):
                assert first_index_reaching(bound) == reference(bound), (n, bound)
        for bound in (-5, 0, 1, 10 ** 30000):
            assert first_index_reaching(bound) == reference(bound)
        assert first_index_reaching(cap_powers[-1] + 1) == MAX_TABLE_DEPTH + 1


class TestBuildTable:
    def test_anchor_examples(self, unit_table):
        first = unit_table.anchor(1)
        assert (first.power, first.target.free, first.value) == (1, (0,), Fraction(1))
        second = unit_table.anchor(2)
        assert (second.power, second.target.free, second.value) == (2, (0,), Fraction(1, 2))
        fifth = unit_table.anchor(5)
        assert (fifth.power, fifth.target.free, fifth.value) == (34, (1,), Fraction(1, 2))

    def test_deterministic(self):
        spec = CappedWeightedL1(weights=(Fraction(1),))
        first, second = build_anchor_table(Z, spec, 20), build_anchor_table(Z, spec, 20)
        assert (first.descriptor, first.spec, first.depth) == (
            second.descriptor, second.spec, second.depth)
        assert first.anchors == second.anchors

    def test_precision_lcm_makes_no_anchor(self):
        # The closed form against the lcm over the anchors' precision indices.
        spec = CappedWeightedL1(weights=(Fraction(1),))
        for depth in range(1, 400):
            table = build_anchor_table(Z, spec, depth)
            assert table.prefix(0) == []
            value = table.precision_lcm
            assert table.prefix(0) == []
            assert value == math.lcm(*(a.precision_index for a in table.anchors))

    def test_powers_independent_of_norm(self):
        a = build_anchor_table(Z, CappedWeightedL1(weights=(Fraction(1),)), 25)
        b = build_anchor_table(Z, CappedLInf(scale=Fraction(5)), 25)
        assert [x.power for x in a.anchors] == [x.power for x in b.anchors]
        assert [(x.target_index, x.precision_index) for x in a.anchors] == [
            (x.target_index, x.precision_index) for x in b.anchors
        ]

    def test_validation_propagates(self):
        with pytest.raises(Exception):
            build_anchor_table(Z, CappedWeightedL1(weights=(Fraction(-1),)), 5)
        with pytest.raises(DomainError):
            build_anchor_table(Z, CappedWeightedL1(weights=(Fraction(1),)), 0)

    def test_the_constructor_refuses_an_empty_or_too_deep_table(self):
        # A table takes its header only; an empty one would fail only at its
        # first query, on its empty powers.
        assert list(inspect.signature(AnchorTable).parameters) == ["descriptor", "spec", "depth"]
        spec = CappedWeightedL1(weights=(Fraction(1),))
        for depth in (0, -3):
            with pytest.raises(DomainError, match=r"^table depth must be >= 1$"):
                AnchorTable(Z, spec, depth)
        too_deep = MAX_TABLE_DEPTH + 1
        with pytest.raises(DomainError,
                           match=rf"^table depth must be <= {MAX_TABLE_DEPTH}, got {too_deep}$"):
            AnchorTable(Z, spec, too_deep)
        assert AnchorTable(Z, spec, MAX_TABLE_DEPTH).prefix(0) == []

    def test_the_constructor_checks_the_shape(self):
        spec = CappedWeightedL1(weights=(Fraction(1), Fraction(1)))
        with pytest.raises(ShapeError, match=r"^capped_l1 has 2 weights for rank 1$"):
            AnchorTable(Z, spec, 12)

    def test_anchor_index_domain(self, unit_table):
        for n in (0, unit_table.depth + 1):
            with pytest.raises(DomainError):
                unit_table.anchor(n)
            with pytest.raises(DomainError):
                unit_table.anchor_element(n)

    def test_anchor_element_carries_power_and_target(self, unit_table):
        for n in range(1, unit_table.depth + 1):
            anchor = unit_table.anchor(n)
            x = unit_table.anchor_element(n)
            assert x.k == anchor.power
            assert x.h == -anchor.target

    def test_finite_group_targets_wrap(self):
        from monothetic import CyclicScaled

        table = build_anchor_table(GroupDescriptor(0, (3,)), CyclicScaled(), 12)
        # Target demands beyond the group order wrap back onto it.
        assert {a.target.torsion[0] for a in table.anchors} <= {0, 1, 2}
        assert table.anchor(4).target == table.anchor(1).target


class TestConsistencyCheck:
    def test_clean(self, unit_table):
        assert check_table_consistency(unit_table) == []

    def test_detects_tampered_power(self, unit_table):
        bad = tampered(unit_table, power={3: 3})
        problems = check_table_consistency(bad)
        assert any("power" in p for p in problems)

    def test_detects_edited_index_and_target(self, unit_table):
        bad = tampered(unit_table, index={4: 9}, target={7: unit_table.anchor(6).target})
        assert check_table_consistency(bad) == [
            "anchor 4: stored index 9",
            "anchor 7: target does not match enumeration",
        ]

    def test_growth_law_reads_the_recurrence_pairs(self, unit_table):
        # Edited precision indices are pair defects only: the growth law takes
        # J_n from the recurrence's pairs, so a raised stored j (9 at anchor
        # 7) does not make the unchanged powers after it look too small.
        bad = tampered(unit_table, precision_index={5: 1, 7: 9, 12: 2})
        assert check_table_consistency(bad) == [
            "anchor 5: pair (2,1) != (2,2)",
            "anchor 7: pair (1,9) != (1,4)",
            "anchor 12: pair (2,2) != (2,4)",
        ]

    def test_growth_law_flags_a_collapsed_power(self, unit_table):
        bad = tampered(unit_table, power={6: unit_table.anchor(5).power * 2})
        # K_6 = 68 is not above K_5 * J_6 = 34 * 3.
        assert "anchor 6: growth law violated against anchor 5" in check_table_consistency(bad)
