"""Certified evaluation: truncation, search, oracle agreement, density, families."""

import gc
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from monothetic import (
    Anchor,
    CappedLInf,
    CappedWeightedL1,
    CyclicScaled,
    DomainError,
    ExactResult,
    ExtElement,
    ExtendTableError,
    GroupDescriptor,
    IntervalResult,
    RationalRotation,
    ShapeError,
    base_norm,
    best_decomposition,
    build_anchor_table,
    density_witness,
    enumerate_h,
    evaluate,
    evaluate_truncated,
    k_sequence,
    load_table,
    save_table,
    truncated_values,
    truncation_index,
    verify_truncation,
)
from monothetic import construction, evaluator
from monothetic.construction import MAX_TABLE_DEPTH
from oracle import brute_force_eval

Z = GroupDescriptor(free_rank=1)
Z2 = GroupDescriptor(free_rank=2)
Z5_9_7 = GroupDescriptor(free_rank=0, torsion_moduli=(5, 9, 7))
ONE = Fraction(1)


def exhaustive_min_decomposition(table, x, budget, index_cap):
    """Oracle: enumerate every capped coefficient vector, no pruning at all.

    Returns (cost, vector-read-deepest-first) for the one vector within the
    budget, or None.  It asserts that no second vector is within the
    budget: no two anchor vectors of cost at most 1 share a c-power (the
    lemma in ``evaluator``'s docstring).
    """
    anchors = [table.anchor(n) for n in range(1, index_cap + 1)]
    caps = [
        (budget.numerator * a.precision_index) // budget.denominator for a in anchors
    ]
    powers = [a.power for a in reversed(anchors)]
    within = []
    for vector in itertools.product(*[range(-c, c + 1) for c in reversed(caps)]):
        if sum(m * k for m, k in zip(vector, powers)) != x.k:
            continue
        coeffs = list(zip(range(index_cap, 0, -1), vector))
        shift = x.descriptor.zero()
        cost = Fraction(0)
        for n, m in coeffs:
            anchor = table.anchor(n)
            cost += abs(m) * anchor.value
            shift = shift + anchor.target.scale(m)
        cost += base_norm(table.spec, x.h + shift)
        if cost <= budget:
            within.append((cost, vector))
    assert len(within) <= 1, within
    return within[0] if within else None


def largest_below_one(table):
    """(over - 1)/over with over = L*D: every cost is a multiple of 1/over."""
    over = table.precision_lcm * table.spec.denominator(table.descriptor)
    return ONE - Fraction(1, over)


def within(found, budget):
    """The search's answer when its total is within the budget, else None."""
    return found if found is not None and found.cost <= budget else None


class TestTruncationIndex:
    def test_zero_power_excludes_anchors(self, unit_table):
        assert truncation_index(unit_table, 0, Fraction(1, 2)) == 0
        assert truncation_index(unit_table, 0, Fraction(1, 1024)) == 0

    def test_worked_example(self, unit_table):
        # Epsilon 1/2 and power 2: bound is 4; the level-3 power 5 exceeds it
        # while the level-2 power 2 does not.
        assert truncation_index(unit_table, 2, Fraction(1, 2)) == 3

    def test_monotone_in_epsilon(self, unit_table):
        tight = truncation_index(unit_table, 2, Fraction(1, 2))
        loose = truncation_index(unit_table, 2, Fraction(1, 256))
        assert loose > tight

    def test_shallow_table_says_how_deep(self):
        spec = CappedWeightedL1(weights=(Fraction(1),))
        shallow = build_anchor_table(Z, spec, 3)
        with pytest.raises(ExtendTableError) as err:
            truncation_index(shallow, 2, Fraction(1, 1024))
        assert err.value.required_depth == 9

    def test_bad_epsilon(self, unit_table):
        with pytest.raises(DomainError):
            truncation_index(unit_table, 2, Fraction(0))
        with pytest.raises(DomainError):
            truncation_index(unit_table, 2, ONE)

    def test_refuses_an_epsilon_outside_zero_one(self, unit_table):
        for epsilon in (Fraction(0), ONE, Fraction(2), Fraction(-1, 2)):
            with pytest.raises(DomainError, match="^epsilon must lie strictly between 0 and 1$"):
                truncation_index(unit_table, 2, epsilon)

    def test_bound_equal_to_a_power(self, unit_table):
        # |k|/epsilon = 2 = K_2 exactly: K_2 < 2 fails, so the level stops at 2.
        for k in (1, -1):
            assert truncation_index(unit_table, k, Fraction(1, 2)) == 2
        # Epsilon 1/3 puts the bound at 3, just past K_2 = 2.
        assert truncation_index(unit_table, 1, Fraction(1, 3)) == 3

    def test_required_depth_when_bound_equals_a_power(self, unit_table):
        # Epsilon 1/K_13 puts the bound for k = +-1 at K_13 exactly: the
        # depth-12 table falls short, and depth 13 is the first to reach it.
        epsilon = Fraction(1, k_sequence(13)[-1])
        for k in (1, -1):
            with pytest.raises(ExtendTableError) as err:
                truncation_index(unit_table, k, epsilon)
            assert err.value.required_depth == 13
        deeper = build_anchor_table(Z, unit_table.spec, 13)
        assert truncation_index(deeper, 1, epsilon) == 13

    def test_required_depth_past_the_next_anchor(self, unit_table):
        # A bound of exactly K_N needs depth N; one more needs depth N + 1.
        powers = k_sequence(61)
        for n in (13, 14, 25, 26, 27, 40, 60):
            kn = powers[n - 1]
            for bound, expected in ((kn, n), (kn + 1, n + 1)):
                for k in (1, -7):
                    with pytest.raises(ExtendTableError) as err:
                        truncation_index(unit_table, k, Fraction(abs(k), bound))
                    assert err.value.required_depth == expected

    def test_required_depth_stops_at_the_depth_cap(self, unit_table):
        # A bound of exactly K at the cap still names the cap; one more would
        # need a table that no build can make, and the doubling search stops.
        cap_power = k_sequence(MAX_TABLE_DEPTH)[-1]
        with pytest.raises(ExtendTableError) as err:
            truncation_index(unit_table, 1, Fraction(1, cap_power))
        assert err.value.required_depth == MAX_TABLE_DEPTH
        with pytest.raises(DomainError, match=str(MAX_TABLE_DEPTH)):
            truncation_index(unit_table, 1, Fraction(1, cap_power + 1))
        with pytest.raises(DomainError, match=str(MAX_TABLE_DEPTH)):
            evaluate(unit_table, ExtElement(Z.zero(), 10 ** 30000))

    def test_too_shallow_search_walks_no_sequence(self, unit_table, no_k_sequence):
        # The depth past a too-shallow table comes from the diagonal jumps.
        with pytest.raises(DomainError, match=str(MAX_TABLE_DEPTH)):
            truncation_index(unit_table, 10 ** 30000, Fraction(1023, 1024))
        k9000 = construction.k_power(9000)
        with pytest.raises(ExtendTableError) as err:
            truncation_index(unit_table, 1, Fraction(1, k9000))
        assert err.value.required_depth == 9000
        with pytest.raises(ExtendTableError) as err:
            truncation_index(unit_table, k9000, Fraction(1023, 1024))
        assert err.value.required_depth == 9001

    def test_matches_fraction_formula(self, unit_table, quarter_table):
        # Reference: the largest n with n == 1 or K[n-1] < |k|/epsilon, by a
        # linear scan in exact rationals.
        def reference(table, k, epsilon):
            bound = Fraction(abs(k)) / epsilon
            level = 1
            for n in range(2, table.depth + 1):
                if table.anchor(n - 1).power < bound:
                    level = n
            return level

        rng = random.Random(20161213)
        for table in (unit_table, quarter_table):
            powers = [a.power for a in table.anchors]
            for _ in range(2000):
                epsilon = Fraction(rng.randint(1, 2047), 2048)
                pick = rng.random()
                if pick < 0.4:
                    # Land the bound on, just below or just above a power.
                    k = rng.choice(powers[:-1]) * epsilon
                    k = max(1, int(k) + rng.choice((-1, 0, 1)))
                elif pick < 0.8:
                    k = rng.randint(1, 200)
                else:
                    k = rng.randint(1, powers[-1] // 4096)
                k *= rng.choice((1, -1))
                if Fraction(abs(k)) / epsilon > powers[-1]:
                    continue
                assert truncation_index(table, k, epsilon) == reference(table, k, epsilon)

    def test_exclusion_guarantee(self, unit_table):
        # Every decomposition using an anchor past the level costs more than
        # 1 - epsilon: check by unpruned enumeration one level deeper.
        epsilon = Fraction(1, 4)
        budget = ONE - epsilon
        x = ExtElement(Z.zero(), 2)
        level = truncation_index(unit_table, x.k, epsilon)
        anchors = [unit_table.anchor(n) for n in range(1, level + 2)]
        caps = [
            (budget.numerator * a.precision_index) // budget.denominator
            for a in anchors
        ]
        for vector in itertools.product(*[range(-c, c + 1) for c in caps]):
            if vector[level] == 0:
                continue
            if sum(m * a.power for m, a in zip(vector, anchors)) != x.k:
                continue
            cost = sum(abs(m) * a.value for m, a in zip(vector, anchors))
            assert cost > budget


class TestBestDecomposition:
    def test_single_anchor_witness(self, unit_table):
        found = best_decomposition(unit_table, ExtElement(Z.zero(), 2), index_cap=3)
        assert found is not None
        assert found.coefficients == ((2, 1),)
        assert found.residual == Z.zero()
        assert found.cost == Fraction(1, 2)

    def test_zero_element(self, unit_table):
        found = best_decomposition(unit_table, ExtElement(Z.zero(), 0), index_cap=0)
        assert found.coefficients == ()
        assert found.residual == Z.zero()
        assert found.cost == 0

    @pytest.mark.parametrize("k", range(-6, 7))
    @pytest.mark.parametrize("hval", [-1, 0, 2])
    def test_matches_unpruned_enumeration(self, quarter_table, k, hval):
        budget = Fraction(9, 10)
        x = ExtElement(Z.element((hval,)), k)
        level = truncation_index(quarter_table, k, ONE - budget) if k else 0
        found = within(best_decomposition(quarter_table, x, index_cap=level), budget)
        oracle = exhaustive_min_decomposition(quarter_table, x, budget, level)
        if oracle is None:
            assert found is None
        else:
            cost, vector = oracle
            assert found is not None
            assert found.cost == cost
            # The witness is the one vector within the budget, read from
            # the deepest anchor down.
            witness_vector = tuple(
                dict(found.coefficients).get(n, 0) for n in range(level, 0, -1)
            )
            assert witness_vector == vector
            assert found.check_against(quarter_table, x)

    @pytest.mark.parametrize(
        "budget",
        [Fraction(1, 2), Fraction(5, 7), Fraction(1023, 1024), "truncated"],
        ids=str,
    )
    @pytest.mark.parametrize("torsion", [False, True], ids=["quarter", "z5z9z7"])
    def test_integer_kernel_matches_unpruned_enumeration(
        self, quarter_table, budget, torsion
    ):
        # Running costs are integers over L, the lcm of every j in the table,
        # and the search takes no budget; the cyclic table's base norms 2t/q
        # have denominators 5, 9, 7 that L need not contain.  Multiplicities run upward from the most negative,
        # so near a4 - a7 the search first walks into vectors of the same
        # c-power over the budget, such as -2a4 + a5 + 3a7 - a8, which only
        # the branch test keeps from being the one leaf.
        if torsion:
            table = build_anchor_table(Z5_9_7, CyclicScaled(), 20)
            offsets = [enumerate_h(Z5_9_7, i) for i in (1, 2, 7, 40)]
        else:
            table = quarter_table
            offsets = [Z.element((v,)) for v in (-1, 0, 2)]
        if budget == "truncated":
            # The largest cost below 1: every cap is j - 1.
            budget = largest_below_one(table)
        elements = [ExtElement(h, k) for h in offsets for k in range(-5, 6)]
        elements += [
            table.anchor_element(a) + table.anchor_element(b).scale(sign)
            + ExtElement(h, 0)
            for a, b, sign in ((2, 4, 1), (2, 5, -1), (4, 7, 1), (4, 7, -1), (7, 7, 1),
                               (7, 8, -1))
            for h in offsets[:2]
        ]
        for x in elements:
            # Caps keep the unpruned enumeration small: it grows like prod(2j+1).
            level = min(8, truncation_index(table, x.k, ONE - budget))
            found = within(best_decomposition(table, x, index_cap=level), budget)
            oracle = exhaustive_min_decomposition(table, x, budget, level)
            if oracle is None:
                assert found is None
                continue
            cost, vector = oracle
            assert found is not None
            assert found.cost == cost
            assert tuple(dict(found.coefficients).get(n, 0) for n in range(level, 0, -1)) == vector
            assert found.check_against(table, x)


def cheap_relations(depth, limit):
    """Every nonzero d with sum d_i*K_i = 0 over anchors 1..depth and anchor
    cost sum |d_i|/j_i at most ``limit``, read deepest first, that entry
    positive.

    Depth-first from the deepest anchor, in integers over L = lcm of the j.
    Anchors 1..p give c-power r only at cost at least |r| / W_p, W_p being
    the largest j_i*K_i with i <= p, and that bounds each entry.  It shares
    no code with the search.
    """
    powers = k_sequence(depth)
    precisions = [construction.pair_index(n)[1] for n in range(1, depth + 1)]
    scale = math.lcm(*precisions)
    units = [scale // j for j in precisions]
    widest = [0] + list(itertools.accumulate(
        (j * k for j, k in zip(precisions, powers)), max))
    bound = limit * scale
    assert bound.denominator == 1
    found = []

    def below(p, target, cost, vector):
        # Entries p..1 are left, and they must give c-power target.
        if p == 0:
            if target == 0:
                found.append(vector)
            return
        power, unit, width = powers[p - 1], units[p - 1], widest[p - 1]
        spare = (bound - cost) * width // scale
        for m in range(-((spare - target) // power), (target + spare) // power + 1):
            spent = cost + abs(m) * unit
            rest = target - m * power
            if spent <= bound and abs(rest) * scale <= (bound - spent) * width:
                below(p - 1, rest, spent, vector + (m,))

    for n in range(2, depth + 1):
        for top in range(1, math.floor(limit * precisions[n - 1]) + 1):
            below(n - 1, -top * powers[n - 1], top * units[n - 1], (top,))
    return found


# The specs and epsilons of tools/differential.py.
DIFFERENTIAL_SPECS = (
    (Z2, CappedWeightedL1((ONE, ONE))),
    (Z, CappedWeightedL1((Fraction(1, 4),))),
    (Z5_9_7, CyclicScaled()),
    (Z, RationalRotation(Fraction(3, 7))),
)
DIFFERENTIAL_EPSILONS = (Fraction(1, 2), Fraction(1, 8), Fraction(1, 1024), Fraction(1, 2 ** 30))


class TestOneLeaf:
    """The lemma in ``evaluator``'s docstring: every nonzero relation
    sum d_i*K_i = 0 costs more than 2, so no two anchor vectors of cost
    below 1 share a c-power and a search meets at most one leaf."""

    def test_no_relation_costs_two_or_less(self):
        # Anchors 1..105 are every anti-diagonal through m + j = 15.
        assert cheap_relations(105, Fraction(2)) == []

    @pytest.mark.parametrize("s", range(4, 16))
    def test_the_bound_is_sharp(self, s):
        # Anchor n = pair (2, s - 2) follows pair (1, s - 1), so
        # K_n = (s - 1) * K_{n-1} + K_1: a relation of cost 2 + 1/(s - 2),
        # the cheapest over anchors 1..n.
        n = construction.unpair_index(2, s - 2)
        sharp = (1, -(s - 1)) + (0,) * (n - 3) + (-1,)
        powers = k_sequence(n)[::-1]
        precisions = [construction.pair_index(i)[1] for i in range(n, 0, -1)]

        def cost(d):   # d read deepest first, ending at anchor 1
            return sum(Fraction(abs(m), j) for m, j in zip(d, precisions[n - len(d):]))

        assert sum(m * k for m, k in zip(sharp, powers)) == 0
        assert cost(sharp) == 2 + Fraction(1, s - 2)
        relations = cheap_relations(n, cost(sharp))
        assert sharp in relations
        assert min(map(cost, relations)) == cost(sharp)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        spec=st.sampled_from(range(len(DIFFERENTIAL_SPECS))),
        depth=st.integers(1, 400),
        k=st.integers(-(10 ** 30), 10 ** 30),
        h=st.integers(1, 9),
        anchors=st.none() | st.tuples(st.integers(1, 400), st.integers(0, 400),
                                      st.sampled_from((1, -1))),
    )
    @example(spec=0, depth=400, k=0, h=3, anchors=(30, 31, -1))
    @example(spec=1, depth=60, k=0, h=5, anchors=(2, 0, 1))
    @example(spec=2, depth=200, k=0, h=4, anchors=(45, 12, 1))
    def test_evaluate_and_truncated_values_read_the_one_leaf(self, spec, depth, k, h, anchors):
        table = build_anchor_table(*DIFFERENTIAL_SPECS[spec], depth)
        x = ExtElement(enumerate_h(table.descriptor, h), k)
        if anchors is not None:
            a, b, sign = anchors
            x = table.anchor_element(min(a, depth)) + ExtElement(x.h, 0)
            if b:
                x = x + table.anchor_element(min(b, depth)).scale(sign)
        values = [evaluate_truncated(table, x, n) for n in range(depth + 1)]
        for epsilon in DIFFERENTIAL_EPSILONS:
            budget = ONE - epsilon
            try:
                level = truncation_index(table, x.k, epsilon)
            except ExtendTableError:
                with pytest.raises(ExtendTableError):
                    evaluate(table, x, epsilon)
                continue
            found = best_decomposition(table, x, index_cap=level)
            result = evaluate(table, x, epsilon)
            # Exact, with the leaf as witness, iff its total is within
            # 1 - epsilon.  At k = 0 evaluate takes the base norm unsearched,
            # and the leaf is the empty vector with that cost.
            if x.k == 0 or (found is not None and found.cost <= budget):
                assert isinstance(result, ExactResult)
                assert (result.witness, result.value) == (found, found.cost)
            else:
                assert result == IntervalResult(budget, ONE, level)
            # The truncated values step once, at the leaf's deepest anchor.
            if found is None:
                assert values[:level + 1] == [ONE] * (level + 1)
            else:
                deepest = max((n for n, _ in found.coefficients), default=0)
                assert values == ([ONE] * deepest
                                  + [min(ONE, found.cost)] * (depth + 1 - deepest))


class TestEvaluate:
    def test_zero(self, unit_table):
        result = evaluate(unit_table, ExtElement(Z.zero(), 0))
        assert isinstance(result, ExactResult)
        assert result.value == 0
        assert result.truncation_level == 0

    def test_base_group_shortcut(self, quarter_table):
        result = evaluate(quarter_table, ExtElement(Z.element((1,)), 0))
        assert isinstance(result, ExactResult)
        assert result.value == Fraction(1, 4)

    def test_anchor_value(self, unit_table):
        result = evaluate(unit_table, ExtElement(Z.zero(), 2), Fraction(1, 1024))
        assert isinstance(result, ExactResult)
        assert result.value == Fraction(1, 2)
        assert result.witness.coefficients == ((2, 1),)

    def test_budget_too_small(self, unit_table):
        result = evaluate(unit_table, ExtElement(Z.zero(), 2), Fraction(51, 100))
        assert isinstance(result, IntervalResult)
        assert result.lower == Fraction(49, 100)
        # Anchor 2 costs 1/2, and its residual's 1/3 puts the leaf's total at
        # 5/6: an interval at 1 - epsilon = 3/4, exact at 5/6 itself.
        table = build_anchor_table(Z, CappedWeightedL1(weights=(Fraction(1, 3),)), 12)
        x = table.anchor_element(2) + ExtElement(Z.element((1,)), 0)
        assert isinstance(evaluate(table, x, Fraction(1, 4)), IntervalResult)
        result = evaluate(table, x, Fraction(1, 6))
        assert isinstance(result, ExactResult)
        assert result.value == Fraction(5, 6)
        assert result.witness.coefficients == ((2, 1),)

    def test_near_one_interval(self, unit_table):
        result = evaluate(unit_table, ExtElement(Z.zero(), 1), Fraction(1, 1024))
        assert isinstance(result, IntervalResult)
        assert result.lower == Fraction(1023, 1024)
        assert result.upper == 1

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(epsilon=st.integers(2, 2 ** 40).flatmap(
        lambda q: st.builds(Fraction, st.integers(1, q - 1), st.just(q))))
    @example(epsilon=Fraction(1, 2 ** 40))
    @example(epsilon=Fraction(2 ** 40 - 1, 2 ** 40))
    def test_truncation_index_gets_the_callers_epsilon(self, lattice_table, epsilon):
        # evaluate hands its epsilon object to truncation_index unchanged and
        # makes 1 - epsilon only for an interval.  c^(+-1) has norm 1, so
        # every epsilon from 2^-40 up gives an interval, whose lower end is
        # 1 - epsilon as a Fraction.
        received = []
        level = evaluator.truncation_index

        def recorded(table, k, given):
            received.append(given)
            return level(table, k, given)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(evaluator, "truncation_index", recorded)
            for k in (1, -1):
                result = evaluate(lattice_table, ExtElement(Z2.zero(), k), epsilon)
                assert isinstance(result, IntervalResult)
                assert type(result.lower) is Fraction
                assert result.lower == ONE - epsilon
            evaluate(lattice_table, lattice_table.anchor_element(3), epsilon)
        assert len(received) == 3
        assert all(e is epsilon for e in received)

    def test_epsilon_domain(self, unit_table):
        with pytest.raises(DomainError):
            evaluate(unit_table, ExtElement(Z.zero(), 0), Fraction(0))
        with pytest.raises(DomainError):
            evaluate(unit_table, ExtElement(Z.zero(), 0), ONE)

    def test_shape_mismatch(self, unit_table):
        other = GroupDescriptor(free_rank=2)
        with pytest.raises(ShapeError):
            evaluate(unit_table, ExtElement(other.zero(), 0))

    @pytest.mark.parametrize("spec, equal, other", [
        (0, GroupDescriptor(free_rank=2), GroupDescriptor(free_rank=1)),
        # A shape the spec accepts, so only the descriptor check can refuse it.
        (2, GroupDescriptor(torsion_moduli=(5, 9, 7)), GroupDescriptor(torsion_moduli=(5, 9, 8))),
    ], ids=["z2", "z5z9z7"])
    def test_an_equal_descriptor_object_reads_as_the_tables(self, spec, equal, other):
        # The descriptor check tests identity before equality: an equal but
        # distinct descriptor must pass it, and any other must not.
        table = build_anchor_table(*DIFFERENTIAL_SPECS[spec], 60)
        assert equal is not table.descriptor and equal == table.descriptor
        h = enumerate_h(table.descriptor, 5)
        for x in (ExtElement(h, 0), ExtElement(h, 10 ** 12),
                  table.anchor_element(40) - table.anchor_element(7)):
            coords = x.h.coords()
            same = ExtElement(table.descriptor.element(coords), x.k)
            copy = ExtElement(equal.element(coords), x.k)
            assert same.descriptor is table.descriptor and copy.descriptor is equal
            assert evaluate(table, copy) == evaluate(table, same)
            assert (best_decomposition(table, copy, index_cap=table.depth)
                    == best_decomposition(table, same, index_cap=table.depth))
            rank = other.free_rank + len(other.torsion_moduli)
            foreign = ExtElement(other.element(coords[:rank]), x.k)
            with pytest.raises(ShapeError):
                evaluate(table, foreign)
            with pytest.raises(ShapeError):
                best_decomposition(table, foreign, index_cap=table.depth)

    def test_symmetry(self, quarter_table):
        for n in range(1, 30):
            for k in range(-4, 5):
                x = ExtElement(enumerate_h(Z, n), k)
                a, b = evaluate(quarter_table, x), evaluate(quarter_table, -x)
                assert isinstance(a, ExactResult) == isinstance(b, ExactResult)
                if isinstance(a, ExactResult):
                    assert a.value == b.value
                else:
                    assert a.lower == b.lower

    def test_triangle_on_exact_triples(self, quarter_table):
        elements = [
            ExtElement(enumerate_h(Z, n), k)
            for n in range(1, 8)
            for k in (-2, 0, 2)
        ]
        for x in elements:
            for y in elements:
                rx, ry, rxy = (
                    evaluate(quarter_table, x),
                    evaluate(quarter_table, y),
                    evaluate(quarter_table, x + y),
                )
                if all(isinstance(r, ExactResult) for r in (rx, ry, rxy)):
                    assert rxy.value <= rx.value + ry.value

    def test_cap_and_positivity(self, quarter_table):
        for n in range(1, 25):
            for k in range(-5, 6):
                x = ExtElement(enumerate_h(Z, n), k)
                result = evaluate(quarter_table, x)
                if isinstance(result, ExactResult):
                    assert result.value <= 1
                    if x != ExtElement(Z.zero(), 0):
                        assert result.value > 0
                else:
                    assert result.upper == 1
                    assert result.lower > 0

    def test_anchor_bounds(self, unit_table):
        # Anchors up to 7 have evaluation windows inside the depth-12 table;
        # the acceptance suite covers the first 30 on a depth-50 table.
        for n in range(1, 8):
            anchor = unit_table.anchor(n)
            result = evaluate(unit_table, unit_table.anchor_element(n))
            if isinstance(result, ExactResult):
                assert result.value <= anchor.value
            else:
                assert anchor.value == 1

    def test_anchor_symmetry(self, unit_table):
        for n in range(1, 8):
            x = unit_table.anchor_element(n)
            a, b = evaluate(unit_table, x), evaluate(unit_table, -x)
            assert type(a) is type(b)
            if isinstance(a, ExactResult):
                assert a.value == b.value
            else:
                assert (a.lower, a.upper) == (b.lower, b.upper)

    def test_restricts_to_base_norm(self, lattice_table):
        # On the base group (power 0) the extended norm is the base norm.
        Z2 = lattice_table.descriptor
        for n in range(1, 60):
            h = enumerate_h(Z2, n)
            result = evaluate(lattice_table, ExtElement(h, 0))
            assert isinstance(result, ExactResult)
            assert result.value == base_norm(lattice_table.spec, h)

    def test_pseudonorm_mode(self):
        table = build_anchor_table(Z, RationalRotation(alpha=Fraction(1, 3)), 10)
        result = evaluate(table, ExtElement(Z.element((3,)), 0))
        assert isinstance(result, ExactResult)
        assert result.value == 0  # vanishing off zero is accepted for pseudonorms

    def test_witness_internal_consistency(self, quarter_table):
        for k in range(-5, 6):
            x = ExtElement(Z.element((1,)), k)
            result = evaluate(quarter_table, x)
            if isinstance(result, ExactResult):
                assert result.witness.check_against(quarter_table, x)

    def test_deterministic(self, quarter_table):
        x = ExtElement(Z.element((2,)), 2)
        assert evaluate(quarter_table, x) == evaluate(quarter_table, x)


def near_anchor_elements(table, top):
    return [
        table.anchor_element(a) + table.anchor_element(b).scale(sign)
        + ExtElement(enumerate_h(table.descriptor, h), 0)
        for a in range(1, top, 3) for b in (1, a + 1) for sign in (1, -1) for h in (1, 2)
    ]


class TestSearchFrames:
    """Set-up cached on a table must never change what a search returns."""

    def test_bounded_per_table_and_equal_to_cold(self):
        def build():
            return build_anchor_table(Z5_9_7, CyclicScaled(), 30)

        table = build()
        elements = near_anchor_elements(table, 20)
        epsilons = [Fraction(1, 2 + i) for i in range(40)]
        evaluate(table, elements[0])
        frame = table.search_frame
        assert frame is not None
        # Two passes over 40 budgets: every one of them uses the one frame.
        for e in epsilons + epsilons:
            warm = [evaluate(table, x, e) for x in elements]
            assert table.search_frame is frame
            cold = build()
            assert [evaluate(cold, x, e) for x in elements] == warm

    def test_search_leaves_no_cyclic_garbage(self):
        # A cycle through the search would hold its anchors until the next gc.
        table = build_anchor_table(
            GroupDescriptor(free_rank=2), CappedWeightedL1((ONE, ONE)), 60)
        elements = [table.anchor_element(20),
                    ExtElement(table.descriptor.element((1, 2)), 12345)]
        for x in elements:
            evaluate(table, x)
        gc.collect()
        gc.disable()
        try:
            for x in elements:
                evaluate(table, x)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestEvaluateTruncated:
    def test_no_anchors(self, quarter_table):
        for hval in range(-3, 4):
            x = ExtElement(Z.element((hval,)), 0)
            assert evaluate_truncated(quarter_table, x, 0) == base_norm(
                quarter_table.spec, x.h
            )

    def test_worked_example(self, unit_table):
        assert evaluate_truncated(unit_table, ExtElement(Z.zero(), 2), 2) == Fraction(1, 2)

    def test_non_increasing(self, quarter_table):
        for k in range(-4, 5):
            x = ExtElement(Z.element((1,)), k)
            values = [
                evaluate_truncated(quarter_table, x, n) for n in range(0, 14)
            ]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_base_group_constant(self, quarter_table):
        x = ExtElement(Z.element((2,)), 0)
        expected = Fraction(1, 2)
        for n in range(0, 12):
            assert evaluate_truncated(quarter_table, x, n) == expected

    def test_stabilizes_at_certified_level(self, quarter_table):
        x = ExtElement(Z.zero(), 2)
        result = evaluate(quarter_table, x)
        assert isinstance(result, ExactResult)
        for n in range(result.truncation_level, 15):
            assert evaluate_truncated(quarter_table, x, n) == result.value

    def test_equals_the_budget_one_search_at_every_level(self, unit_table, quarter_table):
        # evaluate_truncated caps the search's one leaf at 1; the capped
        # budget-1 minimum is the definition it must match, costs of exactly
        # 1 included.  The unpruned enumeration grows like prod(2j + 1), so
        # levels stop at 6.
        tables = [
            unit_table,
            quarter_table,
            build_anchor_table(Z5_9_7, CyclicScaled(), 24),
            build_anchor_table(Z, RationalRotation(Fraction(3, 7)), 24),
        ]
        # Past level 6 the deeper levels are checked against level 6 where
        # the deepest search starts by then, since a search to level n is the
        # search from its start.
        costs_of_one = deep_checked = 0
        for table in tables:
            elements = [table.anchor_element(1), -table.anchor_element(1)]
            elements += near_anchor_elements(table, 12)
            elements += [ExtElement(enumerate_h(table.descriptor, h), k)
                         for h in (1, 2, 5) for k in (-3, 0, 2, 7)]
            for x in elements:
                for n in range(7):
                    found = exhaustive_min_decomposition(table, x, ONE, n)
                    expected = ONE if found is None else found[0]
                    assert evaluate_truncated(table, x, n) == expected, (x, n)
                    costs_of_one += expected == ONE and found is not None
                start = evaluator._search_start(table, x.k, table.depth)[1]
                if start <= 6:
                    for n in range(7, table.depth + 1):
                        assert evaluate_truncated(table, x, n) == expected, (x, n)
                        deep_checked += 1
        assert costs_of_one > 0
        assert deep_checked > 0

    def test_depth_one_integer_costs(self):
        # L = 1 and D = 1, so every cost is an integer.  The value is 0 for
        # an h of base norm 0 and k = 0, and 1 for every other element.
        table = build_anchor_table(Z, CappedWeightedL1((Fraction(1),)), 1)
        for h in (1, 2, 3):
            for k in (-1, 0, 1, 3):
                x = ExtElement(enumerate_h(Z, h), k)
                expected = Fraction(0) if (h, k) == (1, 0) else ONE
                for n in (0, 1):
                    assert evaluate_truncated(table, x, n) == expected, (x, n)
                assert truncated_values(table, x, [0, 1]) == [expected, expected]
        # The suite reaches its own verdict: level 1 certifies no k != 0.
        with pytest.raises(ExtendTableError) as err:
            verify_truncation(table, 20, 5)
        assert err.value.required_depth > 1

    def test_rejects_bad_level_and_shape(self, unit_table):
        with pytest.raises(DomainError):
            evaluate_truncated(unit_table, ExtElement(Z.zero(), 1), unit_table.depth + 1)
        with pytest.raises(ShapeError):
            evaluate_truncated(unit_table, ExtElement(Z5_9_7.zero(), 1), 3)

    def test_largest_cost_below_one(self):
        # L = lcm(1, 2) = 2 and D = 3 are coprime, so 1/2 + 1/3 = 5/6 is the
        # largest cost below 1, one unit of 1/(L*D) under it.
        table = build_anchor_table(Z, CappedWeightedL1(weights=(Fraction(1, 3),)), 2)
        x = table.anchor_element(2) + ExtElement(Z.element((1,)), 0)
        assert exhaustive_min_decomposition(table, x, ONE, 2)[0] == Fraction(5, 6)
        assert evaluate_truncated(table, x, 2) == Fraction(5, 6)


# Fresh tables of every norm kind, by name.
SHAPES = {
    "capped_l1": (Z2, CappedWeightedL1((Fraction(1, 3), Fraction(1, 5)))),
    "capped_linf": (GroupDescriptor(free_rank=3), CappedLInf(scale=Fraction(1, 2))),
    "cyclic_scaled": (Z5_9_7, CyclicScaled()),
    "rotation": (Z, RationalRotation(Fraction(3, 7))),
}


def fresh_table(shape, depth):
    return build_anchor_table(*SHAPES[shape], depth)


PICKS = st.tuples(
    st.one_of(st.integers(-60, 60), st.integers(-(10 ** 40), 10 ** 40)),
    st.integers(1, 6),
    st.none() | st.integers(1, 400),
)


def picked_element(table, pick):
    """c^k plus base element h, or anchor a's element plus h."""
    k, h, a = pick
    x = ExtElement(enumerate_h(table.descriptor, h), k)
    if a is not None:
        x = table.anchor_element(min(a, table.depth)) + ExtElement(x.h, 0)
    return x


class TestSearchStart:
    """Searches start at the first level that can move; grown tables grow
    their frames only until a gap exceeds |k|."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        shape=st.sampled_from(sorted(SHAPES)),
        depth=st.integers(1, 400),
        pick=PICKS,
        levels=st.lists(st.integers(0, 400), max_size=12),
        warm=st.lists(PICKS, max_size=3),
    )
    @example(shape="capped_l1", depth=400, pick=(3, 1, None), levels=[400, 0, 5, 400], warm=[])
    @example(shape="capped_l1", depth=30, pick=(0, 5, None), levels=list(range(31)), warm=[])
    def test_truncated_values_equal_one_call_per_level(self, shape, depth, pick, levels, warm):
        table = fresh_table(shape, depth)
        levels = [min(n, table.depth) for n in levels]
        # Warm frames: other searches on the same table first, at both budgets.
        for other in warm:
            y = picked_element(table, other)
            evaluate_truncated(table, y, table.depth)
            outcome(evaluate, table, y)
        x = picked_element(table, pick)
        cold = fresh_table(shape, depth)
        assert truncated_values(table, x, levels) == [
            evaluate_truncated(cold, x, n) for n in levels]

    def test_truncated_values_rejects_a_level_past_the_table(self, unit_table):
        with pytest.raises(DomainError):
            truncated_values(unit_table, ExtElement(Z.zero(), 1), [0, unit_table.depth + 1])

    @staticmethod
    def fully_grown(shape, depth):
        """A fresh table whose frame reaches its depth.

        A search for c^{K_N} at cap N grows the frame until a gap exceeds
        K_N, and no gap up to level N does.
        """
        table = fresh_table(shape, depth)
        x = ExtElement(table.descriptor.zero(), table.anchor(depth).power)
        best_decomposition(table, x, index_cap=depth)
        gaps = table.search_frame.gaps
        assert len(gaps) == depth + 1
        # Caps of j - 1 make the gaps rise strictly, which the bisects rely on.
        assert all(a < b for a, b in zip(gaps, gaps[1:]))
        return table

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        shape=st.sampled_from(sorted(SHAPES)),
        depth=st.integers(1, 400),
        pick=PICKS,
        cap=st.integers(0, 400),
        budget=st.sampled_from(["truncated", ONE - Fraction(1, 1024),
                                ONE - Fraction(1, 2 ** 30), Fraction(5, 7)]),
    )
    def test_lazy_growth_finds_the_full_growth_decomposition(
            self, shape, depth, pick, cap, budget):
        grown = fresh_table(shape, depth)
        x = picked_element(grown, pick)
        cap = min(cap, depth)
        full = self.fully_grown(shape, depth)
        lazy = best_decomposition(grown, x, index_cap=cap)
        assert lazy == best_decomposition(full, x, index_cap=cap)
        assert lazy is None or lazy.check_against(grown, x)
        # At caps small enough to enumerate, the unpruned minimum within a
        # budget is the search's answer when its total is within it.
        if budget == "truncated":
            budget = largest_below_one(grown)
        small = min(cap, 5)
        found = within(best_decomposition(grown, x, index_cap=small), budget)
        oracle = exhaustive_min_decomposition(grown, x, budget, small)
        assert (found is None) == (oracle is None)
        if found is not None:
            assert found.cost == oracle[0]
            assert tuple(dict(found.coefficients).get(n, 0)
                         for n in range(small, 0, -1)) == oracle[1]

    def test_frames_grow_with_k_not_with_the_depth(self):
        grown = fresh_table("capped_l1", 400)
        full = self.fully_grown("capped_l1", 400)
        for k in (0, 3, 10 ** 12):
            x = ExtElement(Z2.element((1, -2)), k)
            assert evaluate_truncated(grown, x, 400) == evaluate_truncated(full, x, 400)
            frame = grown.search_frame
            assert len(frame.levels) - 1 < 40
            # The frame stops at the first level whose gap exceeds |k|.
            assert frame.gaps[-1] > k >= frame.gaps[-2]
        # A k = 0 search at the table's depth grows one level and starts at level 0.
        zero = fresh_table("capped_l1", 400)
        evaluate_truncated(zero, ExtElement(Z2.element((1, -2)), 0), 400)
        assert len(zero.search_frame.levels) == 2

    @pytest.mark.parametrize("spec", range(len(DIFFERENTIAL_SPECS)))
    def test_frame_records_rebuild_from_the_recurrence(self, spec):
        # Each level's record, made again from the recurrence's pairs and
        # powers alone, on a frame grown to the table's depth.
        depth = 400
        table = build_anchor_table(*DIFFERENTIAL_SPECS[spec], depth)
        x = ExtElement(table.descriptor.zero(), table.anchor(depth).power)
        best_decomposition(table, x, index_cap=depth)
        frame = table.search_frame
        pairs = list(itertools.islice(construction._recurrence(), depth))
        scale = table.precision_lcm
        assert scale == math.lcm(*(j for _, j, _ in pairs))
        assert len(frame.levels) == len(frame.gaps) == depth + 1
        order = table.descriptor.order
        reach, widest = 0, 1
        for n, (m, j, power) in enumerate(pairs, 1):
            target = enumerate_h(table.descriptor, m if order is None else (m - 1) % order + 1)
            assert frame.levels[n] == (
                power, scale // j, j - 1, reach, widest, target.coords())
            assert frame.gaps[n] == power - reach
            reach += (j - 1) * power
            widest = max(widest, j * power)
        assert (frame.reach, frame.widest) == (reach, widest)

    def test_gaps_rise_strictly_up_to_the_depth_cap(self):
        # gap[n] = K_n - reach[n-1] and reach[n] = reach[n-1] + caps[n] * K_n
        # with caps[n] = j_n - 1, so gap[n+1] - gap[n] = K_{n+1} - j_n * K_n.
        reach, gap = 0, None
        recurrence = construction._recurrence()
        for _, j, power in itertools.islice(recurrence, MAX_TABLE_DEPTH):
            previous, gap = gap, power - reach
            assert previous is None or gap >= previous + 1
            reach += (j - 1) * power


class TestBruteForceOracle:
    def test_zero(self, unit_table):
        assert brute_force_eval(unit_table, ExtElement(Z.zero(), 0), 2, 3) == 0

    def test_anchor(self, unit_table):
        assert brute_force_eval(unit_table, ExtElement(Z.zero(), 2), 2, 3) == Fraction(1, 2)

    def test_base_element(self, quarter_table):
        x = ExtElement(Z.element((1,)), 0)
        assert brute_force_eval(quarter_table, x, 3, 3) == Fraction(1, 4)

    def test_never_beats_certified_value(self, quarter_table):
        for hval in range(-2, 3):
            for k in range(-3, 4):
                x = ExtElement(Z.element((hval,)), k)
                result = evaluate(quarter_table, x)
                oracle = brute_force_eval(quarter_table, x, 3, 3)
                if isinstance(result, ExactResult):
                    assert oracle >= result.value
                else:
                    assert oracle > result.lower

    def test_equality_when_witness_fits(self, quarter_table):
        x = ExtElement(Z.zero(), 2)
        result = evaluate(quarter_table, x)
        assert isinstance(result, ExactResult)
        assert brute_force_eval(quarter_table, x, 3, 3) == result.value


class TestDensityWitness:
    def test_second_demand(self, unit_table):
        witness = density_witness(unit_table, 1, 2)
        assert witness.anchor_index == 2
        assert witness.power == 2
        assert witness.bound == Fraction(1, 2)
        assert isinstance(witness.certificate, ExactResult)
        assert witness.certificate.value == Fraction(1, 2)
        assert witness.certified

    def test_vacuous_bound(self, unit_table):
        witness = density_witness(unit_table, 1, 1)
        assert witness.power == 1
        assert witness.bound == 1
        assert witness.certified

    def test_deeper_demand(self, unit_table):
        witness = density_witness(unit_table, 2, 2)
        assert witness.anchor_index == 5
        assert witness.power == 34
        assert witness.bound == Fraction(1, 2)
        assert witness.certified

    def test_too_shallow(self, unit_table):
        with pytest.raises(ExtendTableError) as err:
            density_witness(unit_table, 5, 5)
        assert err.value.required_depth == 41

    def test_demand_past_the_depth_cap(self, unit_table):
        # (130, 12) is anchor 10 000 exactly, which a build can still reach.
        with pytest.raises(ExtendTableError) as err:
            density_witness(unit_table, 130, 12)
        assert err.value.required_depth == MAX_TABLE_DEPTH
        for m, j in ((131, 12), (1_000_000, 1)):
            with pytest.raises(DomainError, match=str(MAX_TABLE_DEPTH)):
                density_witness(unit_table, m, j)


class TestExtendFamily:
    def test_shared_construction_data(self):
        tables = [
            build_anchor_table(Z, spec, 15)
            for spec in (CappedWeightedL1(weights=(Fraction(1),)), CappedLInf(scale=Fraction(3)))
        ]
        skeleton = [
            [(a.index, a.target_index, a.precision_index, a.power) for a in t.anchors]
            for t in tables
        ]
        assert skeleton[0] == skeleton[1]

    def test_pseudonorm_member_accepted(self):
        tables = [
            build_anchor_table(Z, spec, 10)
            for spec in (CappedWeightedL1(weights=(Fraction(1),)), RationalRotation(alpha=Fraction(1, 3)))
        ]
        assert tables[0].anchors == tables[1].anchors

    def test_same_truncation_indices_across_members(self):
        tables = [
            build_anchor_table(Z, spec, 12)
            for spec in (
                CappedWeightedL1(weights=(Fraction(1),)),
                CappedLInf(scale=Fraction(3)),
                RationalRotation(alpha=Fraction(1, 3)),
            )
        ]
        for k in (1, 2, 5, -7):
            levels = {
                truncation_index(t, k, Fraction(1, 1024)) for t in tables
            }
            assert len(levels) == 1


def outcome(call, *args):
    """What a query returns, or the error it raises with its required depth."""
    try:
        return call(*args)
    except (DomainError, ExtendTableError) as exc:
        return type(exc), getattr(exc, "required_depth", None)


class TestLazyTable:
    """A table makes only the anchors a query reaches, with the same answers."""

    def test_load_makes_no_anchor_and_a_query_only_what_it_reaches(self, tmp_path, monkeypatch):
        path = tmp_path / "deep.json"
        save_table(build_anchor_table(Z2, CappedWeightedL1((ONE, ONE)), MAX_TABLE_DEPTH), path)
        made = []

        def counted(*fields):
            made.append(fields[0])
            return Anchor(*fields)

        monkeypatch.setattr(construction, "Anchor", counted)
        table = load_table(path)
        assert made == []
        evaluate(table, ExtElement(Z2.element((3, -1)), -(10 ** 12) + 17))
        evaluate(table, table.anchor_element(11) + table.anchor_element(30).scale(-1))
        assert 30 <= len(made) <= 64

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        depth=st.integers(1, 300),
        picks=st.lists(st.tuples(
            st.one_of(st.integers(-(10 ** 200), 10 ** 200), st.integers(-50, 50)),
            st.integers(1, 300), st.integers(1, 300), st.sampled_from([1, -1]),
            st.integers(1, 6)), min_size=1, max_size=4),
        epsilon=st.sampled_from([Fraction(1, 1024), Fraction(1, 2 ** 30)]),
    )
    @example(depth=12, picks=[(10 ** 30000, 1, 1, 1, 1)], epsilon=Fraction(1, 1024))
    def test_fresh_table_answers_as_the_grown_one(self, depth, picks, epsilon):
        # A pick is a c-power k plus a base element; for k == 0, anchor a
        # plus or minus anchor b instead.  Each query gets a fresh lazy table.
        spec = CappedWeightedL1((Fraction(1, 3), ONE))
        grown = build_anchor_table(Z2, spec, depth)
        assert len(grown.anchors) == depth
        for k, a, b, sign, h in picks:
            x = ExtElement(enumerate_h(Z2, h), k)
            if k == 0:
                x = x + grown.anchor_element(min(a, depth)) + grown.anchor_element(
                    min(b, depth)).scale(sign)
            if x.k == 0:
                continue
            assert outcome(truncation_index, build_anchor_table(Z2, spec, depth), x.k, epsilon) \
                == outcome(truncation_index, grown, x.k, epsilon)
            assert outcome(evaluate, build_anchor_table(Z2, spec, depth), x, epsilon) \
                == outcome(evaluate, grown, x, epsilon)

    def test_a_query_past_the_depth_makes_no_anchor(self):
        spec = CappedWeightedL1((ONE, ONE))
        for depth, k, epsilon, raised in (
            (5000, construction.k_power(5000), Fraction(1, 1024), (ExtendTableError, 5002)),
            (1, 2, Fraction(1, 2), (ExtendTableError, 3)),
            (12, 10 ** 30000, Fraction(1, 1024), (DomainError, None)),
        ):
            for query, x in ((truncation_index, k), (evaluate, ExtElement(Z2.zero(), k))):
                table = build_anchor_table(Z2, spec, depth)
                assert outcome(query, table, x, epsilon) == raised
                assert table.prefix(0) == [] and table.powers == []

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        depth=st.integers(1, 300),
        k=st.one_of(st.integers(1, 10 ** 200), st.integers(1, 50)),
        sign=st.sampled_from([1, -1]),
        epsilon=st.sampled_from([Fraction(1, 2), Fraction(1, 1024), Fraction(1, 2 ** 30)]),
    )
    def test_growth_stops_at_the_level(self, depth, k, sign, epsilon):
        # A fresh table makes anchors 1..T for the first T with K_T >= |k|/epsilon,
        # or none when T lies past its depth.
        table = build_anchor_table(Z2, CappedWeightedL1((Fraction(1, 3), ONE)), depth)
        level = construction.first_index_reaching(math.ceil(k / epsilon))
        if level > depth:
            assert outcome(truncation_index, table, sign * k, epsilon)[0] in (
                ExtendTableError, DomainError)
            assert table.powers == []
            return
        assert truncation_index(table, sign * k, epsilon) == level
        assert len(table.powers) == level
        assert truncation_index(table, -sign * max(k // 3, 1), epsilon) <= level
        assert len(table.powers) == level

    def test_a_table_deep_enough_skips_the_closed_form(self, monkeypatch):
        spec = CappedWeightedL1((Fraction(1, 4),))
        cases = [(k, epsilon) for k in (1, -7, 10 ** 20, -(10 ** 25))
                 for epsilon in (Fraction(1, 2), Fraction(1, 1024))]
        expected = [truncation_index(build_anchor_table(Z, spec, 40), k, epsilon)
                    for k, epsilon in cases]
        values = [evaluate(build_anchor_table(Z, spec, 40), ExtElement(Z.zero(), k), epsilon)
                  for k, epsilon in cases]
        table = build_anchor_table(Z, spec, 40)
        table.prefix(40)

        def closed_form(bound):
            raise AssertionError(f"first_index_reaching({bound}) was called")

        monkeypatch.setattr(evaluator, "first_index_reaching", closed_form)
        assert [truncation_index(table, k, epsilon) for k, epsilon in cases] == expected
        assert [evaluate(table, ExtElement(Z.zero(), k), epsilon)
                for k, epsilon in cases] == values
