"""Element arithmetic, the fixed enumeration, and the base norms."""

import copy
import itertools
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from monothetic import (
    CappedLInf,
    CappedWeightedL1,
    CyclicScaled,
    DomainError,
    ExtElement,
    GroupDescriptor,
    HElement,
    RationalRotation,
    ShapeError,
    base_norm,
    build_anchor_table,
    enumerate_h,
    load_table,
    save_table,
)
from monothetic.groups import MAX_COORDINATES, _counts, zigzag_decode

Z = GroupDescriptor(free_rank=1)
Z2 = GroupDescriptor(free_rank=2)
Z5 = GroupDescriptor(free_rank=0, torsion_moduli=(5,))
MIXED = GroupDescriptor(free_rank=1, torsion_moduli=(4,))


def grade_cumulative_count(descriptor, grade):
    """How many elements have encoded coordinate sum <= grade."""
    return _counts(descriptor, grade)[1][grade]


class TestDescriptor:
    def test_validation(self):
        with pytest.raises(ShapeError):
            GroupDescriptor(free_rank=-1)
        with pytest.raises(ShapeError):
            GroupDescriptor(free_rank=0, torsion_moduli=(1,))
        with pytest.raises(ShapeError):
            GroupDescriptor(free_rank=0, torsion_moduli=())

    def test_coordinate_cap(self):
        assert GroupDescriptor(free_rank=60, torsion_moduli=(2,) * 4).zero().coords() == (0,) * 64
        for free_rank, moduli in [(65, ()), (60, (2,) * 5), (0, (3,) * 65)]:
            with pytest.raises(ShapeError, match=f"at most {MAX_COORDINATES} coordinates"):
                GroupDescriptor(free_rank, moduli)

    def test_order(self):
        assert Z.order is None
        assert Z5.order == 5
        assert GroupDescriptor(0, (2, 3)).order == 6

    def test_equal_descriptors_built_apart_hash_equal(self):
        a, b = GroupDescriptor(1, (4,)), GroupDescriptor(1, (4,))
        assert a is not b and a == b and hash(a) == hash(b)
        assert {a: "a"}[b] == "a" and b in {a}

    def test_shapes_hash_apart(self):
        # The enumeration's caches are keyed by descriptor: shapes that differ
        # only in their torsion must not share one hash.
        shapes = [(0, (2,)), (0, (3,)), (0, (2, 3)), (0, (3, 2)), (1, ()), (1, (4,)),
                  (1, (5,)), (2, ())]
        assert len({hash(GroupDescriptor(r, q)) for r, q in shapes}) == len(shapes)

    @pytest.mark.parametrize("copy_of", [copy.deepcopy, lambda d: pickle.loads(pickle.dumps(d))],
                             ids=["deepcopy", "pickle"])
    def test_copies_keep_equality_and_hash(self, copy_of):
        for d in (Z, Z2, Z5, MIXED):
            c = copy_of(d)
            assert c == d and hash(c) == hash(d)
            assert c.zero() + d.zero() == d.zero()
        h = MIXED.element((-3, 1))
        assert copy_of(h) == h and hash(copy_of(h)) == hash(h)


class TestElements:
    def test_inverse(self):
        a = ExtElement(Z.element((1,)), 2)
        b = ExtElement(Z.element((-1,)), -2)
        assert a + b == ExtElement(Z.zero(), 0)

    def test_identity(self):
        x = ExtElement(Z.element((7,)), 3)
        assert x + ExtElement(Z.zero(), 0) == x

    def test_torsion_reduction(self):
        a = Z5.element((3,))
        b = Z5.element((4,))
        assert (a + b).torsion == (2,)

    def test_descriptor_mismatch(self):
        with pytest.raises(ShapeError):
            ExtElement(Z.zero(), 0) + ExtElement(Z2.zero(), 0)

    def test_equal_but_distinct_descriptors_add(self):
        a = GroupDescriptor(1, (4,)).element((2, 3))
        b = GroupDescriptor(1, (4,)).element((5, 3))
        assert a.descriptor is not b.descriptor
        assert (a + b).coords() == (7, 2) and (a - b).coords() == (-3, 0)
        with pytest.raises(ShapeError):
            a + GroupDescriptor(1, (5,)).element((5, 3))

    @pytest.mark.parametrize("bad", [2.9, 2.0, -0.5, "3", True, False, None, Fraction(2)])
    def test_element_refuses_non_integer_coordinates(self, bad):
        with pytest.raises(DomainError, match=r"^coordinate 1 must be an integer, got "):
            MIXED.element((1, bad))

    def test_element_keeps_integer_coordinates(self):
        big = -(10 ** 4999) - 7   # 5000 digits
        assert Z.element([big]).free == (big,)
        assert MIXED.element((-3, 6)).coords() == (-3, 2)
        assert Z2.element((0, -1)).free == (0, -1)

    @pytest.mark.parametrize("bad", [2.9, 2.0, -0.5, "3", True, False, None, Fraction(2)])
    def test_constructors_refuse_what_element_refuses(self, bad):
        # HElement and ExtElement check their integers as element() does, so
        # no library caller can certify a value for a non-element.
        name = type(bad).__name__
        with pytest.raises(DomainError, match=rf"^coordinate 0 must be an integer, got {name}$"):
            HElement(Z2, (bad, 1), ())
        with pytest.raises(DomainError, match=rf"^coordinate 1 must be an integer, got {name}$"):
            HElement(MIXED, (1,), (bad,))
        with pytest.raises(DomainError, match=rf"^c-power must be an integer, got {name}$"):
            ExtElement(Z2.zero(), bad)

    def test_constructors_keep_integers(self):
        big = -(10 ** 4999) - 7   # 5000 digits
        h = HElement(MIXED, (big,), (-3,))
        assert h.free == (big,) and h.torsion == (1,)
        x = ExtElement(h, big)
        assert x.k == big and x.k < 0
        assert ExtElement(Z2.zero(), -4).k == -4

    def test_constructors_convert_other_index_types(self):
        class Index:
            def __init__(self, value):
                self.value = value

            def __index__(self):
                return self.value

        h = HElement(MIXED, (Index(-2),), (Index(7),))
        assert h.coords() == (-2, 3) and all(type(c) is int for c in h.coords())
        x = ExtElement(h, Index(5))
        assert type(x.k) is int and x == ExtElement(MIXED.element((-2, 3)), 5)

    @given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50),
           st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
    def test_group_laws(self, a, b, c, ka, kb, kc):
        x = ExtElement(Z.element((a,)), ka)
        y = ExtElement(Z.element((b,)), kb)
        z = ExtElement(Z.element((c,)), kc)
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert x - x == ExtElement(Z.zero(), 0)

    @given(st.integers(-50, 50), st.integers(-5, 5), st.integers(-50, 50),
           st.integers(-5, 5), st.integers(-4, 4))
    def test_subtraction_and_scaling(self, a, ka, b, kb, factor):
        x = ExtElement(MIXED.element((a, a)), ka)
        y = ExtElement(MIXED.element((b, b)), kb)
        assert x - y == x + (-y)
        assert x.scale(-1) == -x
        multiple = ExtElement(MIXED.zero(), 0)
        for _ in range(abs(factor)):
            multiple = multiple + (x if factor > 0 else -x)
        assert x.scale(factor) == multiple


class TestZigzag:
    @given(st.integers(-10**6, 10**6))
    def test_roundtrip(self, v):
        # The code of v is 2v - 1 for positive v and -2v otherwise.
        assert zigzag_decode(2 * v - 1 if v > 0 else -2 * v) == v

    def test_rejects_negative_code(self):
        with pytest.raises(DomainError):
            zigzag_decode(-1)

    def test_order(self):
        assert [zigzag_decode(u) for u in range(5)] == [0, 1, -1, 2, -2]


def brute_enumeration(descriptor, max_grade):
    """Independent oracle: all encoded tuples up to a grade, graded-lex sorted."""
    ranges = []
    for _ in range(descriptor.free_rank):
        ranges.append(range(max_grade + 1))
    for q in descriptor.torsion_moduli:
        ranges.append(range(min(q - 1, max_grade) + 1))
    tuples = [t for t in itertools.product(*ranges) if sum(t) <= max_grade]
    tuples.sort(key=lambda t: (sum(t), t))
    out = []
    for t in tuples:
        free = tuple(zigzag_decode(u) for u in t[: descriptor.free_rank])
        out.append((free, t[descriptor.free_rank:]))
    return out


class TestEnumeration:
    def test_first_elements_rank_one(self):
        assert enumerate_h(Z, 1).free == (0,)
        assert enumerate_h(Z, 2).free == (1,)
        assert enumerate_h(Z, 3).free == (-1,)
        assert enumerate_h(Z, 4).free == (2,)

    def test_rejects_bad_index(self):
        with pytest.raises(DomainError):
            enumerate_h(Z, 0)
        with pytest.raises(DomainError):
            enumerate_h(Z5, 6)

    @pytest.mark.parametrize("descriptor", [Z, Z2, Z5, MIXED])
    def test_matches_graded_lex_oracle(self, descriptor):
        oracle = brute_enumeration(descriptor, 6)
        for n, (free, torsion) in enumerate(oracle, start=1):
            h = enumerate_h(descriptor, n)
            assert (h.free, h.torsion) == (free, torsion), f"index {n}"

    @pytest.mark.parametrize("descriptor", [Z, Z2, Z5, MIXED])
    def test_grade_counts_match_oracle(self, descriptor):
        oracle = brute_enumeration(descriptor, 6)
        grades = [sum(zigzag_code) for zigzag_code in (
            tuple(2 * v - 1 if v > 0 else -2 * v for v in free) + torsion
            for free, torsion in oracle
        )]
        for grade in range(7):
            expected = sum(1 for g in grades if g <= grade)
            assert grade_cumulative_count(descriptor, grade) == expected

    def test_answers_survive_count_cache_eviction(self):
        # More descriptors than the count cache holds; the element cache is
        # bypassed so every answer goes through the count tables.
        descriptors = [GroupDescriptor(free_rank=1, torsion_moduli=(q,)) for q in range(2, 72)]
        enumerate_uncached = enumerate_h.__wrapped__

        def answers(descriptor):
            elements = [enumerate_uncached(descriptor, n) for n in range(1, 40)]
            return elements, [grade_cumulative_count(descriptor, g) for g in range(12)]

        first = [answers(d) for d in descriptors]
        assert answers(descriptors[0]) == first[0]

    def test_loaded_tables_get_elements_on_their_descriptor(self, tmp_path):
        # Tables loaded apart share one descriptor object, so the cache hands
        # back elements on the later table's own descriptor.
        enumerate_h.cache_clear()
        spec = CappedWeightedL1((Fraction(1), Fraction(1, 2)))
        for name, depth in (("a.json", 20), ("b.json", 30)):
            save_table(build_anchor_table(GroupDescriptor(free_rank=2), spec, depth),
                       tmp_path / name)
        a = load_table(tmp_path / "a.json")
        first = [enumerate_h(a.descriptor, n) for n in range(1, 40)]
        b = load_table(tmp_path / "b.json")
        assert b.descriptor is a.descriptor
        for n in range(1, 60):
            assert enumerate_h(b.descriptor, n).descriptor is b.descriptor
        assert [enumerate_h(b.descriptor, n) for n in range(1, 40)] == first

    def test_injective_prefix(self):
        seen = {enumerate_h(Z2, n) for n in range(1, 10001)}
        assert len(seen) == 10000

    def test_ball_coverage(self):
        # Every element of the radius-3 box appears within the first
        # C * |ball| indices, where C comes from the grading: the box's
        # largest encoded grade is 2*3 per free coordinate.
        ball = [Z2.element((a, b)) for a in range(-3, 4) for b in range(-3, 4)]
        horizon = grade_cumulative_count(Z2, 12)
        prefix = {enumerate_h(Z2, n) for n in range(1, horizon + 1)}
        assert set(ball) <= prefix


class TestBaseNorm:
    def test_weighted_l1_single(self):
        spec = CappedWeightedL1(weights=(Fraction(1, 4),))
        assert base_norm(spec, Z.element((1,))) == Fraction(1, 4)

    def test_zero_everywhere(self):
        specs = [
            (Z, CappedWeightedL1(weights=(Fraction(1, 4),))),
            (Z, CappedLInf(scale=Fraction(3))),
            (Z5, CyclicScaled()),
            (Z, RationalRotation(alpha=Fraction(1, 3))),
        ]
        for descriptor, spec in specs:
            assert base_norm(spec, descriptor.zero()) == 0

    def test_rotation_vanishes_off_zero(self):
        spec = RationalRotation(alpha=Fraction(1, 3))
        assert base_norm(spec, Z.element((3,))) == 0
        assert base_norm(spec, Z.element((1,))) == Fraction(1, 3)

    def test_cap(self):
        spec = CappedWeightedL1(weights=(Fraction(1, 4),))
        assert base_norm(spec, Z.element((9,))) == 1

    def test_cyclic_values(self):
        spec = CyclicScaled()
        assert base_norm(spec, Z5.element((1,))) == Fraction(2, 5)
        assert base_norm(spec, Z5.element((4,))) == Fraction(2, 5)
        assert base_norm(spec, Z5.element((2,))) == Fraction(4, 5)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            base_norm(CappedWeightedL1(weights=(Fraction(1),)), Z2.zero())
        with pytest.raises(ShapeError):
            base_norm(CyclicScaled(), Z.zero())
        with pytest.raises(ShapeError):
            base_norm(RationalRotation(alpha=Fraction(1, 3)), Z2.zero())
        with pytest.raises(ShapeError):
            base_norm(CappedWeightedL1(weights=(Fraction(1),)), MIXED.zero())

    # A spec checks its parameters when it is made, so no table or base_norm
    # call can hold a negative weight or scale, or an integer alpha.
    @pytest.mark.parametrize("make", [
        lambda: CappedWeightedL1(weights=(Fraction(-1),)),
        lambda: CappedWeightedL1(weights=(Fraction(1), Fraction(0))),
        lambda: CappedLInf(scale=Fraction(0)),
        lambda: CappedLInf(scale=Fraction(-1, 3)),
        lambda: RationalRotation(alpha=Fraction(3)),
        lambda: RationalRotation(alpha=Fraction(0)),
    ], ids=["l1-negative", "l1-zero", "linf-zero", "linf-negative",
            "rotation-integer", "rotation-zero"])
    def test_bad_parameters_rejected_on_construction(self, make):
        with pytest.raises(ShapeError):
            make()

    @pytest.mark.parametrize(
        "descriptor,spec",
        [
            (Z, CappedWeightedL1(weights=(Fraction(1, 4),))),
            (Z2, CappedWeightedL1(weights=(Fraction(1), Fraction(1, 2)))),
            (Z, CappedLInf(scale=Fraction(1, 3))),
            (Z5, CyclicScaled()),
            (Z, RationalRotation(alpha=Fraction(2, 7))),
        ],
    )
    def test_axioms_sampled(self, descriptor, spec):
        # Exact comparisons over 1000 seeded elements per built-in variant.
        pool = descriptor.order or 500
        for i in range(1000):
            h = enumerate_h(descriptor, 1 + (17 + i) % pool)
            g = enumerate_h(descriptor, 1 + (17 + 3 * i + 1) % pool)
            dh = base_norm(spec, h)
            assert base_norm(spec, -h) == dh
            assert 0 <= dh <= 1
            assert base_norm(spec, h + g) <= dh + base_norm(spec, g)
            if h != descriptor.zero() and not isinstance(spec, RationalRotation):
                assert dh > 0


Z579 = GroupDescriptor(free_rank=0, torsion_moduli=(5, 9, 7))
COORD = st.integers(-10 ** 6, 10 ** 6)


def written_out(spec, h):
    """The raw formula in Fractions, capped at 1, as each class documents it."""
    if isinstance(spec, CappedWeightedL1):
        raw = sum((w * abs(v) for w, v in zip(spec.weights, h.free)), Fraction(0))
    elif isinstance(spec, CappedLInf):
        raw = spec.scale * max(abs(v) for v in h.free)
    elif isinstance(spec, CyclicScaled):
        raw = sum(Fraction(2 * min(t, q - t), q)
                  for t, q in zip(h.torsion, h.descriptor.torsion_moduli))
    else:
        q = spec.alpha.denominator
        r = (h.free[0] * spec.alpha.numerator) % q
        raw = Fraction(min(r, q - r), q)
    return min(Fraction(1), raw)


class TestIntegerBaseNorm:
    # Small coordinates land under the cap, large ones over it.
    @given(st.lists(st.one_of(st.integers(-3, 3), COORD), min_size=3, max_size=3))
    @example([1, -1, 0]).via("uncapped")
    @example([0, 0, -10 ** 6]).via("capped")
    def test_capped_l1_mixed_denominators(self, coords):
        spec = CappedWeightedL1(weights=(Fraction(1, 3), Fraction(2, 5), Fraction(7, 4)))
        h = GroupDescriptor(free_rank=3).element(coords)
        assert base_norm(spec, h) == written_out(spec, h)

    @given(st.lists(st.one_of(st.integers(-3, 3), COORD), min_size=2, max_size=2))
    @example([-2, 1]).via("uncapped")
    @example([3, 0]).via("capped")
    def test_capped_linf(self, coords):
        spec = CappedLInf(scale=Fraction(3, 7))
        h = Z2.element(coords)
        assert base_norm(spec, h) == written_out(spec, h)

    @given(st.lists(COORD, min_size=3, max_size=3))
    @example([1, 0, -7]).via("uncapped")
    @example([-10 ** 6, 4, 3]).via("capped")
    def test_cyclic_scaled(self, coords):
        h = Z579.element(coords)
        assert base_norm(CyclicScaled(), h) == written_out(CyclicScaled(), h)

    @given(st.sampled_from([Fraction(3, 7), Fraction(5, 12)]), COORD)
    def test_rational_rotation(self, alpha, v):
        spec = RationalRotation(alpha=alpha)
        assert base_norm(spec, Z.element((v,))) == written_out(spec, Z.element((v,)))
