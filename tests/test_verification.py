"""Property suites: pass on honest tables, fail on tampered ones and on planted faults."""

import sys
from dataclasses import replace
from fractions import Fraction

import pytest

import monothetic.evaluator as evaluator
import monothetic.verification as verification
from monothetic import (
    CappedWeightedL1,
    CyclicScaled,
    DomainError,
    ExtElement,
    ExtendTableError,
    GroupDescriptor,
    RationalRotation,
    build_anchor_table,
    enumerate_h,
    evaluate,
    verify_density,
    verify_extension,
    verify_norm_axioms,
    verify_truncation,
)
from monothetic.evaluator import ExactResult
from monothetic.serialize import suite_report_to_json
from monothetic.verification import PAIR_INDEX_POOL, Violation, sample_elements, sample_pairs
from oracle import tampered

Z = GroupDescriptor(free_rank=1)
Z2 = GroupDescriptor(free_rank=2)
Z5 = GroupDescriptor(free_rank=0, torsion_moduli=(5,))
Z6 = GroupDescriptor(free_rank=0, torsion_moduli=(6,))


class TestSamplers:
    def test_single_deterministic(self):
        a = sample_elements(Z, 40, seed=9)
        b = sample_elements(Z, 40, seed=9)
        assert a == b
        assert a != sample_elements(Z, 40, seed=10)

    def test_single_power_range(self):
        for x in sample_elements(Z, 100, seed=3):
            assert -5 <= x.k <= 5

    def test_pairs_cover_power_combinations(self):
        pairs = sample_pairs(Z, 500, seed=42, k_range=3)
        combos = {(x.k, y.k) for x, y in pairs}
        assert len(combos) == 49

    def test_pairs_draw_from_the_fixed_pool(self):
        pairs = sample_pairs(Z2, 1000, seed=7)
        drawn = {z.h for pair in pairs for z in pair}
        assert drawn == {enumerate_h(Z2, n) for n in range(1, PAIR_INDEX_POOL + 1)}

    def test_pair_pool_clamped_to_group_order(self):
        # Z/2 has fewer elements than the pool; enumerate_h(Z/2, 3) would raise.
        z2 = GroupDescriptor(free_rank=0, torsion_moduli=(2,))
        pairs = sample_pairs(z2, 500, seed=3, k_range=1)
        assert {z.h for pair in pairs for z in pair} == {z2.element((0,)), z2.element((1,))}

    def test_finite_group_covers_all_representatives(self):
        seen = {x.h for x in sample_elements(Z6, 100, seed=5)}
        assert len(seen) == 6

    def test_repeated_single_samples_are_one_element(self):
        # With k_range=0 the 4000-sample stream on Z^2 repeats after 2001.
        stream = sample_elements(Z2, 4000, seed=17, k_range=0)
        for i in range(4000 - 2001):
            assert stream[i] is stream[i + 2001]

    @pytest.mark.parametrize("descriptor", [Z2, Z6], ids=["Z2", "Z6"])
    @pytest.mark.parametrize("seed", [0, 5, 1933, -40])
    def test_streams_follow_the_documented_grid(self, descriptor, seed):
        # Element i decodes the counter (seed + i) mod grid as the
        # module comment says, whatever the samplers reuse.
        def coords(z):
            return z.h.coords(), z.k

        def element(index, k):
            return coords(ExtElement(enumerate_h(descriptor, index + 1), k))

        for count, k_range in ((300, 5), (900, 0), (77, 2)):
            pool = min(count // 2 + 1, descriptor.order or count)
            kspan = 2 * k_range + 1
            expected = []
            for i in range(count):
                index, kslot = divmod((seed + i) % (pool * kspan), kspan)
                expected.append(element(index, kslot - k_range))
            got = sample_elements(descriptor, count, seed, k_range)
            assert [coords(x) for x in got] == expected

            pool = min(PAIR_INDEX_POOL, descriptor.order or PAIR_INDEX_POOL)
            expected = []
            for i in range(count + 2000):
                c, ky = divmod((seed + i) % (kspan * kspan * pool * pool), kspan)
                c, kx = divmod(c, kspan)
                ix, iy = divmod(c, pool)
                expected.append((element(ix, kx - k_range), element(iy, ky - k_range)))
            got = sample_pairs(descriptor, count + 2000, seed, k_range)
            assert [(coords(x), coords(y)) for x, y in got] == expected


class TestExtensionSuite:
    def test_passes(self, quarter_table):
        report = verify_extension(quarter_table, 200, seed=42)
        assert report.passed
        assert report.samples == 200

    def test_pseudonorm_vanishing_accepted(self):
        table = build_anchor_table(Z, RationalRotation(alpha=Fraction(1, 3)), 10)
        report = verify_extension(table, 100, seed=42)
        assert report.passed

    def test_deterministic_reports(self, quarter_table):
        a = verify_extension(quarter_table, 50, seed=1)
        b = verify_extension(quarter_table, 50, seed=1)
        assert suite_report_to_json(a) == suite_report_to_json(b)

    def test_interval_on_the_base_group_breaks_exactness(self, monkeypatch, quarter_table):
        # h = -2 at k = 0 certified only as c^1's interval.  The 20-sample
        # stream repeats after 11, so it is reported twice.
        interval = evaluate(quarter_table, ExtElement(Z.zero(), 1))
        assert not isinstance(interval, ExactResult)
        target = enumerate_h(Z, 5)

        def patched(table, x, *args):
            return interval if x.h == target else evaluate(table, x, *args)

        monkeypatch.setattr(verification, "evaluate", patched)
        report = verify_extension(quarter_table, 20, seed=0)
        assert [(v.sample_index, v.check, v.inputs, v.expected, v.got)
                for v in report.violations] == [
            (i, "extension-exact", "h=(-2,)", "exact result", "interval") for i in (4, 15)
        ]


SAMPLED_SUITES = pytest.mark.parametrize(
    "suite", [verify_extension, verify_norm_axioms, verify_truncation],
    ids=["extension", "axioms", "truncation"],
)


class TestSampleCount:
    @SAMPLED_SUITES
    @pytest.mark.parametrize("count", [1, 7])
    def test_report_counts_every_sample(self, quarter_table, suite, count):
        report = suite(quarter_table, count, seed=3)
        assert report.samples == count
        assert 0 <= report.skipped <= count
        assert report.passed, report.violations[:3]

    @SAMPLED_SUITES
    def test_a_warm_search_frame_keeps_the_report(self, suite):
        # A table whose search frame an earlier evaluation left warm must
        # report exactly what a freshly built one does, run after run.
        def fresh():
            return build_anchor_table(Z, CappedWeightedL1(weights=(Fraction(1, 4),)), 50)

        cold = suite_report_to_json(suite(fresh(), 60, seed=4))
        table = fresh()
        evaluate(table, table.anchor_element(3))
        assert table.search_frame is not None
        for _ in range(2):
            assert suite_report_to_json(suite(table, 60, seed=4)) == cold

    @SAMPLED_SUITES
    @pytest.mark.parametrize("count", [0, -3])
    def test_no_samples_rejected(self, unit_table, suite, count):
        # A suite that checked nothing must not report a pass.
        with pytest.raises(DomainError, match="needs at least one sample"):
            suite(unit_table, count, seed=0)


class TestAxiomSuite:
    def test_passes_on_two_norms(self, quarter_table, linf_table):
        for table in (quarter_table, linf_table):
            report = verify_norm_axioms(table, 300, seed=42, k_range=3)
            assert report.passed, report.violations[:3]

    def test_literal_lowered_power_fixture_fails(self, unit_table):
        # Lowering the third power violates the growth recurrence; the suite's
        # structural cross-check must reject the table.
        bad = tampered(unit_table, power={3: 3})
        report = verify_norm_axioms(bad, 100, seed=42)
        assert not report.passed
        assert any(v.check == "table-invariant" for v in report.violations)

    def test_semantic_fixture_fails_the_table_invariant(self, unit_table):
        # Collapsing two mid-table powers onto the generator itself breaks
        # the recurrence; the search is exact only on the recurrence's powers.
        bad = tampered(unit_table, power={4: 1, 5: 1})
        report = verify_norm_axioms(bad, 500, seed=42, k_range=3)
        assert [v.inputs for v in report.violations if v.check == "table-invariant"] == [
            "anchor 4: power 1 != 11",
            "anchor 4: growth law violated against anchor 3",
            "anchor 5: power 1 != 34",
            "anchor 5: growth law violated against anchor 4",
        ]

    def test_exact_sum_above_its_summands_breaks_triangle(self, monkeypatch, quarter_table):
        # Raising h = +-2 at k = 0 from 1/2 to 3/4 keeps symmetry and the cap,
        # but 1 + 1 then costs more than its summands' 1/4 + 1/4.
        def raised(table, x, *args):
            result = evaluate(table, x, *args)
            if x.k == 0 and abs(x.h.free[0]) == 2:
                return replace(result, value=Fraction(3, 4))
            return result

        monkeypatch.setattr(verification, "evaluate", raised)
        report = verify_norm_axioms(quarter_table, 16, seed=0, k_range=0)
        assert [(v.sample_index, v.check, v.inputs, v.expected, v.got)
                for v in report.violations] == [
            (5, "triangle", "x=((1,),0) y=((1,),0)", "<= 1/2", "3/4"),
            (10, "triangle", "x=((-1,),0) y=((-1,),0)", "<= 1/2", "3/4"),
        ]

    def test_violations_sorted_by_sample(self, unit_table):
        bad = tampered(unit_table, power={3: 3, 4: 1, 5: 1})
        report = verify_norm_axioms(bad, 500, seed=42, k_range=3)
        indices = [v.sample_index for v in report.violations]
        assert indices == sorted(indices)

    def test_passes_on_rank_two(self, lattice_table):
        report = verify_norm_axioms(lattice_table, 300, seed=7, k_range=3)
        assert report.passed, report.violations[:3]

    def test_passes_on_weighted_rank_two(self):
        spec = CappedWeightedL1(weights=(Fraction(1, 2), Fraction(1, 3)))
        table = build_anchor_table(Z2, spec, 30)
        report = verify_norm_axioms(table, 200, seed=11, k_range=2)
        assert report.passed, report.violations[:3]

    def test_pseudonorm_table_passes(self):
        # The rotation vanishes on multiples of 3; no check may demand
        # positivity off zero.
        table = build_anchor_table(Z, RationalRotation(alpha=Fraction(1, 3)), 30)
        report = verify_norm_axioms(table, 200, seed=0, k_range=3)
        assert report.passed, report.violations[:3]

    def test_torsion_table(self):
        table = build_anchor_table(Z5, CyclicScaled(), 30)
        report = verify_norm_axioms(table, 200, seed=3, k_range=3)
        assert report.samples == 200
        assert report.passed, report.violations[:3]

    def test_zero_checked(self, quarter_table):
        report = verify_norm_axioms(quarter_table, 10, seed=0)
        assert report.passed

    def test_nonzero_value_at_zero_reported(self, monkeypatch, quarter_table):
        zero = ExtElement(Z.zero(), 0)

        def shifted(table, x, *args):
            result = evaluate(table, x, *args)
            return replace(result, value=Fraction(1, 2)) if x == zero else result

        monkeypatch.setattr(verification, "evaluate", shifted)
        report = verify_norm_axioms(quarter_table, 10, seed=0)
        assert [v for v in report.violations if v.check == "zero"] == [
            Violation(-1, "zero", "0", "0/1", "exact 1/2")
        ]

    def test_interval_sum_of_cheap_summands_breaks_triangle(self, monkeypatch, quarter_table):
        # Certifying h = 2 at k = 0 only as c^1's interval leaves 1 + 1 an
        # interval, though its summands cost 1/4 + 1/4, within the budget.
        # Pairs that hold h = 2 itself are skipped, as it no longer certifies.
        interval = evaluate(quarter_table, ExtElement(enumerate_h(Z, 2), 1))
        assert not isinstance(interval, ExactResult)
        two = ExtElement(Z.element((2,)), 0)

        def patched(table, x, *args):
            return interval if x == two else evaluate(table, x, *args)

        monkeypatch.setattr(verification, "evaluate", patched)
        report = verify_norm_axioms(quarter_table, 16, seed=0, k_range=0)
        assert [(v.sample_index, v.check, v.inputs, v.expected, v.got)
                for v in report.violations if v.check == "triangle"] == [
            (5, "triangle", "x=((1,),0) y=((1,),0)", "min(1, 1/2) > 1023/1024",
             "interval certificate")
        ]


class TestRepeatedSamples:
    """Repeated samples are evaluated once; their violations are still
    reported at every index that holds them."""

    @staticmethod
    def perturb(monkeypatch, hit):
        # Add 1 to every exact value whose element satisfies ``hit``.
        def perturbed(table, x, *args):
            result = evaluate(table, x, *args)
            if hit(x) and isinstance(result, ExactResult):
                return replace(result, value=result.value + 1)
            return result

        monkeypatch.setattr(verification, "evaluate", perturbed)

    @staticmethod
    def count_calls(monkeypatch):
        calls = []

        def counted(table, x, *args):
            calls.append(x)
            return evaluate(table, x, *args)

        monkeypatch.setattr(verification, "evaluate", counted)
        return calls

    def test_axiom_violations_repeat_with_their_pairs(self, monkeypatch, quarter_table):
        # 2000 samples run past the 11 * 11 * 4 * 4 = 1936-pair grid.  Powers
        # +-2 are the ones with exact values among the pooled elements, so
        # perturbing power 2 breaks symmetry at both signs and the cap at +2.
        pairs = sample_pairs(quarter_table.descriptor, 2000, seed=0)
        expected = []
        for i, (x, y) in enumerate(pairs):
            for z in (x, y):
                r = evaluate(quarter_table, z)
                if abs(z.k) == 2 and isinstance(r, ExactResult):
                    expected.append((i, "symmetry", f"z=({z.h.coords()},{z.k})"))
                if z.k == 2 and isinstance(r, ExactResult) and r.value + 1 > 1:
                    expected.append((i, "cap", f"z=({z.h.coords()},{z.k})"))
        assert {i for i, _, _ in expected} & set(range(1936, 2000))
        self.perturb(monkeypatch, lambda x: x.k == 2)
        report = verify_norm_axioms(quarter_table, 2000, seed=0)
        got = [(v.sample_index, v.check, v.inputs) for v in report.violations
               if v.check in ("symmetry", "cap")]
        assert got == expected

    def test_extension_violations_repeat_with_the_stream(self, monkeypatch, quarter_table):
        # With k_range=0 the 4000-sample stream repeats after 4000 // 2 + 1.
        target = enumerate_h(Z, 5)
        self.perturb(monkeypatch, lambda x: x.h == target)
        report = verify_extension(quarter_table, 4000, seed=0)
        assert [(v.sample_index, v.check, v.inputs, v.expected, v.got)
                for v in report.violations] == [
            (i, "extension-value", "h=(-2,)", "1/2", "3/2") for i in (4, 2005)
        ]

    def test_extension_evaluates_each_distinct_element_once(self, monkeypatch, lattice_table):
        calls = self.count_calls(monkeypatch)
        assert verify_extension(lattice_table, 4000, seed=0).passed
        assert len(calls) == len(set(calls)) == 4000 // 2 + 1

    @pytest.mark.parametrize("torsion", [False, True], ids=["Z2", "Z5"])
    def test_axioms_evaluate_each_distinct_element_once(self, monkeypatch, lattice_table,
                                                        torsion):
        # Once per distinct element of {x, -x, y, -y, x + y}, plus the
        # separate zero check.  On Z/5, -z and x + y leave the pool's
        # coordinate range and meet it again only once reduced mod 5.
        table = build_anchor_table(Z5, CyclicScaled(), 30) if torsion else lattice_table
        distinct = {z for x, y in sample_pairs(table.descriptor, 2000, seed=0)
                    for z in (x, -x, y, -y, x + y)}
        calls = self.count_calls(monkeypatch)
        assert verify_norm_axioms(table, 2000, seed=0).passed
        assert len(calls) == len(distinct) + 1
        assert set(calls) == distinct


class TestDensitySuite:
    def test_passes(self, quarter_table):
        report = verify_density(quarter_table, 5, 5)
        assert report.passed
        assert report.samples == 25

    def test_rank_two(self, lattice_table):
        report = verify_density(lattice_table, 3, 3)
        assert report.passed

    def test_precision_one_vacuous(self, quarter_table):
        report = verify_density(quarter_table, 3, 1)
        assert report.passed

    def test_shallow_table_rejected(self, unit_table):
        with pytest.raises(ExtendTableError) as err:
            verify_density(unit_table, 5, 5)
        assert err.value.required_depth == 41

    def test_witness_above_its_bound_is_reported(self, monkeypatch, quarter_table):
        # Demand (2, 2), the fifth of the 3 x 3 box, certified at 1 > 1/2.
        witness = verification.density_witness

        def raised(table, m, j, *args):
            found = witness(table, m, j, *args)
            if (m, j) != (2, 2):
                return found
            return replace(found, certificate=replace(found.certificate, value=Fraction(1)))

        monkeypatch.setattr(verification, "density_witness", raised)
        report = verify_density(quarter_table, 3, 3)
        assert [(v.sample_index, v.check, v.inputs, v.expected, v.got)
                for v in report.violations] == [
            (5, "density", "target=2 precision=2", "<= 1/2", "exact 1")
        ]

    def test_demands_numbered_from_one_target_major(self):
        # Anchor 5 serves (target 2, precision 2), the fifth demand of the
        # 3 x 3 box; declaring it at precision 1 breaks exactly that demand.
        table = build_anchor_table(Z, CappedWeightedL1(weights=(Fraction(1, 4),)), 20)
        bad = tampered(table, precision_index={5: 1})
        report = verify_density(bad, 3, 3)
        assert [(v.sample_index, v.inputs) for v in report.violations] == [
            (5, "target=2 precision=2")
        ]


class TestTruncationSuite:
    def test_passes(self, quarter_table):
        report = verify_truncation(quarter_table, 60, seed=42)
        assert report.passed

    def test_cheap_last_anchor_fails_the_table_invariant(self, unit_table):
        depth = unit_table.depth
        bad = tampered(unit_table, power={depth: 2})
        report = verify_norm_axioms(bad, 60, seed=42)
        assert [v.inputs for v in report.violations if v.check == "table-invariant"] == [
            f"anchor {depth}: power 2 != {unit_table.anchor(depth).power}",
            f"anchor {depth}: growth law violated against anchor {depth - 1}",
        ]

    def test_torsion_table(self):
        table = build_anchor_table(Z6, CyclicScaled(), 12)
        report = verify_truncation(table, 30, seed=2)
        assert report.passed

    def test_anchor_given_its_predecessors_power_fails_the_table_invariant(self):
        table = build_anchor_table(Z, CappedWeightedL1(weights=(Fraction(1, 4),)), 30)
        bad = tampered(table, power={20: table.anchor(19).power})
        report = verify_norm_axioms(bad, 200, seed=42)
        assert [v.inputs for v in report.violations if v.check == "table-invariant"] == [
            f"anchor 20: power {table.anchor(19).power} != {table.anchor(20).power}",
            "anchor 20: growth law violated against anchor 19",
        ]

    def test_truncated_value_below_the_certified_one_breaks_stabilization(
            self, monkeypatch):
        # h = +-4 at k = 0 given 5/6 at the full depth, below its certified 1,
        # as a search through two anchors of equal power would find.
        table = build_anchor_table(Z, CappedWeightedL1(weights=(Fraction(1, 4),)), 30)
        truncated = verification.truncated_values

        def lowered(table, x, levels):
            return [Fraction(5, 6) if x.k == 0 and abs(x.h.free[0]) == 4
                    and level == table.depth else value
                    for level, value in zip(levels, truncated(table, x, levels))]

        monkeypatch.setattr(verification, "truncated_values", lowered)
        report = verify_truncation(table, 200, seed=42)
        assert [(v.sample_index, v.check, v.inputs, v.expected, v.got)
                for v in report.violations] == [
            (40, "truncation-stabilized", "x=((4,),0) N=30", "1", "5/6"),
            (51, "truncation-stabilized", "x=((-4,),0) N=30", "1", "5/6"),
        ]

    def test_rising_truncated_value_breaks_monotonicity(self, monkeypatch, quarter_table):
        # Every sample's probes end at the table depth, where the value rises.
        truncated = verification.truncated_values

        def raised(table, x, levels):
            return [value + 1 if level == table.depth else value
                    for level, value in zip(levels, truncated(table, x, levels))]

        monkeypatch.setattr(verification, "truncated_values", raised)
        report = verify_truncation(quarter_table, 20, seed=42)
        monotone = [v for v in report.violations if v.check == "truncation-monotone"]
        assert [v.sample_index for v in monotone] == list(range(20))
        assert all(v.inputs.endswith(f"->{quarter_table.depth}") for v in monotone)

    def test_truncated_value_at_the_interval_bound_is_reported(self, monkeypatch, quarter_table):
        # Clamping truncated values to the budget 1023/1024 keeps them
        # non-increasing and leaves exact values (at most the budget) alone,
        # but puts every probe of an interval sample on its lower bound.
        budget = Fraction(1023, 1024)
        truncated = verification.truncated_values
        monkeypatch.setattr(verification, "truncated_values",
                            lambda table, x, levels: [min(budget, value)
                                                      for value in truncated(table, x, levels)])
        intervals = {i for i, x in enumerate(sample_elements(Z, 20, seed=42))
                     if not isinstance(evaluate(quarter_table, x), ExactResult)}
        assert intervals
        report = verify_truncation(quarter_table, 20, seed=42)
        assert {v.sample_index for v in report.violations} == intervals
        assert {(v.check, v.expected, v.got) for v in report.violations} == {
            ("truncation-interval", f"> {budget}", str(budget))
        }

    def test_interval_probe_below_the_bound_is_reported_when_values_rise(
            self, monkeypatch, quarter_table):
        # Zero at level 1 puts a probe of every interval sample on its bound,
        # and the next probe rises from it, so the last probe stays above.
        truncated = verification.truncated_values
        monkeypatch.setattr(verification, "truncated_values",
                            lambda table, x, levels: [Fraction(0) if level == 1 else value
                                                      for level, value
                                                      in zip(levels, truncated(table, x, levels))])
        intervals = {i for i, x in enumerate(sample_elements(Z, 20, seed=42))
                     if not isinstance(evaluate(quarter_table, x), ExactResult)}
        assert intervals
        report = verify_truncation(quarter_table, 20, seed=42)
        assert {v.sample_index for v in report.violations
                if v.check == "truncation-interval"} == intervals
        assert all(v.inputs.endswith("N=1") and v.got == "0" for v in report.violations
                   if v.check == "truncation-interval")

    def test_levels_come_from_the_results(self, lattice_table):
        # Interval results carry their level too: truncation_index runs only
        # inside evaluate, once per sample with a nonzero c-power.  Calls are
        # matched by code object, so no import alias escapes the count.
        code = evaluator.truncation_index.__code__
        callers = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is code:
                callers.append(frame.f_back.f_code.co_name)

        sys.setprofile(profile)
        try:
            report = verify_truncation(lattice_table, 200, seed=7)
        finally:
            sys.setprofile(None)
        assert report.passed
        assert set(callers) == {"evaluate"}
        assert len(callers) == sum(x.k != 0 for x in sample_elements(Z2, 200, seed=7))


class TestReportSerialization:
    def test_stable_json_excludes_timing(self, quarter_table):
        report = verify_extension(quarter_table, 20, seed=8)
        assert "wall_time_ms" not in suite_report_to_json(report)
