"""Infeasibility certificates for the unbounded sum norm on the rank-two lattice."""

import contextlib
import io
import os
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from monothetic import (
    DomainError,
    HypothesisNotMetError,
    counterexample_certificate,
    counterexample_scan,
)
from monothetic import counterexample
from monothetic.cli import main
from monothetic.counterexample import _EXPECTED, _FIRST, _SECOND, MAX_GRID, ContradictionReport
from monothetic.serialize import contradiction_to_json, dumps_stable
from oracle import lattice_identity

HALF = Fraction(1, 2)
powers = st.integers(-(10 ** 12), 10 ** 12).filter(bool)
values = st.fractions(0, HALF, max_denominator=10 ** 9).filter(lambda v: 0 < v < HALF)


class TestCertificate:
    def test_symmetric_example(self):
        report = counterexample_certificate(2, 2, Fraction(2, 5), Fraction(2, 5))
        assert report.required_norm == 4
        assert report.implied_bound == Fraction(8, 5)
        # The implied bound sits strictly below half the required norm.
        assert report.implied_bound < Fraction(report.required_norm, 2)
        assert report.margin == Fraction(12, 5)
        assert report.identity_verified

    def test_near_boundary(self):
        report = counterexample_certificate(1, 1, Fraction(49, 100), Fraction(49, 100))
        assert report.implied_bound == Fraction(98, 100)
        assert report.implied_bound < 1 < 2 == report.required_norm

    def test_boundary_rejected(self):
        with pytest.raises(HypothesisNotMetError):
            counterexample_certificate(1, 1, Fraction(1, 2), Fraction(2, 5))
        with pytest.raises(HypothesisNotMetError):
            counterexample_certificate(1, 1, Fraction(2, 5), Fraction(1, 2))
        with pytest.raises(HypothesisNotMetError):
            counterexample_certificate(1, 1, Fraction(0), Fraction(2, 5))

    def test_zero_powers_rejected(self):
        with pytest.raises(DomainError):
            counterexample_certificate(0, 1, Fraction(1, 4), Fraction(1, 4))

    @pytest.mark.parametrize("n", [1, -1, 2, -3, 7, -50, 10 ** 40, -(10 ** 40)])
    @pytest.mark.parametrize("m", [1, -1, 3, -2, 50, -7, 10 ** 25])
    def test_identity_matches_group_elements(self, n, m):
        # The certificate's coefficient form, evaluated at (n, m), against the
        # same identity built from group elements.
        combined, expected = lattice_identity(n, m)
        assert combined == expected
        first, second = at(_FIRST, n, m), at(_SECOND, n, m)
        assert (tuple(a + b for a, b in zip(first, second)), at(_EXPECTED, n, m)) == tuple(
            x.h.coords() + (x.k,) for x in (combined, expected))
        report = counterexample_certificate(n, m, Fraction(1, 3), Fraction(2, 5))
        assert report.identity_verified

    @pytest.mark.parametrize("coordinate", range(3))
    @pytest.mark.parametrize("monomial", range(3))
    def test_wrong_coefficient_fails_both_paths(self, monkeypatch, coordinate, monomial):
        # A planted fault in one coefficient of m*(c^n - e1): both entry
        # points refuse to certify, and the scan prints no cell.
        wrong = [list(row) for row in _FIRST]
        wrong[coordinate][monomial] += 1
        monkeypatch.setattr(counterexample, "_FIRST", tuple(map(tuple, wrong)))
        with pytest.raises(RuntimeError, match="identity"):
            counterexample_certificate(2, 3, Fraction(1, 3), Fraction(2, 5))
        emitted = []
        with pytest.raises(RuntimeError, match="identity"):
            counterexample_scan(4, lambda *row: emitted.append(row))
        assert emitted == []

    def test_negative_powers_allowed(self):
        report = counterexample_certificate(-3, 2, Fraction(1, 4), Fraction(1, 3))
        assert report.required_norm == 5
        assert report.implied_bound == 2 * Fraction(1, 4) + 3 * Fraction(1, 3)

    @given(n=powers, m=powers, v1=values, v2=values)
    def test_matches_fraction_reference(self, n, m, v1, v2):
        # Plain Fraction arithmetic is the reference, at v1 != v2 as well.
        required = abs(m) + abs(n)
        implied = abs(m) * v1 + abs(n) * v2
        assert counterexample_certificate(n, m, v1, v2) == ContradictionReport(
            n=n, m=m, v1=v1, v2=v2, required_norm=required,
            implied_bound=implied, margin=required - implied, identity_verified=True)

    def test_margin_dominates_half_norm(self):
        v = Fraction(99, 200)
        for n in range(1, 8):
            for m in range(1, 8):
                report = counterexample_certificate(n, m, v, v)
                assert report.margin > Fraction(n + m, 2)


def at(form, n, m):
    """A coefficient form's coordinates (e1, e2, c-power) at the cell (n, m)."""
    return tuple(a * m + b * n + c * m * n for a, b, c in form)


def streamed(limit):
    """The scan's summary and every cell's certificate, in the order it emits them."""
    cells = []
    summary = counterexample_scan(limit, lambda n, row: cells.extend(
        replace(report, n=n, m=m) for m, report in enumerate(row, 1)))
    return summary, cells


@pytest.fixture(scope="module")
def lines_path(tmp_path_factory):
    return tmp_path_factory.mktemp("lines") / "certs.jsonl"


def write_grid(limit, out):
    """counterexample --grid limit --out out through cli.main; its exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        return main(["counterexample", "--grid", str(limit), "--out", str(out)])


class TestScan:
    def test_single_cell(self):
        summary = counterexample_scan(1)
        assert summary.certificate_count == 1
        assert summary.all_margins_positive
        # Worst-case value is clamped inside the open hypothesis.
        assert 0 < summary.worst_case_value < Fraction(1, 2)

    def test_grid(self):
        summary, cells = streamed(5)
        assert summary.certificate_count == len(cells) == 25
        assert summary.all_margins_positive
        assert summary.min_margin == min(c.margin for c in cells)

    def test_margins_linear_in_norm(self):
        summary, cells = streamed(6)
        v = summary.worst_case_value
        for cert in cells:
            total = abs(cert.n) + abs(cert.m)
            assert cert.margin == total * (1 - v)

    def test_streamed_cells_match_single_certificates(self):
        summary, cells = streamed(12)
        v = summary.worst_case_value
        assert cells == [
            counterexample_certificate(n, m, v, v) for n in range(1, 13) for m in range(1, 13)]

    @given(limit=st.integers(1, 40))
    @example(limit=1)
    @example(limit=2)
    @example(limit=12)
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    def test_cells_match_single_certificates(self, lines_path, limit):
        # Every line the CLI writes against the single-cell path, in row order.
        assert write_grid(limit, lines_path) == 0
        v = counterexample_scan(limit).worst_case_value
        cells = range(1, limit + 1)
        assert lines_path.read_text().splitlines() == [
            dumps_stable(contradiction_to_json(counterexample_certificate(n, m, v, v)))
            for n in cells for m in cells]

    def test_identity_everywhere(self):
        _, cells = streamed(4)
        assert len(cells) == 16
        assert all(c.identity_verified for c in cells)

    def test_criterion_scale_values(self):
        summary = counterexample_scan(50)
        assert summary.worst_case_value == Fraction(1, 2) - Fraction(1, 2500)
        assert summary.certificate_count == 2500
        assert summary.all_margins_positive

    def test_memory_does_not_grow_with_the_cells(self):
        # One certificate per class n + m, none per cell: 199 at limit 100.
        tracemalloc.start()
        try:
            counterexample_scan(100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    @pytest.mark.parametrize("limit", [1, 2, 7, 50])
    @pytest.mark.parametrize("emit", [None, lambda n, row: None], ids=["bare", "emit"])
    def test_one_identity_check_per_scan(self, monkeypatch, limit, emit):
        # The coefficient check covers every cell, so the scan runs it once,
        # not per class n + m and never per cell.
        calls = []
        check = counterexample._check_identity
        monkeypatch.setattr(counterexample, "_check_identity", lambda: calls.append(check()))
        assert counterexample_scan(limit, emit).certificate_count == limit * limit
        assert len(calls) == 1

    @pytest.mark.parametrize("limit", [0, MAX_GRID + 1])
    def test_bad_limit(self, limit):
        with pytest.raises(DomainError):
            counterexample_scan(limit)


class TestLines:
    def test_largest_grid_is_not_held_in_memory(self, tmp_path):
        # The 41 MB file goes out a row at a time.
        tracemalloc.start()
        try:
            assert write_grid(MAX_GRID, tmp_path / "certs.jsonl") == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
    @pytest.mark.parametrize("limit", [1, 50])
    def test_full_device_exits_two(self, capsys, limit):
        # Grid 1 fails when the file is closed, grid 50 on a row's write.
        assert main(["counterexample", "--grid", str(limit), "--out", "/dev/full"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cannot write /dev/full: No space left on device\n"
