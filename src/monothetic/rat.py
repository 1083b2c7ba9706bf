"""Canonical wire format for exact rationals.

Every numeric value that crosses a process boundary is a string ``"p/q"``
in lowest terms with q > 0; nothing is ever serialized as a float.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def format_fraction(value: Fraction) -> str:
    """Render ``value`` as ``"p/q"`` (always with an explicit denominator)."""
    return f"{value.numerator}/{value.denominator}"


# ASCII digits only, at most the 4300 that int() reads from a string: int() alone
# would also take spaces, "_", "+" and other scripts' digits.
_RATIONAL = re.compile(r"(-?[0-9]{1,4300})(?:/([0-9]{1,4300}))?")


def _quoted(text) -> str:
    """``repr(text)``, or for a long input its first characters and its length."""
    shown = repr(text)
    if len(shown) <= 48:
        return shown
    return f"{shown[:32]}... ({len(str(text))} characters)"


def parse_fraction(text: str) -> Fraction:
    """Parse ``"p/q"`` or a bare integer ``"p"`` into an exact Fraction.

    p is ASCII digits with an optional leading ``-``, q is ASCII digits and
    positive, at most 4300 digits each; nothing else, not even whitespace, is
    accepted.  ``"2/4"`` is read as 1/2.  Where the interpreter's
    int-from-string limit is set lower (``PYTHONINTMAXSTRDIGITS``), a part
    with more digits than it is refused here, before ``int()`` sees it.
    """
    match = _RATIONAL.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise ValueError(f"malformed rational {_quoted(text)}: expected \"p/q\" or \"p\"")
    limit = sys.get_int_max_str_digits()
    if limit and max(len(match[1].lstrip("-")), len(match[2] or "")) > limit:
        raise ValueError(
            f"rational {_quoted(text)} has a part of more than {limit} digits, "
            "this interpreter's int-from-string limit"
        )
    num, den = int(match[1]), int(match[2] or 1)
    if den == 0:
        raise ValueError(f"denominator must be positive in {_quoted(text)}")
    return Fraction(num, den)
