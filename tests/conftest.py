import sys
from fractions import Fraction

import pytest

from monothetic import (
    CappedLInf,
    CappedWeightedL1,
    GroupDescriptor,
    build_anchor_table,
    k_sequence,
)
from monothetic.construction import MAX_TABLE_DEPTH

Z = GroupDescriptor(free_rank=1)
Z2 = GroupDescriptor(free_rank=2)


@pytest.fixture(scope="session")
def quarter_table():
    """Integers with d = min(1, |x|/4), depth 50."""
    return build_anchor_table(Z, CappedWeightedL1(weights=(Fraction(1, 4),)), 50)


@pytest.fixture(scope="session")
def unit_table():
    """Integers with d = min(1, |x|), depth 12."""
    return build_anchor_table(Z, CappedWeightedL1(weights=(Fraction(1),)), 12)


@pytest.fixture(scope="session")
def linf_table():
    """Integers with d = min(1, |x|/3), depth 50 (max-norm variant)."""
    return build_anchor_table(Z, CappedLInf(scale=Fraction(1, 3)), 50)


@pytest.fixture(scope="session")
def lattice_table():
    """Rank-two lattice with the capped sum norm min(1, |a| + |b|), depth 50."""
    return build_anchor_table(
        Z2, CappedWeightedL1(weights=(Fraction(1), Fraction(1))), 50
    )


@pytest.fixture(scope="module")
def cap_powers():
    """K_1..K_N at the depth cap, the reference for the diagonal jumps (about 40 MB)."""
    return k_sequence(MAX_TABLE_DEPTH)


@pytest.fixture()
def no_k_sequence(monkeypatch):
    """Make ``k_sequence`` raise under every name the package binds it to.

    For paths that must not walk the power sequence: ``build``'s ``k_last``
    and the depth search past a too-shallow table.
    """
    def walked(length):
        raise AssertionError(f"k_sequence({length}) was called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "monothetic" and hasattr(module, "k_sequence"):
            monkeypatch.setattr(module, "k_sequence", walked)
