"""Exception types shared across the package."""

from __future__ import annotations


class ShapeError(ValueError):
    """Operands do not conform to the same group descriptor or norm shape."""


class DomainError(ValueError):
    """Argument outside an operation's domain (an index < 1, a bad epsilon, ...)."""


class ExtendTableError(Exception):
    """The anchor table is too shallow to answer the query with a certificate.

    ``required_depth`` is the table depth that would make the query answerable;
    callers can rebuild at that depth and retry.
    """

    def __init__(self, required_depth: int):
        self.required_depth = required_depth
        super().__init__(f"anchor table too shallow; extend to depth {required_depth}")


class TableFormatError(ValueError):
    """A persisted table failed version or structural validation."""


class CorruptedTableError(TableFormatError):
    """A persisted table's stored digest does not match its header."""


class HypothesisNotMetError(ValueError):
    """Inputs fail the strict hypothesis of an infeasibility certificate."""
