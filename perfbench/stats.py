"""Order statistics and the output digest gate."""

from __future__ import annotations

import hashlib
import math

# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0)


def median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def _rank(n: int, p: float) -> int:
    # Rounding first keeps 99.9% of 10000 at rank 9990 despite binary fractions.
    return max(1, math.ceil(round(p * n / 100, 9)))


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with p% of samples at or below it."""
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def beyond(n: int, p: float) -> int:
    """Samples strictly above the nearest-rank p-th percentile of n samples."""
    return n - _rank(n, p)


def tail_percentile(values: list[float], p: float | None = None) -> tuple[float, float] | None:
    """(p, value) for the highest percentile with at least ten samples beyond it.

    With ``p`` given, only that percentile is considered.  None when the
    sample is too small for any candidate.
    """
    for candidate in (p,) if p is not None else TAIL_PERCENTILES:
        if beyond(len(values), candidate) >= 10:
            return candidate, percentile(values, candidate)
    return None


class Digest:
    """Order-sensitive sha256 over labelled outputs."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, label: str, text: str, extra: bytes | None = None) -> None:
        for part in (label.encode(), text.encode(), extra or b""):
            self._hash.update(len(part).to_bytes(8, "big"))
            self._hash.update(part)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


class OutputDigest:
    """Digest of every output, and one of the outputs that no seed changes."""

    def __init__(self) -> None:
        self.all = Digest()
        self.seedless = Digest()

    def add(self, label: str, text: str, extra: bytes | None, seedless: bool) -> None:
        self.all.add(label, text, extra)
        if seedless:
            self.seedless.add(label, text, extra)

    def value(self) -> dict[str, str]:
        return {"all": self.all.hexdigest(), "seedless": self.seedless.hexdigest()}


def digest_problems(pinned: dict, workload: str, seed: int, value: dict[str, str]) -> list[str]:
    """Mismatches against the pinned digests.

    ``pinned["digests"]`` holds whole-output digests for ``pinned["seed"]``
    only; other seeds rely on the determinism rerun and the witness checks.
    ``pinned["seedless"]`` holds, for any seed, the digest of the outputs
    whose inputs do not depend on the seed.
    """
    problems = []
    expected = pinned.get("digests", {}).get(workload)
    if seed == pinned.get("seed") and expected is not None and value["all"] != expected:
        problems.append(f"output digest {value['all']} differs from the pinned {expected}")
    expected = pinned.get("seedless", {}).get(workload)
    if expected is not None and value["seedless"] != expected:
        problems.append(
            f"seed-independent output digest {value['seedless']} differs from the pinned {expected}")
    return problems
