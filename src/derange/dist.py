"""Finite probability tables and comparisons between them."""

from __future__ import annotations

import math
from dataclasses import dataclass


class DistTable:
    """A finite outcome -> probability mapping, normalized within tolerance.

    The table takes ownership of the dict it is given, without a copy: the
    caller must not change it afterwards.
    """

    def __init__(self, probs: dict, tol: float = 1e-9):
        self.probs = probs
        total = math.fsum(probs.values())
        if abs(total - 1.0) > tol:
            raise ValueError(f"probabilities sum to {total}, not 1")
        if any(v < -tol for v in probs.values()):
            raise ValueError("negative probability in table")

    def __getitem__(self, outcome):
        return self.probs.get(outcome, 0.0)

    def __len__(self):
        return len(self.probs)

    def __iter__(self):
        return iter(self.probs)

    def items(self):
        return self.probs.items()

    def support(self):
        return [k for k, v in self.probs.items() if v > 0.0]

    def total(self) -> float:
        return math.fsum(self.probs.values())

    def mean(self) -> float:
        return math.fsum(k * v for k, v in self.probs.items())

    def variance(self) -> float:
        m = self.mean()
        return math.fsum((k - m) ** 2 * v for k, v in self.probs.items())


@dataclass
class LawPair:
    """Two tables over a common (zero-extended) outcome space, compared."""

    tv: float
    max_gap: float


def compare_laws(a: DistTable, b: DistTable) -> LawPair:
    """Total variation distance and the largest pointwise gap."""
    gaps = [abs(a[k] - b[k]) for k in set(a.probs) | set(b.probs)]
    return LawPair(tv=0.5 * math.fsum(gaps), max_gap=max(gaps, default=0.0))
