"""Finite probability tables and comparisons between them."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


class DistTable:
    """A finite outcome -> probability mapping, normalized within tolerance.

    The table takes ownership of the dict it is given, without a copy: the
    caller must not change it afterwards.
    """

    def __init__(self, probs: dict, tol: float = 1e-9, check: bool = True):
        self.probs = probs
        if check:
            total = math.fsum(self.probs.values())
            if abs(total - 1.0) > tol:
                raise ValueError(f"probabilities sum to {total}, not 1")
            if any(v < -tol for v in self.probs.values()):
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

    a: DistTable
    b: DistTable
    tv: float
    max_gap: float
    worst_outcomes: list = field(default_factory=list)


def compare_laws(a: DistTable, b: DistTable, n_worst: int = 5) -> LawPair:
    """Total variation distance plus the largest pointwise gaps."""
    keys = set(a.probs) | set(b.probs)
    gaps = sorted(((abs(a[k] - b[k]), k) for k in keys), reverse=True)
    tv = 0.5 * math.fsum(g for g, _ in gaps)
    max_gap = gaps[0][0] if gaps else 0.0
    worst = [k for g, k in gaps[:n_worst] if g > 0]
    return LawPair(a=a, b=b, tv=tv, max_gap=max_gap, worst_outcomes=worst)
