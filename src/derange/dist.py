"""Finite laws, held as arrays, and comparisons between them.

One class, ``DistTable``, holds every law of the library: of the words of
X^n and of the coin process Y, of the cycle counts and of the signed
totals.  Its outcomes are ascending int64 codes with a float64 array of
their probabilities.  An integer outcome is its own code; a 0/1 word of
length n has bit i - 1 set for w_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def word_tuples(codes: np.ndarray, n: int) -> list:
    """The 0/1 words of length n with the given codes, as tuples."""
    return list(map(tuple, ((codes[:, None] >> np.arange(n)) & 1).tolist()))


class DistTable:
    """A finite law: ascending int64 outcome codes ``codes`` and their
    float64 probabilities ``prob``, which must be finite and sum to 1
    within ``tol``.

    ``n`` is None for integer outcomes and the word length for a law on
    0/1 words.  The mapping view behind ``law[x]``, ``items()``,
    ``support()``, ``len`` and iteration is built on first use, keyed by
    int or by word tuple.  ``mean`` and ``variance`` read the codes as
    the outcomes.
    """

    def __init__(self, codes, prob, n: int | None = None, tol: float = 1e-9):
        codes, prob = np.asarray(codes), np.asarray(prob, dtype=float)
        if codes.ndim != 1 or codes.dtype.kind not in "iu" or codes.shape != prob.shape:
            raise ValueError(f"codes must be a 1-D integer array as long as prob, not "
                             f"{codes.dtype} of shape {codes.shape} for {prob.shape}")
        if (codes[1:] <= codes[:-1]).any():
            raise ValueError("codes must be strictly ascending")
        if n is not None and codes.size and not (codes[0] >= 0 and codes[-1] >> n == 0):
            raise ValueError(f"a code in {codes[0]}..{codes[-1]} is not a 0/1 word of length {n}")
        self.codes, self.prob, self.n = codes.astype(np.int64, copy=False), prob, n
        total = self.total()
        if not abs(total - 1.0) <= tol:  # so that a nan or inf total fails too
            raise ValueError(f"probabilities sum to {total}, not 1")
        if prob.min(initial=0.0) < -tol:
            raise ValueError("negative probability in table")

    @cached_property
    def probs(self) -> dict:
        keys = self.codes.tolist() if self.n is None else word_tuples(self.codes, self.n)
        return dict(zip(keys, self.prob.tolist()))

    def __getitem__(self, outcome):
        return self.probs.get(outcome, 0.0)

    def __len__(self):
        return self.codes.size

    def __iter__(self):
        return iter(self.probs)

    def items(self):
        return self.probs.items()

    def support(self):
        return [k for k, v in self.probs.items() if v > 0.0]

    def total(self) -> float:
        return math.fsum(self.prob.tolist())

    def mean(self) -> float:
        return math.fsum((self.codes * self.prob).tolist())

    def variance(self) -> float:
        # float_power calls C pow, as (k - m) ** 2 does on a Python float
        d = np.float_power(self.codes - self.mean(), 2)
        return math.fsum((d * self.prob).tolist())


@dataclass
class LawPair:
    """Two tables over a common (zero-extended) outcome space, compared."""

    tv: float
    max_gap: float


def compare_laws(a: DistTable, b: DistTable) -> LawPair:
    """Total variation distance and the largest pointwise gap, over the
    union of the two supports: both tables' codes are merged into one
    ascending array, and each table's probabilities are placed on it."""
    if a.n != b.n and a.codes.size and b.codes.size:
        what = lambda n: "integers" if n is None else f"words of length {n}"
        raise ValueError(f"cannot compare a law on {what(a.n)} with one on {what(b.n)}")
    keys = np.union1d(a.codes, b.codes)
    gaps = np.zeros(keys.size)
    gaps[np.searchsorted(keys, a.codes)] = a.prob
    gaps[np.searchsorted(keys, b.codes)] -= b.prob
    np.abs(gaps, out=gaps)
    return LawPair(tv=0.5 * math.fsum(gaps.tolist()), max_gap=float(gaps.max(initial=0.0)))
