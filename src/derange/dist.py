"""Finite probability tables and comparisons between them."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def _check(total: float, least: float, tol: float) -> None:
    if abs(total - 1.0) > tol:
        raise ValueError(f"probabilities sum to {total}, not 1")
    if least < -tol:
        raise ValueError("negative probability in table")


def _word_code(word) -> int:
    """The integer code of a 0/1 word: bit i - 1 is w_i."""
    code = 0
    for i, bit in enumerate(word):
        if bit not in (0, 1):
            raise ValueError(f"word {word!r} is not a 0/1 word")
        code |= bit << i
    return code


def word_tuples(codes: np.ndarray, n: int) -> list:
    """The 0/1 words of length n with the given codes, as tuples."""
    return list(map(tuple, ((codes[:, None] >> np.arange(n)) & 1).tolist()))


class DistTable:
    """A finite outcome -> probability mapping, normalized within tolerance.

    Outcomes are integers or 0/1 words (tuples) of one length.  The table
    takes ownership of the dict it is given, without a copy: the caller
    must not change it afterwards.
    """

    def __init__(self, probs: dict, tol: float = 1e-9):
        self.probs = probs
        _check(self.total(), min(probs.values(), default=0.0), tol)

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

    def coded(self) -> tuple:
        """(word length, or None for integer outcomes; the outcomes' integer
        codes; their probabilities).  An integer is its own code and a word
        has the code of ``WordLaw``."""
        lengths = {len(k) if isinstance(k, tuple) else None for k in self.probs}
        if len(lengths) > 1:
            raise ValueError("outcomes must be integers or 0/1 words of one length")
        length = lengths.pop() if lengths else None
        code = operator.index if length is None else _word_code
        return (length, np.array([code(k) for k in self.probs], dtype=np.int64),
                np.array(list(self.probs.values()), dtype=float))


class WordLaw(DistTable):
    """A law on the 0/1 words of length n, held as ascending integer codes
    (bit i - 1 is w_i) and a float64 array of their probabilities.  The
    tuple-keyed dict behind ``law[w]``, ``items()`` and ``support()`` is
    built on first use."""

    def __init__(self, n: int, codes: np.ndarray, prob: np.ndarray, tol: float = 1e-9):
        self.n, self.codes, self.prob = n, codes, prob
        _check(self.total(), float(prob.min(initial=0.0)), tol)

    @cached_property
    def probs(self) -> dict:
        return dict(zip(word_tuples(self.codes, self.n), self.prob.tolist()))

    def __len__(self):
        return self.codes.size

    def total(self) -> float:
        return math.fsum(self.prob.tolist())

    def coded(self) -> tuple:
        return self.n, self.codes, self.prob


@dataclass
class LawPair:
    """Two tables over a common (zero-extended) outcome space, compared."""

    tv: float
    max_gap: float


def compare_laws(a: DistTable, b: DistTable) -> LawPair:
    """Total variation distance and the largest pointwise gap, over the
    union of the two supports: both tables' codes are merged into one
    ascending array, and each table's probabilities are placed on it."""
    (len_a, codes_a, prob_a), (len_b, codes_b, prob_b) = a.coded(), b.coded()
    if len_a != len_b and codes_a.size and codes_b.size:
        what = lambda n: "integers" if n is None else f"words of length {n}"
        raise ValueError(f"cannot compare a law on {what(len_a)} with one on {what(len_b)}")
    keys = np.union1d(codes_a, codes_b)
    gaps = np.zeros(keys.size)
    gaps[np.searchsorted(keys, codes_a)] = prob_a
    gaps[np.searchsorted(keys, codes_b)] -= prob_b
    np.abs(gaps, out=gaps)
    return LawPair(tv=0.5 * math.fsum(gaps.tolist()), max_gap=float(gaps.max(initial=0.0)))
