"""Signed-model statistics layered on top of the unsigned cycle laws.

Each circle of size k carries an orientation pattern; the number of
in-looking members of a k-circle is i with probability omega_{ki},
independently across circles given the cycle counts.  From the omega
weights and the unsigned laws and moments, passed in as a law, an
orientation probability kappa or arrays, this module derives the laws
and moments of the oriented counts: C_{ki} (k-circles with i looking in),
C*_j (circles with j looking in), Lambda_n (total looking in), and A*_i
(in-looking counts of the circles in formation order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chains import ChainKind
from .dist import DistTable
from .numerics import NumericsError


def _log_factorials(m: int) -> np.ndarray:
    """log k! = math.lgamma(k + 1) for k = 0..m."""
    return np.fromiter(map(math.lgamma, range(1, m + 2)), float, m + 1)


def _binom_pmf(s, m: int, kappa: float, log_fact: np.ndarray | None = None):
    """Binomial(m, kappa) probability of s successes (s an int or an int
    array), in log space: the coefficient overflows a float from m ~ 1030.
    ``log_fact`` is ``_log_factorials(m')`` for some m' >= m; without it a
    scalar s takes its three log factorials from math.lgamma and an array
    s tabulates them once; with ``log_fact``, m may be an array too.  0 log 0
    counts as 0, so kappa = 0 and 1 give point masses."""
    s = np.asarray(s)
    if log_fact is None and not s.ndim:
        log_choose = math.lgamma(m + 1) - math.lgamma(s + 1) - math.lgamma(m - s + 1)
    else:
        if log_fact is None:
            log_fact = _log_factorials(m)
        log_choose = log_fact[m] - log_fact[s] - log_fact[m - s]
    log_in = math.log(kappa) if kappa > 0.0 else -math.inf
    log_out = math.log1p(-kappa) if kappa < 1.0 else -math.inf
    with np.errstate(invalid="ignore"):  # 0 * -inf, replaced by 0
        return np.exp(log_choose + np.where(s == 0, 0.0, s * log_in)
                      + np.where(s == m, 0.0, (m - s) * log_out))


@dataclass(frozen=True)
class OrientationWeights:
    """Per-circle orientation weights omega_{ki}, 1 <= i <= k.

    The binomial mode has the leader always looking in and every other
    member looking in independently with probability kappa; the custom
    mode takes an explicit table {(k, i): weight} with unit row sums.
    """

    mode: str
    kappa: float | None = None
    table: tuple | None = None

    @classmethod
    def binomial(cls, kappa: float) -> "OrientationWeights":
        if not (0.0 <= kappa <= 1.0):
            raise ValueError("kappa must lie in [0, 1]")
        return cls(mode="binomial", kappa=kappa)

    @classmethod
    def from_table(cls, table: dict, tol: float = 1e-9) -> "OrientationWeights":
        rows: dict = {}
        for (k, i), w in table.items():
            if not (1 <= i <= k):
                raise ValueError(f"weight index ({k}, {i}) outside 1 <= i <= k")
            if w < 0:
                raise ValueError("weights must be nonnegative")
            rows.setdefault(k, 0.0)
            rows[k] += w
        for k, s in rows.items():
            if abs(s - 1.0) > tol:
                raise ValueError(f"row k={k} sums to {s}, not 1")
        return cls(mode="custom", table=tuple(sorted(table.items())))


def omega(k: int, i: int, weights: OrientationWeights) -> float:
    """Probability that a k-circle has exactly i members looking in."""
    if not (1 <= i <= k):
        raise ValueError(f"require 1 <= i <= k, got i={i}, k={k}")
    if weights.mode == "binomial":
        return float(_binom_pmf(i - 1, k - 1, weights.kappa))
    lookup = dict(weights.table)
    return lookup.get((k, i), 0.0)


def _check_k_law(k_law: DistTable, n: int) -> None:
    """Raise ValueError unless k_law is an integer law (``n`` None) of counts in 0..n."""
    if k_law.n is not None:
        raise ValueError(f"k_law must be an integer law, not one on words of length {k_law.n}")
    if k_law.codes.size and not 0 <= k_law.codes[0] <= k_law.codes[-1] <= n:
        raise ValueError(f"k_law has counts {k_law.codes[0]}..{k_law.codes[-1]} outside 0..{n}")


def cki_distribution(k: int, i: int, ell: int, n: int, k_law: DistTable,
                     weights: OrientationWeights) -> float:
    """P(C_{ki} = ell): number of k-circles with exactly i looking in,
    given the exact law of the k-circle count."""
    _check_k_law(k_law, n)
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    if k * ell > n:
        return 0.0
    w = omega(k, i, weights)
    return math.fsum(_binom_pmf(ell, m, w) * pm
                     for m, pm in zip(k_law.codes.tolist(), k_law.prob.tolist()) if m >= ell)


def _omega_column(i: int, n: int, weights: OrientationWeights) -> np.ndarray:
    """omega_{ki} for k = 0..n as an array, 0 for k < i: the entries of
    ``omega``, read at once."""
    col = np.zeros(n + 1)
    if weights.mode == "binomial":
        if i <= n:
            col[i:] = _binom_pmf(i - 1, np.arange(i - 1, n), weights.kappa,
                                 _log_factorials(n))
        return col
    for (k, ki), w in weights.table:
        if ki == i and k <= n:
            col[k] = w
    return col


def cstar_moments(i: int, j: int, mean_c, cov_c,
                  weights: OrientationWeights) -> tuple[float, float]:
    """(E[C*_j], Cov(C*_i, C*_j)) for the counts of circles with exactly
    i or j members looking in.

    ``mean_c[k]`` = E[C_k] and ``cov_c[k][kp]`` = Cov(C_k, C_kp) are the
    unsigned cycle-count moments for k, kp = 0..n (as in
    ``oracle.enumeration_moments``); n is read from their length.
    """
    mean_c, cov_c = np.asarray(mean_c, dtype=float), np.asarray(cov_c, dtype=float)
    n = mean_c.size - 1
    if mean_c.ndim != 1 or cov_c.shape != (n + 1, n + 1):
        raise ValueError(f"cov_c has shape {cov_c.shape}, not ({n + 1}, {n + 1}) "
                         f"for {n + 1} means")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("require 1 <= i, j <= n")
    w_i, w_j = _omega_column(i, n, weights), _omega_column(j, n, weights)
    mean_terms = w_j[j:] * mean_c[j:]
    top = max(i, j)
    cov_terms = [(np.outer(w_i[i:], w_j[j:]) * cov_c[i:, j:]).ravel(),
                 -w_i[top:] * w_j[top:] * mean_c[top:]]
    if i == j:
        # diagonal of the conditional multinomial covariance is the binomial
        # variance C_k w(1-w), not -C_k w^2; the extra C_k w part lands here
        cov_terms.append(mean_terms)
    return math.fsum(mean_terms.tolist()), math.fsum(np.concatenate(cov_terms).tolist())


def lambda_total(n: int, kappa: float, k_law: DistTable) -> tuple[DistTable, float]:
    """(law, mean) of Lambda_n, the total number looking in: each circle
    leader looks in, every other member independently with probability
    kappa."""
    if not (0.0 <= kappa <= 1.0):
        raise ValueError("kappa must lie in [0, 1]")
    _check_k_law(k_law, n)
    probs = np.zeros(n + 1)
    log_fact = _log_factorials(n)
    for k, pk in zip(k_law.codes.tolist(), k_law.prob.tolist()):
        # Lambda_n - k ~ Binomial(n - k, kappa)
        probs[k:] += _binom_pmf(np.arange(n - k + 1), n - k, kappa, log_fact) * pk
    keep = np.flatnonzero(probs > 0.0)
    law = DistTable(keep, probs[keep], tol=1e-10)
    return law, law.mean()


def lambda_mean_identity(n: int, kappa: float, mean_k: float) -> float:
    """E[Lambda_n] = n kappa + (1 - kappa) E[K_n]."""
    return n * kappa + (1.0 - kappa) * mean_k


def ordered_star_prob(kind: ChainKind, astar, n: int, weights: OrientationWeights) -> float:
    """P(A*_1 = a*_1, ..., A*_k = a*_k, K_n > k): joint in-looking counts
    of the first k circles in formation order, for a chain kind.

    A DP over b, the indices the circles so far take from the top, on the
    kind's rows (``coupling.ordered_cycle_prefix_prob``'s factors): they
    tile the top b indices, so stay_n ... stay_{n+1-b} is applied once at
    the end, and a circle on a+1..b weighs omega_{b-a,a*} h_s/stay_s,
    s = n + 1 - b; under a gap also 1/stay_{n-a} for its top index, held
    at 0, with no 1-circles and 2 indices left below.  A step is one
    convolution with an omega column: O(k n^2) time, O(n) memory.  A sum
    past the float range (theta near it) raises NumericsError.
    """
    astar = tuple(int(a) for a in astar)
    if any(a < 1 for a in astar):
        raise ValueError("in-looking counts must be >= 1 (leaders look in)")
    if sum(astar) >= n:
        raise ValueError("sum of in-looking counts must be < n")
    stay, h = kind.rows(n)
    # b = 0..size-1 indices taken, leaving 1 + gap or more; index s = n+1-b
    size = n - kind.gap
    s = np.arange(n, kind.gap + 1, -1)
    with np.errstate(all="ignore"):  # a sum past the float range is refused below
        top = np.cumprod(np.concatenate(([1.0], stay[s])))
        close = np.concatenate(([0.0], h[s] / stay[s]))
        start = 1.0 / stay[n:n - size:-1] if kind.gap else 1.0
        f = np.zeros(size)
        f[0] = 1.0
        for a in astar:
            col = _omega_column(a, n, weights)
            if kind.gap:
                col[1] = 0.0  # no 1-cycles
            f = close * np.convolve(f * start, col)[:size]
        total = math.fsum((top * f).tolist())
    if not math.isfinite(total):
        raise NumericsError(f"the ordered in-look law at n = {n} is {total!r}")
    return total
