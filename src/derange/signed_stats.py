"""Signed-model statistics layered on top of the unsigned cycle laws.

Each circle of size k carries an orientation pattern; the number of
in-looking members of a k-circle is i with probability omega_{ki},
independently across circles given the cycle counts.  From the omega
weights and the unsigned laws (exact or formula-based) this module derives
the laws and moments of the oriented counts: C_{ki} (k-circles with i
looking in), C*_j (circles with j looking in), Lambda_n (total looking
in), and A*_i (in-looking counts of the circles in formation order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coupling import ordered_cycle_prefix_prob
from .dist import DistTable
from .params import ThetaSequence


def _log_factorials(m: int) -> np.ndarray:
    """log k! = math.lgamma(k + 1) for k = 0..m."""
    return np.fromiter(map(math.lgamma, range(1, m + 2)), float, m + 1)


def _binom_pmf(s, m: int, kappa: float, log_fact: np.ndarray | None = None):
    """Binomial(m, kappa) probability of s successes (s an int or an int
    array), in log space: the coefficient overflows a float from m ~ 1030.
    ``log_fact`` is ``_log_factorials(m')`` for some m' >= m; without it a
    scalar s takes its three log factorials from math.lgamma and an array
    s tabulates them once.  0 log 0 counts as 0, so kappa = 0 and 1 give
    point masses."""
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

    def __call__(self, k: int, i: int) -> float:
        return omega(k, i, self)


def omega(k: int, i: int, weights: OrientationWeights) -> float:
    """Probability that a k-circle has exactly i members looking in."""
    if not (1 <= i <= k):
        raise ValueError(f"require 1 <= i <= k, got i={i}, k={k}")
    if weights.mode == "binomial":
        return float(_binom_pmf(i - 1, k - 1, weights.kappa))
    lookup = dict(weights.table)
    return lookup.get((k, i), 0.0)


def cki_distribution(k: int, i: int, ell: int, n: int, k_law: DistTable,
                     weights: OrientationWeights) -> float:
    """P(C_{ki} = ell): number of k-circles with exactly i looking in,
    given the exact law of the k-circle count."""
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    if k * ell > n:
        return 0.0
    w = omega(k, i, weights)
    return math.fsum(_binom_pmf(ell, m, w) * pm for m, pm in k_law.items() if m >= ell)


def cstar_moments(i: int, j: int, n: int, provider,
                  weights: OrientationWeights) -> tuple[float, float]:
    """(E[C*_j], Cov(C*_i, C*_j)) for the counts of circles with exactly
    i or j members looking in.

    ``provider`` supplies the unsigned moments: ``provider.mean(k)`` =
    E[C_k] and ``provider.cov(k, kp)`` = Cov(C_k, C_kp), for k, kp <= n.
    """
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("require 1 <= i, j <= n")
    mean_j = math.fsum(
        omega(k, j, weights) * provider.mean(k) for k in range(j, n + 1)
    )
    cov_terms = []
    for k in range(i, n + 1):
        w_ki = omega(k, i, weights)
        if w_ki == 0.0:
            continue
        for kp in range(j, n + 1):
            w_kj = omega(kp, j, weights)
            if w_kj == 0.0:
                continue
            cov_terms.append(w_ki * w_kj * provider.cov(k, kp))
    for k in range(max(i, j), n + 1):
        cov_terms.append(-omega(k, i, weights) * omega(k, j, weights) * provider.mean(k))
    if i == j:
        # diagonal of the conditional multinomial covariance is the binomial
        # variance C_k w(1-w), not -C_k w^2; the extra C_k w part lands here
        for k in range(j, n + 1):
            cov_terms.append(omega(k, j, weights) * provider.mean(k))
    return mean_j, math.fsum(cov_terms)


def lambda_total(n: int, kappa: float, k_law: DistTable) -> tuple[DistTable, float]:
    """(law, mean) of Lambda_n, the total number looking in: each circle
    leader looks in, every other member independently with probability
    kappa."""
    if not (0.0 <= kappa <= 1.0):
        raise ValueError("kappa must lie in [0, 1]")
    probs = np.zeros(n + 1)
    log_fact = _log_factorials(n)
    for k, pk in k_law.items():
        # Lambda_n - k ~ Binomial(n - k, kappa)
        probs[k:] += _binom_pmf(np.arange(n - k + 1), n - k, kappa, log_fact) * pk
    law = DistTable({r: v for r, v in enumerate(probs.tolist()) if v > 0.0}, tol=1e-10)
    return law, law.mean()


def lambda_mean_identity(n: int, kappa: float, mean_k: float) -> float:
    """E[Lambda_n] = n kappa + (1 - kappa) E[K_n]."""
    return n * kappa + (1.0 - kappa) * mean_k


def ordered_star_prob(astar, n: int, thetaseq: ThetaSequence,
                      weights: OrientationWeights) -> float:
    """P(A*_1 = a*_1, ..., A*_k = a*_k, K_n > k): joint in-looking counts
    of the first k circles in formation order, for the coin process."""
    astar = tuple(int(a) for a in astar)
    if any(a < 1 for a in astar):
        raise ValueError("in-looking counts must be >= 1 (leaders look in)")
    if sum(astar) >= n:
        raise ValueError("sum of in-looking counts must be < n")
    k = len(astar)
    total = []

    def rec(pos: int, used: int, r_prefix: tuple):
        if pos == k:
            total.append(
                ordered_cycle_prefix_prob(r_prefix, n, thetaseq)
                * math.prod(omega(r_prefix[l], astar[l], weights) for l in range(k))
            )
            return
        min_rest = sum(astar[pos + 1:])
        for r in range(astar[pos], n - used - min_rest):
            rec(pos + 1, used + r, r_prefix + (r,))

    rec(0, 0, ())
    return math.fsum(total)
