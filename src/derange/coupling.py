"""Coin-process/derangement-chain coupling machinery.

gamma_n is the probability that the independent-coin word of length n lands
in the no-adjacent-1s set Delta_n; G_i is its companion combinatorial sum,
delta_n the closed-form specialization along the eta_star family.  Also
here: exact laws of the cycle-count total K, the pgf identity, joint cycle
counts, ordered cycle-length prefixes, and the 11-erasing maps that push
the coin law onto the derangement-chain law.

The K law, the pgf and the joint counts take a ``ChainKind`` and read only
its gap: without one it is the coin chain, with its own theta sequence;
with one it is the derangement chain, which is the coin chain for the theta
sequence conditionally linked to p, given Delta_n.
"""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np

from .chains import ChainKind
from .dist import DistTable
from .numerics import NumericsError, beta_fn
from .params import PSequence, ThetaSequence, conditional_theta


def g_values(thetaseq: ThetaSequence, n: int) -> list[float]:
    """G_0..G_n: G_0 = 0, G_1 = G_2 = 1, G_m = G_{m-1} + theta_m/(m-1) G_{m-2}."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    t = thetaseq.values(n).tolist()
    g = [0.0, 1.0, 1.0]
    for m in range(3, n + 1):
        g.append(g[m - 1] + t[m] / (m - 1) * g[m - 2])
    return g[: n + 1]


def _bracket_log_unit(thetaseq: ThetaSequence, n: int) -> float:
    """log of the bracket product with the index-1 factor forced to 1."""
    return thetaseq.bracket_product_log(n) - math.log(thetaseq.theta1)


def gamma_n(thetaseq: ThetaSequence, n: int, method: str = "recursion") -> float:
    """P(coin word of length n has no adjacent 1s and ends in 0)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if method == "recursion":
        if n == 1:
            return 0.0
        # gamma_i = (i-1)/(i-1+theta_i) (gamma_{i-1} + c_{i-1} gamma_{i-2})
        t = thetaseq.values(n).tolist()
        c = thetaseq.coin_probs(n).tolist()
        prev, cur = 0.0, 1.0 / (1.0 + t[2])  # gamma_1, gamma_2
        for i in range(3, n + 1):
            prev, cur = cur, (i - 1) / (i - 1 + t[i]) * (cur + c[i - 1] * prev)
        return cur
    if method == "g_product":
        if n == 1:
            return 0.0
        g = g_values(thetaseq, n)
        return math.exp(
            math.log(g[n - 1]) + math.lgamma(n) - _bracket_log_unit(thetaseq, n)
        )
    if method == "p_product":
        if n == 1:
            return 0.0
        p = PSequence.from_theta_conditional(thetaseq).values(n).tolist()
        out = p[n] / (1.0 + thetaseq.theta2)
        for j in range(2, n):
            out *= p[j] / (p[j] * p[j + 1] + (1.0 - p[j + 1]))
        return out
    raise ValueError(f"unknown method {method!r}")


def delta_roots(theta: float):
    """z_1, z_2 = (3 + theta -/+ sqrt((1-theta)(1+3theta)))/2 (complex pair
    for theta > 1)."""
    disc = (1.0 - theta) * (1.0 + 3.0 * theta)
    root = cmath.sqrt(complex(disc))
    z1 = (3.0 + theta - root) / 2.0
    z2 = (3.0 + theta + root) / 2.0
    if abs(z1.imag) < 1e-300:
        return z1.real, z2.real
    return z1, z2


def delta_n(theta: float, theta2star: float = 1.0, n=None) -> float:
    """Closed form for gamma_n along the eta_star family; n = math.inf gives
    the Beta-function limit."""
    if theta <= 0:
        raise ValueError("theta must be positive")
    if not (0 < theta2star <= 1):
        raise ValueError("theta2star must lie in (0, 1]")
    if n is None:
        raise ValueError("n required (integer or math.inf)")
    if n == math.inf:
        z1, z2 = delta_roots(theta)
        return (theta * theta + theta + 2.0) * beta_fn(z1, z2) / (1.0 + theta2star)
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return 0.0
    if n == 2:
        return 1.0 / (1.0 + theta2star)
    # (n-1)! (theta+2)_(n-3) (theta^2+theta+2) / prod_{k=1}^{n-2} d_k, with
    # d_k = k(k+1) + theta(theta+k), is 2/(theta+2) times the factors
    # (k+1)(k+theta)/d_k = 1 + theta(1-theta)/d_k over k = 2..n-2: summing
    # their log1p keeps the relative error near one ulp at any n
    log_ratio = math.fsum(
        math.log1p(theta * (1.0 - theta) / (k * (k + 1.0) + theta * (theta + k)))
        for k in range(2, n - 1)
    )
    return 2.0 / ((1.0 + theta2star) * (theta + 2.0)) * math.exp(log_ratio)


# ---------------------------------------------------------------------------
# K distributions and the pgf identity

def _coin_theta(kind: ChainKind) -> ThetaSequence:
    """The coin chain's theta sequence: its own without a gap; under a gap,
    the one conditionally linked to p, so that the chain is the coin chain
    given Delta_n."""
    return conditional_theta(kind.p) if kind.gap else kind.thetaseq


def k_distribution(kind: ChainKind, n: int) -> DistTable:
    """Exact law of the number of cycles K at horizon n, one per stored 1.

    One DP from the virtual 1 at n + 1 down to index 1 over (value at the
    index, 1s so far): a free index shows a 1 with probability h_r, and
    under a gap a 1 holds the index below it at 0.
    """
    h = kind.one_probs(n).tolist()
    zero = np.zeros(n + 1)  # zero[k], one[k] = P(value 0 / 1 here, k 1s so far)
    one = np.zeros(n + 1)
    one[0] = 1.0  # the virtual 1 at n + 1, not counted
    for r in range(n, 0, -1):
        free, held = (zero, one) if kind.gap else (zero + one, 0.0)
        one = np.concatenate(([0.0], free[:-1] * h[r]))
        zero = held + free * (1.0 - h[r])
    law = zero + one
    return DistTable({k: v for k, v in enumerate(law.tolist()) if v > 0.0}, tol=1e-11)


def pgf_k(kind: ChainKind, s: float, n: int) -> float:
    """E[s^K] in closed form: a ratio of bracket products for the coin
    chain, times gamma_n(s theta)/gamma_n(theta) under a gap, since the
    chain is then the coin chain given Delta_n."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    kind.check_horizon(n)
    if s == 0.0:
        return 0.0  # K >= 1 always
    thetaseq = _coin_theta(kind)
    scaled = thetaseq.scaled(s)
    pgf = math.exp(scaled.bracket_product_log(n) - thetaseq.bracket_product_log(n))
    if kind.gap:
        pgf *= gamma_n(scaled, n) / gamma_n(thetaseq, n)
    return pgf


# ---------------------------------------------------------------------------
# joint cycle counts

# count vectors below c that the orderings sum visits, prod (c_j + 1):
# a few microseconds and one dict entry each
MAX_STATES = 10**5


def joint_cycle_counts(kind: ChainKind, c, n: int) -> float:
    """Exact probability of the full cycle-count vector c (c_j counts
    j-cycles) at horizon n: a sum over the distinct orderings of the cycle
    sizes, by the recursion on the top cycle run bottom-up over every count
    vector below c.  A gap forbids 1-cycles and divides by gamma_n.  Past
    ``MAX_STATES`` count vectors it raises ValueError, and a weight sum
    that leaves the float range raises NumericsError."""
    c = tuple(int(v) for v in c)
    if any(v < 0 for v in c):
        raise ValueError("counts must be nonnegative")
    if sum(j * cj for j, cj in enumerate(c, start=1)) != n:
        raise ValueError("counts must satisfy sum j*c_j = n")
    kind.check_horizon(n)
    if kind.gap and any(c[:1]):
        return 0.0
    c = c[:max(j for j, cj in enumerate(c, start=1) if cj)]  # drop trailing zeros
    states = math.prod(v + 1 for v in c)
    if states > MAX_STATES:
        raise ValueError(
            f"c needs {states} recursion states, beyond the exact-evaluation "
            f"budget {MAX_STATES}; use the Monte Carlo sampler instead"
        )

    thetaseq = _coin_theta(kind)
    # w[e] = theta_e / (e - 1), the weight of a cycle closed by a 1 at index
    # e; the last cycle, closed at index 1, has weight 1
    w = [0.0, 1.0] + (thetaseq.values(n)[2:] / np.arange(1.0, n)).tolist()
    # orderings[left]: the sum over the distinct orderings of the cycles
    # counted by left, which fill indices 1..m, of the product of their
    # weights; the top one closes at m + 1 - j.  Each left - e_j precedes
    # left in the lexicographic order that itertools.product runs in.
    orderings = {}
    for left in itertools.product(*(range(v + 1) for v in c)):
        m = sum(j * cj for j, cj in enumerate(left, start=1))
        orderings[left] = 1.0 if m == 0 else sum(
            w[m + 1 - j] * orderings[left[:j - 1] + (cj - 1,) + left[j:]]
            for j, cj in enumerate(left, start=1) if cj)
    weight = orderings[c]
    if not 0.0 < weight < math.inf:
        raise NumericsError(f"the weight sum of c is {weight}, outside the float range")
    log_pref = math.lgamma(n) - _bracket_log_unit(thetaseq, n)
    total = math.exp(log_pref + math.log(weight))
    return total / gamma_n(thetaseq, n) if kind.gap else total


def ordered_cycle_prefix_prob(a, n: int, thetaseq: ThetaSequence) -> float:
    """P(first r cycle lengths are a_1..a_r and more cycles remain)."""
    a = tuple(int(v) for v in a)
    if any(v < 1 for v in a):
        raise ValueError("cycle lengths must be >= 1")
    m = sum(a)
    if m >= n:
        raise ValueError("sum of prefix lengths must be < n")
    log_p = (
        math.lgamma(n + 1)
        - math.lgamma(n - m + 1)
        + _bracket_log_unit(thetaseq, n - m)
        - _bracket_log_unit(thetaseq, n)
    )
    pos = 0
    for i, ai in enumerate(a):
        log_p -= math.log(n - pos)
        pos += ai
        log_p += math.log(thetaseq(n + 1 - pos))
    return math.exp(log_p)


# ---------------------------------------------------------------------------
# 11-erasing maps

def erase11(word, horizon):
    """Erase 11-patterns: output bit i is 1 iff y_i = 1 and the run of 1s
    from i upward (capped at horizon - i - 1) has even overhang.

    ``horizon`` is an integer n (finite map, output of length n, needs
    input length >= n - 1) or math.inf (window map; the input window must
    end with 0 so every run is determined).
    """
    # the alphabet is checked on the items as given, so 0.6 or 1.9 is
    # refused rather than truncated; the walk below reads only truth values
    y = tuple(word)
    if not y or y[0] != 1:
        raise ValueError("input must start with a 1 at index 1")
    if not set(y) <= {0, 1}:
        raise ValueError("input must be a 0/1 word")
    if horizon == math.inf:
        if y[-1] != 0:
            raise ValueError(
                "window ends inside a run of 1s; beta values undetermined — extend the window"
            )
        out = [0] * len(y)
        top = len(y)
    else:
        n = int(horizon)
        if n < 2:
            raise ValueError("horizon must be >= 2")
        if len(y) < n - 1:
            raise ValueError(f"need input length >= {n - 1} for horizon {n}")
        out = [0] * n
        top = n - 1
    out[0] = 1
    # walk down from index top, carrying the run of 1s from index i up to
    # top: its overhang beta is the run length minus 1, and the finite
    # map's cap at horizon - i - 1 is the stop at top
    run = 0
    for i in range(top, 2, -1):
        if y[i - 1]:
            run += 1
            if run % 2:
                out[i - 1] = 1
        else:
            run = 0
    return tuple(out)
