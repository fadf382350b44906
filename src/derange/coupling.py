"""Coin-process/derangement-chain coupling machinery.

gamma_n is the probability that the independent-coin word of length n lands
in the no-adjacent-1s set Delta_n; G_i is its companion combinatorial sum,
delta_n the closed-form specialization along the eta_star family.  Also
here: exact laws of the cycle-count total K, the pgf identity, joint cycle
counts, ordered cycle-length prefixes, and the 11-erasing maps that push
the coin law onto the derangement-chain law.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy import special as _sp

from .dist import DistTable
from .numerics import beta_fn
from .params import PSequence, ThetaSequence


def g_values(thetaseq: ThetaSequence, n: int) -> list[float]:
    """G_0..G_n: G_0 = 0, G_1 = G_2 = 1, G_m = G_{m-1} + theta_m/(m-1) G_{m-2}."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    t = thetaseq.values(n).tolist()
    g = [0.0, 1.0, 1.0]
    for m in range(3, n + 1):
        g.append(g[m - 1] + t[m] / (m - 1) * g[m - 2])
    return g[: n + 1]


class GammaTable:
    """gamma_1..gamma_N for a theta sequence."""

    def __init__(self, thetaseq: ThetaSequence, n_max: int):
        if n_max < 1:
            raise ValueError("n_max must be >= 1")
        self.thetaseq = thetaseq
        self.n_max = n_max
        t = thetaseq.values(n_max).tolist()
        c = thetaseq.coin_probs(n_max).tolist()
        gam = [0.0, 0.0]  # index 0 unused, gamma_1 = 0
        if n_max >= 2:
            gam.append(1.0 / (1.0 + t[2]))
        for i in range(3, n_max + 1):
            gam.append((i - 1) / (i - 1 + t[i]) * (gam[i - 1] + c[i - 1] * gam[i - 2]))
        self.gamma = gam

    def __getitem__(self, i: int) -> float:
        if not (1 <= i <= self.n_max):
            raise ValueError(f"gamma index {i} outside 1..{self.n_max}")
        return self.gamma[i]


def _bracket_log_unit(thetaseq: ThetaSequence, n: int) -> float:
    """log of the bracket product with the index-1 factor forced to 1."""
    return thetaseq.bracket_product_log(n) - math.log(thetaseq.theta1)


def gamma_n(thetaseq: ThetaSequence, n: int, method: str = "recursion") -> float:
    """P(coin word of length n has no adjacent 1s and ends in 0)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if method == "recursion":
        return GammaTable(thetaseq, max(n, 1))[n] if n >= 1 else 0.0
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
    log_num = (
        math.lgamma(n)
        + math.log(theta * theta + theta + 2.0)
        + float(_sp.gammaln(theta + 2 + n - 3) - _sp.gammaln(theta + 2))
    )
    log_den = math.log1p(theta2star) + math.log(theta + 2.0)
    log_den += math.fsum(
        math.log(k * (k + 1.0) + theta * (theta + k)) for k in range(1, n - 1)
    )
    return math.exp(log_num - log_den)


# ---------------------------------------------------------------------------
# K distributions and the pgf identity

def k_distribution(kind: str, n: int, params) -> DistTable:
    """Exact law of the number of cycles K for the derangement chain ('X',
    params a PSequence or conditionally linked ThetaSequence) or the coin
    process ('Y', params a ThetaSequence)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind == "Y":
        c = params.coin_probs(n).tolist()
        law = np.zeros(n + 1)  # law[k] = P(k ones so far)
        law[1] = 1.0  # index-1 coin always shows 1
        for i in range(2, n + 1):
            law[1:] = law[1:] * (1.0 - c[i]) + law[:-1] * c[i]
    elif kind == "X":
        if n < 2:
            raise ValueError("a derangement needs n >= 2")
        p = params if isinstance(params, PSequence) else PSequence.from_theta_conditional(params)
        pv = p.values(n).tolist()
        # P(current value 0 / 1, k stored 1s so far) from the virtual 1 at
        # n + 1: a 1 is always followed by a 0, a 0 by a 1 with probability q_r
        zero = np.zeros(n + 1)
        one = np.zeros(n + 1)
        one[0] = 1.0
        for r in range(n, 0, -1):
            closed = zero * (1.0 - pv[r])
            zero = zero * pv[r] + one
            one = np.concatenate(([0.0], closed[:-1]))
        law = zero + one
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return DistTable({k: v for k, v in enumerate(law.tolist()) if v > 0.0}, tol=1e-11)


def pgf_k(kind: str, s: float, n: int, thetaseq: ThetaSequence) -> float:
    """E[s^K] in closed form; for 'X' the theta sequence is the
    conditionally linked one."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    if s == 0.0:
        return 0.0  # K >= 1 always
    scaled = thetaseq.scaled(s)
    log_y = scaled.bracket_product_log(n) - thetaseq.bracket_product_log(n)
    y_pgf = math.exp(log_y)
    if kind == "Y":
        return y_pgf
    if kind == "X":
        return gamma_n(scaled, n) / gamma_n(thetaseq, n) * y_pgf
    raise ValueError(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# joint cycle counts

MAX_CYCLE_SUM = 9  # permutation-sum budget ||c||! <= 9!


def _distinct_permutations(items):
    """Yield the distinct orderings of a multiset (lexicographic)."""
    pool = sorted(items)
    k = len(pool)
    if k == 0:
        yield ()
        return

    def rec(remaining, prefix):
        if not remaining:
            yield tuple(prefix)
            return
        seen = set()
        for idx, v in enumerate(remaining):
            if v in seen:
                continue
            seen.add(v)
            yield from rec(remaining[:idx] + remaining[idx + 1:], prefix + [v])

    yield from rec(pool, [])


def cbar(c) -> tuple:
    """Nondecreasing cycle-size listing: size j repeated c_j times."""
    out = []
    for j, cj in enumerate(c, start=1):
        out.extend([j] * cj)
    return tuple(out)


def joint_cycle_counts(kind: str, c, n: int, params) -> float:
    """Exact probability of the full cycle-count vector c (c_j counts
    j-cycles) for the coin process ('Y') or the derangement chain ('X')."""
    c = tuple(int(v) for v in c)
    if any(v < 0 for v in c):
        raise ValueError("counts must be nonnegative")
    if sum(j * cj for j, cj in enumerate(c, start=1)) != n:
        raise ValueError("counts must satisfy sum j*c_j = n")
    if kind == "X":
        if len(c) >= 1 and c[0] != 0:
            return 0.0
        thetaseq = params if isinstance(params, ThetaSequence) else None
        if thetaseq is None:
            raise ValueError("X joint cycle counts need the linked ThetaSequence")
    elif kind == "Y":
        thetaseq = params
    else:
        raise ValueError(f"unknown kind {kind!r}")
    norm = sum(c)
    if norm > MAX_CYCLE_SUM:
        raise ValueError(
            f"||c|| = {norm} exceeds the exact-evaluation budget {MAX_CYCLE_SUM}; "
            "use the Monte Carlo sampler instead"
        )

    sizes = cbar(c)
    log_pref = math.lgamma(n) - _bracket_log_unit(thetaseq, n)
    total = 0.0
    for order in _distinct_permutations(sizes):
        acc = 0.0
        pos = 0
        ok = True
        for i in range(norm - 1):
            pos += order[i]
            eps = n + 1 - pos
            if eps < 2:
                ok = False
                break
            acc += math.log(thetaseq(eps)) - math.log(eps - 1)
        if ok:
            total += math.exp(log_pref + acc)
    if kind == "X":
        return total / gamma_n(thetaseq, n)
    return total


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
    y = tuple(int(b) for b in word)
    if not y or y[0] != 1:
        raise ValueError("input must start with a 1 at index 1")
    if any(b not in (0, 1) for b in y):
        raise ValueError("input must be a 0/1 word")
    length = len(y)
    if horizon == math.inf:
        if y[-1] != 0:
            raise ValueError(
                "window ends inside a run of 1s; beta values undetermined — extend the window"
            )
        out_len = length
        cap = None
    else:
        n = int(horizon)
        if n < 2:
            raise ValueError("horizon must be >= 2")
        if length < n - 1:
            raise ValueError(f"need input length >= {n - 1} for horizon {n}")
        out_len = n
        cap = n

    # run[i] = number of consecutive 1s starting at position i (1-based)
    run = [0] * (length + 2)
    for i in range(length, 0, -1):
        run[i] = run[i + 1] + 1 if y[i - 1] == 1 else 0

    out = [0] * out_len
    out[0] = 1
    top = out_len - 1 if cap is not None else out_len
    for i in range(3, top + 1):
        if y[i - 1] != 1:
            continue
        beta = run[i] - 1
        if cap is not None:
            beta = min(beta, cap - i - 1)
        if beta % 2 == 0:
            out[i - 1] = 1
    return tuple(out)
