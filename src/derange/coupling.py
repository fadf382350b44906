"""Coin-process/derangement-chain coupling machinery.

gamma_n is the probability that the independent-coin word of length n lands
in the no-adjacent-1s set Delta_n; G_i is its companion combinatorial sum,
delta_n the closed-form specialization along the eta_star family.  Also
here: exact laws of the cycle-count total K, the pgf identity, joint cycle
counts, ordered cycle-length prefixes, and the 11-erasing maps that push
the coin law onto the derangement-chain law.

The K law, the pgf, the joint counts and the ordered prefixes take a
``ChainKind``.  The pgf reads its gap: without one it is the coin chain;
with one it is the coin chain of the theta sequence conditionally linked
to p, given Delta_n.
"""

from __future__ import annotations

import cmath
import itertools
import math
import sys

import numpy as np

from .chains import ChainKind, cycle_weights
from .dist import DistTable
from .numerics import NumericsError, beta_fn, overflow_is_numerics_error
from .params import PSequence, ThetaSequence, _coin_rows, check_theta, conditional_theta


def g_values(thetaseq: ThetaSequence, n: int) -> list[float]:
    """G_0..G_n: G_0 = 0, G_1 = G_2 = 1, G_m = G_{m-1} + theta_m/(m-1) G_{m-2}."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _g(thetaseq.values(n).tolist())


def _g(t: list) -> list[float]:
    """G_0..G_n from theta_0..theta_n."""
    g = [0.0, 1.0, 1.0]
    for m in range(3, len(t)):
        g.append(g[m - 1] + t[m] / (m - 1) * g[m - 2])
    return g[:len(t)]


def _no11(stay, h, a: float, b: float, e: int) -> tuple[float, float, int]:
    """The no-11 recursion: (a, b) 2^e, the probabilities that no 11 has
    shown so far and the current index shows 0 or 1, takes (a, b) <- (stay_r
    (a + b), h_r a) at each coin row r.  An a that would drop below 2^-600
    is kept normal (theta_r near the float range) by scaling the pair by
    2^600, exactly, so (a, b) 2^e is the unscaled recursion's value bit for
    bit wherever that stays normal; returns (a, b, e)."""
    for s, hr in zip(stay, h):
        na = s * (a + b)
        while na < 2.0**-600 and s > 0.0:
            a, b, e = a * 2.0**600, b * 2.0**600, e - 600
            na = s * (a + b)
        a, b = na, hr * a
    return a, b, e


def gamma_n(thetaseq: ThetaSequence, n: int, method: str = "recursion") -> float:
    """P(coin word of length n has no adjacent 1s and ends in 0)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if method not in ("recursion", "g_product", "p_product"):
        raise ValueError(f"unknown method {method!r}")
    if n == 1:
        return 0.0
    if method == "p_product":
        p = PSequence.from_theta_conditional(thetaseq).values(n).tolist()
        out = p[n] / (1.0 + thetaseq.theta2)
        for j in range(2, n):
            out *= p[j] / (p[j] * p[j + 1] + (1.0 - p[j + 1]))
        return out
    t = thetaseq.values(n)
    if method == "recursion":  # from index 2, a 0 above the 1 at index 1
        stay, h = _coin_rows(np.arange(n + 1), t)
        m, _, e = _no11(stay[3:].tolist(), h[3:].tolist(), float(stay[2]), 0.0, 0)
        return math.ldexp(m, e)
    # G_{n-1} (n-1)!/prod_{i=2}^n (theta_i + i - 1), the product as log1p terms
    log_brackets = math.fsum(np.log1p(t[2:] / np.arange(1.0, n)).tolist())
    return math.exp(math.log(_g(t.tolist())[n - 1]) - log_brackets)


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
    the Beta-function limit.  A value that is not finite (theta near the
    float range) raises NumericsError."""
    check_theta(theta)
    if not (0 < theta2star <= 1):
        raise ValueError("theta2star must lie in (0, 1]")
    if n is None:
        raise ValueError("n required (integer or math.inf)")
    if n == math.inf:
        z1, z2 = delta_roots(theta)
        value = (theta * theta + theta + 2.0) * beta_fn(z1, z2) / (1.0 + theta2star)
    else:
        value = _delta_finite(theta, theta2star, int(n))
    if not math.isfinite(value):
        raise NumericsError(f"delta_n at theta = {theta!r} is {value!r}")
    return value


def _delta_finite(theta: float, theta2star: float, n: int) -> float:
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

# the most K-law mass k_distribution drops past its cap
DROPPED_MASS = 2.0**-64


def _k_cap(h: np.ndarray, gap: int) -> tuple[int, float]:
    """(k_max, bound) with P(K > k_max) <= bound <= 2^-64: k_max is the
    least k whose Chernoff bound is at most 2^-64, or n // (1 + gap), where
    K stops (bound 0), if that is smaller.

    A free index r shows a 1 exactly when U_r < h_r, for independent
    uniforms U_r, and a gap only forces 0s, so K <= B = sum_r 1{U_r < h_r},
    a Poisson-binomial sum of mean mu = sum_r h_r, and for t > mu
    P(B >= t) <= e^-mu (e mu / t)^t.
    """
    n = h.size - 1
    top = n // (1 + gap)
    mu = math.fsum(memoryview(h[1:]))
    log_tail = math.log(DROPPED_MASS)
    for t in range(math.floor(mu) + 1, top + 1):
        log_bound = t - mu + t * math.log(mu / t)
        if log_bound <= log_tail:
            return t - 1, math.exp(log_bound)
    return top, 0.0


def k_distribution(kind: ChainKind, n: int) -> DistTable:
    """Exact law of the number of cycles K at horizon n, one per stored 1,
    at every k up to a cap k_max past which at most 2^-64 of mass lies.

    One DP from the virtual 1 at n + 1 down to index 1 over (value at the
    index, 1s so far): a free index shows a 1 with probability h_r, and
    under a gap a 1 holds the index below it at 0.  A count only moves up,
    so the entries at k <= k_max are those of the uncapped DP, bit for bit,
    and the table simply lacks the mass above k_max.  ``_k_cap`` derives
    k_max from the chain by a Chernoff bound on P(K > k_max) (about 40 at
    n = 10^5 for eta(0.5)), so the DP costs O(n k_max); the mass the DP
    shifts past k_max is summed and NumericsError is raised if it exceeds
    that bound.
    """
    h = kind.one_probs(n)
    k_max, bound = _k_cap(h, kind.gap)
    # zero[k], one[k] = P(value 0 / 1 here, k 1s so far); nxt is the next one
    zero, one, nxt = np.zeros(k_max + 1), np.zeros(k_max + 1), np.zeros(k_max + 1)
    one[0] = 1.0  # the virtual 1 at n + 1, not counted
    below, top = zero[:-1], memoryview(zero)  # zero is updated in place
    dropped = 0.0
    for hr in h[:0:-1].tolist():
        if not kind.gap:
            zero += one  # every index is free
        dropped += top[k_max] * hr
        nxt[0] = 0.0
        np.multiply(below, hr, out=nxt[1:])
        zero *= 1.0 - hr
        if kind.gap:
            zero += one  # a 1 above holds this index at 0
        one, nxt = nxt, one
    if dropped > bound:
        raise NumericsError(f"the K law dropped mass {dropped} past k = {k_max}, "
                            f"above its bound {bound}")
    law = zero + one
    keep = np.flatnonzero(law > 0.0)
    return DistTable(keep, law[keep], tol=1e-11)


@overflow_is_numerics_error
def pgf_k(kind: ChainKind, s: float, n: int) -> float:
    """E[s^K] in closed form: the coin chain's indices are independent
    coins, so E[s^K] = prod_i (1 - c_i + s c_i) with c_1 = 1; under a gap
    times gamma_n(s theta)/gamma_n(theta), since the chain is then the
    coin chain given Delta_n.  The factors are combined as one sum of logs,
    so a value inside the float range is returned even where a factor
    lies outside it."""
    if not (math.isfinite(s) and s >= 0):
        raise ValueError("s must be nonnegative and finite")
    kind.check_horizon(n)
    if s == 0.0:
        return 0.0  # K >= 1 always
    t = (conditional_theta(kind.p) if kind.gap else kind.thetaseq).values(n)
    r = np.arange(n + 1)
    rows = _coin_rows(r, t)
    logs = np.log1p((s - 1.0) * rows[1][1:]).tolist()
    if kind.gap:
        with np.errstate(over="ignore"):  # checked below
            st = s * t
        if not np.isfinite(st).all():
            raise OverflowError("s theta_i leaves the float range")
        # gamma_n(s theta) and gamma_n(theta) as (m, e), m normal, from index 2
        (m1, _, e1), (m0, _, e0) = (
            _no11(stay[3:].tolist(), h[3:].tolist(), float(stay[2]), 0.0, 0)
            for stay, h in (_coin_rows(r, st), rows))
        logs += [math.log(m1 / m0), (e1 - e0) * math.log(2.0)]
    return math.exp(math.fsum(logs))


# ---------------------------------------------------------------------------
# joint cycle counts

# count vectors below c that the orderings sum visits, prod (c_j + 1):
# a few microseconds and one dict entry each
MAX_STATES = 10**5


def joint_cycle_counts(kind: ChainKind, c, n: int) -> float:
    """Exact probability of the full cycle-count vector c (c_j counts
    j-cycles) at horizon n: a sum over the distinct orderings of the cycle
    sizes, by the recursion on the top cycle, weighted by ``cycle_weights``
    over the kind's own rows, run bottom-up over every count vector below
    c.  A gap forbids 1-cycles.  Past ``MAX_STATES`` count vectors it raises
    ValueError; a probability below the normal float range raises NumericsError."""
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

    # orderings[left]: the sum over the distinct orderings of the cycles
    # counted by left, which fill indices 1..m, of their word's probability,
    # the top one of length j weighing weights[j][m + 1].  Each left - e_j
    # precedes left in the lexicographic order that itertools.product runs in.
    stay, h = kind.rows(n)
    weights = {j: cycle_weights(stay, h, kind.gap, j).tolist()
               for j, cj in enumerate(c, start=1) if cj}
    orderings = {}
    for left in itertools.product(*(range(v + 1) for v in c)):
        m = sum(j * cj for j, cj in enumerate(left, start=1))
        orderings[left] = 1.0 if m == 0 else sum(
            weights[j][m + 1] * orderings[left[:j - 1] + (cj - 1,) + left[j:]]
            for j, cj in enumerate(left, start=1) if cj)
    total = orderings[c]
    if not total >= sys.float_info.min:
        raise NumericsError(f"the probability of c, {total!r}, underflows the float range")
    return total


def ordered_cycle_prefix_prob(kind: ChainKind, a, n: int) -> float:
    """P(first r cycle lengths are a_1..a_r and more cycles remain), as
    one sum of logs of the kind's rows over the top a_1 + ... + a_r indices:
    stay, but h at each closing index, and under a gap 1 at each circle's
    top index, held at 0; so a gap gives 1-cycles probability 0, and a
    prefix that leaves fewer than 2 indices below it."""
    a = tuple(int(v) for v in a)
    if any(v < 1 for v in a):
        raise ValueError("cycle lengths must be >= 1")
    m = sum(a)
    if m >= n:
        raise ValueError("sum of prefix lengths must be < n")
    stay, h = kind.rows(n)
    if kind.gap and (1 in a or n - m < 2):
        return 0.0
    # entry e is index n - m + 1 + e: circle k closes at entry m - cum[k]
    # and its top index is entry m - 1 - cum[k - 1]
    cum = np.cumsum((0,) + a)
    factors = stay[n - m + 1:].copy()
    factors[m - cum[1:]] = h[n + 1 - cum[1:]]
    if kind.gap:
        factors[m - 1 - cum[:-1]] = 1.0
    with np.errstate(divide="ignore"):  # a factor that underflows to 0 gives 0
        return math.exp(math.fsum(np.log(factors, out=factors).tolist()))


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
