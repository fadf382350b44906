"""First and second moments of cycle counts, exact and in the n -> infinity
limit.

The finite-horizon moments take a ``ChainKind`` first, as the circle laws
do, and read its rows (stay, h) = ``kind.rows(n)`` through the marginals
m_i = P(value at index i is 1) = h_i (1 - gap m_{i+1})
(``chains.marginals``).  Each 1 closes a cycle, so E[K_n] is the sum of
the marginals and E[C_j(n)] the sum of the probabilities c_l m_l that a
j-cycle ends at each index l (``chains.cycle_weights``).  Var(C_j(n))
sums E[C_j(h)] over the horizons h below each cycle end, and the
horizon-h marginals are exactly m_l + (1 - m_{h+1}) prod_{i=l}^{h}
(-gap h_i): one O(n) pass gives every E[C_j(h)], and a second gives
Var(C_j(h)) at every horizon (``var_cj_horizons``).  The derangement
chains (gap 1) and the coin chains (gap 0) share every line.  Closed
forms specialized to the eta chain (p_i = (i-1)/(theta+i-1)) carry `_eta`
in their names and must agree with the generic routines — that agreement
is a test, not an assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chains import ChainKind, cycle_weights, marginals
from .coupling import gamma_n
from .numerics import (
    AccuracySpec,
    DEFAULT_ACC,
    EULER_GAMMA,
    NumericsError,
    _pfq_series,
    harmonic_h,
    integrate,
    overflow_is_numerics_error,
    rising_factorial,
)
from .params import ThetaSequence, check_theta


@dataclass(frozen=True)
class LimitEstimate:
    """A limit value with its error: the alternating-tail bracket of a
    series, or the achieved quadrature error of an integral."""

    value: float
    error_bound: float
    m: int


def _finite(est: LimitEstimate) -> LimitEstimate:
    """The series estimate, or NumericsError when its terms overflowed."""
    if not (math.isfinite(est.value) and math.isfinite(est.error_bound)):
        raise NumericsError(
            f"limit series overflowed at m={est.m} "
            f"(value {est.value}, bound {est.error_bound}); lower m"
        )
    return est


def _within(est: LimitEstimate, acc: AccuracySpec) -> LimitEstimate:
    """The integral estimate, or NumericsError when it is not finite or its
    error misses acc."""
    if not (math.isfinite(est.value)
            and est.error_bound <= max(acc.abs_tol, acc.rel_tol * abs(est.value))):
        raise NumericsError(f"quadrature error {est.error_bound:.3g} misses the "
                            f"tolerance for {est.value:.15g}")
    return est


# ---------------------------------------------------------------------------
# E[K_n]

def mean_k(kind: ChainKind, n: int) -> float:
    """Expected number of cycles of the chain at horizon n: each stored 1
    closes a cycle, so E[K_n] = m_1 + ... + m_n."""
    return math.fsum(memoryview(marginals(kind.rows(n)[1], kind.gap)[1:n + 1]))


def mean_k_eta(n: int, theta: float) -> float:
    """Closed form for E[K_n] under the eta chain."""
    check_theta(theta)
    if n < 2:
        raise ValueError("n must be >= 2")
    if n in (2, 3):
        return 1.0
    terms = [1.0]
    for i in range(3, n):
        terms.append(theta / (theta + i - 1))
    for i in range(3, n - 1):
        # alternating tail in j with ratio -theta/(theta+i-2+j); truncate
        # once the term can no longer move the fsum.  The j = 2 term (sign
        # (-1)^{j+1}) is a product of two ratios, so theta^2 cannot overflow
        t = -(theta / (theta + i - 1.0)) * (theta / (theta + i))
        for j in range(2, n - i + 1):
            terms.append(t)
            if abs(t) < 1e-18:
                break
            t *= -theta / (theta + i - 1.0 + j)
    return math.fsum(terms)


def eta_abar(theta: float, j: int) -> float:
    """Closed form a-bar_j for the eta chain: theta^{j+1}/(j (theta+2)_(j))."""
    if j < 1:
        raise ValueError("j must be >= 1")
    return theta ** (j + 1) / (j * rising_factorial(theta + 2.0, j))


@overflow_is_numerics_error
def mean_k_eta_limit(theta: float, m: int = 3, method: str = "series",
                     acc: AccuracySpec = DEFAULT_ACC) -> LimitEstimate:
    """lim (E[K_n] - theta log n) for the eta chain.

    Methods: 'series' (closed-form a-bar alternating series, bracketed by
    a-bar_{2m}); 'integral' (tail resummed as a double integral); 'pfq'
    (tail as a 2F2 evaluation).  All agree within combined tolerances.
    """
    check_theta(theta)
    head = 1.0 - theta * harmonic_h(theta + 1.0) + theta * EULER_GAMMA
    if method == "series":
        if m < 1:  # the bracket is a-bar_{2m}
            raise ValueError("m must be >= 1")
        tail = math.fsum((-1) ** j * eta_abar(theta, j) for j in range(1, 2 * m))
        return _finite(LimitEstimate(value=head + tail,
                                     error_bound=eta_abar(theta, 2 * m), m=m))
    if method == "integral":
        val, err = integrate(lambda x, y: np.exp(-theta * x * y) * (1.0 - x) ** (theta + 1.0),
                             ((0.0, 1.0), (0.0, 1.0)), acc)
        return _within(LimitEstimate(value=head - theta * theta * val,
                                     error_bound=theta * theta * err, m=0), acc)
    if method == "pfq":
        # |term j| = theta^j/((j+1)(theta+3)_j) >= exp(-(3j + j^2/2)/theta)/(j+1) falls
        # in j and the sums lie in (0.5, 1], so past abs_tol at max_terms it never stops
        j = acc.max_terms
        if math.exp(-(3.0 * j + 0.5 * j * j) / theta) / (j + 1) >= acc.abs_tol:
            raise NumericsError(f"the 2F2 series cannot converge in {j} terms at theta={theta!r}")
        # the private series, for its truncation estimate; these parameters
        # pass every check of generalized_pfq
        f, f_err = _pfq_series((1.0, 1.0), (2.0, theta + 3.0), -theta, acc)
        scale = theta * theta / (theta + 2.0)
        return LimitEstimate(value=head - scale * f, error_bound=scale * f_err, m=0)
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# E[C_j(n)]

def mean_cj(kind: ChainKind, n: int, j: int) -> float:
    """Expected number of j-cycles at horizon n, the sum of the cycle-end
    probabilities c_l m_l."""
    kind.check_cycle_length(j)
    stay, h = kind.rows(n)
    return math.fsum(memoryview(cycle_weights(stay, h, kind.gap, j) * marginals(h, kind.gap)))


def mean_cj_eta(n: int, j: int, theta: float) -> float:
    """Closed form for E[C_j(n)] under the eta chain."""
    check_theta(theta)
    if n < 2:
        raise ValueError("n must be >= 2")
    if j < 2:
        raise ValueError("j must be >= 2")
    if n < j or j == n - 1:
        return 0.0
    if j == n == 2:
        return 1.0
    if j == n:
        # Gamma(n-1) Gamma(theta+2) / Gamma(theta+n-1) = prod_{k=2}^{n-2} k/(k+theta),
        # summed as logs of ratios near 1: lgamma differences of size n log n
        # would cost ~n ulps
        return math.exp(-math.fsum(math.log1p(theta / k) for k in range(2, n - 1)))
    return mean_cj(ChainKind.eta(theta), n, j)


def eta_bbar(theta: float, j: int, k: int) -> float:
    """Closed form b-bar_k(theta, j), the k-th alternating correction in the
    series for lim E[C_j(n)]."""
    first = (
        theta**k
        * math.gamma(k)
        * (k * (j - 1.0) + theta * (k + j - 1.0))
        / (rising_factorial(theta + 1.0, k) * rising_factorial(j - 1.0, k + 1))
    )
    second = (
        theta**k
        * math.gamma(j - 1.0)
        * ((k - 1.0 + (theta + 1.0) * j) * (theta + j) - k)
        / rising_factorial(theta + 1.0, k + j)
    )
    return first - second


def _exp_beta_integral(theta: float, power: float,
                       acc: AccuracySpec = DEFAULT_ACC) -> tuple[float, float]:
    """int_0^1 e^{-theta x} (1-x)^{power} dx and its quadrature error."""
    return integrate(lambda x: np.exp(-theta * x) * (1.0 - x) ** power,
                     (0.0, 1.0), acc)


@overflow_is_numerics_error
def mean_cj_eta_limit(theta: float, j: int, method: str = "series", m: int = 2,
                      acc: AccuracySpec = DEFAULT_ACC) -> LimitEstimate:
    """lim_n E[C_j(n)] under the eta chain.

    Methods: 'series' (head integral plus alternating b-bar corrections,
    error bracket b-bar_{2m+1}); 'integral' (full double-integral form).
    """
    if j < 2:
        raise ValueError("j must be >= 2")
    check_theta(theta)
    if method == "series":
        if m < 0:  # m = 0 leaves the bracket b-bar_1
            raise ValueError("m must be >= 0")
        coef = theta
        if j >= 3:
            coef = theta * math.gamma(j - 1.0) / rising_factorial(theta + 2.0, j - 3)
        e, e_err = _exp_beta_integral(theta, theta + j - 1.0, acc)
        tail = math.fsum(
            (-1) ** (k + 1) * eta_bbar(theta, j, k) for k in range(1, 2 * m + 1)
        )
        return _finite(LimitEstimate(
            value=coef * e + tail,
            error_bound=abs(eta_bbar(theta, j, 2 * m + 1)) + coef * e_err,
            m=m,
        ))
    if method == "integral":
        # theta^2 x^{theta-1} (1-x)^{j-2} e^{-theta y} (1-y)^{theta+j-1}
        # / (1-x+xy)^{j-1} after t = x^theta, which absorbs x^{theta-1};
        # the (1-x)/d form keeps the (1, 0) corner free of 0/0
        def f(t, y):
            if j == 2:
                # 1/d is log-singular at the (1, 0) corner, where nodes near
                # t = 1 round; take t = 1 - x^theta, which puts the corner at
                # the exact end t = 0, with 1 - x to full precision
                u = -np.expm1(np.log1p(-t) / theta)
                return theta * np.exp(-theta * y) * (1.0 - y) ** (theta + 1.0) / (u + (1.0 - u) * y)
            x = t ** (1.0 / theta)
            d = 1.0 - x + x * y
            return (theta * np.exp(-theta * y) * (1.0 - y) ** (theta + j - 1.0)
                    * ((1.0 - x) / d) ** (j - 2) / d)

        # log1p(-1) at x = 0 or an overflow at large theta warns of nothing:
        # integrate raises NumericsError when the nodes' sum is not finite
        with np.errstate(all="ignore"):
            val, err = integrate(f, ((0.0, 1.0), (0.0, 1.0)), acc)
        if j >= 3:
            scale = theta**2 * math.gamma(j - 1.0) / rising_factorial(theta + 1.0, j)
            shift, coef = scale * (theta + j - 1.0), scale * ((theta + j - 1.0) ** 2 + j - 1.0)
        else:
            shift, coef = 0.0, theta * theta / (theta + 1.0)
        e, e_err = _exp_beta_integral(theta, theta + j, acc)
        val += shift - coef * e
        return _within(LimitEstimate(value=val, error_bound=err + coef * e_err, m=0),
                       acc)
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# second moments

def _horizon_sums(q: np.ndarray, m: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_{u<=h+1} w_u V_h(u) at every horizon h = 0..n, for weights w over
    u = 0..n+1, where q = gap h for (stay, h) = ``kind.rows(n)`` and m are
    the horizon-n marginals.  The horizon-h marginals obey the horizon-n
    recursion from 1 at h + 1, so they are V_h(u) = m_u + (1 - m_{h+1})
    prod_{i=u}^{h} (-q_i), exactly, and the sum is sum_{u<=h+1} w_u m_u +
    (1 - m_{h+1}) t_h, where t_h = sum_{u<=h+1} w_u prod_{i=u}^{h} (-q_i)
    = w_{h+1} - q_h t_{h-1}."""
    t = np.zeros(q.size)
    # memoryviews read and write Python floats without list copies
    above, tv, wv, qv = 0.0, memoryview(t), memoryview(w), memoryview(q)
    for h in range(q.size):  # |q_h| <= 1: errors in t never grow
        tv[h] = above = wv[h + 1] - qv[h] * above
    return np.cumsum(w * m)[1:] + (1.0 - m[1:]) * t


def _renewal(stay: np.ndarray, h: np.ndarray, gap: int, m: np.ndarray,
             j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(c, S, w) for the rows (stay, h) = ``kind.rows(n)``, gap =
    ``kind.gap`` and the horizon-n marginals m: the cycle-end weights c,
    S[h] = E[C_j(h)] at every horizon h = 0..n, and the renewal weights
    w_u = c_u S[u-j-1] (0 for u <= j).  Below a j-cycle ending at u, the 1
    at u-j acts as the virtual 1 of a chain at horizon u-j-1, so
    E[C_j(h)^2] = S[h] + 2 sum_{u<=h+1} w_u V_h(u)."""
    c = cycle_weights(stay, h, gap, j)
    s = _horizon_sums(h * gap, m, c)
    w = np.zeros(c.size)
    ends = c[j + 1:]  # cycle ends u = j+1..n+1, renewed at horizon u-j-1
    w[j + 1:] = ends * s[:ends.size]
    return c, s, w


def second_moments(kind: ChainKind, n: int, j: int) -> float:
    """Var(C_j(n)) in one O(n) pass: E[C_j^2] = E[C_j] + 2 sum_u w_u m_u,
    with the renewal weights w of ``_renewal``, whose S[h] = E[C_j(h)] come
    from the horizon-n marginals by the exact identity V_h(l) = m_l +
    (1 - m_{h+1}) prod_{i=l}^{h} (-gap h_i) (``_horizon_sums``)."""
    kind.check_cycle_length(j)
    stay, h = kind.rows(n)
    m = marginals(h, kind.gap)
    c, _, w = _renewal(stay, h, kind.gap, m, j)
    mean = math.fsum(memoryview(c * m))
    cross = math.fsum(memoryview(w * m))
    return math.fsum((mean, 2.0 * cross, -mean * mean))


def var_cj_horizons(kind: ChainKind, n: int, js) -> np.ndarray:
    """Var(C_j(h)) for each j in js at every horizon h = 0..n, as a
    (len(js), n + 1) array.  The rows and the horizon-n marginals
    are built once; each j then costs two O(n) passes of
    ``_horizon_sums``, one for S[h] = E[C_j(h)] and one for the cross term
    X_h = sum_{u<=h+1} w_u V_h(u), so Var(C_j(h)) = S[h] + 2 X_h -
    S[h]^2.  At h = n this is ``second_moments``' formula, summed by
    ``np.cumsum`` instead of fsum."""
    js = list(js)
    if not js:
        raise ValueError("js must name at least one j")
    kind.check_cycle_length(min(js))
    stay, h = kind.rows(n)
    m = marginals(h, kind.gap)
    out = np.empty((len(js), n + 1))
    for row, j in zip(out, js):
        _, s, w = _renewal(stay, h, kind.gap, m, j)
        # where no j-cycle fits, S[h] cancels to a rounding residue that may
        # be negative, and so may the variance: it is 0 there
        np.maximum(s + 2.0 * _horizon_sums(h * kind.gap, m, w) - s * s, 0.0, out=row)
    return out


def cov_eta(n: int, i: int, j: int, theta: float) -> float:
    """Covariance of the word bits at indices i < j under the eta chain,
    for 2 < i < j < n-1.

    It is (-1)^{i+j} S_j S_{j-1} prod_{m=i-1}^{j-1} theta/(theta+m), where
    S_a = sum_{k=0}^{n-1-a} (-theta)^k / (theta+a)_(k) is an alternating
    series whose terms shrink in modulus, so no factor overflows at large n.
    """
    if not (2 < i < j < n - 1):
        raise ValueError("require 2 < i < j < n-1")

    def s_sum(a: int) -> float:
        terms = [1.0]
        for k in range(n - 1 - a):
            terms.append(terms[-1] * -theta / (theta + a + k))
        return math.fsum(terms)

    ratio = math.prod(theta / (theta + m) for m in range(i - 1, j))
    return (-1) ** (i + j) * ratio * s_sum(j) * s_sum(j - 1)


# ---------------------------------------------------------------------------
# derangement probabilities of the theta-biased permutation

def lambda_esf(n: int, theta: float) -> float:
    """P(a theta-biased random permutation of n elements has no fixed
    point): ``gamma_n`` of the constant sequence theta, which checks theta
    and n.  Its recursion has nonnegative terms, so large theta loses nothing
    to the cancellation of the alternating sum over fixed points."""
    return gamma_n(ThetaSequence.constant(theta), n)
