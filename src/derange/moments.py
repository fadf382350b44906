"""First and second moments of cycle counts, exact and in the n -> infinity
limit.

Conventions: q_1 = 1, q_2 = 0 (the chain is forced at those indices).  The
finite-horizon moments all come from the marginals m_i = P(value at index
i is 1), which obey the backward recursion m_i = q_i (1 - m_{i+1})
(``chains.marginals``).  Each 1 closes a cycle, so E[K_n] is the sum of
the marginals and E[C_j(n)] the sum of the probabilities that a j-cycle
ends at each index.  Below a closed cycle the chain renews as a fresh
chain at a shorter horizon, which turns second moments into sums of
first moments.  Closed forms specialized to the eta chain
(p_i = (i-1)/(theta+i-1)) carry `_eta` in their names and must agree
with the generic routines — that agreement is a test, not an assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .chains import marginals
from .numerics import (
    AccuracySpec,
    DEFAULT_ACC,
    EULER_GAMMA,
    NumericsError,
    generalized_pfq,
    harmonic_h,
    integrate,
    rising_factorial,
)
from .params import PSequence


@dataclass(frozen=True)
class LimitEstimate:
    """A limit value with its alternating-tail error bracket."""

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


# ---------------------------------------------------------------------------
# E[K_n]

def mean_k(n: int, p: PSequence) -> float:
    """Expected number of cycles of the derangement chain at horizon n: each
    stored 1 closes a cycle, so E[K_n] = m_1 + ... + m_n."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return math.fsum(marginals(1.0 - p.values(n), 1)[1:n + 1].tolist())


def mean_k_eta(n: int, theta: float) -> float:
    """Closed form for E[K_n] under the eta chain."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if n in (2, 3):
        return 1.0
    terms = [1.0]
    for i in range(3, n):
        terms.append(theta / (theta + i - 1))
    for i in range(3, n - 1):
        # alternating tail in j with ratio -theta/(theta+i-2+j); truncate
        # once the term can no longer move the fsum
        t = -theta * theta / (
            (theta + i - 1.0) * (theta + i)
        )  # j = 2 term with sign (-1)^{j+1}
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


def mean_k_eta_limit(theta: float, m: int = 3, method: str = "series",
                     acc: AccuracySpec = DEFAULT_ACC) -> LimitEstimate:
    """lim (E[K_n] - theta log n) for the eta chain.

    Methods: 'series' (closed-form a-bar alternating series, bracketed by
    a-bar_{2m}); 'integral' (tail resummed as a double integral); 'pfq'
    (tail as a 2F2 evaluation).  All agree within combined tolerances.
    """
    if theta <= 0:
        raise ValueError("theta must be positive")
    head = 1.0 - theta * harmonic_h(theta + 1.0) + theta * EULER_GAMMA
    if method == "series":
        tail = math.fsum((-1) ** j * eta_abar(theta, j) for j in range(1, 2 * m))
        return _finite(LimitEstimate(value=head + tail,
                                     error_bound=eta_abar(theta, 2 * m), m=m))
    if method == "integral":
        val = integrate(
            lambda x, y: math.exp(-theta * x * y) * (1.0 - x) ** (theta + 1.0),
            ((0.0, 1.0), (0.0, 1.0)),
            acc,
        )
        return LimitEstimate(value=head - theta * theta * val, error_bound=0.0, m=0)
    if method == "pfq":
        f = generalized_pfq((1.0, 1.0), (2.0, theta + 3.0), -theta, acc)
        tail = -theta * theta / (theta + 2.0) * f
        return LimitEstimate(value=head + tail, error_bound=0.0, m=0)
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# E[C_j(n)]

def _cycle_ends(pv: np.ndarray, j: int) -> list:
    """r_l = P(a j-cycle ends at index l) at horizon n = pv.size - 1, where
    pv is ``p.values(n)``, as a list over l = 0..n+1 (0 for l <= j).

    The cycle needs a 1 at l (the virtual m_{n+1} = 1 for the top cycle),
    0s at l-1..l-j+1 and a 1 at l-j:
    r_l = m_l q_{l-j} p_{l-j+1} ... p_{l-2}.
    """
    n = pv.size - 1
    if n < j:
        return [0.0] * (n + 2)
    # position k of each slice below is index l = j + 1 + k
    ends = marginals(1.0 - pv, 1)[j + 1:] * (1.0 - pv[1:n + 2 - j])
    for d in range(j - 1, 1, -1):
        ends *= pv[j + 1 - d:n + 2 - d]
    return [0.0] * (j + 1) + ends.tolist()


def mean_cj(n: int, j: int, p: PSequence) -> float:
    """Expected number of j-cycles at horizon n, the sum of the cycle-end
    probabilities."""
    if j < 2:
        raise ValueError("j must be >= 2 (no 1-cycles in a derangement)")
    return math.fsum(_cycle_ends(p.values(n), j))


def mean_cj_eta(n: int, j: int, theta: float) -> float:
    """Closed form for E[C_j(n)] under the eta chain."""
    if j < 2:
        raise ValueError("j must be >= 2")
    if n < j:
        return 0.0
    if j == n:
        if n == 2:
            return 1.0
        return math.exp(
            math.lgamma(n - 1.0)
            - float(_sp.gammaln(theta + 2 + n - 3) - _sp.gammaln(theta + 2))
        )
    if j == n - 1:
        return 0.0
    return mean_cj(n, j, PSequence.eta(theta))


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
                       acc: AccuracySpec = DEFAULT_ACC) -> float:
    """int_0^1 e^{-theta x} (1-x)^{power} dx."""
    return integrate(lambda x: math.exp(-theta * x) * (1.0 - x) ** power,
                     (0.0, 1.0), acc)


def mean_cj_eta_limit(theta: float, j: int, method: str = "series", m: int = 2,
                      acc: AccuracySpec = DEFAULT_ACC) -> LimitEstimate:
    """lim_n E[C_j(n)] under the eta chain.

    Methods: 'series' (head integral plus alternating b-bar corrections,
    error bracket b-bar_{2m+1}); 'integral' (full double-integral form).
    """
    if j < 2:
        raise ValueError("j must be >= 2")
    if theta <= 0:
        raise ValueError("theta must be positive")
    if method == "series":
        if j >= 3:
            head = (
                theta
                * math.gamma(j - 1.0)
                / rising_factorial(theta + 2.0, j - 3)
                * _exp_beta_integral(theta, theta + j - 1.0, acc)
            )
        else:
            head = theta * _exp_beta_integral(theta, theta + 1.0, acc)
        tail = math.fsum(
            (-1) ** (k + 1) * eta_bbar(theta, j, k) for k in range(1, 2 * m + 1)
        )
        return _finite(LimitEstimate(
            value=head + tail,
            error_bound=abs(eta_bbar(theta, j, 2 * m + 1)),
            m=m,
        ))
    if method == "integral":
        def f(x, y):
            return (
                theta
                * theta
                * math.exp(-theta * y)
                * x ** (theta - 1.0)
                * (1.0 - x) ** (j - 2.0)
                * (1.0 - y) ** (theta + j - 1.0)
                / (1.0 - x + x * y) ** (j - 1.0)
            )

        val = integrate(f, ((0.0, 1.0), (0.0, 1.0)), acc)
        if j >= 3:
            theta_bracket = theta * rising_factorial(theta + 1.0, j)  # theta_(j+1)
            corr = (
                theta**3
                * math.gamma(j - 1.0)
                / theta_bracket
                * (
                    theta
                    + j
                    - 1.0
                    - ((theta + j - 1.0) ** 2 + j - 1.0)
                    * _exp_beta_integral(theta, theta + j, acc)
                )
            )
            val += corr
        else:
            val -= (
                theta * theta / (theta + 1.0)
                * _exp_beta_integral(theta, theta + 2.0, acc)
            )
        return LimitEstimate(value=val, error_bound=0.0, m=0)
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# second moments

def second_moments(n: int, j: int, p: PSequence) -> float:
    """Var(C_j(n)) by renewal at each cycle end.

    Given a j-cycle ending at u, index u-j-1 is forced to 0 and the chain
    below it is a fresh horizon-(u-j-1) chain, so
    E[C_j^2] = E[C_j] + 2 sum_u r_u E[C_j(u-j-1)].
    """
    if j < 2:
        raise ValueError("j must be >= 2")
    pv = p.values(n)
    ends = _cycle_ends(pv, j)
    mean = math.fsum(ends)
    # pv[:u - j] is p.values(u - j - 1)
    cross = math.fsum(r * math.fsum(_cycle_ends(pv[:u - j], j))
                      for u, r in enumerate(ends) if r)
    return math.fsum((mean, 2.0 * cross, -mean * mean))


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
    point), by the positive recursion lambda_0 = 1, lambda_1 = 0,
    lambda_m = (m-1)/(theta+m-1) (lambda_{m-1} + theta lambda_{m-2}/(theta+m-2)).

    Every term is nonnegative, so large theta loses nothing to the
    cancellation of the alternating sum over fixed points."""
    if n < 1:
        raise ValueError("n must be >= 1")
    prev, cur = 1.0, 0.0
    for m in range(2, n + 1):
        prev, cur = cur, (m - 1) / (theta + m - 1.0) * (cur + theta * prev / (theta + m - 2.0))
    return cur
