import math
import re
import time

import mpmath
import pytest

from derange import oracle
from derange.chains import ChainKind, transition_matrix
from derange.moments import (
    cov_eta,
    lambda_esf,
    mean_cj,
    mean_cj_eta,
    mean_cj_eta_limit,
    mean_k,
    mean_k_eta,
    mean_k_eta_limit,
    second_moments,
)
from derange.numerics import DEFAULT_ACC, AccuracySpec, NumericsError
from derange.params import PSequence


@pytest.fixture(scope="module")
def enum():
    p = PSequence.eta(0.6)
    return p, oracle.enumeration_moments(ChainKind.x(p), 10, j_max=10)


def test_mean_k_vs_enumeration(enum):
    p, moments = enum
    assert mean_k(ChainKind.x(p), 10) == pytest.approx(moments["mean_k"], abs=1e-12)


def test_mean_cj_vs_enumeration(enum):
    p, moments = enum
    for j in range(2, 11):
        assert mean_cj(ChainKind.x(p), 10, j) == pytest.approx(moments["mean_c"][j], abs=1e-12)


def test_mean_c1_rejected():
    # derangements have no fixed points; 1-cycle requests are guard errors
    with pytest.raises(ValueError):
        mean_cj(ChainKind.eta(0.6), 10, 1)


@pytest.mark.parametrize("call, fragment", [
    (lambda n: mean_cj(ChainKind.eta(0.6), n, 2), "ChainKind(ETA) needs n >= 2"),
    (lambda n: mean_cj_eta(n, 2, 0.6), "n must be >= 2"),
    (lambda n: second_moments(ChainKind.eta(0.6), n, 2), "ChainKind(ETA) needs n >= 2"),
], ids=["mean_cj", "mean_cj_eta", "second_moments"])
def test_cycle_moments_need_a_derangement(call, fragment):
    # as mean_k: no derangement of fewer than 2 points
    for n in (0, 1):
        with pytest.raises(ValueError, match=re.escape(fragment)):
            call(n)


def test_var_vs_enumeration(enum):
    p, moments = enum
    for j in range(2, 9):
        assert second_moments(ChainKind.x(p), 10, j) == pytest.approx(
            moments["cov_c"][j][j], abs=1e-12
        )


def test_cov_eta_bits_vs_enumeration():
    # covariance of the word bits themselves
    theta = 0.6
    p = PSequence.eta(theta)
    n = 10
    law = oracle.exact_law(ChainKind.x(p), n)
    for i, j in [(4, 6), (3, 7), (5, 8)]:
        e_i = math.fsum(pr for w, pr in law.items() if w[i - 1] == 1)
        e_j = math.fsum(pr for w, pr in law.items() if w[j - 1] == 1)
        e_ij = math.fsum(
            pr for w, pr in law.items() if w[i - 1] == 1 and w[j - 1] == 1
        )
        assert cov_eta(n, i, j, theta) == pytest.approx(e_ij - e_i * e_j, abs=1e-11)


def test_eta_closed_forms_match_generic():
    theta = 0.8
    p = PSequence.eta(theta)
    for n in (8, 15):
        assert mean_k_eta(n, theta) == pytest.approx(mean_k(ChainKind.x(p), n), rel=1e-12)
        for j in range(2, n + 1):
            assert mean_cj_eta(n, j, theta) == pytest.approx(
                mean_cj(ChainKind.x(p), n, j), rel=1e-11, abs=1e-13
            )


def test_mean_cj_eta_at_j_equal_n_is_near_one_ulp():
    # E[C_n(n)] = Gamma(n-1) Gamma(theta+2) / Gamma(theta+n-1); at theta = 1
    # it is 2/(n-1) exactly, and a difference of lgamma values of size
    # n log n would leave ~1e-12 here
    got = mean_cj_eta(1000, 1000, 1.0)
    assert abs(got - 2 / 999) <= 1e-14 * (2 / 999)
    for theta in (0.3, 2.5):
        with mpmath.workdps(40):
            ref = mpmath.fprod(mpmath.mpf(k) / (k + mpmath.mpf(theta)) for k in range(2, 499))
            assert abs(mean_cj_eta(500, 500, theta) - ref) <= 1e-14 * ref


def test_mean_cj_limit_methods_agree():
    for theta in (0.01, 0.1, 0.5, 1.0, 3.0):
        for j in (2, 3, 5, 7):
            a = mean_cj_eta_limit(theta, j, method="series", m=12)
            b = mean_cj_eta_limit(theta, j, method="integral")
            assert b.value == pytest.approx(a.value, rel=1e-12, abs=a.error_bound), (theta, j)


@pytest.mark.parametrize("theta", [0.5, 2.0, 3.0])
def test_mean_cj_limit_integral_bracket_is_honest_at_j2(theta):
    # 40-digit reference: the head integral plus the whole alternating
    # b-bar series of the series method, summed by mpmath
    with mpmath.workdps(40):
        th = mpmath.mpf(theta)
        head = th * mpmath.quad(lambda x: mpmath.exp(-th * x) * (1 - x) ** (th + 1), [0, 1])

        def bbar(k):
            first = (th**k * mpmath.gamma(k) * (k + th * (k + 1))
                     / (mpmath.rf(th + 1, k) * mpmath.rf(1, k + 1)))
            second = th**k * ((k + 1 + 2 * th) * (th + 2) - k) / mpmath.rf(th + 1, k + 2)
            return first - second

        ref = head + mpmath.nsum(lambda k: (-1) ** (k + 1) * bbar(k), [1, mpmath.inf])
        est = mean_cj_eta_limit(theta, 2, method="integral")
        assert abs(mpmath.mpf(est.value) - ref) <= est.error_bound


def test_mean_cj_limit_integral_small_theta():
    # the series value; nested adaptive quadrature was 4.3e-10 off here
    est = mean_cj_eta_limit(0.01, 2, method="integral")
    assert est.value == pytest.approx(0.0050000686910998, rel=1e-10)


@pytest.mark.parametrize("est", [
    lambda acc: mean_cj_eta_limit(0.01, 2, method="integral", acc=acc),
    lambda acc: mean_cj_eta_limit(3.0, 5, method="integral", acc=acc),
    lambda acc: mean_k_eta_limit(0.5, method="integral", acc=acc),
    lambda acc: mean_k_eta_limit(100.0, method="integral", acc=acc),
])
def test_limit_integrals_report_achieved_error(est):
    for acc in (DEFAULT_ACC, AccuracySpec(abs_tol=1e-8, rel_tol=1e-8)):
        got = est(acc)
        assert 0 < got.error_bound <= max(acc.abs_tol, acc.rel_tol * abs(got.value))
    # a tolerance below rounding cannot be met and raises, never returns
    with pytest.raises(NumericsError):
        est(AccuracySpec(abs_tol=1e-30, rel_tol=1e-30))


def test_mean_cj_limit_is_large_n_limit():
    # n = 4000 evaluation should be within ~1/n of the limit
    theta = 0.5
    for j in (2, 3):
        lim = mean_cj_eta_limit(theta, j, m=4).value
        assert abs(mean_cj_eta(4000, j, theta) - lim) < 5e-3


def test_limit_series_overflow_raises():
    # theta^k Gamma(k) in the high b-bar terms overflows to inf - inf
    with pytest.raises(NumericsError):
        mean_cj_eta_limit(20.0, 2, m=60)


def test_mean_k_limit_methods_agree():
    for theta in (0.5, 1.5):
        a = mean_k_eta_limit(theta, m=4, method="series")
        b = mean_k_eta_limit(theta, method="integral")
        c = mean_k_eta_limit(theta, method="pfq")
        assert a.value == pytest.approx(b.value, abs=max(a.error_bound, 1e-8))
        assert b.value == pytest.approx(c.value, abs=1e-8)


@pytest.mark.parametrize("theta,j", [(0.5, 2), (0.5, 3), (3.0, 4)])
def test_mean_cj_limit_series_bracket_covers_integral(theta, j):
    # the series bracket includes the quadrature error of its head integral
    series = mean_cj_eta_limit(theta, j, m=20)
    integral = mean_cj_eta_limit(theta, j, method="integral")
    assert abs(series.value - integral.value) <= series.error_bound + integral.error_bound


@pytest.mark.parametrize("theta", [0.5, 2.0])
def test_mean_k_limit_pfq_reports_truncation(theta):
    pfq = mean_k_eta_limit(theta, method="pfq")
    integral = mean_k_eta_limit(theta, method="integral")
    assert pfq.error_bound > 0
    assert abs(pfq.value - integral.value) <= pfq.error_bound + integral.error_bound


def test_mean_k_limit_is_log_n_centering():
    theta = 0.5
    lim = mean_k_eta_limit(theta, m=5).value
    n = 20000
    assert abs(mean_k_eta(n, theta) - theta * math.log(n) - lim) < 2e-3


def test_lambda_esf_uniform_case():
    # theta = 1 reduces to the classical derangement probability !n / n!
    subfact = [1, 0]
    for n in range(2, 12):
        subfact.append((n - 1) * (subfact[-1] + subfact[-2]))
    for n in range(1, 12):
        assert lambda_esf(n, 1.0) == pytest.approx(
            subfact[n] / math.factorial(n), rel=1e-12
        )


def test_lambda_esf_vs_cycle_type_sum():
    # sum of Ewens-sampling-formula weights over fixed-point-free cycle
    # types: n!/theta_(n) * sum_{c: c_1=0} prod (theta/j)^{c_j} / c_j!
    from scipy.special import poch

    theta = 0.7
    for n in range(2, 9):
        total = 0.0

        def rec(j, remaining, weight):
            nonlocal total
            if remaining == 0:
                total += weight
                return
            if j > remaining:
                return
            c = 0
            w = weight
            while j * c <= remaining:
                if c > 0:
                    w *= theta / j / c
                rec(j + 1, remaining - j * c, w)
                c += 1

        rec(2, n, 1.0)
        assert lambda_esf(n, theta) == pytest.approx(
            math.factorial(n) / poch(theta, n) * total, rel=1e-11
        )


@pytest.mark.parametrize("theta", [20.0, 40.0, 100.0])
def test_lambda_esf_at_large_theta(theta):
    # the alternating sum sum_j (-theta)^j C(n, j) / (n+theta-j)_(j) at 200
    # digits; in floats its cancellation leaves no correct digit at large theta
    with mpmath.workdps(200):
        th = mpmath.mpf(theta)
        for n in (2, 5, 30, 60, 200):
            ref = mpmath.fsum(mpmath.binomial(n, j) * (-th) ** j / mpmath.rf(n + th - j, j)
                              for j in range(n + 1))
            assert lambda_esf(n, theta) == pytest.approx(float(ref), rel=1e-13)


@pytest.mark.parametrize("theta", [1e-300, 1e-17, 1e-15, 1e-8, 0.01])
def test_lambda_esf_at_small_theta(theta):
    # the sum over fixed points at 60 digits, sum_k (-theta)^k/k! n!/(n-k)!
    # / (theta+n-k)_(k), its theta + (n - k) formed first: (theta + n) - k
    # would round theta away below the float spacing near n
    with mpmath.workdps(60):
        th = mpmath.mpf(theta)
        for n in (2, 3, 5, 30, 100):
            ref = mpmath.fsum((-th) ** k / mpmath.factorial(k) * mpmath.ff(n, k)
                              / mpmath.rf(th + (n - k), k) for k in range(n + 1))
            assert lambda_esf(n, theta) == pytest.approx(float(ref), rel=1e-13, abs=0.0), n


@pytest.mark.parametrize("theta", [0.0, -1.0, -0.5, math.nan, math.inf])
def test_lambda_esf_rejects_theta_outside_the_positive_reals(theta):
    for n in (1, 2, 5):
        with pytest.raises(ValueError, match="theta must be positive"):
            lambda_esf(n, theta)


@pytest.mark.parametrize("theta", [math.nan, math.inf, 0.0])
def test_eta_closed_forms_reject_theta_outside_the_positive_reals(theta):
    # j = n and n < j return before the eta sequence is built
    for call in (lambda: mean_cj_eta(5, 5, theta), lambda: mean_cj_eta(5, 7, theta),
                 lambda: mean_k_eta(5, theta), lambda: mean_k(ChainKind.eta(theta), 5),
                 lambda: mean_cj_eta_limit(theta, 3)):
        with pytest.raises(ValueError, match="theta must be positive and finite"):
            call()


def test_mean_k_eta_at_theta_near_the_float_range():
    # theta^2 overflows at 1e200; the closed form takes the product of two
    # ratios instead
    for n in (10, 40):
        assert mean_k_eta(n, 1e200) == pytest.approx(mean_k(ChainKind.eta(1e200), n),
                                                      rel=1e-12)


@pytest.mark.parametrize("call", [
    lambda: mean_cj_eta_limit(1e200, 3),
    lambda: mean_k_eta_limit(1e200),
], ids=["mean_cj_eta_limit", "mean_k_eta_limit"])
def test_eta_limits_past_the_float_range_raise_numerics_error(call):
    # (theta + 2)_(j) and theta^(j + 1) leave the float range at theta = 1e200
    with pytest.raises(NumericsError, match="overflows the float range"):
        call()


def test_integral_limit_past_the_float_range_raises_numerics_error():
    # theta^2 times the integral is -inf at theta = 1e200, with an inf error
    # that a relative tolerance alone would pass
    with pytest.raises(NumericsError, match="misses the tolerance for -inf"):
        mean_k_eta_limit(1e200, method="integral")


@pytest.mark.parametrize("theta", [1e11, 1e50])
def test_pfq_limit_that_cannot_converge_raises_before_summing(theta):
    # every 2F2 term up to max_terms is above abs_tol; summing them all took
    # about a second.  The first call also loads scipy for the head term
    for _ in range(2):
        start = time.perf_counter()
        with pytest.raises(NumericsError, match="cannot converge"):
            mean_k_eta_limit(theta, method="pfq")
    assert time.perf_counter() - start < 0.05


@pytest.mark.parametrize("theta, value, bound", [
    (0.5, 0.5550694087146668, 1.8639633889612684e-17),
    (100.0, -529.4558488969133, 1.9633079022803015e-11),
    (1e8, -1911382792.0762815, 9.983368559602089e-05),
])
def test_pfq_limit_below_the_convergence_bound_is_unchanged(theta, value, bound):
    est = mean_k_eta_limit(theta, method="pfq")
    assert (est.value, est.error_bound) == (value, bound)


@pytest.mark.parametrize("theta", [1e50, 1e200])
def test_mean_cj_integral_past_the_float_range_raises_numerics_error(theta):
    # the j = 2 integrand overflows in a division; numpy's warning of it,
    # an exception under warnings-as-errors, must not escape in its place
    with pytest.raises(NumericsError, match="integrand is not finite"):
        mean_cj_eta_limit(theta, 2, method="integral")


def test_cov_eta_at_large_n():
    # P(bit_i = bit_j = 1) - m_i m_j from the transition rows: the chain
    # runs down from j, so propagate from a 1 at j to index i
    theta, n = 0.6, 400
    kind = ChainKind.x(PSequence.eta(theta))
    marg = oracle._marginal_dp(oracle._rows(kind, n), n)
    for i, j in [(3, 5), (10, 17), (150, 151), (200, 390)]:
        dist = [0.0, 1.0]
        for r in range(j - 1, i - 1, -1):
            m = transition_matrix(kind, r, n)
            dist = [dist[0] * m[0][0] + dist[1] * m[1][0],
                    dist[0] * m[0][1] + dist[1] * m[1][1]]
        want = marg[j] * dist[1] - marg[i] * marg[j]
        assert cov_eta(n, i, j, theta) == pytest.approx(want, rel=1e-9, abs=1e-15)
