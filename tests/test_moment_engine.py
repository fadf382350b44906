"""The marginal recursion and the moments built on it, over random
tabulated continue-probabilities, against the oracle's DP and enumeration."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from derange import oracle
from derange.chains import ChainKind, marginal_one
from derange.moments import mean_cj, mean_k, second_moments
from derange.params import PSequence, ThetaSequence

TOL = 1e-12


def tables(max_n):
    """(n, p) with p_3..p_n drawn from [0.05, 0.95]; the table rejects any
    index above n, so the engine may read nothing past the horizon."""
    return st.integers(2, max_n).flatmap(
        lambda n: st.lists(st.floats(0.05, 0.95), min_size=n - 2, max_size=n - 2)
        .map(lambda vals: (n, PSequence.tabulated([0.0, 1.0] + vals)))
    )


@given(tables(40))
def test_engine_matches_dp(case):
    n, p = case
    kind = ChainKind.x(p)
    marg = oracle._marginal_dp(oracle._rows(kind, n), n)
    for i in range(1, n + 1):
        assert marginal_one(kind, i, n) == pytest.approx(marg[i], abs=TOL)
    assert mean_k(n, p) == pytest.approx(
        oracle.dp_moments(kind, n)["mean_k"], abs=TOL)
    for j in range(2, n + 1):
        dp = oracle.dp_moments(kind, n, targets=("mean_cj", "var_cj"), j=j)
        assert mean_cj(n, j, p) == pytest.approx(dp["mean_cj"], abs=TOL)
        assert second_moments(n, j, p) == pytest.approx(dp["var_cj"], abs=TOL)


@given(tables(12))
def test_engine_matches_enumeration(case):
    n, p = case
    kind = ChainKind.x(p)
    enum = oracle.enumeration_moments(kind, n)
    law = oracle.exact_law(kind, n)
    for i in range(1, n + 1):
        brute = sum(pr for w, pr in law.items() if w[i - 1] == 1)
        assert marginal_one(kind, i, n) == pytest.approx(brute, abs=TOL)
    assert mean_k(n, p) == pytest.approx(enum["mean_k"], abs=TOL)
    for j in range(2, n + 1):
        assert mean_cj(n, j, p) == pytest.approx(enum["mean_c"][j], abs=TOL)
        assert second_moments(n, j, p) == pytest.approx(enum["cov_c"][j][j], abs=TOL)


def test_mean_k_conditionally_linked():
    p = PSequence.from_theta_conditional(ThetaSequence.constant(0.7))
    for n in (2, 3, 30):
        assert mean_k(n, p) == pytest.approx(
            oracle.dp_moments(ChainKind.x(p), n)["mean_k"], abs=TOL)


def test_moments_below_cycle_length_vanish():
    p = PSequence.eta(0.6)
    assert mean_cj(4, 5, p) == 0.0
    assert second_moments(4, 5, p) == 0.0
