"""The marginal recursion and the moments built on it, over random
tabulated continue-probabilities and the coin chain Y, against the
oracle's DP and enumeration."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from derange import oracle
from derange.chains import ChainKind, marginal_one
from derange.coupling import k_distribution
from derange.moments import mean_cj, mean_k, second_moments, var_cj_horizons
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
    assert mean_k(kind, n) == pytest.approx(
        oracle.dp_moments(kind, n)["mean_k"], abs=TOL)
    for j in range(2, n + 1):
        dp = oracle.dp_moments(kind, n, targets=("mean_cj", "var_cj"), j=j)
        assert mean_cj(kind, n, j) == pytest.approx(dp["mean_cj"], abs=TOL)
        assert second_moments(kind, n, j) == pytest.approx(dp["var_cj"], abs=TOL)


@given(tables(12))
def test_engine_matches_enumeration(case):
    n, p = case
    kind = ChainKind.x(p)
    enum = oracle.enumeration_moments(kind, n)
    law = oracle.exact_law(kind, n)
    for i in range(1, n + 1):
        brute = sum(pr for w, pr in law.items() if w[i - 1] == 1)
        assert marginal_one(kind, i, n) == pytest.approx(brute, abs=TOL)
    assert mean_k(kind, n) == pytest.approx(enum["mean_k"], abs=TOL)
    for j in range(2, n + 1):
        assert mean_cj(kind, n, j) == pytest.approx(enum["mean_c"][j], abs=TOL)
        assert second_moments(kind, n, j) == pytest.approx(enum["cov_c"][j][j], abs=TOL)


def test_mean_k_conditionally_linked():
    kind = ChainKind.x(PSequence.from_theta_conditional(ThetaSequence.constant(0.7)))
    for n in (2, 3, 30):
        assert mean_k(kind, n) == pytest.approx(oracle.dp_moments(kind, n)["mean_k"], abs=TOL)


def test_moments_below_cycle_length_vanish():
    kind = ChainKind.eta(0.6)
    assert mean_cj(kind, 4, 5) == 0.0
    assert second_moments(kind, 4, 5) == 0.0


COIN_KINDS = [ChainKind.y(ThetaSequence.constant(t)) for t in (0.01, 0.5, 3.0, 100.0)]
COIN_KINDS.append(ChainKind.y(ThetaSequence.eta_star(0.8)))


def _rel_gap(got: float, want: float) -> float:
    return abs(got - want) / abs(want) if want else abs(got)


@pytest.mark.parametrize("kind", COIN_KINDS, ids=["0.01", "0.5", "3", "100", "eta_star"])
def test_coin_chain_moments_match_dp_and_enumeration(kind):
    # the same engine at gap 0: 1-cycles count, and a j-cycle below the
    # closing 1 renews the chain at the index under it
    for n in range(1, 15):
        enum = oracle.enumeration_moments(kind, n)
        assert _rel_gap(mean_k(kind, n), enum["mean_k"]) <= TOL
        var = var_cj_horizons(kind, n, range(1, n + 1))
        for j in range(1, n + 1):
            dp = oracle.dp_moments(kind, n, targets=("mean_cj", "var_cj"), j=j)
            mean, second = mean_cj(kind, n, j), second_moments(kind, n, j)
            for got, want in ((mean, dp["mean_cj"]), (mean, enum["mean_c"][j]),
                              (second, dp["var_cj"]), (second, enum["cov_c"][j][j]),
                              (var[j - 1, n], dp["var_cj"])):
                assert _rel_gap(got, want) <= TOL, (n, j, got, want)


@pytest.mark.parametrize("kind", [COIN_KINDS[1], COIN_KINDS[-1], ChainKind.x(
    PSequence.from_theta_conditional(ThetaSequence.eta_star(0.8)))], ids=["y", "y_eta_star", "cond"])
def test_mean_k_is_the_mean_of_the_k_law(kind):
    # the marginal recursion against the K-law DP, on both gaps (eta(0.5) at
    # n = 10^5 is test_coupling's)
    for n in (2, 3, 10, 1000, 10**5):
        assert mean_k(kind, n) == pytest.approx(k_distribution(kind, n).mean(), rel=1e-12)
