import math

import numpy as np
import pytest

from derange.coupling import g_values, gamma_n
from derange.moments import lambda_esf
from derange.params import (
    _CHUNK,
    _at,
    PSequence,
    TableRangeError,
    ThetaSequence,
    conditional_theta,
    pushforward_theta,
)


def test_theta_constant_and_boundaries():
    ts = ThetaSequence.constant(0.7)
    assert ts(1) == 1.0
    for i in range(3, 10):
        assert ts(i) == 0.7


def test_eta_star_values():
    theta = 0.6
    ts = ThetaSequence.eta_star(theta)
    assert ts(3) == pytest.approx(theta)
    for i in range(4, 12):
        assert ts(i) == pytest.approx(theta * (1.0 + theta / (i - 2)))


def test_coin_prob():
    ts = ThetaSequence.constant(2.0)
    for i in range(2, 8):
        assert ts.coin_prob(i) == pytest.approx(ts(i) / (i - 1 + ts(i)))


def test_p_boundaries_enforced():
    p = PSequence.eta(0.5)
    assert p(1) == 0.0
    assert p(2) == 1.0
    assert p.q(1) == 1.0
    assert p.q(2) == 0.0


def test_eta_values():
    theta = 1.3
    p = PSequence.eta(theta)
    for i in range(3, 10):
        assert p(i) == pytest.approx((i - 1) / (theta + i - 1))


def test_links_are_inverse():
    p = PSequence.eta(0.8)
    ts = conditional_theta(p)
    p2 = PSequence.from_theta_conditional(ts)
    for i in range(3, 15):
        assert p2(i) == pytest.approx(p(i), rel=1e-12)

    ts = pushforward_theta(p)
    p3 = PSequence.from_theta_pushforward(ts)
    for i in range(3, 15):
        assert p3(i) == pytest.approx(p(i), rel=1e-12)


def test_conditional_theta_of_a_conditional_inverse_is_exact():
    # the round trip through p would only hold to rounding
    for ts, p in ((ThetaSequence.eta_star(0.7),
                   PSequence.from_theta_conditional(ThetaSequence.eta_star(0.7))),
                  (ThetaSequence.constant(0.7), PSequence.eta_tilde(0.7))):
        back = conditional_theta(p, theta2=0.4)
        assert back(2) == 0.4
        assert (back.values(50)[3:] == ts.values(50)[3:]).all()


def test_pushforward_theta_closed_form():
    # p_i = (i-1)/(i-1+theta_i)  <=>  theta_i = (i-1) q_i / p_i
    p = PSequence.eta(0.5)
    ts = pushforward_theta(p)
    for i in range(3, 10):
        assert ts(i) == pytest.approx(0.5, rel=1e-12)


def test_tabulated_roundtrip():
    vals = [0.0, 1.0, 0.3, 0.6, 0.4]
    p = PSequence.tabulated(vals, tail_rule="constant")
    assert p(3) == 0.3
    assert p(5) == 0.4
    assert p(9) == 0.4  # constant tail


def test_scaled_theta1():
    ts = ThetaSequence.constant(0.5)
    s = ts.scaled(2.0)
    assert s(1) == 1.0  # the convention theta_1 = 1 is not scaled
    assert s(3) == pytest.approx(2.0 * ts(3))


def _families():
    p = PSequence.eta(0.7)
    return {
        "eta": PSequence.eta(0.5),
        "eta_star": ThetaSequence.eta_star(0.5, 0.3),
        "constant": ThetaSequence.constant(40.0),
        "tabulated_p": PSequence.tabulated([0.0, 1.0, 0.3, 0.6, 0.4], tail_rule="constant"),
        "tabulated_theta": ThetaSequence.tabulated([1.0, 0.4, 2.0, 0.1], tail_rule="constant"),
        "conditional_theta": conditional_theta(p, theta2=0.6),
        "pushforward_theta": pushforward_theta(p),
        "from_theta_pushforward": PSequence.from_theta_pushforward(ThetaSequence.eta_star(0.8)),
        "from_theta_conditional": PSequence.from_theta_conditional(ThetaSequence.constant(0.7)),
        "eta_tilde": PSequence.eta_tilde(3.0),
        "scaled": ThetaSequence.eta_star(0.5).scaled(1.7),
        "holst": ThetaSequence.holst(0.5, 2.0, 0.7),
    }


def _assert_same(got, want, ulps):
    if ulps:
        np.testing.assert_array_max_ulp(np.asarray(got), np.asarray(want), maxulp=ulps)
    else:
        assert list(got) == list(want)


@pytest.mark.parametrize("name", sorted(_families()))
def test_values_equal_scalar_calls(name):
    seq = _families()[name]
    # numpy's power may differ from the C library's by one ulp; Holst's sum
    # and quotient carry that to two in theta_i and four in its coin probability
    ulps, coin_ulps = (2, 4) if name == "holst" else (0, 0)
    n = 60
    v = seq.values(n)
    assert v.dtype == np.float64 and v.shape == (n + 1,)
    assert v[0] == 0.0
    _assert_same(v[1:], [seq(i) for i in range(1, n + 1)], ulps)
    assert seq.values(7).tolist() == v[:8].tolist()
    if isinstance(seq, ThetaSequence):
        _assert_same(seq.coin_probs(n)[1:], [seq.coin_prob(i) for i in range(1, n + 1)],
                     coin_ulps)
    # values(n) evaluates in chunks of indices from 3 on; check across their seams
    n = 2 * _CHUNK + 5
    v = seq.values(n)
    seams = (_CHUNK - 1, _CHUNK, _CHUNK + 1, _CHUNK + 2, _CHUNK + 3, 2 * _CHUNK + 3, n)
    _assert_same(v[list(seams)], [seq(i) for i in seams], ulps)


def test_values_conventions_and_checks():
    assert PSequence.eta(0.5).values(2).tolist() == [0.0, 0.0, 1.0]
    assert ThetaSequence.constant(0.5, theta2=0.2).values(2).tolist() == [0.0, 1.0, 0.2]
    assert PSequence.eta(0.5).values(0).tolist() == [0.0]
    with pytest.raises(ValueError):
        PSequence.tabulated([0.0, 1.0, 0.5, 1.0]).values(4)
    with pytest.raises(IndexError):
        PSequence.tabulated([0.0, 1.0, 0.5]).values(4)
    with pytest.raises(IndexError):
        ThetaSequence.tabulated([1.0, 1.0, 0.5])(4)
    with pytest.raises(ValueError):
        PSequence.eta(0.5).values(-1)
    with pytest.raises(ValueError, match="n must be nonnegative"):
        PSequence.eta_tilde(0.5).values(-1)


@pytest.mark.parametrize("ts", [ThetaSequence.constant(0.7), ThetaSequence.constant(40.0),
                                ThetaSequence.constant(0.01), ThetaSequence.eta_star(0.5)],
                         ids=lambda ts: ts.label)
def test_conditional_inverse_is_g_ratio(ts):
    # the ratio recursion against p_i = G_{i-1}/G_i from the G recursion
    n = 3000
    g = g_values(ts, n)
    want = [0.0, 0.0, 1.0] + [g[i - 1] / g[i] for i in range(3, n + 1)]
    got = PSequence.from_theta_conditional(ts).values(n)
    assert got.tolist() == pytest.approx(want, rel=1e-13)


def _ratio_recursion(ts, n):
    """p_0..p_n of the conditional inverse of ts by one run of the ratio
    recursion from p_2 = 1 (the reference)."""
    theta, out = ts.values(n).tolist(), [0.0, 0.0, 1.0]
    for k in range(3, n + 1):
        out.append(1.0 / (1.0 + theta[k] * out[-1] / (k - 1)))
    return out[:n + 1]


@pytest.mark.parametrize("make", [lambda: PSequence.eta_tilde(1.3),
                                  lambda: PSequence.from_theta_conditional(
                                      ThetaSequence.eta_star(0.8))],
                         ids=["eta_tilde", "cond_eta_star"])
def test_conditional_inverse_runs_on_bit_for_bit(make):
    n = 2000
    want = _ratio_recursion(make().thetaseq, n)
    up, down, mixed = make(), make(), make()
    assert [up(i) for i in range(1, n + 1)] == want[1:]
    assert [down(i) for i in range(n, 0, -1)] == want[:0:-1]
    order = np.random.default_rng(3).permutation(np.arange(1, n + 1)).tolist()
    for i in order[:300]:
        assert mixed(i) == want[i]
        assert mixed.values(i // 2).tolist() == want[:i // 2 + 1]
    assert mixed.values(n).tolist() == want
    # values(n) is a fresh array: writing into it leaves the sequence alone
    mixed.values(n)[:] = 0.5
    assert mixed.values(n).tolist() == want and mixed(n) == want[n]


def test_conditional_inverse_reads_each_theta_once():
    # calls at growing indices run the recursion on, never from p_2 again
    seen = []

    def ev(i):
        seen.extend(np.atleast_1d(i).tolist())
        return 0.7

    p = PSequence.from_theta_conditional(ThetaSequence("counted", ev))
    for i in range(1, 501):
        p(i)
    p.values(400)
    assert seen == list(range(3, 501))
    # a refused index leaves the run so far in place
    table = ThetaSequence.tabulated([1.0] * 8)
    q = PSequence.from_theta_conditional(table)
    assert q(5) == _ratio_recursion(table, 5)[5]
    with pytest.raises(ValueError, match="no entry for i=9"):
        q.values(9)
    assert q.values(8).tolist() == _ratio_recursion(table, 8)


def test_eta_tilde_matches_derangement_probabilities():
    for theta in (0.3, 1.0, 2.5):
        p = PSequence.eta_tilde(theta)
        for i in range(3, 40):
            num = (theta + i - 1) * lambda_esf(i, theta)
            assert p(i) == pytest.approx(num / (num + theta * lambda_esf(i - 1, theta)),
                                         rel=1e-12)


def test_tabulated_reject_is_a_value_error():
    # the library's rejected-input contract is ValueError; IndexError stays
    with pytest.raises(ValueError, match="no entry for i=4"):
        PSequence.tabulated([0.0, 1.0, 0.5]).values(4)
    with pytest.raises(ValueError, match="no entry for i=4"):
        ThetaSequence.tabulated([1.0, 1.0, 0.5])(4)


@pytest.mark.parametrize("p", [
    PSequence.eta(0.5),
    PSequence.tabulated([0.0, 1.0] + [0.2 + 0.7 * ((k * 37) % 11) / 11 for k in range(3, 200)],
                        tail_rule="constant"),
    PSequence.from_theta_pushforward(ThetaSequence.eta_star(0.8)),
], ids=["eta", "tabulated", "pushforward"])
def test_conditional_theta_values_equal_scalar_calls(p):
    # the array evaluator reads p once per index; values, coin_probs and
    # seq(i) keep the expression (i-1)(1-p_i)/(p_i p_{i-1}) bit for bit
    th = conditional_theta(p)
    n = _CHUNK + 300
    assert th.values(n)[1:].tolist() == [th(i) for i in range(1, n + 1)]
    assert th.coin_probs(n)[1:].tolist() == [th.coin_prob(i) for i in range(1, n + 1)]
    i = np.array([n, 7, 400, 3, _CHUNK])  # unsorted, gapped indices
    assert th._eval(i).tolist() == [th(int(k)) for k in i]


def test_conditional_theta_of_a_rejecting_table_raises_at_its_end():
    th = conditional_theta(PSequence.tabulated([0.0, 1.0, 0.5, 0.6]))
    assert th.values(4)[3:].tolist() == [th(3), th(4)]
    with pytest.raises(TableRangeError, match="no entry for i=10"):
        th.values(10)
    with pytest.raises(TableRangeError, match="no entry for i=5"):
        th(5)


def test_theta_values_past_the_float_range_are_rejected():
    # eta_star's theta_i = theta (1 + theta/(i - 2)) overflows from i = 4 at
    # theta = 1e200; its coin probabilities would be inf/inf = NaN
    seq = ThetaSequence.eta_star(1e200)
    assert seq(3) == 1e200
    with pytest.raises(ValueError, match=r"theta_4 = inf is not positive and finite"):
        seq.values(6)
    with pytest.raises(ValueError, match=r"theta_5 = inf is not positive and finite"):
        seq(5)
    with pytest.raises(ValueError, match="not positive and finite"):
        gamma_n(seq, 10)
    nan_seq = ThetaSequence("custom", lambda i: i * math.nan)
    for call in (lambda: nan_seq.values(4), lambda: nan_seq(4)):
        with pytest.raises(ValueError, match=r"theta_3 = nan|theta_4 = nan"):
            call()


def test_array_range_errors_name_the_first_bad_index():
    # past index 2 the family is evaluated without the head bookkeeping;
    # the range check still names the first bad index, on both paths
    p = PSequence.tabulated([0.0, 1.0, 0.5, 0.6, 1.5, 0.2, 2.0], tail_rule="constant")
    with pytest.raises(ValueError, match=r"p_5 = 1.5 must lie in \(0, 1\)"):
        p.values(7)
    for i in (np.array([3, 4, 7, 5]), np.array([1, 2, 7, 5])):
        with pytest.raises(ValueError, match=r"p_7 = 2.0 must lie"):
            _at(p, i)
    th = ThetaSequence("custom", lambda i: 4.0 - i)
    with pytest.raises(ValueError, match=r"theta_4 = 0.0 is not positive"):
        th.values(6)
    # a constant family's evaluator returns one number for a whole array
    assert _at(ThetaSequence.constant(2), np.array([3, 9])).tolist() == [2.0, 2.0]
    assert _at(ThetaSequence.constant(2), np.array([9, 1, 2])).tolist() == [2.0, 1.0, 2.0]
