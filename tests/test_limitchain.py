import itertools
import json
import math

import mpmath
import numpy as np
import pytest

from derange import limitchain
from derange.cli import EXIT_OK, run_command
from derange.limitchain import (
    LimitContext,
    delta_i_inf,
    gamma_inf,
    phi,
    phi_eta,
    phi_eta_tilde,
    tv_prefix,
    xinf_transition,
)
from derange.numerics import NumericsError
from derange.params import PSequence, ThetaSequence


def test_phi_boundaries():
    p = PSequence.eta(0.5)
    assert phi(1, p) == 1.0
    assert phi(2, p) == 0.0


def test_phi_series_vs_closed_form_eta():
    theta = 0.5
    p = PSequence.eta(theta)
    for i in range(3, 12):
        assert phi(i, p) == pytest.approx(phi_eta(i, theta), rel=1e-10)
        assert phi(i, p, method="closed_form") == pytest.approx(
            phi_eta(i, theta), rel=1e-10
        )


def test_phi_eta_tilde_consistency():
    for theta in (0.8, 3.0):
        p = PSequence.eta_tilde(theta)
        for i in range(3, 10):
            assert phi(i, p) == pytest.approx(phi_eta_tilde(i, theta), rel=1e-9)
            assert phi(i, p, method="closed_form") == pytest.approx(phi(i, p), rel=1e-9)
    # theta e^theta lambda_{i-1} M(theta+1, theta+i, -theta)/(theta+i-1) at 200
    # digits, lambda by its alternating sum over fixed points; in floats both
    # alternating sums cancel from theta ~ 20 on
    with mpmath.workdps(200):
        for theta in (0.5, 3.0, 20.0, 100.0, 700.0):
            th = mpmath.mpf(theta)
            for i in (3, 10, 50):
                lam = mpmath.fsum(mpmath.binomial(i - 1, j) * (-th) ** j
                                  / mpmath.rf(i - 1 + th - j, j) for j in range(i))
                ref = float(th * mpmath.exp(th) * lam / (th + i - 1)
                            * mpmath.hyp1f1(th + 1, th + i, -th))
                assert phi_eta_tilde(i, theta) == pytest.approx(ref, rel=5e-12), (theta, i)
                assert phi(i, PSequence.eta_tilde(theta), method="closed_form") \
                    == pytest.approx(ref, rel=5e-12), (theta, i)


def test_phi_eta_tilde_refuses_a_lambda_below_the_float_range():
    # lambda_199 at theta = 1e6 underflows to 0, which would read as phi = 0
    with pytest.raises(NumericsError, match="lambda_199 at theta = 1000000.0 is 0.0"):
        phi_eta_tilde(200, 1e6)


def test_phi_constant_q_fixed_point():
    # constant q_i = q for i >= 3 gives phi = q/(1+q) in the tail
    q = 0.2
    p = PSequence.tabulated([0.0, 1.0] + [1.0 - q] * 60, tail_rule="constant")
    val = phi(20, p)
    assert val == pytest.approx(q / (1 + q), rel=1e-10)


def test_fixed_point_identity():
    # q_i (1 - phi_{i+1}) = phi_i for every i >= 2
    p = PSequence.eta(0.7)
    for i in range(2, 12):
        assert p.q(i) * (1.0 - phi(i + 1, p)) == pytest.approx(
            phi(i, p), abs=1e-13
        )


def test_xinf_transition_row():
    p = PSequence.eta(0.6)
    for i in range(2, 10):
        t = xinf_transition(i, p)
        assert 0.0 <= t <= 1.0


def test_tv_theorem_equals_direct():
    for theta in (0.5, 1.0):
        p = PSequence.eta(theta)
        for n in (1, *range(3, 13), 30):  # 30: the oracle sweep's cap
            assert tv_prefix(n, p, "theorem") == pytest.approx(
                tv_prefix(n, p, "direct"), abs=1e-12
            )


def test_gamma_inf_matches_closed_form():
    for theta in (0.5, 0.8, 2.0):
        ts = ThetaSequence.eta_star(theta)
        for i in (2, 3, 4, 6, 10):
            a = gamma_inf(i, ts)
            b = delta_i_inf(theta, i)
            assert a == pytest.approx(b, abs=5e-11)


@pytest.mark.parametrize("theta", [150.0, 300.0])
def test_gamma_inf_at_large_theta_matches_closed_form(theta):
    # below horizon theta^2 the sweeps' tail N c_N c_(N+1) exceeds 1 and
    # their differences are not yet powers of 1/N; at theta = 300 the
    # extrapolation over those sweeps never settled
    value = gamma_inf(5, ThetaSequence.eta_star(theta))
    assert value == pytest.approx(delta_i_inf(theta, 5), rel=1e-10, abs=0)


def test_gamma_inf_tends_to_one():
    ts = ThetaSequence.eta_star(0.5)
    assert gamma_inf(200, ts) > 0.99


@pytest.mark.parametrize("theta, family", [(40.0, "constant"), (60.0, "constant"),
                                           (100.0, "constant"), (40.0, "eta_star")])
def test_gamma_inf_far_below_abs_tol_is_positive(theta, family):
    # values of 1e-17 .. 1e-43: an absolute stop passed at the first
    # extrapolation, which was negative.  The pass's values fall as 1/horizon
    # towards the limit; one Richardson step at large horizons brackets it.
    ts = getattr(ThetaSequence, family)(theta)
    value = delta_i_inf(theta, 3) if family == "eta_star" else gamma_inf(3, ts)
    upto = limitchain._gamma_upto(3, ts, 2**17)
    (_, near, _), (_, far, _) = next(upto), next(upto)
    assert 0.0 < value == pytest.approx(2.0 * far - near, rel=5e-3)


def test_gamma_inf_at_theta_100_from_the_cli(capsys):
    code = run_command(["exact", "--quantity", "gamma_inf", "--i", "3", "--theta", "100",
                        "--format", "json"])
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out)["results"] > 0.0


def test_gamma_inf_with_a_probed_context():
    # gamma_inf's own light eqcond2 probe agrees with the context's verdict
    ts = ThetaSequence.eta_star(0.5)
    assert LimitContext.probe(thetaseq=ts, horizon=10**4).flags["eqcond2"] is True
    assert gamma_inf(3, ts) > 0.0
    # c_i ~ i^-0.7: sum c_i c_{i+1} reads as divergent, so gamma_{i,inf} = 0
    holst = ThetaSequence.holst(1.0, 2.0, 0.7)
    failing = LimitContext.probe(thetaseq=holst, horizon=10**4)
    assert failing.flags["eqcond2"] is False
    with pytest.raises(ValueError, match="does not appear to converge"):
        gamma_inf(3, holst)


def _fake_pass(value):
    """A stand-in for ``_gamma_upto`` reading value(N) at every doubled N,
    its tail already below 1."""
    return lambda i, ts, horizon: ((n, value(n), 0.0)
                                   for n in (horizon << k for k in itertools.count()))


def test_gamma_inf_raises_when_the_sweeps_never_settle(monkeypatch):
    # each doubled horizon moves the extrapolation by as much as its size
    monkeypatch.setattr(limitchain, "_gamma_upto", _fake_pass(float))
    with pytest.raises(NumericsError, match="did not stabilize"):
        gamma_inf(3, ThetaSequence.constant(1.0))


def test_gamma_inf_raises_rather_than_return_zero(monkeypatch):
    monkeypatch.setattr(limitchain, "_gamma_upto", _fake_pass(lambda n: 0.0))
    with pytest.raises(NumericsError):
        gamma_inf(3, ThetaSequence.constant(100.0))


def test_gamma_inf_certify_horizons_unchanged(monkeypatch):
    horizons = []
    upto = limitchain._gamma_upto

    def recorded(i, ts, horizon):
        for item in upto(i, ts, horizon):
            horizons.append(item[0])
            yield item

    monkeypatch.setattr(limitchain, "_gamma_upto", recorded)
    # the closed form stay_3 (delta_4 + c_4 delta_5), 1.5e-16 from mpmath's
    # 0.737836232107849 (perfbench/references.json)
    assert gamma_inf(3, ThetaSequence.eta_star(0.5)) == pytest.approx(
        0.7378362321078491, rel=1e-13)
    assert horizons == [1024, 2048, 4096, 8192]


def test_delta_i_inf_at_i_3_is_closed_form(monkeypatch):
    # gamma_inf at i = 3 is checked against it, so it must not call gamma_inf
    def refuse(*args, **kwargs):
        raise AssertionError("delta_i_inf called gamma_inf")

    monkeypatch.setattr(limitchain, "gamma_inf", refuse)
    assert delta_i_inf(0.5, 3) == pytest.approx(0.737836232107849, rel=1e-15)
    for theta in (0.5, 2.0, 40.0, 300.0):
        stay3 = 2.0 / (2.0 + theta)
        theta4 = theta * (1.0 + theta / 2.0)
        assert delta_i_inf(theta, 3) == pytest.approx(
            stay3 * (delta_i_inf(theta, 4) + theta4 / (3.0 + theta4) * delta_i_inf(theta, 5)),
            rel=1e-15)


def test_divergence_guard():
    # q_i not tending to 0: the limit chain does not exist
    p = PSequence.tabulated([0.0, 1.0] + [0.5] * 50, tail_rule="constant")
    ctx = LimitContext.probe(p=p, horizon=10**4)
    with pytest.raises(ValueError):
        ctx.require("q_vanishes")


def test_probe_accepts_eta():
    p = PSequence.eta(0.5)
    ctx = LimitContext.probe(p=p, horizon=10**4)
    ctx.require("q_vanishes")  # must not raise


def test_probe_from_theta_at_large_horizon():
    # the conditional inverse of eta_star is the eta chain; building it by
    # the O(n) ratio recursion keeps a 1e5 horizon cheap
    ts = ThetaSequence.eta_star(0.5)
    ctx = LimitContext.probe(thetaseq=ts, horizon=10**5)
    linked = LimitContext.probe(p=PSequence.from_theta_conditional(ts), horizon=10**5)
    assert ctx.flags == linked.flags == LimitContext.probe(p=PSequence.eta(0.5), horizon=10**5).flags
    assert all(ctx.flags.values())
    assert ctx.tails["q_vanishes"] == pytest.approx(0.5 / (0.5 + 10**5 - 1), rel=1e-12)


def _probe_entries():
    # c_i ~ i^-0.7: the block ratio 2^-0.4 ~ 0.76 of both sums is above the
    # probe's 0.75, so they read as not converging
    holst = ThetaSequence.holst(1.0, 2.0, 0.7)
    yes, no = (True,) * 4, (True, True, False, False)
    return {
        "eta(0.5)": (dict(p=PSequence.eta(0.5)), yes),
        "eta(3)": (dict(p=PSequence.eta(3.0)), yes),
        "eta_tilde(2)": (dict(p=PSequence.eta_tilde(2.0)), yes),
        "holst_inverse": (dict(p=PSequence.from_theta_conditional(holst)), no),
        "theta_side": (dict(thetaseq=ThetaSequence.eta_star(0.5)), yes),
    }


def _fsum_blocks(terms, h):
    edges = [h // 2**k for k in range(4)]
    return [math.fsum(terms[edges[k + 1] + 1:edges[k] + 1]) for k in range(3)]


def _extrapolated(blocks):
    r = max(a / b for a, b in zip(blocks, blocks[1:]))
    return math.inf if r >= 1.0 else blocks[0] * r / (1.0 - r)


@pytest.mark.parametrize("h", [10**4, 2 * 10**5])
@pytest.mark.parametrize("name", sorted(_probe_entries()))
def test_probe_block_sums_match_an_fsum_reference(name, h):
    kw, flags = _probe_entries()[name]
    ctx = LimitContext.probe(horizon=h, **kw)
    assert tuple(ctx.flags[k] for k in ("divergence", "q_vanishes", "eqcond2", "eqcond4")) == flags
    pv = ctx.p.values(h)
    assert ctx.tails["q_vanishes"] == 1.0 - pv[h]  # bit for bit
    coin = ctx.thetaseq.coin_probs(h + 1)
    want = {"divergence": _fsum_blocks(pv, h)[0],
            "eqcond2": _extrapolated(_fsum_blocks(coin[:-1] * coin[1:], h)),
            "eqcond4": _extrapolated(_fsum_blocks(coin[:-1] ** 2, h))}
    for key, ref in want.items():
        assert ctx.tails[key] == pytest.approx(ref, rel=1e-13), key


def test_probe_does_no_long_fsum(monkeypatch):
    # the block sums are numpy reductions: a boxed fsum over a block of a
    # 1e6 horizon is what they replaced
    fsum = math.fsum

    def short_fsum(items):
        items = list(items)
        assert len(items) <= 64, f"fsum over {len(items)} items"
        return fsum(items)

    monkeypatch.setattr(math, "fsum", short_fsum)
    ctx = LimitContext.probe(p=PSequence.eta(0.5), horizon=10**6)
    assert all(ctx.flags.values())
    assert np.isfinite(list(ctx.tails.values())).all()


@pytest.mark.parametrize("coin, verdict", [
    (lambda i: i**-0.55, False),  # sum c_i^2 = sum i^-1.1 converges
    (lambda i: 1.0 / (np.sqrt(i) * np.log(i)), False),  # c_i^2 = 1/(i log^2 i) converges
    (lambda i: 1.0 / i, True),
], ids=["i^-1.1", "1/(i log^2 i)", "1/i^2"])
def test_eqcond4_is_the_block_ratio_rule(coin, verdict):
    # the probe reads three dyadic blocks at the horizon: a series that
    # converges with block ratios above 0.75 reads False, and require
    # refuses it, though sum c_i^2 is finite
    h = 10**5
    i = np.arange(3, h + 2, dtype=float)
    c = coin(i)
    ts = ThetaSequence.tabulated([1.0, 1.0] + ((i - 1) * c / (1 - c)).tolist())
    ctx = LimitContext.probe(thetaseq=ts, horizon=h)
    assert ctx.flags["eqcond4"] is verdict
    if not verdict:
        with pytest.raises(ValueError, match="'eqcond4' failed its probe"):
            ctx.require("eqcond4")
