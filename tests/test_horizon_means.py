"""Var(C_j(n)) by the one-pass all-horizon identity, against a 40-digit DP,
the oracle's renewal DP, and E[C_j(h)] recomputed at each horizon; and
Var(C_j(h)) at every horizon h <= n from one call, against the same
references and against ``second_moments`` at each horizon."""

import json
import math

import mpmath
import numpy as np
import pytest

from derange import oracle
from derange.chains import ChainKind
from derange.cli import EXIT_OK, run_command
from derange.chains import marginals
from derange.moments import _renewal, mean_cj, second_moments, var_cj_horizons
from derange.params import PSequence, ThetaSequence


def _mp_variance(pv, j):
    """Var(C_j(n)) for the continue-probabilities pv = p.values(n), taken
    exactly as given, by a 40-digit DP down the word from the virtual 1 at
    n + 1.  The state is the distance d to the 1 above (capped at j + 1), and
    each state carries (P, E[C; state], E[C^2; state]); a 1 at distance j
    closes a j-cycle."""
    with mpmath.workdps(40):
        one = mpmath.mpf(1)
        states = {1: (one, 0 * one, 0 * one)}
        for i in range(len(pv) - 1, 0, -1):
            p = mpmath.mpf(float(pv[i]))
            q = one - p
            new = {}

            def add(d, prob, e1, e2):
                a, b, c = new.get(d, (0, 0, 0))
                new[d] = (a + prob, b + e1, c + e2)

            for d, (prob, e1, e2) in states.items():
                if d == 1:  # the index below a 1 is forced to 0
                    add(2, prob, e1, e2)
                    continue
                if d == j:
                    add(1, q * prob, q * (e1 + prob), q * (e2 + 2 * e1 + prob))
                else:
                    add(1, q * prob, q * e1, q * e2)
                add(min(d + 1, j + 1), p * prob, p * e1, p * e2)
            states = new
        mean = sum(e1 for _, e1, _ in states.values())
        second = sum(e2 for _, _, e2 in states.values())
        return second - mean * mean


@pytest.mark.parametrize("theta", [0.01, 1.0, 100.0])
@pytest.mark.parametrize("j", [2, 3, 7])
def test_variance_matches_mpmath(theta, j):
    p = PSequence.eta(theta)
    ref = _mp_variance(p.values(300), j)
    got = second_moments(ChainKind.x(p), 300, j)
    assert abs(got - ref) <= 1e-12 * abs(ref), (got, ref)


def test_variance_matches_oracle_dp():
    kind = ChainKind.eta(100.0)
    dp = oracle.dp_moments(kind, 1000, targets=("var_cj",), j=2)
    assert abs(second_moments(kind, 1000, 2) - dp["var_cj"]) <= 1e-10


@pytest.mark.parametrize("theta, j", [(0.01, 7), (0.5, 3), (100.0, 2)])
def test_all_horizon_means_match_mean_cj(theta, j):
    p = PSequence.eta(theta)
    pv = p.values(10**5)
    m = marginals(1.0 - pv, 1)
    c, s, _ = _renewal(pv, 1.0 - pv, 1, m, j)
    assert s.size == 10**5 + 1
    assert math.fsum((c * m).tolist()) == pytest.approx(s[-1], rel=1e-12)
    assert not s[:j].any()
    for h in np.unique(np.geomspace(2, 10**5, 16).astype(int)):
        assert s[h] == pytest.approx(mean_cj(ChainKind.x(p), int(h), j), rel=1e-12, abs=1e-16), h


def test_var_cj_at_large_n_from_the_cli(capsys):
    code = run_command(["exact", "--quantity", "var_cj", "--n", "100000", "--j", "3",
                        "--format", "json"])
    assert code == EXIT_OK
    value = json.loads(capsys.readouterr().out)["results"]
    assert math.isfinite(value) and value > 0.0


JS = (2, 3, 7)


@pytest.mark.parametrize("theta", [0.01, 1.0, 100.0])
def test_every_horizon_variance_matches_mpmath(theta):
    p = PSequence.eta(theta)
    var = var_cj_horizons(ChainKind.x(p), 300, JS)
    assert var.shape == (len(JS), 301)
    for row, j in zip(var, JS):
        for h in (20, 77, 150, 300):
            ref = _mp_variance(p.values(h), j)
            assert abs(row[h] - ref) <= 1e-12 * abs(ref), (j, h, row[h], ref)


@pytest.mark.parametrize("p", [
    PSequence.eta(0.5),
    PSequence.eta_tilde(3.0),
    PSequence.from_theta_conditional(ThetaSequence.eta_star(0.8)),
    PSequence.from_theta_pushforward(ThetaSequence.constant(0.5)),
], ids=["eta", "eta_tilde", "conditional", "pushforward"])
def test_every_horizon_variance_matches_oracle_dp(p):
    kind = ChainKind.x(p)
    var = var_cj_horizons(kind, 14, JS)
    assert not var[:, :2].any()
    for row, j in zip(var, JS):
        for h in range(2, 15):
            dp = oracle.dp_moments(kind, h, targets=("var_cj",), j=j)["var_cj"]
            assert abs(row[h] - dp) <= 1e-13, (j, h, row[h], dp)


@pytest.mark.parametrize("p", [PSequence.eta(0.5), PSequence.eta(30.0),
                               PSequence.eta_tilde(3.0)], ids=lambda p: p.label)
def test_every_horizon_variance_matches_second_moments(p):
    kind = ChainKind.x(p)
    var = var_cj_horizons(kind, 10**5, JS)
    assert np.isfinite(var).all() and (var >= 0.0).all()
    for row, j in zip(var, JS):
        for h in (10, 100, 10**3, 10**4, 10**5):
            ref = second_moments(kind, h, j)
            assert abs(row[h] - ref) <= 1e-12 * ref, (j, h, row[h], ref)


def test_one_perturbed_index_moves_only_the_horizons_above_it():
    values = PSequence.eta(0.5).values(200)[1:].tolist()
    base = var_cj_horizons(ChainKind.x(PSequence.tabulated(values)), 200, JS)
    values[99] += 1e-3  # p_100
    moved = var_cj_horizons(ChainKind.x(PSequence.tabulated(values)), 200, JS)
    for before, after, j in zip(base, moved, JS):
        assert np.abs(after[:101] - before[:101]).max() <= 1e-13, j
        assert np.abs(after[100 + j:] - before[100 + j:]).min() > 1e-6, j
