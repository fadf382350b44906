"""End-to-end acceptance checks: reference-table reproduction, coupling and
conditioning certifications, limit identities, and statistical diagnostics.
"""

import itertools
import math
import time

import numpy as np
import pytest

from derange import oracle
from derange.chains import ChainKind, cycle_statistics
from derange.coupling import (
    delta_n,
    erase11,
    gamma_n,
    joint_cycle_counts,
    k_distribution,
    pgf_k,
)
from derange.dist import compare_laws
from derange.limitchain import phi, tv_prefix
from derange.moments import (
    mean_cj_eta_limit,
    mean_k_eta_limit,
    second_moments,
)
from derange.params import PSequence, ThetaSequence, conditional_theta


# ---------------------------------------------------------------------------
# 1. limit of E[C_j] for theta = 0.5: reference values and error bounds

TABLE1 = {
    2: (0.255318, 9.86668e-07),
    3: (0.19468, 4.38404e-07),
    4: (0.137891, 2.20947e-07),
    5: (0.107192, 1.21856e-07),
    6: (0.0878281, 7.19514e-08),
    7: (0.0744583, 4.48278e-08),
}


def test_criterion_1_mean_cj_limits():
    start = time.monotonic()
    for j, (value, err) in TABLE1.items():
        est = mean_cj_eta_limit(0.5, j, method="series", m=2)
        assert est.value == pytest.approx(value, abs=2e-6), j
        assert est.error_bound <= err * 1.1, j
    assert time.monotonic() - start < 5.0


# ---------------------------------------------------------------------------
# 2. Var(C_j(n)) for theta = 0.5: two independent computations agree with
# each other; the reference table's figures are compared separately.

TABLE2 = {
    3: {20: 0.185732, 50: 0.177823, 100: 0.175253},
    4: {20: 0.142278, 50: 0.133938, 100: 0.131308},
    5: {20: 0.116493, 50: 0.107688, 100: 0.104996},
    6: {20: 0.0996403, 50: 0.090335, 100: 0.087578},
    7: {20: 0.087877, 50: 0.078045, 100: 0.075221},
}


def test_criterion_2_variance_display_vs_dp():
    start = time.monotonic()
    kind = ChainKind.eta(0.5)
    for j in range(3, 8):
        for n in (20, 50, 100):
            display = second_moments(kind, n, j)
            dp = oracle.dp_moments(kind, n, targets=("var_cj",), j=j)["var_cj"]
            assert display == pytest.approx(dp, abs=1e-10), (j, n)
    assert time.monotonic() - start < 30.0


def test_criterion_2_variance_reference_values():
    """Compare against the reference table's printed variances.

    Both independent computations (the closed-form display and the
    marginal-recursion DP) agree with each other to 1e-10 and with
    brute-force enumeration at machine precision for every n where
    enumeration is feasible, yet they differ from these printed figures
    by up to ~2e-2.  The printed figures match no variant we could
    construct (alternative horizons, unconditioned process, tilde
    variant, raw marginals); they appear to be erroneous.  The check is
    kept at its stated tolerance rather than weakened.
    """
    kind = ChainKind.eta(0.5)
    for j, row in TABLE2.items():
        for n, value in row.items():
            assert second_moments(kind, n, j) == pytest.approx(value, abs=1e-6), (j, n)


# ---------------------------------------------------------------------------
# 3. limit of E[K_n] - theta log n at theta = 0.5

def test_criterion_3_mean_k_limit_constant():
    est = mean_k_eta_limit(0.5, m=3, method="series")
    assert est.value == pytest.approx(0.555069, abs=1e-6)
    assert est.error_bound <= 1.3e-7


# ---------------------------------------------------------------------------
# 4. conditional relation: X law == Delta-conditioned Y law under the link

def test_criterion_4_conditional_certification():
    start = time.monotonic()
    rng = np.random.Generator(np.random.Philox(2024))
    for n in range(4, 13):
        for _ in range(10):
            vals = [0.0, 1.0] + list(0.1 + 0.85 * rng.random(n - 2))
            p = PSequence.tabulated(vals, tail_rule="constant")
            law_x = oracle.exact_law(ChainKind.x(p), n)
            law_c = oracle.conditional_law(n, conditional_theta(p))
            assert compare_laws(law_x, law_c).tv < 1e-12, n
    assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------------------
# 5. push-forward: X law == erase-pattern image of the Y law

def test_criterion_5_pushforward_certification():
    families = (
        ThetaSequence.constant(0.5),
        ThetaSequence.constant(1.0),
        ThetaSequence.eta_star(0.8),
    )
    for n in range(4, 13):
        for ts in families:
            p = PSequence.from_theta_pushforward(ts)
            law_x = oracle.exact_law(ChainKind.x(p), n)
            law_pf = oracle.pushforward_law(n, ts)
            assert compare_laws(law_x, law_pf).tv < 1e-12, (n, ts.family)


def test_criterion_5_worked_erase_examples():
    y = [1, 1, 1, 1, 1, 0, 0, 1, 1, 1, 1, 0, 0, 0]
    assert list(erase11(y, 11)) == [1, 0, 1, 0, 1, 0, 0, 1, 0, 1, 0]
    assert list(erase11(y, 12)) == [1, 0, 1, 0, 1, 0, 0, 0, 1, 0, 1, 0]


# ---------------------------------------------------------------------------
# 6. prefix total variation equals phi_n

def test_criterion_6_tv_equals_phi():
    for theta in (0.5, 1.0):
        p = PSequence.eta(theta)
        for n in range(3, 13):
            direct = tv_prefix(n, p, method="direct")
            assert direct == pytest.approx(phi(n, p), abs=1e-12), (theta, n)


# ---------------------------------------------------------------------------
# 7. delta identities and the n -> infinity limit

def test_criterion_7_delta_equals_gamma_and_enumeration():
    for theta in (0.5, 1.3):
        ts = ThetaSequence.eta_star(theta)
        for n in range(2, 13):
            d = delta_n(theta, n=n)
            g = gamma_n(ts, n)
            assert d == pytest.approx(g, rel=1e-12), (theta, n)
            law = oracle.exact_law(ChainKind.y(ts), n)
            brute = math.fsum(
                pr for w, pr in law.items()
                if w[-1] == 0
                and not any(w[i] and w[i + 1] for i in range(n - 1))
            )
            assert d == pytest.approx(brute, rel=1e-12), (theta, n)


def test_criterion_7_delta_limit():
    for theta in (0.5, 2.0):  # theta = 2 exercises the complex-root branch
        assert abs(delta_n(theta, n=4000) - delta_n(theta, n=math.inf)) < 1e-3


# ---------------------------------------------------------------------------
# 8. pgf identity

def test_criterion_8_pgf_identity():
    ts = ThetaSequence.eta_star(0.9)
    p = PSequence.from_theta_conditional(ts)
    x, y = ChainKind.x(p), ChainKind.y(ts)
    for n in (6, 12, 24):
        law_x = k_distribution(x, n)
        law_y = k_distribution(y, n)
        for s in (0.25, 0.5, 1.0, 1.5, 2.0):
            lhs = pgf_k(x, s, n)
            rhs = (
                gamma_n(ts.scaled(s), n) / gamma_n(ts, n)
                * pgf_k(y, s, n)
            )
            assert abs(lhs - rhs) < 1e-10, (n, s)
            # anchor both sides against the exact K laws
            direct_x = math.fsum(pk * s**k for k, pk in law_x.items())
            direct_y = math.fsum(pk * s**k for k, pk in law_y.items())
            assert abs(lhs - direct_x) < 1e-10, (n, s)
            assert abs(pgf_k(y, s, n) - direct_y) < 1e-10, (n, s)


# ---------------------------------------------------------------------------
# 9. joint cycle counts

def _cycle_types(n):
    """All count vectors c of length n with sum j c_j = n."""
    types = []

    def rec(j, remaining, counts):
        if j > n:
            if remaining == 0:
                types.append(tuple(counts))
            return
        for c in range(remaining // j + 1):
            rec(j + 1, remaining - j * c, counts + (c,))

    rec(1, n, ())
    return [c + (0,) * (n - len(c)) for c in types]


def test_criterion_9_joint_cycle_counts():
    theta = 0.8
    ts = ThetaSequence.eta_star(theta)
    p = PSequence.from_theta_conditional(ts)
    for n in range(4, 11):
        total = []
        full = oracle.exact_law(ChainKind.x(p), n)
        brute = {}
        for w, pr in full.items():
            c, _, _ = cycle_statistics(w)
            brute[c] = brute.get(c, 0.0) + pr
        for c in _cycle_types(n):
            if c[0] != 0:
                assert joint_cycle_counts(ChainKind.x(p), c, n) == 0.0
                continue
            val = joint_cycle_counts(ChainKind.x(p), c, n)
            total.append(val)
            assert val == pytest.approx(brute.get(c, 0.0), abs=1e-12), (n, c)
        assert math.fsum(total) == pytest.approx(1.0, abs=1e-11), n


# ---------------------------------------------------------------------------
# 10. central limit diagnostic for K_n

@pytest.mark.slow
def test_criterion_10_clt():
    from derange.montecarlo import clt_diagnostic

    start = time.monotonic()
    rep = clt_diagnostic(ChainKind.eta(1.0), 20000, 2000, seed=11)
    assert rep.p_value > 0.001
    assert time.monotonic() - start < 180.0


# ---------------------------------------------------------------------------
# 11. GEM limit diagnostic for the renormalized cycle lengths

@pytest.mark.slow
def test_criterion_11_gem():
    from derange.montecarlo import gem_diagnostic

    rep = gem_diagnostic(0.7, 5000, 2000, seed=17)
    assert rep.p_value > 0.001
    assert rep.extras["p_value_a2"] > 0.001
    # joint prefix frequency vs its exact GEM probability (binomial 3-sigma)
    emp = rep.extras["joint_prefix_empirical"]
    ora = rep.extras["joint_prefix_oracle"]
    sigma = math.sqrt(ora * (1 - ora) / 2000)
    assert abs(emp - ora) < 3 * sigma + 1e-12


# ---------------------------------------------------------------------------
# 12. signed identities and Monte Carlo agreement

def test_criterion_12_lambda_identity():
    from derange.signed_stats import lambda_mean_identity, lambda_total

    p = PSequence.eta(0.9)
    for kappa in (0.3, 0.9):
        for n in range(4, 13):
            k_law = k_distribution(ChainKind.x(p), n)
            _, mean = lambda_total(n, kappa, k_law)
            assert mean == pytest.approx(
                lambda_mean_identity(n, kappa, k_law.mean()), abs=1e-12
            ), (kappa, n)


def _dp_cycle_moments(kind, n):
    """(E[C_k], Cov(C_k, C_kp)) for k, kp = 0..n as arrays, from the
    marginal-recursion DP (any n); C_0 and C_1 are 0 on a derangement."""
    mean = np.zeros(n + 1)
    cov = np.zeros((n + 1, n + 1))
    for k in range(2, n + 1):
        mean[k] = oracle.dp_moments(kind, n, targets=("mean_cj",), j=k)["mean_cj"]
        cov[k, k] = oracle.dp_moments(kind, n, targets=("var_cj",), j=k)["var_cj"]
        for kp in range(k + 1, n + 1):
            cov[k, kp] = cov[kp, k] = oracle.dp_moments(
                kind, n, targets=("cov_cij",), i=k, j=kp)["cov_cij"]
    return mean, cov


@pytest.mark.slow
def test_criterion_12_signed_monte_carlo():
    from derange.montecarlo import estimate
    from derange.signed_stats import (
        OrientationWeights,
        cstar_moments,
        ordered_star_prob,
    )

    n, reps, kappa = 20, 100000, 0.3
    p = PSequence.eta(1.0)
    kind = ChainKind.x(p)
    w = OrientationWeights.binomial(kappa)
    mean_c, cov_c = _dp_cycle_moments(kind, n)
    for j in (1, 2):
        exact_mean, exact_var = cstar_moments(j, j, mean_c, cov_c, w)
        rep = estimate("Cstar_j", kind, n, reps, seed=29, j=j, kappa=kappa)
        assert abs(rep.mean - exact_mean) < 3 * rep.std_error, j
        # the exact variance should also be near the sample variance
        sample_var = (rep.std_error * math.sqrt(reps)) ** 2
        assert abs(sample_var - exact_var) < 0.05 * max(exact_var, 1.0), j

    ts = ThetaSequence.constant(1.0)
    kind_y = ChainKind.y(ts)
    for target in (1, 2):
        exact = ordered_star_prob(kind_y, (target,), n, w)
        rep = estimate("Astar1", kind_y, n, reps, seed=31,
                       kappa=kappa, target=target)
        assert abs(rep.mean - exact) < 3 * rep.std_error + 1e-9, target


# ---------------------------------------------------------------------------
# 13. invariant suites through the command-line verifier

def test_criterion_13_verify_suite():
    from derange.cli import run_command

    start = time.monotonic()
    assert run_command(
        ["verify", "--suite", "all", "--n", "10", "--trials", "5",
         "--seed", "7", "--format", "json"]
    ) == 0
    assert time.monotonic() - start < 600.0
