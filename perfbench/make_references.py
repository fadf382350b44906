"""Compute the reference values that the benchmark checks job outputs against.

Every value comes from the independent side of the library: the
enumeration and DP oracle in ``derange.oracle``, or a high-precision
mpmath evaluation written here from the model's definition.  None is
taken from the closed forms that the benchmark's jobs evaluate.  No value
depends on a seed.  Run from the repository root:

    python3 perfbench/make_references.py

It rewrites ``perfbench/references.json``, recording for each value how
it was made.  It takes a few minutes on one CPU.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import mpmath as mp

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from derange import oracle  # noqa: E402
from derange.chains import ChainKind  # noqa: E402
from derange.params import PSequence, ThetaSequence  # noqa: E402

mp.mp.dps = 30


def eta_q(theta, r):
    """q_r of the eta chain, with the conventions q_1 = 1, q_2 = 0."""
    if r == 1:
        return mp.mpf(1)
    if r == 2:
        return mp.mpf(0)
    return mp.mpf(theta) / (mp.mpf(theta) + r - 1)


def eta_marginals(theta, n):
    """P(bit i = 1) at horizon n, i = 1..n, from the transition rule alone.

    Index n is forced to 0; below it a bit is 1 with probability q_r if the
    bit above it is 0, and 0 if the bit above it is 1.  So
    m_r = q_r (1 - m_{r+1}) with m_n = 0.
    """
    m = [mp.mpf(0)] * (n + 2)
    for r in range(n - 1, 0, -1):
        m[r] = eta_q(theta, r) * (1 - m[r + 1])
    return m


def eta_mean_k(theta, n):
    """E[K_n]: every stored 1 closes one cycle."""
    return mp.fsum(eta_marginals(theta, n)[1:n + 1])


def eta_mean_a1(theta, n):
    """E[A_1], the length of the cycle touching the top: the first 1 below
    index n, found by walking down the forced-0 start of the chain."""
    total = mp.mpf(0)
    stay = mp.mpf(1)  # P(bits n..r+1 are all 0)
    for r in range(n - 1, 0, -1):
        q = eta_q(theta, r)
        total += (n + 1 - r) * stay * q
        stay *= 1 - q
    return total


def eta_phi(theta, i, extra=400):
    """The limit marginal phi_i = lim_n P(bit i = 1), from the same
    recursion started far above i (the product of q's above the start is
    below 1e-300)."""
    m = mp.mpf(0)
    for r in range(i + extra, i - 1, -1):
        m = eta_q(theta, r) * (1 - m)
    return m


def mean_cj_limit_integral(theta, j):
    """lim E[C_j(n)] for the eta chain by tanh-sinh quadrature of the
    double-integral display."""
    th = mp.mpf(theta)

    def f(x, y):
        return (th * th * mp.exp(-th * y) * x ** (th - 1) * (1 - x) ** (j - 2)
                * (1 - y) ** (th + j - 1) / (1 - x + x * y) ** (j - 1))

    def e(power):
        return mp.quad(lambda x: mp.exp(-th * x) * (1 - x) ** power, [0, 1])

    val = mp.quad(f, [0, 1], [0, 1])
    if j >= 3:
        bracket = th * mp.rf(th + 1, j)
        val += (th ** 3 * mp.gamma(j - 1) / bracket
                * (th + j - 1 - ((th + j - 1) ** 2 + j - 1) * e(th + j)))
    else:
        val -= th * th / (th + 1) * e(th + 2)
    return val


def mean_k_limit(theta):
    """lim (E[K_n] - theta log n) for the eta chain, by the double integral
    and by the 2F2 form; the two must agree."""
    th = mp.mpf(theta)
    head = 1 - th * mp.harmonic(th + 1) + th * mp.euler
    integral = head - th * th * mp.quad(
        lambda x, y: mp.exp(-th * x * y) * (1 - x) ** (th + 1), [0, 1], [0, 1])
    pfq = head - th * th / (th + 2) * mp.hyp2f2(1, 1, 2, th + 3, -th)
    if abs(integral - pfq) > mp.mpf(10) ** -20:
        raise AssertionError(f"mean_k limit forms disagree: {integral} vs {pfq}")
    return integral


def gamma_inf_eta_star(theta, i):
    """gamma_{i,inf} for the eta_star coin family: the backward recursion
    g_r = (1 - c_r)(g_{r+1} + c_{r+1} g_{r+2}) seeded with 1 at horizon N,
    at 30 digits, Richardson-extrapolated over N = 2^k * 4000."""
    th = mp.mpf(theta)

    def coin(r):
        t = th if r == 3 else th * (1 + th / (r - 2))
        return t / (r - 1 + t)

    def sweep(horizon):
        g2 = g1 = mp.mpf(1)
        for r in range(horizon - 1, i - 1, -1):
            g2, g1 = g1, (1 - coin(r)) * (g1 + coin(r + 1) * g2)
        return g1

    sweeps = [sweep(4000 * 2 ** k) for k in range(6)]
    row = sweeps
    for level in range(1, len(sweeps)):
        f = mp.mpf(2) ** level
        row = [(f * row[k + 1] - row[k]) / (f - 1) for k in range(len(row) - 1)]
    if abs(row[0] - sweeps[-1]) > mp.mpf("1e-4"):
        raise AssertionError("gamma_inf extrapolation moved too far")
    return row[0]


def entry(value, how):
    return {"value": float(value), "how": how}


def main() -> None:
    t0 = time.perf_counter()
    refs: dict = {}
    eta05 = ChainKind.x(PSequence.eta(0.5))

    # exact-large-n -------------------------------------------------------
    for j in range(3, 8):
        for n in (20, 50, 100):
            v = oracle.dp_moments(eta05, n, targets=("var_cj",), j=j)["var_cj"]
            refs[f"table2.j{j}.n{n}"] = entry(
                v, "oracle.dp_moments var_cj, eta(0.5)")
    refs["var_cj.eta0.5.n250.j3"] = entry(
        oracle.dp_moments(eta05, 250, targets=("var_cj",), j=3)["var_cj"],
        "oracle.dp_moments var_cj")
    cond = ChainKind.x(PSequence.from_theta_conditional(ThetaSequence.constant(0.7)))
    refs["mean_k.cond0.7.n150"] = entry(
        oracle.dp_moments(cond, 150, targets=("mean_k",))["mean_k"],
        "oracle.dp_moments mean_k on the conditionally linked p of constant(0.7)")
    refs["mean_cj.eta0.5.n400.j3"] = entry(
        oracle.dp_moments(eta05, 400, targets=("mean_cj",), j=3)["mean_cj"],
        "oracle.dp_moments mean_cj")
    ek300 = eta_mean_k(0.5, 300)
    dp300 = oracle.dp_moments(eta05, 300, targets=("mean_k",))["mean_k"]
    if abs(ek300 - dp300) > 1e-12:
        raise AssertionError(f"E[K_300]: mpmath {ek300} vs oracle {dp300}")
    refs["lambda.eta0.5.n300.kappa0.4"] = entry(
        300 * mp.mpf("0.4") + (1 - mp.mpf("0.4")) * ek300,
        "n kappa + (1 - kappa) E[K_n] (each non-leader looks in with "
        "probability kappa); E[K_n] by mpmath marginal recursion, equal to "
        "oracle.dp_moments within 1e-12")
    refs["probe.eta0.5.q_at_2e5"] = entry(
        eta_q(0.5, 200000), "q_n = theta/(theta+n-1) at n = 2e5")

    # mc-large-n ------------------------------------------------------------
    for n in (5000, 20000):
        refs[f"mean_k.eta1.n{n}"] = entry(
            eta_mean_k(1, n), "mpmath marginal recursion m_r = q_r(1 - m_{r+1})")
        refs[f"qbar.eta1.n{n}"] = entry(
            mp.fsum(eta_q(1, r) for r in range(1, n + 1)), "mpmath sum of q_r")
    dp5000 = oracle.dp_moments(ChainKind.x(PSequence.eta(1.0)), 5000,
                               targets=("mean_k",))["mean_k"]
    if abs(dp5000 - refs["mean_k.eta1.n5000"]["value"]) > 1e-9:
        raise AssertionError("E[K_5000]: mpmath and oracle disagree")
    refs["mean_a1_over_n.eta2.n20000"] = entry(
        eta_mean_a1(2, 20000) / 20000,
        "mpmath sum over the position of the first 1 below the top")

    # certify-small-n -------------------------------------------------------
    enum = oracle.enumeration_moments(eta05, 12)
    kappa = mp.mpf("0.4")
    refs["mean_k.eta0.5.n12"] = entry(enum["mean_k"], "oracle.enumeration_moments")
    law = oracle.exact_law(eta05, 12)
    refs["lambda.eta0.5.n12.kappa0.4"] = entry(
        mp.fsum(mp.mpf(pr) * (sum(w) + kappa * sum(1 for b in w[1:] if b == 0))
                for w, pr in law.items()),
        "oracle.exact_law: E[K + kappa * (zeros at indices 2..n)]")
    refs["cstar2.eta0.5.n12.kappa0.4"] = entry(
        mp.fsum(mp.mpf(enum["mean_c"][a]) * (a - 1) * kappa * (1 - kappa) ** (a - 2)
                for a in range(2, 13)),
        "oracle.enumeration_moments E[C_a] times P(1 + Binomial(a-1, kappa) = 2)")
    refs["mean_k.eta1.n50"] = entry(eta_mean_k(1, 50), "mpmath marginal recursion")
    refs["tv16.eta0.5"] = entry(
        eta_phi(0.5, 16),
        "phi_16 (TV theorem) by the mpmath marginal recursion from far above")
    for j in range(2, 8):
        refs[f"mean_cj_limit.eta0.5.j{j}"] = entry(
            mean_cj_limit_integral(0.5, j), "mpmath tanh-sinh double integral")
    refs["mean_k_limit.eta0.5"] = entry(
        mean_k_limit(0.5), "mpmath double integral, equal to the mpmath 2F2 form")
    refs["gamma_inf.eta_star0.5.i3"] = entry(
        gamma_inf_eta_star(0.5, 3),
        "mpmath backward recursion, Richardson over six doubled horizons")

    out = ROOT / "perfbench" / "references.json"
    out.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(refs)} references to {out} in {time.perf_counter() - t0:.0f} s")


if __name__ == "__main__":
    main()
