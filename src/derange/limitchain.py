"""The weak-limit chain: limiting marginals, transitions, and exact
total-variation distance to the finite-horizon chain.

phi_i is the limiting probability that index i carries a 1; the limit chain
runs upward from a 1 at index 1 with from-0 transition phi_{i+1}/(1-phi_i).
gamma_{i,inf} is the probability that the coin process shows no 1 at index
i and no 11-pattern anywhere at or above it; delta_{i,inf} is its closed
form along the eta_star family.

All limits here are conditional on numerically probed convergence /
divergence conditions; the probes record the horizon used and an
extrapolated tail proxy, never a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .chains import ChainKind
from .coupling import delta_n, delta_roots
from .moments import lambda_esf
from .numerics import AccuracySpec, DEFAULT_ACC, NumericsError, beta_fn, kummer_m
from .params import _CHUNK, PSequence, ThetaSequence, check_theta, conditional_theta

# Probe horizons: the heavyweight context probe and the lightweight
# cached check used on every phi evaluation.
DEFAULT_PROBE_HORIZON = 10**6
_LIGHT_PROBE_HORIZON = 10**4

# An increment-ratio above this across dyadic blocks counts as divergence
# (a convergent series has geometrically shrinking block sums).
_RATIO_THRESHOLD = 0.75


def _block_sums(a: np.ndarray, horizon: int, lag: int | None = None) -> list[float]:
    """Sums of the terms over the three dyadic blocks (h/2, h], (h/4, h/2],
    (h/8, h/4], outermost block first.

    The term at index i is ``a[i]``, or ``a[i] * a[i + lag]`` with a lag,
    formed one block at a time so that no full-length product array is
    built.  Each block is one numpy pairwise sum: for nonnegative terms it
    is within about (16 + log2 h) units in the last place of the exact sum.
    """
    edges = [horizon // 2**k for k in range(4)]
    sums = []
    for hi, lo in zip(edges, edges[1:]):
        block = a[lo + 1:hi + 1]
        if lag is not None:
            block = block * a[lo + 1 + lag:hi + 1 + lag]
        sums.append(float(block.sum()))
    return sums


def _looks_divergent(blocks: list[float]) -> tuple[bool, float]:
    """(divergence verdict, outermost block sum) from positive terms'
    dyadic block sums."""
    ratios = [a / b for a, b in zip(blocks, blocks[1:]) if b > 0.0]
    verdict = bool(ratios) and min(ratios) >= _RATIO_THRESHOLD
    return verdict, blocks[0]


def _looks_convergent(blocks: list[float]) -> tuple[bool, float]:
    """(convergence verdict, extrapolated tail proxy) from positive terms'
    dyadic block sums.

    The tail proxy is the geometric extrapolation of the block sums; it is
    infinite when the blocks do not shrink.
    """
    ratios = [a / b for a, b in zip(blocks, blocks[1:]) if b > 0.0]
    if not ratios:
        return True, 0.0
    r = max(ratios)
    if r >= 1.0:
        return False, math.inf
    return r < _RATIO_THRESHOLD, blocks[0] * r / (1.0 - r)


@dataclass(frozen=True)
class LimitContext:
    """A parameter pair with numerically probed limit-theory conditions.

    Flags:
      divergence   sum p_j = inf (the chain keeps moving; phi well defined)
      q_vanishes   q_n -> 0 (prefix laws converge; TV distance -> 0)
      eqcond2      sum c_i c_{i+1} < inf (gamma_{i,inf} > 0)
      eqcond4      sum c_i^2 < inf (finite-dimensional cycle-count laws
                   converge), where c_i = theta_i/(i-1+theta_i)

    Each series flag is the dyadic block-ratio rule's verdict on the sums
    over (h/8, h/4], (h/4, h/2], (h/2, h] at the probe horizon h: converging
    when every outer-to-inner ratio is below 0.75, diverging when none is.
    Its error is one-sided: a convergent series whose blocks shrink more
    slowly (sum i^-1.1, sum 1/(i log^2 i)) reads as divergent, so
    ``require`` may refuse valid input.
    """

    p: PSequence
    thetaseq: ThetaSequence
    probe_horizon: int
    flags: dict = field(default_factory=dict)
    tails: dict = field(default_factory=dict)

    @classmethod
    def probe(cls, p: PSequence | None = None,
              thetaseq: ThetaSequence | None = None,
              horizon: int = DEFAULT_PROBE_HORIZON) -> "LimitContext":
        """Build a context from one parameter sequence, conditionally
        linking the other, and run all condition probes on one array
        of p: the coin conditions read the theta linked to p."""
        if (p is None) == (thetaseq is None):
            raise ValueError("provide p or thetaseq, not both")
        if p is None:
            p = PSequence.from_theta_conditional(thetaseq)
        else:
            thetaseq = conditional_theta(p)
        if horizon < 64:
            raise ValueError("probe horizon must be >= 64")
        flags: dict = {}
        tails: dict = {}
        pv = p.values(horizon + 1)
        flags["divergence"], tails["divergence"] = _looks_divergent(
            _block_sums(pv, horizon))
        q_now, q_then = 1.0 - pv[horizon], 1.0 - pv[max(horizon // 10, 3)]
        flags["q_vanishes"] = bool(q_now < 0.01 and q_now <= q_then + 1e-12)
        tails["q_vanishes"] = float(q_now)
        # pv becomes, in place, the coin probabilities of the linked theta,
        # c_i = q_i/(q_i + p_i p_{i-1}), from index 3 (index 2 is 0/0; the
        # blocks start above horizon/8).  Chunks run top down, so p_{i-1}
        # below a chunk is still p, and the temporaries stay chunk-sized.
        for hi in range(horizon + 2, 3, -_CHUNK):
            lo = max(hi - _CHUNK, 3)
            pp = pv[lo:hi] * pv[lo - 1:hi - 1]
            q = np.subtract(1.0, pv[lo:hi], out=pv[lo:hi])
            pp += q
            np.divide(q, pp, out=q)
        flags["eqcond2"], tails["eqcond2"] = _looks_convergent(
            _block_sums(pv, horizon, lag=1))
        flags["eqcond4"], tails["eqcond4"] = _looks_convergent(
            _block_sums(pv, horizon, lag=0))
        return cls(p=p, thetaseq=thetaseq, probe_horizon=horizon,
                   flags=flags, tails=tails)

    def require(self, *names: str) -> None:
        for name in names:
            if name not in self.flags:
                raise ValueError(f"unknown condition flag {name!r}")
            if not self.flags[name]:
                raise ValueError(
                    f"condition {name!r} failed its probe at horizon "
                    f"{self.probe_horizon} (tail proxy {self.tails[name]:.3g})"
                )


@lru_cache(maxsize=256)
def _divergence_ok(p: PSequence) -> bool:
    verdict, _ = _looks_divergent(_block_sums(p.values(_LIGHT_PROBE_HORIZON),
                                              _LIGHT_PROBE_HORIZON))
    return verdict


def phi(i: int, p: PSequence, *, acc: AccuracySpec = DEFAULT_ACC,
        method: str = "series") -> float:
    """Limiting marginal P(index i carries a 1) as the horizon -> infinity.

    Methods: 'series' (the generic alternating product series, any p with
    divergent sum p_j); 'closed_form' (eta and eta_tilde families only).
    """
    if i < 1:
        raise ValueError("index must be >= 1")
    if method not in ("series", "closed_form"):
        raise ValueError(f"unknown method {method!r}")
    if i == 1:
        return 1.0
    if i == 2:
        return 0.0
    if not _divergence_ok(p):
        raise ValueError(
            "sum p_j does not appear to diverge; the limit chain is not "
            "well defined for this parameter sequence"
        )
    if method == "closed_form":
        theta = getattr(p, "theta", None)
        if p.family == "eta" and theta is not None:
            return phi_eta(i, theta, acc=acc)
        if p.family == "eta_tilde" and theta is not None:
            return phi_eta_tilde(i, theta, acc=acc)
        raise ValueError(f"no closed form for family {p.family!r}")
    total = 0.0
    prod = 1.0
    for j in range(acc.max_terms):
        prod *= p.q(i + j)
        term = prod if j % 2 == 0 else -prod
        total += term
        if prod < acc.abs_tol:
            return total
    raise NumericsError(f"phi series did not converge in {acc.max_terms} terms")


def phi_eta(i: int, theta: float, *, acc: AccuracySpec = DEFAULT_ACC) -> float:
    """Closed form for the eta chain: theta/(theta+i-1) M(1, theta+i, -theta)."""
    if i == 1:
        return 1.0
    if i == 2:
        return 0.0
    return theta / (theta + i - 1.0) * kummer_m(1.0, theta + i, -theta, acc=acc)


def phi_eta_tilde(i: int, theta: float, *, acc: AccuracySpec = DEFAULT_ACC) -> float:
    """Closed form for the eta_tilde chain, built from the derangement
    probability of the theta-biased permutation."""
    if i == 1:
        return 1.0
    if i == 2:
        return 0.0
    return (
        theta * math.exp(theta) * lambda_esf(i - 1, theta) / (theta + i - 1.0)
        * kummer_m(theta + 1.0, theta + i, -theta, acc=acc)
    )


def xinf_transition(i: int, p: PSequence, *, acc: AccuracySpec = DEFAULT_ACC) -> float:
    """One-step probability of moving 0 -> 1 from index i to i + 1 in the
    limit chain: phi_{i+1}/(1 - phi_i).

    At i = 1 the chain sits in state 1, so the from-0 row is vacuous and 0
    is returned.
    """
    if i < 1:
        raise ValueError("index must be >= 1")
    if i == 1:
        return 0.0
    num = phi(i + 1, p, acc=acc)
    den = 1.0 - phi(i, p, acc=acc)
    return num / den


def tv_prefix(n: int, p: PSequence, method: str = "theorem", *,
              acc: AccuracySpec = DEFAULT_ACC) -> float:
    """Total variation distance between the first n coordinates of the
    limit chain and the horizon-n chain law.

    'theorem' evaluates phi_n directly.  'direct' (n <= 30) is the
    oracle's enumeration ``oracle.tv_prefixes``: one upward sweep over the
    no-adjacent-1s words carries both prefix laws, with phi taken from the
    oracle's marginal DP at a horizon past n, never from ``phi``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if method == "theorem":
        return phi(n, p, acc=acc) if n > 1 else 0.0
    if method != "direct":
        raise ValueError(f"unknown method {method!r}")
    from . import oracle
    return float(oracle.tv_prefixes(n, ChainKind.x(p))[n])


def _gamma_inf_backward(i: int, thetaseq: ThetaSequence, horizon: int) -> float:
    """One backward sweep for gamma_{i,inf} seeding the horizon values at 1."""
    # a memoryview reads Python floats without a list copy; horizons reach 1e7
    c = memoryview(thetaseq.coin_probs(horizon))
    g_next2 = 1.0  # gamma at horizon + 1
    g_next = 1.0   # gamma at horizon
    for r in range(horizon - 1, i - 1, -1):
        g_r = (1.0 - c[r]) * (g_next + c[r + 1] * g_next2)
        g_next2, g_next = g_next, g_r
    return g_next


def gamma_inf(i: int, thetaseq: ThetaSequence, *,
              acc: AccuracySpec = DEFAULT_ACC) -> float:
    """gamma_{i,inf}: no 1 at index i and no 11-pattern at or above it, in
    the infinite coin process.

    Computed by backward iteration from a horizon that is doubled until
    two successive extrapolated values agree to acc.rel_tol; a value that
    underflows to 0 raises NumericsError.  Requires the light eqcond2
    probe (otherwise the value is 0 and the sweep meaningless).
    """
    if i < 2:
        raise ValueError("index must be >= 2")
    coin = thetaseq.coin_probs(_LIGHT_PROBE_HORIZON + 1)
    ok, _ = _looks_convergent(_block_sums(coin, _LIGHT_PROBE_HORIZON, lag=1))
    if not ok:
        raise ValueError(
            "sum c_j c_{j+1} does not appear to converge; gamma_{i,inf} "
            "would be 0"
        )
    # Seeding the sweep with 1 at a finite horizon N leaves an O(1/N) bias
    # (the ignored tail of 11-pattern probabilities), so raw doubling
    # converges too slowly; Richardson extrapolation over doubled horizons
    # removes the leading powers of 1/N.
    horizon = max(4 * i, 1024)
    sweeps = [_gamma_inf_backward(i, thetaseq, horizon)]
    prev_best = sweeps[0]
    while True:
        horizon *= 2
        sweeps.append(_gamma_inf_backward(i, thetaseq, horizon))
        row = sweeps[:]
        for level in range(1, len(sweeps)):
            f = 2.0**level
            row = [
                (f * row[k + 1] - row[k]) / (f - 1.0)
                for k in range(len(row) - 1)
            ]
        best = row[0]
        # a relative stop: the probability may lie far below abs_tol
        if abs(best - prev_best) <= acc.rel_tol * abs(best):
            if best > 0.0:
                return best
            raise NumericsError(f"gamma_inf extrapolated to {best:.3g}, not a "
                                f"positive probability, at horizon {horizon}")
        prev_best = best
        if horizon > 10**7:
            raise NumericsError(
                f"gamma_inf backward iteration did not stabilize by horizon {horizon}"
            )


def delta_i_inf(theta: float, i: int, theta2star: float = 1.0, *,
                acc: AccuracySpec = DEFAULT_ACC) -> float:
    """gamma_{i,inf} along the eta_star family, in closed form where one
    exists (i = 2 and i >= 4) and by backward recursion at i = 3."""
    check_theta(theta)
    if i < 2:
        raise ValueError("index must be >= 2")
    if i == 2:
        return delta_n(theta, theta2star, math.inf)
    if i == 3:
        return gamma_inf(3, ThetaSequence.eta_star(theta, theta2star), acc=acc)
    z1, z2 = delta_roots(theta)
    m_val = kummer_m(1.0, theta + i - 1.0, -theta, acc=acc)
    return m_val * beta_fn(z1 + i - 3, z2 + i - 3) / beta_fn(i - 2.0, theta + i - 1.0)
