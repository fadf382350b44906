"""Seed-deterministic Monte Carlo estimation and asymptotic diagnostics.

Words are drawn by a jump sampler.  Every 1 of a word closes a circle, so
a word is kept as its 1-positions (the sparse jump form), and the next 1
below a free index z is drawn by inverse CDF: it is the largest index
t < z with C[t] < C[z] + log U, where C is the log-survival array of the
per-index one probabilities (``log_survival``).  One ``searchsorted`` per
round places the next 1 of every replicate in a block, so sampling costs
O(reps * K) rather than O(reps * n), K being the circle count.

Replicate r draws from a dedicated counter-based stream keyed by a
splitmix64 mix of (seed, r), in a fixed order: the leading draws a
statistic needs (orientations or a KS dither), then one uniform per
jump.  A replicate that needs more jumps than were drawn up front
continues its own stream, so every result depends only on (seed, r) and
not on how replicates are batched.  The two diagnostics test the normal
limit of the cycle-count total and the GEM limit of the normalized
ordered cycle lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special as _sp

from .chains import ChainKind

# splitmix64 mixing constants (Steele, Lea & Flood 2014); documented so the
# substream derivation can be reproduced outside this module.
_SM64_GAMMA = 0x9E3779B97F4A7C15
_SM64_MIX1 = 0xBF58476D1CE4E5B9
_SM64_MIX2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1

_DEFAULT_CHUNK = 512
_MIN_KS_REPS = 500


def _splitmix64(x: int) -> int:
    x = (x + _SM64_GAMMA) & _MASK64
    x = ((x ^ (x >> 30)) * _SM64_MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _SM64_MIX2) & _MASK64
    return x ^ (x >> 31)


def replicate_rng(seed: int, rep: int) -> np.random.Generator:
    """The counter-based generator for replicate ``rep`` of run ``seed``."""
    base = _splitmix64(seed & _MASK64)
    k0 = _splitmix64(base ^ rep)
    k1 = _splitmix64((base + rep * _SM64_GAMMA) & _MASK64)
    return np.random.Generator(np.random.Philox(key=(k0 << 64) | k1))


@dataclass(frozen=True)
class EstimateReport:
    """A reproducible summary of one estimation run."""

    statistic: str
    reps: int
    mean: float
    std_error: float
    seed: int
    params: dict = field(default_factory=dict)
    ks_stat: float | None = None
    p_value: float | None = None
    flags: tuple = ()
    extras: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# jump sampling

def _one_probs(kind: ChainKind, n: int) -> np.ndarray:
    """h[r] = P(value 1 at index r | index r is free), r = 1..n; h[0] unused.

    A free index is one whose value the index above does not force: the
    top index of a coin word, every index below a coin value, and every
    index below a derangement 0.  h[1] = 1 for every kind.
    """
    if kind.is_coin:
        if n < 1:
            raise ValueError("coin chains need n >= 1")
        return kind.thetaseq.coin_probs(n)
    if kind.is_derangement or kind.tag == "SIGNED":
        if n < 2:
            raise ValueError("derangement and signed chains need n >= 2")
        return 1.0 - kind.p.values(n)
    raise ValueError(f"sampling not supported for kind {kind.tag}")


def log_survival(h: np.ndarray) -> np.ndarray:
    """C[r] = sum_{s=r}^{n} log(1 - h_s) for r = 0..n+1, nondecreasing in r,
    with C[0] = C[1] = -inf and C[n+1] = 0."""
    n = h.size - 1
    c = np.zeros(n + 2)
    with np.errstate(divide="ignore"):
        c[1:n + 1] = np.cumsum(np.log1p(-h[:0:-1]))[::-1]
    c[0] = -np.inf
    return c


def _jump_width(kind: ChainKind, h: np.ndarray) -> int:
    """Jump uniforms drawn up front per replicate: about three times the
    mean circle count (sum h bounds it), capped by the most circles a word
    can have."""
    n = h.size - 1
    most = n if kind.is_coin else n // 2 + 1
    return min(most, int(3.0 * h[1:].sum()) + 8)


def _widen(u: np.ndarray, active: np.ndarray, extend) -> np.ndarray:
    if extend is None:
        raise ValueError("a word needs more jump uniforms than u holds")
    width = u.shape[1]
    more = max(width, 4)
    wider = np.zeros((u.shape[0], width + more))
    wider[:, :width] = u
    wider[active, width:] = extend(active, width, more)
    return wider


def sample_bits(kind: ChainKind, n: int, u: np.ndarray, extend=None,
                log_surv: np.ndarray | None = None) -> np.ndarray:
    """The 1-positions of a block of words, one row per replicate.

    Row i of ``u`` holds the jump uniforms of replicate i, one per circle.
    The result has shape (rows, K_max): each row lists its 1-positions in
    descending chain index (the closing index of the first-formed circle
    first), padded with 0; the last 1 of every word is at index 1.  Rows
    needing more jumps than ``u`` has columns get them from
    ``extend(rows, width, count)``, which returns columns width..width +
    count - 1 of those rows' uniform streams, so the words do not depend
    on the width of ``u``; without ``extend`` such a row raises
    ValueError.  ``log_surv`` is ``log_survival(_one_probs(kind, n))``,
    passed by callers that sample several blocks at one horizon.
    """
    if log_surv is None:
        log_surv = log_survival(_one_probs(kind, n))
    # after a 1 at t a derangement word is forced 0 at t - 1; the virtual 1
    # at n + 1 forces index n the same way
    gap = 0 if kind.is_coin else 1
    rows = u.shape[0]
    z = np.full(rows, n + 1 - gap)
    active = np.arange(rows)
    cols = []
    while active.size:
        k = len(cols)
        if k == u.shape[1]:
            u = _widen(u, active, extend)
        # largest t < z whose survival from z - 1 down to t is below 1 - u
        target = log_surv[z[active]] + np.log1p(-u[active, k])
        t = np.searchsorted(log_surv, target) - 1
        col = np.zeros(rows, dtype=np.int64)
        col[active] = t
        cols.append(col)
        z[active] = t - gap
        active = active[t > 1]
    return np.stack(cols, axis=1)


def _continuation(seed: int, first: int, lead: int):
    """``extend`` for the replicates first, first + 1, ... whose streams
    gave ``lead`` draws before their jump uniforms.

    A replicate's generator is rebuilt and moved past the draws already
    taken, instead of a chunk's generators being kept alive: a block of
    live generators sets off the cyclic garbage collector on every chunk.
    """
    def extend(rows, width, count):
        skip = lead + width
        return np.array([replicate_rng(seed, first + i).random(skip + count)[skip:]
                         for i in rows.tolist()])
    return extend


def _sample(kind: ChainKind, h: np.ndarray, replicates: range, seed: int, lead: int,
            chunk: int = _DEFAULT_CHUNK):
    """Yield (offset in ``replicates``, leading draws, 1-positions) per chunk.

    Each replicate's stream gives ``lead`` draws for the caller first, then
    its jump uniforms.
    """
    n = h.size - 1
    log_surv = log_survival(h)
    width = _jump_width(kind, h)
    for start in range(0, len(replicates), chunk):
        block = replicates[start:start + chunk]
        draws = np.empty((len(block), lead + width))
        for rep, row in zip(block, draws):
            replicate_rng(seed, rep).random(out=row)
        ones = sample_bits(kind, n, draws[:, lead:], _continuation(seed, block.start, lead),
                           log_surv)
        yield start, draws[:, :lead], ones


def _extract(statistic: str, ones: np.ndarray, orient: np.ndarray | None,
             n: int, j: int | None, target: int | None) -> np.ndarray:
    closed = ones > 0
    k = closed.sum(axis=1)
    if statistic == "K":
        return k.astype(float)
    rows = ones.shape[0]
    upper = np.concatenate((np.full((rows, 1), n + 1), ones[:, :-1]), axis=1)
    lengths = np.where(closed, upper - ones, 0)
    if statistic == "Cj":
        return np.count_nonzero(closed & (lengths == j), axis=1).astype(float)
    if statistic == "A1":
        return lengths[:, 0].astype(float)
    if statistic == "A2":
        return (lengths[:, 1] if lengths.shape[1] > 1 else np.zeros(rows)).astype(float)
    # a circle's members looking in: its leader, plus every index strictly
    # between its closing 1 and the 1 above it that looks in
    cum = np.zeros((rows, n + 1), dtype=np.int64)
    np.cumsum(orient, axis=1, out=cum[:, 1:])
    row = np.arange(rows)[:, None]
    in_look = 1 + cum[row, upper - 1] - cum[row, ones]
    if statistic == "Lambda":
        return np.where(closed, in_look, 0).sum(axis=1).astype(float)
    if statistic == "Cstar_j":
        return np.count_nonzero(closed & (in_look == j), axis=1).astype(float)
    # Astar1: the first-formed circle, when more circles follow
    hit = k > 1
    if target is not None:
        hit &= in_look[:, 0] == target
    return hit.astype(float)


_STATISTICS = ("K", "Cj", "A1", "A2", "Lambda", "Cstar_j", "Astar1")
_NEEDS_ORIENT = ("Lambda", "Cstar_j", "Astar1")


def estimate(statistic: str, kind: ChainKind, n: int, reps: int, seed: int,
             j: int | None = None, kappa: float | None = None,
             target: int | None = None,
             chunk: int = _DEFAULT_CHUNK) -> EstimateReport:
    """Mean and standard error of a per-word statistic over replicates.

    Statistics: 'K', 'Cj' (needs j), 'A1', 'A2', 'Lambda', 'Cstar_j'
    (signed; need j and an orientation probability), 'Astar1' (signed;
    indicator of the first circle having ``target`` members looking in
    with more circles following).  Orientation statistics draw one
    orientation uniform per index from each replicate's stream before its
    jump uniforms.
    """
    if reps < 2:
        raise ValueError("reps must be >= 2")
    if statistic not in _STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}")
    if statistic in ("Cj", "Cstar_j") and j is None:
        raise ValueError(f"statistic {statistic!r} needs j")
    kap = kind.kappa if kind.kappa is not None else kappa
    if statistic in _NEEDS_ORIENT and kap is None:
        raise ValueError(f"statistic {statistic!r} needs an orientation probability")
    lead = n if statistic in _NEEDS_ORIENT else 0
    sample = np.empty(reps)
    h = _one_probs(kind, n)
    for start, draws, ones in _sample(kind, h, range(reps), seed, lead, chunk):
        orient = draws < kap if lead else None
        sample[start:start + ones.shape[0]] = _extract(
            statistic, ones, orient, n, j, target
        )
    mean = float(np.mean(sample))
    sd = float(np.std(sample, ddof=1))
    return EstimateReport(
        statistic=statistic, reps=reps, mean=mean,
        std_error=sd / math.sqrt(reps), seed=seed,
        params={"kind": kind.tag, "n": n, "j": j, "kappa": kap, "target": target},
    )


# ---------------------------------------------------------------------------
# KS machinery

def ks_statistic(sample: np.ndarray, cdf) -> float:
    """One-sample Kolmogorov-Smirnov statistic against a continuous CDF.

    ``cdf`` is called once, on the sorted sample as an array, and must
    return the CDF values elementwise.
    """
    x = np.sort(np.asarray(sample, dtype=float))
    m = x.size
    f = np.asarray(cdf(x), dtype=float)
    grid = np.arange(1, m + 1) / m
    return float(max(np.max(grid - f), np.max(f - (np.arange(m) / m))))


def ks_p_value(d: float, m: int) -> float:
    """Asymptotic Kolmogorov distribution p-value (adequate for m >= 500)."""
    return float(_sp.kolmogorov(d * (math.sqrt(m) + 0.12 + 0.11 / math.sqrt(m))))


# ---------------------------------------------------------------------------
# diagnostics

def clt_diagnostic(p, n: int, reps: int, seed: int) -> EstimateReport:
    """KS test of the standardized cycle-count total against the standard
    normal.

    The KS test z-scores the sample by its own moments, testing the
    distributional shape the limit theorem asserts.  The theorem's
    standardization, centered at sum q_i and scaled by its square root, is
    still offset by an O(1) term at reachable horizons that a large-sample
    KS test resolves; its KS result is reported in the extras.
    """
    if reps < 2:
        raise ValueError("reps must be >= 2")
    kind = ChainKind.x(p)
    h = _one_probs(kind, n)
    q = h[1:]
    qbar = math.fsum(q)
    qqbar = math.fsum(q * q)
    sample = np.empty(reps)
    # the count is integer-valued; dither by Uniform(-1/2, 1/2), the first
    # draw of each replicate's stream, so the KS comparison against a
    # continuous CDF is not dominated by atom edges
    dither = np.empty(reps)
    for start, draws, ones in _sample(kind, h, range(reps), seed, lead=1):
        rows = slice(start, start + ones.shape[0])
        sample[rows] = np.count_nonzero(ones, axis=1)
        dither[rows] = draws[:, 0] - 0.5
    dithered = sample + dither
    z_theory = (dithered - qbar) / math.sqrt(qbar)
    d_theory = ks_statistic(z_theory, _sp.ndtr)
    z_sample = (dithered - dithered.mean()) / dithered.std(ddof=1)
    d = ks_statistic(z_sample, _sp.ndtr)
    flags = () if reps >= _MIN_KS_REPS else ("ks_unreliable_small_sample",)
    return EstimateReport(
        statistic="K standardized (qbar, sample)", reps=reps,
        mean=float(np.mean(z_theory)),
        std_error=float(np.std(z_theory, ddof=1) / math.sqrt(reps)),
        seed=seed, ks_stat=d, p_value=ks_p_value(d, reps), flags=flags,
        params={"n": n},
        extras={"qbar": qbar, "qqbar": qqbar,
                "precondition_ratio": qqbar**2 / qbar,
                "sample_mean_k": float(np.mean(sample)),
                "ks_stat_theoretical": d_theory,
                "p_value_theoretical": ks_p_value(d_theory, reps)},
    )


def stick_breaking_sample(theta: float, reps: int, seed: int,
                          depth: int = 2) -> np.ndarray:
    """(reps, depth) draws of the first ``depth`` coordinates of the
    size-ordered stick-breaking law with independent Beta(1, theta) sticks,
    all from the one stream ``replicate_rng(seed ^ 0x5B5BCEFA, 0)``."""
    sticks = replicate_rng(seed ^ 0x5B5BCEFA, 0).beta(1.0, theta, size=(reps, depth))
    remaining = np.cumprod(1.0 - sticks[:, :-1], axis=1)
    return sticks * np.concatenate((np.ones((reps, 1)), remaining), axis=1)


def gem_diagnostic(theta: float, n: int, reps: int, seed: int) -> EstimateReport:
    """KS tests of the normalized first two cycle lengths of the eta chain
    against the Beta(1, theta) sticks of the GEM limit."""
    if reps < 2:
        raise ValueError("reps must be >= 2")
    kind = ChainKind.eta(theta)
    a1 = np.empty(reps)
    a2 = np.empty(reps)
    for start, _, ones in _sample(kind, _one_probs(kind, n), range(reps), seed, lead=0):
        rows = slice(start, start + ones.shape[0])
        a1[rows] = _extract("A1", ones, None, n, None, None)
        a2[rows] = _extract("A2", ones, None, n, None, None)
    beta_cdf = lambda x: 1.0 - (1.0 - np.clip(x, 0.0, 1.0)) ** theta
    d1 = ks_statistic(a1 / n, beta_cdf)
    # second stick: A_2 relative to what the first circle left over
    rel2 = a2 / np.maximum(n - a1, 1.0)
    d2 = ks_statistic(rel2, beta_cdf)
    flags = () if reps >= _MIN_KS_REPS else ("ks_unreliable_small_sample",)
    oracle = stick_breaking_sample(theta, reps, seed)
    joint_emp = float(np.mean(
        (a1 / n >= 0.4) & (a1 / n <= 0.6) & (a2 / n >= 0.1) & (a2 / n <= 0.3)
    ))
    joint_oracle = float(np.mean(
        (oracle[:, 0] >= 0.4) & (oracle[:, 0] <= 0.6)
        & (oracle[:, 1] >= 0.1) & (oracle[:, 1] <= 0.3)
    ))
    return EstimateReport(
        statistic="A1/n vs Beta(1, theta)", reps=reps,
        mean=float(np.mean(a1 / n)),
        std_error=float(np.std(a1 / n, ddof=1) / math.sqrt(reps)),
        seed=seed, ks_stat=d1, p_value=ks_p_value(d1, reps), flags=flags,
        params={"theta": theta, "n": n},
        extras={"ks_stat_a2": d2, "p_value_a2": ks_p_value(d2, reps),
                "joint_prefix_empirical": joint_emp,
                "joint_prefix_oracle": joint_oracle},
    )
