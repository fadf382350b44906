"""Seed-deterministic Monte Carlo estimation and asymptotic diagnostics.

Words are drawn by a jump sampler.  Every 1 of a word closes a circle, so
a word is kept as its 1-positions (the sparse jump form), and the next 1
below a free index z is drawn by inverse CDF: it is the largest index
t < z with C[t] < C[z] + log U, where C is the log-survival array of the
per-index one probabilities (``log_survival``).  One binary search per
word and round places the next 1 of every replicate in a block, in
ascending target order when the round has fewer targets than C has
entries (``_search``), so sampling costs O(n + reps * K * log n) rather
than O(reps * n), K being the circle count.  Indices whose one
probability rounds to 1 are taken as certain 1s (``_certain_ones``).

Replicate r draws from its own SplitMix64 stream (Steele, Lea & Flood
2014) in a fixed order: the leading draws a statistic needs (one for
``Lambda``, ``Astar1`` and the KS dither), then one uniform per jump, then,
for ``Cstar_j``, one per circle.  Uniform k of the stream is
(splitmix64(key_r + k gamma) >> 11) 2^-53 with key_r =
splitmix64(splitmix64(seed) ^ r), all modulo 2^64 (``_splitmix64``), a
pure function of (seed, r, k).  ``replicate_uniforms`` draws any block of
the streams, and round k of ``sample_bits`` draws jump uniform k of the
words still open, both through ``_mix_uniforms``.  The streams are
windows of the one Weyl sequence x -> x + gamma at pseudo-random starts,
so with L draws a replicate, some two of R replicates overlap with
probability at most R^2 L / 2^64 (2e-7 at 2000 replicates of 10^6
draws).  No result depends on how replicates are batched, so the sampler
stops each word after the jumps a statistic reads (``_JUMP_DEPTH``) and
sizes a block by the draws a replicate is expected to take (``_sample``).

The signed statistics draw orientations per circle, not per index: given
its size a, a circle has 1 + Binomial(a - 1, kappa) members looking in,
independently across circles, so the n - K non-leaders of a word give
Lambda = K + Binomial(n - K, kappa), drawn by inverse CDF on the leading
uniform (``_looking_in``), and a circle of size a has exactly i
looking in when its uniform is below omega_{ai}.

The two diagnostics test the normal limit of the cycle-count total and
the GEM limit of the normalized ordered cycle lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chains import ChainKind
from .numerics import AccuracySpec, integrate
from .signed_stats import OrientationWeights, _binom_pmf, _log_factorials, _omega_column

# splitmix64 mixing constants (Steele, Lea & Flood 2014); documented so the
# substream derivation can be reproduced outside this module.
_SM64_GAMMA = 0x9E3779B97F4A7C15
_SM64_MIX1 = 0xBF58476D1CE4E5B9
_SM64_MIX2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1

# Most draws a block of _sample is expected to take (512 KiB of float64): a
# block holds _CHUNK_DRAWS // (expected draws per replicate) replicates, at
# least 1 and at most _BLOCK_ROWS, so the memory of a block does not grow
# with n.
_CHUNK_DRAWS = 1 << 16
# Most replicates in a block of _sample.  Short words would otherwise fill
# a block with 2^16 replicates, and chains._jump_blocks keeps a dense
# (rows, n + 1) array of a block's words; at 2^13, 20000 replicates of a
# small-n statistic are three blocks, one alive at a time.
_BLOCK_ROWS = 1 << 13
_MIN_KS_REPS = 500


def _splitmix64(x: int) -> int:
    x = (x + _SM64_GAMMA) & _MASK64
    x = ((x ^ (x >> 30)) * _SM64_MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _SM64_MIX2) & _MASK64
    return x ^ (x >> 31)


def replicate_rng(seed: int, rep: int) -> np.random.Generator:
    """A numpy Philox generator keyed by (seed, rep); it draws the sticks of
    ``stick_breaking_sample``."""
    base = _splitmix64(seed & _MASK64)
    k0 = _splitmix64(base ^ rep)
    k1 = _splitmix64((base + rep * _SM64_GAMMA) & _MASK64)
    return np.random.Generator(np.random.Philox(key=(k0 << 64) | k1))


# the splitmix64 constants and shifts as 0-d uint64 operands, the cheapest
# way to hand numpy a uint64 constant
_GAMMA, _MIX1, _MIX2, _30, _27, _31, _11 = (np.array(c, dtype=np.uint64) for c in (
    _SM64_GAMMA, _SM64_MIX1, _SM64_MIX2, 30, 27, 31, 11))


def _replicate_numbers(replicates: range) -> np.ndarray:
    """The replicate numbers of a range modulo 2^64, as uint64."""
    steps = np.arange(len(replicates), dtype=np.uint64) * (replicates.step & _MASK64)
    return steps + (replicates.start & _MASK64)


def _stream_keys(seed: int, replicates: np.ndarray, offset: int = 0) -> np.ndarray:
    """key_r + offset gamma modulo 2^64 (uint64 arrays wrap) for each
    replicate number r of the uint64 array ``replicates``."""
    keys = replicates ^ np.uint64(_splitmix64(seed & _MASK64))
    keys += _GAMMA
    _mix(keys, np.empty_like(keys))
    keys += np.uint64(offset * _SM64_GAMMA & _MASK64)
    return keys


def replicate_uniforms(seed: int, replicates: np.ndarray, offset: int,
                       count: int) -> np.ndarray:
    """Uniforms offset .. offset + count - 1 of each replicate's stream, one
    row per replicate number of the uint64 array ``replicates``.

    Uniform k of replicate r is (_splitmix64(key_r + k gamma) >> 11) 2^-53
    with key_r = _splitmix64(_splitmix64(seed) ^ r), modulo 2^64.
    """
    return _draws(_stream_keys(seed, replicates, offset), count)


def _draws(keys: np.ndarray, count: int) -> np.ndarray:
    """Uniforms 0 .. count - 1 of the streams past the states ``keys``, one
    row per state."""
    return _mix_uniforms(np.arange(1, count + 1, dtype=np.uint64) * _GAMMA + keys[:, None])


def _mix(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``_splitmix64`` after its gamma step, in place on the uint64 array x;
    t is uint64 scratch of x's shape."""
    for shift, mul in ((_30, _MIX1), (_27, _MIX2)):
        np.right_shift(x, shift, out=t)
        np.bitwise_xor(x, t, out=x)
        np.multiply(x, mul, out=x)
    np.right_shift(x, _31, out=t)
    return np.bitwise_xor(x, t, out=x)


def _mix_uniforms(x: np.ndarray) -> np.ndarray:
    """(mix(x) >> 11) 2^-53 for each of the uint64 states x, where mix is
    ``_splitmix64`` after its gamma step; x is overwritten."""
    out = np.empty(x.shape)
    _mix(x, out.view(np.uint64))  # out is scratch until the last pass
    np.right_shift(x, _11, out=x)
    return np.multiply(x, 2.0**-53, out=out)


def _column(keys: np.ndarray, k: int) -> np.ndarray:
    """Uniform k of the streams past the states ``keys`` (``_stream_keys``)."""
    return _mix_uniforms(keys + np.uint64((k + 1) * _SM64_GAMMA & _MASK64))


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

def log_survival(h: np.ndarray) -> np.ndarray:
    """C[r] = sum_{s=r}^{n} log(1 - h_s) for r = 0..n+1, nondecreasing in r,
    with C[0] = C[1] = -inf and C[n+1] = 0."""
    n = h.size - 1
    c = np.zeros(n + 2)
    with np.errstate(divide="ignore"):
        c[1:n + 1] = np.cumsum(np.log1p(-h[:0:-1]))[::-1]
    c[0] = -np.inf
    return c


def _jump_width(kind: ChainKind, n: int, mu: float) -> int:
    """The 1-positions a replicate's word is expected to keep, which sizes
    the blocks of ``_sample``: mu + 3 sqrt(mu) + 2, capped by the most
    circles a word can have.  mu = sum h is the mean of the
    Poisson-binomial sum that bounds K (see ``coupling._k_cap``), so few
    words keep more."""
    return min(n // (1 + kind.gap), int(mu + 3.0 * math.sqrt(mu)) + 2)


def _search(log_surv: np.ndarray, target: np.ndarray) -> np.ndarray:
    """``np.searchsorted(log_surv, target)``, in ascending target order
    when there are fewer targets than entries.  Random-order keys make each
    binary search miss the cache on a long array; sorted keys walk it once,
    which outweighs the argsort and the scatter back.  With more targets
    than entries the array is short and stays in cache, so the direct
    search is cheaper.  Both give the same indices."""
    if target.size >= log_surv.size:
        return np.searchsorted(log_surv, target)
    order = np.argsort(target)
    found = np.empty_like(order)
    found[order] = np.searchsorted(log_surv, target[order])
    return found


def _certain_ones(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(survival, floor) for one probabilities that round to 1 at an index
    >= 2, where ``log_survival`` is -inf from that index down.

    Certain indices (h_s = 1, index 1 among them) contribute 0 to the sums
    of this survival array, which is finite from index 1 on; the next 1
    below a free index z is the larger of its search and floor[z - 1], the
    largest certain index at or below z - 1.
    """
    one = h >= 1.0
    return (log_survival(np.where(one, 0.0, h)),
            np.maximum.accumulate(np.where(one, np.arange(h.size), 0)))


def sample_bits(kind: ChainKind, n: int, keys: np.ndarray, draw=_column,
                log_surv: np.ndarray | None = None,
                depth: int | None = None) -> np.ndarray:
    """The 1-positions of a block of words, one row per replicate.

    Row i of ``keys`` keys replicate i's jump uniforms: round k draws
    ``draw(keys[rows], k)`` for the rows still open, by default
    (``_column``) uniform k past each stream state (``_stream_keys``);
    chosen uniforms pass as rows with ``draw = lambda u, k: u[:, k]``.
    The result has shape (rows, K_max): each row lists its 1-positions in
    descending chain index (the closing index of the first-formed circle
    first), padded with 0; the last 1 of every word is at index 1.  It is
    stored column by column, so ``.T`` holds each jump's positions in one
    contiguous row.  With
    ``depth``, every row stops after its first ``depth`` 1-positions, which
    are those of the whole word, so K_max is at most ``depth``.
    ``log_surv`` is ``log_survival(kind.one_probs(n))``, passed by callers
    that sample several blocks at one horizon.  An index whose one
    probability is 1.0 in floating point shows a 1 whenever it is free
    (``_certain_ones``).
    """
    if log_surv is None:
        log_surv = log_survival(kind.one_probs(n))
    floor = None
    if log_surv[2] == -np.inf:  # some index >= 2 closes a circle for certain
        log_surv, floor = _certain_ones(kind.one_probs(n))
    # a gap forces a 0 below every 1, the virtual 1 at n + 1 included, so
    # the next free index below a 1 at t is t - gap
    gap = kind.gap
    rows = keys.shape[0]
    z = np.full(rows, n + 1 - gap)
    active = np.arange(rows)
    steps = []  # (active rows, their 1-positions) per jump
    while active.size and len(steps) != depth:
        # largest t < z whose survival from z - 1 down to t is below 1 - u
        target = log_surv[z[active]] + np.log1p(-draw(keys[active], len(steps)))
        t = _search(log_surv, target) - 1
        if floor is not None:
            t = np.maximum(t, floor[z[active] - 1])
        steps.append((active, t))
        z[active] = t - gap
        active = active[t > 1]
    ones = np.zeros((len(steps), rows), dtype=np.int64)
    for k, (active, t) in enumerate(steps):
        ones[k, active] = t
    return ones.T


def _sample(kind: ChainKind, h: np.ndarray, replicates: range, seed: int, lead: int,
            depth: int | None = None, mu: float | None = None):
    """Yield (offset in ``replicates``, leading draws, 1-positions) per chunk.

    Each replicate's stream gives ``lead`` draws for the caller first, then
    the jump uniforms that ``sample_bits`` draws round by round, stopping
    after ``depth`` 1-positions.  A chunk holds ``_CHUNK_DRAWS`` over the
    draws a replicate is expected to take (``lead`` plus ``_jump_width``),
    at least 1 and at most ``_BLOCK_ROWS`` replicates; ``mu`` is sum h,
    passed by a caller that has it.  A caller drops its references to a
    chunk before asking for the next, so one block is alive at a draw.
    """
    n = h.size - 1
    log_surv = log_survival(h)
    if mu is None:
        mu = float(h[1:].sum())
    width = min(_jump_width(kind, n, mu), depth or n)
    chunk = max(1, min(_BLOCK_ROWS, _CHUNK_DRAWS // (lead + width)))
    skip = np.uint64(lead * _SM64_GAMMA & _MASK64)
    for start in range(0, len(replicates), chunk):
        keys = _stream_keys(seed, _replicate_numbers(replicates[start:start + chunk]))
        draws = _draws(keys, lead)
        keys += skip  # the jumps follow the leading draws
        ones = sample_bits(kind, n, keys, log_surv=log_surv, depth=depth)
        yield start, draws, ones
        del keys, draws, ones  # the next block is drawn without this one alive


def _looking_in(n: int, kappa: float):
    """The non-leaders looking in of words with k circles, Binomial(m,
    kappa) with m = n - k, by inverse CDF: ``looking_in(k, u)`` for an int
    array k of circle counts and one uniform u per entry.

    The draw is the number of CDF entries P(B <= i), i < m, at or below u.
    The last entry, P(B <= m) = 1, is left out, so rounding cannot give
    m + 1, and kappa = 0 or 1 give point masses.  Entries more than
    20 sqrt(m) from m kappa are left out too: the probability beyond them
    is below 2 e^-800 (Hoeffding), so they are 0 or 1 to the last bit.
    The CDF of each m is built once, when a block first holds it, and kept
    for the calling ``estimate``.
    """
    log_fact = _log_factorials(n)
    rows = {}  # circle count -> (lo, CDF entries lo .. hi - 1)

    def looking_in(k: np.ndarray, u: np.ndarray) -> np.ndarray:
        out = np.empty(k.size, dtype=np.int64)
        for v in np.flatnonzero(np.bincount(k)).tolist():
            if v not in rows:
                m = n - v
                half = 20.0 * math.sqrt(m)
                lo = max(0, math.floor(m * kappa - half))
                hi = min(m, math.ceil(m * kappa + half))
                rows[v] = lo, np.cumsum(_binom_pmf(np.arange(lo, hi), m, kappa, log_fact))
            lo, row = rows[v]
            at = np.flatnonzero(k == v)
            out[at] = np.searchsorted(row, u[at], side="right") + lo
        return out

    return looking_in


def _counts(mask: np.ndarray) -> np.ndarray:
    """The true entries of each column of a (circles, rows) bool array,
    summed down the short circle axis as int8 rows into int32."""
    return mask.view(np.int8).sum(axis=0, dtype=np.int32)


def _extract(statistic: str, ones: np.ndarray, n: int, j: int | None = None,
             law=None, u: np.ndarray | None = None,
             keys: np.ndarray | None = None) -> np.ndarray:
    """The statistic of each word of a block from its 1-positions (rows of
    ``ones``, as ``sample_bits`` gives them).

    The signed statistics draw the members looking in per circle.
    'Lambda' is K plus ``law(K, u)`` (``_looking_in``) at each row's
    leading uniform ``u``.  For
    'Cstar_j' and 'Astar1', ``law[a]`` is the probability that a circle of
    size a has the in-look count asked for.  'Astar1' scores the first
    circle, when more follow, when ``u`` is below it; 'Cstar_j' counts
    circle c (in formation order) of row r when uniform K_r + c of the
    stream past the state keys[r] (``_stream_keys``) is below it.

    Each statistic is an integer, so the sums below are exact.  They run
    on the (circles, rows) transpose, where a reduction down the short
    circle axis is a few passes over whole rows.
    """
    ones = np.ascontiguousarray(ones.T)  # row k: every word's k-th 1-position
    closed = ones > 0
    k = _counts(closed)
    if statistic == "K":
        return k.astype(float)
    if statistic == "Lambda":
        return (k + law(k, u)).astype(float)
    # the 1 above each closing 1, the virtual one at n + 1 first; padding
    # reads 1, so it spans no index below
    upper = np.empty_like(ones)
    upper[0] = n + 1
    np.maximum(ones[:-1], 1, out=upper[1:])
    if statistic == "Cj":
        return _counts(closed & (upper - ones == j)).astype(float)
    if statistic == "A1":
        return (upper[0] - ones[0]).astype(float)
    if statistic == "A2":
        if len(ones) == 1:  # every word is one circle
            return np.zeros(ones.shape[1])
        return ((upper[1] - ones[1]) * closed[1]).astype(float)
    if statistic == "Astar1":  # the first-formed circle, when more circles follow
        return ((k > 1) & (u < law[upper[0] - ones[0]])).astype(float)
    # Cstar_j: circle c of the rows that have one, past their K_r jump uniforms
    past = k.astype(np.uint64) * _GAMMA
    past += keys
    sizes = upper - ones
    looks = np.zeros_like(closed)
    for c, has in enumerate(closed):
        r = np.flatnonzero(has)
        looks[c, r] = _column(past.take(r), c) < law.take(sizes[c].take(r))
    return _counts(looks).astype(float)


_STATISTICS = ("K", "Cj", "A1", "A2", "Lambda", "Cstar_j", "Astar1")
_NEEDS_ORIENT = ("Lambda", "Cstar_j", "Astar1")
# the jumps (first-formed circles) a statistic reads; the others read all.
# A*_1 reads the first circle and whether a second one follows.
_JUMP_DEPTH = {"A1": 1, "A2": 2, "Astar1": 2}


def estimate(statistic: str, kind: ChainKind, n: int, reps: int, seed: int,
             j: int | None = None, kappa: float | None = None,
             target: int | None = None) -> EstimateReport:
    """Mean and standard error of a per-word statistic over replicates.

    Statistics: 'K', 'Cj' (needs j), 'A1', 'A2', 'Lambda', 'Cstar_j'
    (signed; need j and an orientation probability), 'Astar1' (signed;
    needs ``target``: indicator of the first circle having ``target``
    members looking in with more circles following).  The orientation
    probability is ``kappa``, which must lie in [0, 1].

    Replicate r's stream gives, in order: one leading uniform for 'Lambda'
    (Lambda - K is Binomial(n - K, kappa), drawn by inverse CDF on it) and
    'Astar1' (the first circle's in-look count); then one uniform per jump
    (K_r of them, at most 2 for 'Astar1'); then, for 'Cstar_j', uniform
    K_r + c for circle c = 0..K_r - 1 in formation order.
    """
    if reps < 2:
        raise ValueError("reps must be >= 2")
    if statistic not in _STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}")
    if statistic in ("Cj", "Cstar_j") and j is None:
        raise ValueError(f"statistic {statistic!r} needs j")
    if statistic == "Astar1" and target is None:
        raise ValueError("statistic 'Astar1' needs target")
    # an index no word can show would score every replicate 0.0
    if statistic == "Cj":
        kind.check_cycle_length(j)
    if statistic == "Cstar_j" and j < 1:
        raise ValueError("statistic 'Cstar_j' needs j >= 1")
    if statistic == "Astar1" and target < 1:
        raise ValueError("statistic 'Astar1' needs target >= 1 (leaders look in)")
    if kappa is not None and not 0.0 <= kappa <= 1.0:
        raise ValueError("kappa must lie in [0, 1]")
    if statistic in _NEEDS_ORIENT and kappa is None:
        raise ValueError(f"statistic {statistic!r} needs an orientation probability")
    law = None
    if statistic == "Lambda":
        law = _looking_in(n, kappa)
    elif statistic in _NEEDS_ORIENT:  # omega_{a, i} by circle size a
        law = _omega_column(j if statistic == "Cstar_j" else target, n,
                            OrientationWeights.binomial(kappa))
    lead = 1 if statistic in ("Lambda", "Astar1") else 0
    sample = np.empty(reps)
    h = kind.one_probs(n)
    depth = _JUMP_DEPTH.get(statistic)
    replicates = range(reps)
    for start, draws, ones in _sample(kind, h, replicates, seed, lead, depth):
        rows = slice(start, start + ones.shape[0])
        keys = (_stream_keys(seed, _replicate_numbers(replicates[rows]))
                if statistic == "Cstar_j" else None)
        sample[rows] = _extract(statistic, ones, n, j, law,
                                draws[:, 0] if lead else None, keys)
        del draws, ones, keys
    mean = float(np.mean(sample))
    sd = float(np.std(sample, ddof=1))
    return EstimateReport(
        statistic=statistic, reps=reps, mean=mean,
        std_error=sd / math.sqrt(reps), seed=seed,
        params={"kind": kind.label, "n": n, "j": j, "kappa": kappa, "target": target},
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
    from scipy import special as _sp

    return float(_sp.kolmogorov(d * (math.sqrt(m) + 0.12 + 0.11 / math.sqrt(m))))


# ---------------------------------------------------------------------------
# diagnostics

def clt_diagnostic(kind: ChainKind, n: int, reps: int, seed: int) -> EstimateReport:
    """KS test of the standardized cycle-count total against the standard
    normal.

    The KS test z-scores the sample by its own moments, testing the
    distributional shape the limit theorem asserts.  The theorem's
    standardization, centered at sum h_i (h = ``kind.one_probs(n)``) and
    scaled by its square root, is still offset by an O(1) term at
    reachable horizons that a large-sample KS test resolves; its KS result
    is reported in the extras.  The centre qbar = sum h_i and qqbar =
    sum h_i^2 are numpy pairwise sums of nonnegative terms, within about
    (16 + log2 n) units in the last place of the exact sums, far below the
    9 digits the CLI prints; qbar also sizes the sampler's blocks.
    """
    if reps < 2:
        raise ValueError("reps must be >= 2")
    h = kind.one_probs(n)
    q = h[1:]
    qbar = float(q.sum())
    qqbar = float((q * q).sum())
    sample = np.empty(reps)
    # the count is integer-valued; dither by Uniform(-1/2, 1/2), the first
    # draw of each replicate's stream, so the KS comparison against a
    # continuous CDF is not dominated by atom edges
    dither = np.empty(reps)
    for start, draws, ones in _sample(kind, h, range(reps), seed, lead=1, mu=qbar):
        rows = slice(start, start + ones.shape[0])
        sample[rows] = np.count_nonzero(ones, axis=1)
        dither[rows] = draws[:, 0] - 0.5
        del draws, ones
    dithered = sample + dither
    from scipy import special as _sp

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


def _gem_box(theta: float) -> float:
    """P(0.4 <= V_1 <= 0.6, 0.1 <= (1 - V_1) V_2 <= 0.3), V_1, V_2 iid
    Beta(1, theta): the integral over [0.4, 0.6] of theta/(1 - v)
    [(0.9 - v)^theta - (0.7 - v)^theta], the bracket by expm1."""
    def density(v):
        with np.errstate(over="ignore"):  # theta near the float range
            ratio = theta * np.log((0.7 - v) / (0.9 - v))
        return (0.9 - v) ** theta * theta / (1.0 - v) * -np.expm1(ratio)

    # a relative stop: the box lies far below any abs_tol at large theta
    return integrate(density, (0.4, 0.6), AccuracySpec(abs_tol=1e-300, rel_tol=1e-12))[0]


def gem_diagnostic(theta: float, n: int, reps: int, seed: int) -> EstimateReport:
    """KS tests of the normalized first two cycle lengths of the eta chain
    against the Beta(1, theta) sticks of the GEM limit, and the frequency
    of a joint box of both against its exact GEM probability."""
    if reps < 2:
        raise ValueError("reps must be >= 2")
    kind = ChainKind.eta(theta)
    a1 = np.empty(reps)
    a2 = np.empty(reps)
    depth = _JUMP_DEPTH["A2"]  # A1 and A2
    for start, draws, ones in _sample(kind, kind.one_probs(n), range(reps), seed, 0, depth=depth):
        rows = slice(start, start + ones.shape[0])
        a1[rows] = _extract("A1", ones, n)
        a2[rows] = _extract("A2", ones, n)
        del draws, ones
    beta_cdf = lambda x: 1.0 - (1.0 - np.clip(x, 0.0, 1.0)) ** theta
    d1 = ks_statistic(a1 / n, beta_cdf)
    # second stick: A_2 relative to what the first circle left over
    rel2 = a2 / np.maximum(n - a1, 1.0)
    d2 = ks_statistic(rel2, beta_cdf)
    flags = () if reps >= _MIN_KS_REPS else ("ks_unreliable_small_sample",)
    joint_emp = float(np.mean(
        (a1 / n >= 0.4) & (a1 / n <= 0.6) & (a2 / n >= 0.1) & (a2 / n <= 0.3)
    ))
    return EstimateReport(
        statistic="A1/n vs Beta(1, theta)", reps=reps,
        mean=float(np.mean(a1 / n)),
        std_error=float(np.std(a1 / n, ddof=1) / math.sqrt(reps)),
        seed=seed, ks_stat=d1, p_value=ks_p_value(d1, reps), flags=flags,
        params={"theta": theta, "n": n},
        extras={"ks_stat_a2": d2, "p_value_a2": ks_p_value(d2, reps),
                "joint_prefix_empirical": joint_emp,
                "joint_prefix_oracle": _gem_box(theta)},
    )
