"""Seed-deterministic Monte Carlo estimation and asymptotic diagnostics.

Words are drawn by a jump sampler.  Every 1 of a word closes a circle, so
a word is kept as its 1-positions (the sparse jump form), and the next 1
below a free index z is drawn by inverse CDF: it is the largest index
t < z with C[t] < C[z] + log U, where C is the log-survival array of the
per-index one probabilities (``log_survival``).  One ``searchsorted`` per
round places the next 1 of every replicate in a block, so sampling costs
O(reps * K) rather than O(reps * n), K being the circle count.

Replicate r draws from its own Philox4x64-10 stream, keyed by a
splitmix64 mix of (seed, r), in a fixed order: the leading draws a
statistic needs (orientations or a KS dither), then one uniform per
jump.  Philox is counter-based, so uniform k of a stream is a pure
function of (key, k): ``replicate_uniforms`` computes a whole block of
replicates' draws in numpy, with no generator object per replicate,
equal bit for bit to ``replicate_rng(seed, r)``'s stream.  It runs
tiles of at most ``_PASS_SIZE`` rows x counters through six preallocated
buffers, each round's two multiplies in one call on the stacked lanes,
and writes the words straight into its float output.  Past a few hundred
draws per replicate (``_BLOCK_DRAWS``) building ``replicate_rng(seed,
r)`` per replicate is the cheaper way to the same stream, so the sampler
draws that way instead.  A replicate that needs more jumps than were
drawn up front continues its stream with the block draw at a later
offset, so every result depends only on (seed, r) and not on how
replicates are batched or how many jumps were drawn up front.  That lets
the sampler do only the work a statistic reads:

- it stops each word after the jumps the statistic reads
  (``_JUMP_DEPTH``: the first circle for A1, the first two for A2, A*_1
  and the GEM diagnostic, every circle otherwise);
- it draws mu + 3 sqrt(mu) + 2 jump uniforms up front, mu = sum h >= E[K]
  (fewer when the depth is smaller), so only the words in the upper tail
  of the circle count continue their streams;
- it ends the up-front draws, and each continuation, on a whole Philox
  counter of 4 words, since a counter's words cost the same as one: the
  up-front draws round down to it when a jump uniform remains;
- it sizes a block by its up-front draws, at most ``_CHUNK_DRAWS`` of
  them and at most ``_PASS_SIZE`` replicates, so either diagnostic with
  2000 replicates at theta = 1, n = 10^6 is one block and a replicate
  with 10^6 orientation draws is a block of its own.

The two diagnostics test the normal limit of the cycle-count total and
the GEM limit of the normalized ordered cycle lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chains import ChainKind

# splitmix64 mixing constants (Steele, Lea & Flood 2014); documented so the
# substream derivation can be reproduced outside this module.
_SM64_GAMMA = 0x9E3779B97F4A7C15
_SM64_MIX1 = 0xBF58476D1CE4E5B9
_SM64_MIX2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1

# Most up-front draws in a block of _sample (512 KiB of float64): a block
# holds _CHUNK_DRAWS // (up-front draws per replicate) replicates, at least 1
# and at most _PASS_SIZE, so the memory of a block (its draws and the
# orientation prefix sums of _extract) does not grow with n.
_CHUNK_DRAWS = 1 << 16
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


# Philox4x64-10 (Salmon, Moraes, Dror & Shaw 2011), as numpy's Philox runs
# it: the multipliers and key bumps of its two lanes, as (2, 1, 1) arrays
_PHILOX_MUL = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)[:, None, None]
_PHILOX_BUMP = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)[:, None, None]
_PHILOX_ROUNDS = 10
# 0-d operands: the cheapest way to hand numpy a uint64 constant
_MASK32, _32, _11 = (np.array(c, dtype=np.uint64) for c in ((1 << 32) - 1, 32, 11))
_MUL_LO, _MUL_HI = _PHILOX_MUL & _MASK32, _PHILOX_MUL >> _32
# what a pass's nine bumps add to a key, modulo 2^64
_PHILOX_BUMPS = _PHILOX_BUMP * np.uint64(_PHILOX_ROUNDS - 1)
# rows x counters per Philox pass: a pass keeps six two-lane uint64
# buffers of this size (768 KiB), reused by every round.  A pass has a
# fixed cost of about 0.3 ms (some 160 numpy calls), so a larger size draws
# the benchmark's multi-counter tiles (4096 x 4, 2000 x 5, 400 x 27
# counters) in fewer passes, but at 2^13 .. 2^14 the Monte Carlo jobs took
# the same time within noise while estimate('K') at n = 12 peaked at 2.3
# rather than 4.2 MB of numpy memory; 2^12 took a quarter longer.  It
# also caps the rows of a block of _sample.
_PASS_SIZE = 1 << 13
# Draws per replicate up to which _sample uses the block draw.  The numpy
# Philox costs about 30 ns a uniform, a generator 15-20 us to build plus
# 4 ns a uniform; timing estimate('Lambda') over n = 384..640 put the
# point where the two cost the same near 600 draws.
_BLOCK_DRAWS = 576


def _mulhi(x: np.ndarray, m_lo, m_hi, t: np.ndarray, u: np.ndarray,
           w: np.ndarray) -> None:
    """Overwrite x with the high words of the 128-bit products x * m, m =
    m_hi 2^32 + m_lo, from 32-bit limbs (Warren, Hacker's Delight, mulhu);
    t, u and w are scratch arrays of x's shape."""
    np.bitwise_and(x, _MASK32, out=t)
    np.right_shift(x, _32, out=x)
    np.multiply(t, m_lo, out=u)
    np.right_shift(u, _32, out=u)
    np.multiply(t, m_hi, out=t)
    np.add(t, u, out=t)  # x_lo m_hi + the carry of x_lo m_lo: below 2^64
    np.multiply(x, m_lo, out=u)
    np.multiply(x, m_hi, out=x)
    np.right_shift(u, _32, out=w)
    np.add(x, w, out=x)
    np.bitwise_and(u, _MASK32, out=u)
    np.add(t, u, out=t)
    np.right_shift(t, _32, out=t)
    np.add(x, t, out=x)


def _replicate_numbers(replicates: range) -> np.ndarray:
    """The replicate numbers of a range modulo 2^64, as uint64."""
    steps = np.arange(len(replicates), dtype=np.uint64) * (replicates.step & _MASK64)
    return steps + (replicates.start & _MASK64)


def replicate_uniforms(seed: int, replicates: np.ndarray, offset: int,
                       count: int) -> np.ndarray:
    """Uniforms offset .. offset + count - 1 of each replicate's stream, one
    row per replicate number of the uint64 array ``replicates``.

    Row i equals ``replicate_rng(seed, r).random(offset + count)[offset:]``
    for the i-th replicate r, computed for the whole block in numpy with no
    generator object: Philox is counter-based, so raw word w of a stream is
    word w % 4 of the Philox4x64-10 output at counter w // 4 + 1 under the
    replicate's key, and its uniform is (raw >> 11) * 2^-53.
    """
    rows = replicates.size
    out = np.empty((rows, count))
    if not out.size:
        return out
    # the keys of replicate_rng on uint64 arrays (its masks are no-ops
    # there); numpy holds the key (k0 << 64) | k1 as the words [k1, k0]
    base = _splitmix64(seed & _MASK64)
    keys = np.empty((2, 1, rows), dtype=np.uint64)
    keys[0, 0] = _splitmix64(base + replicates * _SM64_GAMMA)
    keys[1, 0] = _splitmix64(replicates ^ base)
    first, skip = divmod(offset, 4)  # out[:, j] is word 4 * first + skip + j
    counters = (skip + count + 3) // 4
    # round 1 sees the counter words (ctr, 0, 0, 0), so its one product
    # is a function of the counter alone
    hi0 = np.arange(first + 1, first + counters + 1, dtype=np.uint64)[:, None]
    lo0 = hi0 * _PHILOX_MUL[0]
    _mulhi(hi0, _MUL_LO[0], _MUL_HI[0], *np.empty((3, counters, 1), dtype=np.uint64))
    tile_rows = min(rows, _PASS_SIZE)
    tile_ctrs = min(counters, _PASS_SIZE // tile_rows)
    # the lanes (c0, c2) and (c1, c3) of a pass, a product buffer and
    # scratch, each (lane, counter, row): a pass reshapes the first
    # 2 * counters * rows words, and the keys broadcast along whole rows
    bufs = np.empty((6, 2 * tile_rows * tile_ctrs), dtype=np.uint64)
    for r0 in range(0, rows, tile_rows):
        nr = min(tile_rows, rows - r0)
        for c0 in range(0, counters, tile_ctrs):
            nc = min(tile_ctrs, counters - c0)
            a, b, p, t, u, w = (x[:2 * nc * nr].reshape(2, nc, nr) for x in bufs)
            k = keys[:, :, r0:r0 + nr]  # bumped in place, restored after the pass
            # the state after round 1: (k0, hi0 ^ k1) and (0, lo0)
            np.copyto(a[0], k[0])
            np.bitwise_xor(hi0[c0:c0 + nc], k[1], out=a[1])
            b[0] = 0
            np.copyto(b[1], lo0[c0:c0 + nc])
            for _ in range(1, _PHILOX_ROUNDS):
                np.add(k, _PHILOX_BUMP, out=k)
                np.bitwise_xor(b, k, out=b)  # (c1 ^ k0, c3 ^ k1)
                np.multiply(a[::-1], _PHILOX_MUL[::-1], out=p)  # (c1, c3) next
                _mulhi(a, _MUL_LO, _MUL_HI, t, u, w)
                np.bitwise_xor(b, a[::-1], out=b)  # (c0, c2) next
                a, b, p = b, p, a
            np.subtract(k, _PHILOX_BUMPS, out=k)
            # word j of a counter is lane j // 2 of a (j even) or b (j odd)
            np.right_shift(a, _11, out=a)
            np.right_shift(b, _11, out=b)
            for j, lane in enumerate((a[0], b[0], a[1], b[1])):
                # counter c0 + i gives column 4 (c0 + i) + j - skip
                i0 = max(0, -((4 * c0 + j - skip) // 4))
                i1 = min(nc, (count + skip - j + 3) // 4 - c0)
                if i1 > i0:
                    col = 4 * (c0 + i0) + j - skip
                    np.multiply(lane[i0:i1].T, 2.0**-53,
                                out=out[r0:r0 + nr, col:col + 4 * (i1 - i0) - 3:4])
    return out


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


def _jump_width(kind: ChainKind, h: np.ndarray) -> int:
    """Jump uniforms drawn up front per replicate: mu + 3 sqrt(mu) + 2,
    capped by the most circles a word can have.  mu = sum h is the mean of
    the Poisson-binomial sum that bounds K (see ``coupling._k_cap``), so
    few words need more and those continue their own streams."""
    n = h.size - 1
    mu = float(h[1:].sum())
    return min(n // (1 + kind.gap), int(mu + 3.0 * math.sqrt(mu)) + 2)


def sample_bits(kind: ChainKind, n: int, u: np.ndarray, extend=None,
                log_surv: np.ndarray | None = None,
                depth: int | None = None) -> np.ndarray:
    """The 1-positions of a block of words, one row per replicate.

    Row i of ``u`` holds the jump uniforms of replicate i, one per circle.
    The result has shape (rows, K_max): each row lists its 1-positions in
    descending chain index (the closing index of the first-formed circle
    first), padded with 0; the last 1 of every word is at index 1.  With
    ``depth``, every row stops after its first ``depth`` 1-positions, which
    are those of the whole word, so K_max is at most ``depth``.  Rows
    needing more jumps than ``u`` has columns get them from
    ``extend(rows, width, count)``, which returns columns width..width +
    count - 1 (or more) of those rows' uniform streams, so the words do not
    depend on the width of ``u``; without ``extend`` such a row raises
    ValueError.  ``log_surv`` is ``log_survival(kind.one_probs(n))``,
    passed by callers that sample several blocks at one horizon.
    """
    if log_surv is None:
        log_surv = log_survival(kind.one_probs(n))
    # a gap forces a 0 below every 1, the virtual 1 at n + 1 included, so
    # the next free index below a 1 at t is t - gap
    gap = kind.gap
    rows = u.shape[0]
    z = np.full(rows, n + 1 - gap)
    active = np.arange(rows)
    # the active rows' jump uniforms: row at[i] of cols, from jump base on
    cols, at, base = u, active, 0
    steps = []  # (active rows, their 1-positions) per jump
    while active.size and len(steps) != depth:
        k = len(steps)
        if k == base + cols.shape[1]:
            if extend is None:
                raise ValueError("a word needs more jump uniforms than u holds")
            cols, at, base = extend(active, k, max(k, 4)), np.arange(active.size), k
        # largest t < z whose survival from z - 1 down to t is below 1 - u
        target = log_surv[z[active]] + np.log1p(-cols[at, k - base])
        t = np.searchsorted(log_surv, target) - 1
        steps.append((active, t))
        z[active] = t - gap
        more = t > 1
        active, at = active[more], at[more]
    ones = np.zeros((rows, len(steps)), dtype=np.int64)
    for k, (active, t) in enumerate(steps):
        ones[active, k] = t
    return ones


def _sample(kind: ChainKind, h: np.ndarray, replicates: range, seed: int, lead: int,
            depth: int | None = None):
    """Yield (offset in ``replicates``, leading draws, 1-positions) per chunk.

    Each replicate's stream gives ``lead`` draws for the caller first, then
    its jump uniforms; with ``depth`` a word stops after its first
    ``depth`` 1-positions (see ``sample_bits``).  The up-front draws end on
    a whole Philox counter (4 draws) when that leaves a jump uniform.  A
    chunk takes them from one block draw when a replicate needs at most
    ``_BLOCK_DRAWS``, else from one generator per replicate; a word that
    needs more jumps than were drawn up front continues its stream with
    the block draw at a later offset, to a whole counter.  A chunk holds
    ``_CHUNK_DRAWS`` over the up-front draws of one replicate, at least 1
    and at most ``_PASS_SIZE`` replicates.
    """
    n = h.size - 1
    log_surv = log_survival(h)
    width = _jump_width(kind, h)
    if depth is not None:
        width = min(width, depth)
    draws = lead + width
    if draws // 4 * 4 > lead:
        draws = draws // 4 * 4
    chunk = max(1, min(_PASS_SIZE, _CHUNK_DRAWS // draws))
    for start in range(0, len(replicates), chunk):
        reps = replicates[start:start + chunk]
        block = _replicate_numbers(reps)
        if draws <= _BLOCK_DRAWS:
            u = replicate_uniforms(seed, block, 0, draws)
        else:
            u = np.empty((len(reps), draws))
            for rep, row in zip(reps, u):
                replicate_rng(seed, rep).random(out=row)

        def extend(rows, done, count, block=block):
            offset = lead + done  # drawn on to the end of a counter
            return replicate_uniforms(seed, block[rows], offset, count + (-offset - count) % 4)

        ones = sample_bits(kind, n, u[:, lead:], extend, log_surv, depth)
        yield start, u[:, :lead], ones


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
# the jumps (first-formed circles) a statistic reads; the others read all.
# A*_1 reads the first circle and whether a second one follows.
_JUMP_DEPTH = {"A1": 1, "A2": 2, "Astar1": 2}


def estimate(statistic: str, kind: ChainKind, n: int, reps: int, seed: int,
             j: int | None = None, kappa: float | None = None,
             target: int | None = None) -> EstimateReport:
    """Mean and standard error of a per-word statistic over replicates.

    Statistics: 'K', 'Cj' (needs j), 'A1', 'A2', 'Lambda', 'Cstar_j'
    (signed; need j and an orientation probability), 'Astar1' (signed;
    indicator of the first circle having ``target`` members looking in
    with more circles following).  The orientation probability is the
    kind's kappa or ``kappa``, which must lie in [0, 1] and agree with the
    kind's when both are given.  Orientation statistics draw one
    orientation uniform per index from each replicate's stream before its
    jump uniforms.
    """
    if reps < 2:
        raise ValueError("reps must be >= 2")
    if statistic not in _STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}")
    if statistic in ("Cj", "Cstar_j") and j is None:
        raise ValueError(f"statistic {statistic!r} needs j")
    if kappa is None:
        kappa = kind.kappa
    elif not 0.0 <= kappa <= 1.0:
        raise ValueError("kappa must lie in [0, 1]")
    elif kind.kappa not in (None, kappa):
        raise ValueError(f"kappa={kappa} conflicts with the kappa={kind.kappa} of {kind!r}")
    if statistic in _NEEDS_ORIENT and kappa is None:
        raise ValueError(f"statistic {statistic!r} needs an orientation probability")
    lead = n if statistic in _NEEDS_ORIENT else 0
    sample = np.empty(reps)
    h = kind.one_probs(n)
    depth = _JUMP_DEPTH.get(statistic)
    for start, draws, ones in _sample(kind, h, range(reps), seed, lead, depth):
        orient = draws < kappa if lead else None
        sample[start:start + ones.shape[0]] = _extract(
            statistic, ones, orient, n, j, target
        )
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
    h = kind.one_probs(n)
    q = h[1:]
    # memoryviews hand fsum Python floats, not one boxed numpy scalar each
    qbar = math.fsum(memoryview(q))
    qqbar = math.fsum(memoryview(q * q))
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


def gem_diagnostic(theta: float, n: int, reps: int, seed: int) -> EstimateReport:
    """KS tests of the normalized first two cycle lengths of the eta chain
    against the Beta(1, theta) sticks of the GEM limit."""
    if reps < 2:
        raise ValueError("reps must be >= 2")
    kind = ChainKind.eta(theta)
    a1 = np.empty(reps)
    a2 = np.empty(reps)
    depth = _JUMP_DEPTH["A2"]  # A1 and A2
    for start, _, ones in _sample(kind, kind.one_probs(n), range(reps), seed, 0, depth=depth):
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
