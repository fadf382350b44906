import bisect
import math
import random
import tracemalloc
from collections import deque
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from derange import chains, montecarlo, oracle
from derange.chains import ChainKind, cycle_statistics, generate_signed, sample_path, sample_paths
from derange.cli import run_command
from derange.coupling import k_distribution, ordered_cycle_prefix_prob
from derange.montecarlo import (
    _MASK64,
    _SM64_GAMMA,
    _extract,
    _replicate_numbers,
    _splitmix64,
    clt_diagnostic,
    estimate,
    gem_diagnostic,
    ks_p_value,
    ks_statistic,
    replicate_rng,
    replicate_uniforms,
    sample_bits,
    stick_breaking_sample,
)
from derange.params import PSequence, ThetaSequence
from derange.signed_stats import lambda_total


def test_replicate_streams_distinct():
    a = replicate_rng(7, 0).random(4)
    b = replicate_rng(7, 1).random(4)
    c = replicate_rng(8, 0).random(4)
    assert not np.allclose(a, b)
    assert not np.allclose(a, c)


def test_replicate_streams_deterministic():
    a = replicate_rng(7, 3).random(4)
    b = replicate_rng(7, 3).random(4)
    assert np.allclose(a, b)


def _reference_stream(seed: int, rep: int, offset: int, count: int) -> np.ndarray:
    """Uniforms offset .. offset + count - 1 of replicate ``rep`` of run
    ``seed``, from the scalar ``_splitmix64`` on Python ints."""
    key = _splitmix64(_splitmix64(seed & _MASK64) ^ (rep & _MASK64))
    return np.array([(_splitmix64((key + k * _SM64_GAMMA) & _MASK64) >> 11) * 2.0**-53
                     for k in range(offset, offset + count)])


def test_the_reference_mix_is_splitmix64():
    # the first outputs of SplitMix64 from state 0 (Steele, Lea & Flood 2014)
    assert [_splitmix64(k * _SM64_GAMMA & _MASK64) for k in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


# (seed, replicates, offsets, count) past the small random blocks: a count
# past 2^13 at an offset that is not a multiple of 4
_WIDE_DRAWS = {
    "count-8195": (-12, range(5, 8), (4003,), 8195),
}


@pytest.mark.parametrize("first", [0, 10**12 + 7, 2**63 - 3, *_WIDE_DRAWS])
def test_block_draw_matches_replicate_streams(first):
    if first in _WIDE_DRAWS:
        seed, reps, offsets, count = _WIDE_DRAWS[first]
        draws = [(seed, reps, offset, count) for offset in offsets]
    else:
        rnd = random.Random(first)
        seeds = [0, -1, 2**63, 2**64 - 1, -(2**63)] + [rnd.randrange(-2**70, 2**70) for _ in range(45)]
        draws = [(seed, range(first, first + rnd.randrange(1, 7)), rnd.randrange(14),
                  rnd.randrange(1, 21)) for seed in seeds]
    for seed, reps, offset, count in draws:
        want = [_reference_stream(seed, r, offset, count) for r in reps]
        got = replicate_uniforms(seed, _replicate_numbers(reps), offset, count)
        assert got.shape == (len(reps), count)
        assert np.array_equal(got, want), (seed, reps, offset, count)


@pytest.mark.parametrize("offset, count", [(0, 5), (7, 9)])
def test_block_draw_with_more_rows_than_a_pass(offset, count):
    # more rows than a block of _sample holds
    reps = range(10**9, 10**9 + montecarlo._BLOCK_ROWS + 3)
    got = replicate_uniforms(31, _replicate_numbers(reps), offset, count)
    assert got.shape == (len(reps), count)
    for i in [*range(0, len(reps), 997), len(reps) - 1]:
        assert np.array_equal(got[i], _reference_stream(31, reps[i], offset, count)), i


@pytest.mark.parametrize("rows", [1, 3, 2047, 2048, 2049, 8195])
def test_block_draw_at_every_seam(rows):
    # row counts either side of 2^11 and past a block of _sample; every
    # offset 0..7, and counts up to some 2^15 uniforms a draw
    reps = range(2**40 + rows, 2**40 + 2 * rows)
    counts = [1, 5, 2**15 // rows + 3]
    # the first and last row, either side of 2^11 rows, and a stride
    check = sorted({0, rows - 1, min(rows, 2048) - 1, 2048 % rows, *range(0, rows, 509)})
    streams = {i: _reference_stream(-5, reps[i], 0, 8 + max(counts)) for i in check}
    numbers = _replicate_numbers(reps)
    for offset in range(8):
        for count in counts:
            got = replicate_uniforms(-5, numbers, offset, count)
            assert got.shape == (rows, count)
            for i in check:
                assert np.array_equal(got[i], streams[i][offset:offset + count]), (offset, count, i)


_CHI2_REPS, _CHI2_DRAWS = 4096, 1024


@pytest.mark.parametrize("seed, first", [(0, 0), (12345, 10**12), (-7, 2**63 - 5000)])
def test_replicate_streams_look_uniform(seed, first):
    # 4096 replicates x 1024 uniforms at offset 3, in four blocks of rows
    one = np.zeros(4096, dtype=np.int64)
    along = np.zeros(4096, dtype=np.int64)
    across = np.zeros(4096, dtype=np.int64)
    for start in range(first, first + _CHI2_REPS, 1024):
        u = replicate_uniforms(seed, _replicate_numbers(range(start, start + 1024)), 3,
                               _CHI2_DRAWS)
        assert ((u >= 0.0) & (u < 1.0)).all()
        assert np.array_equal(u * 2.0**53, np.floor(u * 2.0**53))  # on the 2^-53 grid
        one += np.bincount((u * 4096).astype(np.int64).ravel(), minlength=4096)
        cell = (u * 64).astype(np.int64)
        # consecutive pairs of a stream, and one position of adjacent replicates
        along += np.bincount((64 * cell[:, 0::2] + cell[:, 1::2]).ravel(), minlength=4096)
        across += np.bincount((64 * cell[0::2] + cell[1::2]).ravel(), minlength=4096)
    for counts in (one, along, across):
        assert chisquare(counts).pvalue > 1e-3


def test_seeded_outputs_are_pinned():
    kind = ChainKind.x(PSequence.eta(0.5))
    r = estimate("K", kind, 12, 40000, 12345)
    assert (r.mean, r.std_error) == (1.7803, 0.003815089988819473)
    r = estimate("Lambda", kind, 12, 20000, 777, kappa=0.4)
    assert (r.mean, r.std_error) == (5.87035, 0.011575134688726223)
    r = clt_diagnostic(ChainKind.eta(1.0), 20000, 2000, 99)
    assert (r.mean, r.p_value) == (-0.117976139735913, 0.03505551039522592)
    word = sample_path(ChainKind.eta(1.0), 30, 5, 10**12 + 7)
    assert "".join(map(str, word)) == "101001000000000000000000000000"
    signed, perm = generate_signed(8, PSequence.eta(1.0), 0.4, 11, 3)
    assert signed.steps == ("1", "+0", "-0", "1", "+0", "-0", "+0", "-0")
    assert perm.circles == ((3, -5, 4, -7, 1), (8, -6, 2))


def test_the_sampler_builds_no_generator(monkeypatch, capsys):
    built, generator = [], np.random.Generator

    def counted(*args, **kwargs):
        built.append(args)
        return generator(*args, **kwargs)

    monkeypatch.setattr(np.random, "Generator", counted)
    estimate("Lambda", ChainKind.eta(1.0), 12, 1000, 1, kappa=0.4)
    # 576 orientation draws a replicate, where generators once took over
    estimate("Lambda", ChainKind.eta(1.0), 576, 40, 1, kappa=0.4)
    clt_diagnostic(ChainKind.eta(1.0), 300, 600, 2)
    sample_paths(ChainKind.eta(1.0), 30, 3, range(50))
    generate_signed(40, PSequence.eta(1.0), 0.4, 3)
    gem_diagnostic(1.0, 200, 600, 4)
    assert run_command(["verify", "--suite", "conditional", "--n", "8", "--trials", "3"]) == 0
    capsys.readouterr()
    assert built == []


@pytest.mark.parametrize("lead", [2, 576])
def test_sampler_draws_are_the_replicate_streams(lead):
    kind, n, seed, reps = ChainKind.eta(1.5), 60, 8, range(10**12, 10**12 + 30)
    streams = np.array([_reference_stream(seed, r, 0, lead + n) for r in reps])
    (_, draws, ones), = montecarlo._sample(kind, kind.one_probs(n), reps, seed, lead)
    assert np.array_equal(draws, streams[:, :lead])
    assert np.array_equal(ones, _bits(kind, n, streams[:, lead:]))


def test_estimate_deterministic():
    kind = ChainKind.eta(1.0)
    r1 = estimate("K", kind, 12, 400, seed=5)
    r2 = estimate("K", kind, 12, 400, seed=5)
    assert r1.mean == r2.mean


def _with_budget(budget, fn, *args, **kw):
    """fn(*args, **kw) with the blocks of ``montecarlo._sample`` sized by the
    draw budget ``budget`` in place of ``_CHUNK_DRAWS``."""
    with mock.patch.object(montecarlo, "_CHUNK_DRAWS", budget):
        return fn(*args, **kw)


def test_chunk_size_invariance():
    kind = ChainKind.eta(0.8)
    r1 = _with_budget(32, estimate, "K", kind, 10, 300, seed=9)
    r2 = _with_budget(1 << 20, estimate, "K", kind, 10, 300, seed=9)
    assert r1.mean == r2.mean
    assert r1.std_error == r2.std_error


def test_estimate_matches_exact_mean():
    p = PSequence.eta(1.0)
    kind = ChainKind.x(p)
    n = 8
    enum = oracle.enumeration_moments(kind, n, j_max=4)
    for stat, target in [("K", enum["mean_k"]), ("Cj", enum["mean_c"][2])]:
        rep = estimate(stat, kind, n, 20000, seed=13, j=2)
        assert abs(rep.mean - target) < 4 * rep.std_error


def test_ks_uniform_sample():
    rng = np.random.default_rng(4)
    x = rng.random(2000)
    d = ks_statistic(x, lambda v: v)
    assert ks_p_value(d, 2000) > 0.001


def test_ks_detects_wrong_law():
    rng = np.random.default_rng(4)
    x = rng.random(2000) ** 2
    d = ks_statistic(x, lambda v: v)
    assert ks_p_value(d, 2000) < 1e-6


def test_stick_breaking_marginal():
    x = stick_breaking_sample(0.7, 5000, seed=2)
    # first stick is Beta(1, theta): mean 1/(1+theta)
    assert abs(float(np.mean(x[:, 0])) - 1 / 1.7) < 0.02


def test_stick_breaking_products_match_loop():
    theta, reps, seed, depth = 1.3, 50, 4, 4
    x = stick_breaking_sample(theta, reps, seed, depth)
    sticks = replicate_rng(seed ^ 0x5B5BCEFA, 0).beta(1.0, theta, size=(reps, depth))
    for r in range(reps):
        remaining = 1.0
        for d in range(depth):
            assert x[r, d] == remaining * sticks[r, d]
            remaining *= 1.0 - sticks[r, d]


def test_gem_diagnostic_fast():
    rep = gem_diagnostic(0.7, 800, 400, seed=21)
    assert rep.p_value > 0.001


def test_gem_box_at_theta_1_is_a_logarithm():
    # V_1, V_2 uniform: the integral of 0.2/(1 - v) over [0.4, 0.6]
    assert montecarlo._gem_box(1.0) == pytest.approx(0.2 * math.log(1.5), rel=0, abs=1e-14)


@pytest.mark.parametrize("theta", [1e-6, 0.01, 0.5, 3.0, 30.0])
def test_gem_box_matches_mpmath(theta):
    # P(0.4 <= V_1 <= 0.6, 0.1 <= (1 - V_1) V_2 <= 0.3) as the plain
    # difference of the two powers, at 40 digits; at theta = 1e-6 that
    # difference loses six of its sixteen digits in double precision
    with mpmath.workdps(40):
        t = mpmath.mpf(theta)
        want = mpmath.quad(lambda v: t / (1 - v) * ((mpmath.mpf("0.9") - v) ** t
                                                  - (mpmath.mpf("0.7") - v) ** t),
                           [mpmath.mpf("0.4"), mpmath.mpf("0.6")])
    assert montecarlo._gem_box(theta) == pytest.approx(float(want), rel=1e-12, abs=0)


@pytest.mark.parametrize("theta", [0.7, 1.0])
def test_sampled_gem_box_frequency_is_the_exact_box(theta):
    reps = 20_000
    rep = gem_diagnostic(theta, 20_000, reps, seed=23)
    p = rep.extras["joint_prefix_oracle"]
    assert p == montecarlo._gem_box(theta)
    assert abs(rep.extras["joint_prefix_empirical"] - p) < 4 * math.sqrt(p * (1 - p) / reps)


# ---------------------------------------------------------------------------
# jump sampler

def _bits(kind: ChainKind, n: int, u: np.ndarray, **kw) -> np.ndarray:
    """``sample_bits`` reading jump k of row i from ``u[i, k]``."""
    return sample_bits(kind, n, u, lambda rows, k: rows[:, k], **kw)


def _words(ones: np.ndarray, n: int) -> np.ndarray:
    """Dense 0/1 words (ascending chain index) from 1-positions."""
    bits = np.zeros((ones.shape[0], n + 1), dtype=np.int8)
    bits[np.arange(ones.shape[0])[:, None], ones] = 1
    return bits[:, 1:]


def _chi_square_p(counts: dict, law: dict, reps: int) -> float:
    """Pearson goodness of fit, pooling outcomes expected fewer than 5 times."""
    obs, exp, pool_o, pool_e = [], [], 0.0, 0.0
    for outcome, prob in law.items():
        if reps * prob < 5:
            pool_o += counts.get(outcome, 0)
            pool_e += reps * prob
        else:
            obs.append(counts.get(outcome, 0))
            exp.append(reps * prob)
    assert set(counts) <= set(law), "sampled an outcome of probability 0"
    if pool_e > 0:
        obs.append(pool_o)
        exp.append(pool_e)
    return float(chisquare(obs, exp).pvalue)


def _full_width(kind, n):
    return n // 2 + 1 if kind.gap else n


@pytest.mark.parametrize("kind, n", [
    (ChainKind.x(PSequence.eta(0.5)), 9),
    (ChainKind.x(PSequence.eta(3.0)), 8),
    (ChainKind.y(ThetaSequence.constant(1.5)), 7),
])
def test_sampled_word_law_matches_exact(kind, n):
    reps = 100_000
    u = np.random.default_rng(101).random((reps, _full_width(kind, n)))
    words = _words(_bits(kind, n, u), n)
    keys, counts = np.unique(words, axis=0, return_counts=True)
    sampled = {tuple(int(b) for b in k): int(c) for k, c in zip(keys, counts)}
    law = dict(oracle.exact_law(kind, n).items())
    assert _chi_square_p(sampled, law, reps) > 1e-3


@pytest.mark.parametrize("theta, n", [(0.5, 40), (2.0, 200)])
def test_sampled_k_law_matches_exact(theta, n):
    p = PSequence.eta(theta)
    kind = ChainKind.x(p)
    reps = 100_000
    u = np.random.default_rng(202).random((reps, _full_width(kind, n)))
    k = np.count_nonzero(_bits(kind, n, u), axis=1)
    values, counts = np.unique(k, return_counts=True)
    sampled = {int(v): int(c) for v, c in zip(values, counts)}
    law = dict(k_distribution(ChainKind.x(p), n).items())
    assert _chi_square_p(sampled, law, reps) > 1e-3


def _first_jump_cdf_distance(sampled: ChainKind, exact: ChainKind, n: int,
                             draws: int) -> float:
    """max |CDF difference| between A_1 = n + 1 - (first 1-position) drawn
    by the jump sampler of ``sampled`` at the midpoints (k + 1/2)/draws and
    the exact A_1 law of ``exact``, ``ordered_cycle_prefix_prob`` below n
    and the remainder at n."""
    u = (np.arange(draws) + 0.5) / draws
    a1 = n + 1 - _bits(sampled, n, u[:, None], depth=1)[:, 0]
    law = np.zeros(n + 1)
    law[1:n] = [ordered_cycle_prefix_prob(exact, (a,), n) for a in range(1, n)]
    law[n] = 1.0 - math.fsum(law.tolist())
    cdf = np.cumsum(np.bincount(a1, minlength=n + 1)) / draws
    return float(np.abs(cdf - np.cumsum(law)).max())


_A1_N, _A1_DRAWS = 2000, 2**18


@pytest.mark.parametrize("kind", [ChainKind.eta(0.5), ChainKind.eta(3.0),
                                  ChainKind.eta_tilde(3.0),
                                  ChainKind.y(ThetaSequence.eta_star(0.8))],
                         ids=["X eta(0.5)", "X eta(3)", "X eta_tilde(3)", "Y eta_star(0.8)"])
def test_first_jump_is_the_exact_a1_law(kind):
    # the first jump inverts the A_1 law: at midpoint uniforms every CDF
    # value is hit within half a grid step, with no seed and no test level.
    # 2^18 draws outnumber the n + 2 survival entries and are searched
    # directly; 2^10 draws are fewer and are searched in sorted order
    for draws in (_A1_DRAWS, 2**10):
        assert _first_jump_cdf_distance(kind, kind, _A1_N, draws) <= 1.0 / draws


def test_first_jump_check_sees_one_closing_probability():
    # one closing probability raised by 10% at index n/2 on the sampler's
    # side moves the CDF by about ten grid steps
    kind, n = ChainKind.eta(0.5), _A1_N
    q = 1.0 - kind.p.values(n)
    q[n // 2] *= 1.1
    moved = ChainKind.x(PSequence.tabulated((1.0 - q[1:]).tolist()))
    assert _first_jump_cdf_distance(moved, kind, n, _A1_DRAWS) > 5.0 / _A1_DRAWS


def _bisect_walk(kind: ChainKind, n: int, u: np.ndarray, depth: int | None) -> list:
    """The 1-positions of one word, one scalar binary search per jump over
    ``log_survival``: the largest t < z with C[t] < C[z] + log(1 - u)."""
    c = montecarlo.log_survival(kind.one_probs(n)).tolist()
    z, ones = n + 1 - kind.gap, []
    for x in u.tolist():
        t = bisect.bisect_left(c, c[z] + math.log1p(-x)) - 1
        ones.append(t)
        z = t - kind.gap
        if t == 1 or len(ones) == depth:
            return ones
    raise AssertionError("the word needs more uniforms than u holds")


_WALK_N = 300


# 40 rows are fewer than the n + 2 = 302 survival entries, so every round
# searches in sorted order; 1000 rows search directly until fewer than 302
# words remain.  Jump k of replicate r is uniform lead + k of its stream,
# after lead = 0, 2 or 576 leading draws: "full" feeds a full-width matrix
# of them through the draw argument, "stream" has the sampler draw them
# round by round
@pytest.mark.parametrize("source", ["full", "stream"])
@pytest.mark.parametrize("depth", [None, 1, 2])
@pytest.mark.parametrize("rows", [40, 1000])
@pytest.mark.parametrize("kind", [ChainKind.eta(0.7), ChainKind.y(ThetaSequence.constant(1.5))],
                         ids=["X eta(0.7)", "Y 1.5"])
def test_both_search_orders_give_the_scalar_walk(kind, rows, depth, source):
    n, seed = _WALK_N, 9
    reps = range(10**6, 10**6 + rows)
    numbers = _replicate_numbers(reps)
    for lead in (0, 2, 576):
        if source == "full":
            ones = _bits(kind, n, replicate_uniforms(seed, numbers, lead, _full_width(kind, n)),
                         depth=depth)
        else:
            ones = sample_bits(kind, n, montecarlo._stream_keys(seed, numbers, lead), depth=depth)
        assert ones.shape[1] == depth if depth else ones.shape[1] > 2
        for r, row in zip(reps, ones.tolist()):
            jumps = [t for t in row if t]
            walk = _bisect_walk(kind, n, _reference_stream(seed, r, lead, len(jumps)), depth)
            assert jumps == walk, (lead, r)


@pytest.mark.parametrize("theta", [1e17, 1e300])
@pytest.mark.parametrize("kind", [ChainKind.eta, lambda t: ChainKind.y(ThetaSequence.constant(t))],
                         ids=["X eta", "Y constant"])
def test_certain_ones_give_the_exact_law(kind, theta):
    # every closing probability from index 3 (X) or 2 (Y) on rounds to 1,
    # so log_survival is -inf there and a search alone would leave the
    # support; the exact law puts all but 1e-15 of its mass on one word,
    # which 2000 draws then all show
    kind, n = kind(theta), 8
    assert montecarlo.log_survival(kind.one_probs(n))[2] == -np.inf
    law = dict(oracle.exact_law(kind, n).items())
    mode = max(law, key=law.get)
    assert law[mode] > 1.0 - 1e-15
    assert set(sample_paths(kind, n, 4, range(2000))) == {mode}
    if kind.gap:
        for _, perm in chains.generate_signed_many(n, kind.p, 0.5, 4, range(200)):
            assert sorted(abs(x) for c in perm.circles for x in c) == list(range(1, n + 1))
    else:
        assert estimate("K", kind, n, 100, 1).mean == n


@pytest.mark.parametrize("kind, n", [
    (ChainKind.x(PSequence.tabulated([0.0, 1.0, 0.5, 0.3, 1e-300, 0.6, 0.4, 0.7, 0.5])), 9),
    (ChainKind.y(ThetaSequence.tabulated([1.0, 1.0, 1.0, 1.0, 1e300, 1.0, 1.0, 1.0])), 8),
], ids=["X", "Y"])
def test_one_certain_index_keeps_the_rest_random(kind, n):
    # index 5 closes a circle for certain unless a gap forces it to 0; the
    # indices above and below it stay random
    reps = 100_000
    assert kind.one_probs(n)[5] == 1.0
    u = np.random.default_rng(303).random((reps, _full_width(kind, n)))
    words = _words(_bits(kind, n, u), n)
    keys, counts = np.unique(words, axis=0, return_counts=True)
    sampled = {tuple(int(b) for b in k): int(c) for k, c in zip(keys, counts)}
    law = dict(oracle.exact_law(kind, n).items())
    assert len(sampled) > 8
    assert all(law[w] > 0.0 for w in sampled)
    assert _chi_square_p(sampled, law, reps) > 1e-3


@settings(max_examples=60, deadline=None)
@given(depth=st.integers(1, 4), lead=st.integers(0, 3), n=st.integers(2, 80),
       reps=st.integers(1, 200), budget=st.integers(1, 1000), seed=st.integers(0, 2**32))
def test_jump_depth_keeps_the_first_jumps(depth, lead, n, reps, budget, seed):
    kind = ChainKind.eta(2.5)
    h = kind.one_probs(n)

    def rows(depth=None):
        # the draw width sets the block sizes, so compare per replicate,
        # each word's 1-positions without the block's 0 padding
        blocks = list(montecarlo._sample(kind, h, range(reps), seed, lead, depth))
        words = [tuple(r[r > 0]) for _, _, ones in blocks for r in ones]
        return np.concatenate([d for _, d, _ in blocks]), words

    (d1, short), (d2, full) = _with_budget(budget, rows, depth), _with_budget(budget, rows)
    assert np.array_equal(d1, d2)
    assert short == [w[:depth] for w in full]


@settings(max_examples=40, deadline=None)
@given(stat=st.sampled_from(("A1", "A2", "Astar1", "gem")), n=st.integers(2, 60),
       reps=st.integers(2, 300),
       budget=st.one_of(st.just(montecarlo._CHUNK_DRAWS), st.integers(1, 2000)),
       seed=st.integers(0, 2**32))
def test_jump_depth_gives_the_full_depth_results(stat, n, reps, budget, seed):
    kind = ChainKind.x(PSequence.eta(1.3))

    def run():
        if stat == "gem":
            return gem_diagnostic(1.3, n, reps, seed)
        return estimate(stat, kind, n, reps, seed, kappa=0.4, target=1)

    got = _with_budget(budget, run)
    # every depth None: the statistics read whole words
    with mock.patch.dict(montecarlo._JUMP_DEPTH, dict.fromkeys(montecarlo._JUMP_DEPTH)):
        assert _with_budget(budget, run) == got


def test_results_do_not_depend_on_jump_width(monkeypatch):
    # the width sizes the blocks only: width 1 with this budget gives 37
    # replicates a block, after their orientation or dither draws
    kind = ChainKind.x(PSequence.eta(1.5))
    eta2 = ChainKind.eta(2.0)
    ref = (estimate("Cstar_j", kind, 25, 200, seed=6, j=2, kappa=0.35),
           clt_diagnostic(eta2, 300, 100, seed=6))
    monkeypatch.setattr(montecarlo, "_jump_width", lambda kind, h: 1)
    monkeypatch.setattr(montecarlo, "_CHUNK_DRAWS", 37 * 26)  # 37 replicates of 26 draws
    got = (estimate("Cstar_j", kind, 25, 200, seed=6, j=2, kappa=0.35),
           clt_diagnostic(eta2, 300, 100, seed=6))
    assert got == ref


def test_orientation_statistics_chunk_invariance():
    kind = ChainKind.x(PSequence.eta(1.5))
    for stat, kw in (("Lambda", {}), ("Cstar_j", {"j": 2}), ("Astar1", {"target": 1})):
        # a few rows a block, then every row in one block
        r1 = _with_budget(7 * 30, estimate, stat, kind, 25, 300, seed=4, kappa=0.35, **kw)
        r2 = _with_budget(1 << 20, estimate, stat, kind, 25, 300, seed=4, kappa=0.35, **kw)
        assert (r1.mean, r1.std_error) == (r2.mean, r2.std_error), stat


def _row_statistics(word, looks, n, j, target):
    """Per-word statistics by a direct loop over the word (the reference)."""
    _, k, lengths = cycle_statistics(tuple(int(b) for b in word))
    ones = [i for i in range(n, 0, -1) if word[i - 1] == 1]
    tops = [n + 1] + ones[:-1]
    in_look = [1 + sum(looks[i - 1] for i in range(lo + 1, hi))
               for hi, lo in zip(tops, ones)]
    return {
        "K": k, "Cj": sum(a == j for a in lengths), "A1": lengths[0],
        "A2": lengths[1] if k > 1 else 0, "Lambda": sum(in_look),
        "Cstar_j": sum(c == j for c in in_look),
        "Astar1": float(k > 1 and in_look[0] == target),
    }


@pytest.mark.parametrize("kind", [ChainKind.eta(1.2), ChainKind.y(ThetaSequence.constant(2.0))])
def test_extraction_matches_word_loop(kind):
    n, rows, j, target = 15, 300, 2, 2
    rng = np.random.default_rng(5)
    ones = _bits(kind, n, rng.random((rows, _full_width(kind, n))))
    orient = rng.random((rows, n)) < 0.4
    words = _words(ones, n)
    ref = [_row_statistics(words[r], orient[r], n, j, target) for r in range(rows)]
    for stat in ("K", "Cj", "A1", "A2", "Lambda", "Cstar_j", "Astar1"):
        got = _extract(stat, ones, orient, n, j, target)
        assert got.tolist() == [float(r[stat]) for r in ref], stat


def test_lambda_mean_matches_exact():
    p = PSequence.eta(0.8)
    n, kappa = 10, 0.3
    _, exact = lambda_total(n, kappa, k_distribution(ChainKind.x(p), n))
    rep = estimate("Lambda", ChainKind.x(p), n, 20000, seed=17, kappa=kappa)
    assert abs(rep.mean - exact) < 4 * rep.std_error


def test_small_inputs_rejected():
    p = PSequence.eta(1.0)
    with pytest.raises(ValueError):
        estimate("K", ChainKind.eta(1.0), 1, 10, 1)
    with pytest.raises(ValueError):
        estimate("Lambda", ChainKind.x(p), 1, 10, 1, kappa=0.5)
    with pytest.raises(ValueError):
        clt_diagnostic(ChainKind.x(p), 1, 100, 1)
    with pytest.raises(ValueError):
        clt_diagnostic(ChainKind.x(p), 50, 1, 1)
    with pytest.raises(ValueError):
        gem_diagnostic(1.0, 1, 100, 1)
    with pytest.raises(ValueError):
        gem_diagnostic(1.0, 50, 1, 1)
    # a coin word of length 1 is the single circle
    assert estimate("K", ChainKind.y(ThetaSequence.constant(1.0)), 1, 10, 1).mean == 1.0


def test_kappa_is_checked():
    for kappa in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            estimate("Lambda", ChainKind.eta(1.0), 10, 10, 1, kappa=kappa)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            generate_signed(10, PSequence.eta(1.0), kappa, 1)
    # kappa = 1 is in the range: every member looks in
    assert estimate("Lambda", ChainKind.eta(1.0), 10, 10, 1, kappa=1.0).mean == 10.0


def test_block_draw_peak_memory():
    # the peak traced allocation of a 16384-row draw of four uniforms: a
    # Philox kernel that built per-round temporaries and stacked its words
    # peaked at 2 492 956 bytes, the SplitMix64 draw at 1 246 776
    numbers = _replicate_numbers(range(16384))
    replicate_uniforms(9, numbers, 0, 4)
    tracemalloc.start()
    try:
        replicate_uniforms(9, numbers, 0, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_492_956


@pytest.mark.parametrize("run", [
    lambda: estimate("K", ChainKind.x(PSequence.eta(0.5)), 12, 40000, 5),
    lambda: estimate("Lambda", ChainKind.x(PSequence.eta(0.5)), 12, 20000, 5, kappa=0.4),
    lambda: clt_diagnostic(ChainKind.eta(1.0), 300, 20000, 5),
    lambda: gem_diagnostic(2.0, 300, 20000, 5),
    # a consumer that keeps nothing of a block
    lambda: deque(chains._jump_blocks(ChainKind.eta(1.0), 12, 5, range(20000)), maxlen=0),
], ids=["estimate_K", "estimate_Lambda", "clt", "gem", "jump_blocks"])
def test_no_block_is_alive_while_the_next_is_drawn(run):
    # the bytes live as each block draw starts are those of the first: the
    # results are allocated up front.  With the previous block kept alive,
    # estimate('K') entered its later draws with 1.04 MB live, not 0.39 MB.
    live = []

    def spy(seed, numbers, offset, count):
        live.append(tracemalloc.get_traced_memory()[0])
        return replicate_uniforms(seed, numbers, offset, count)

    run()
    with mock.patch.object(montecarlo, "replicate_uniforms", spy):
        tracemalloc.start()
        try:
            run()
        finally:
            tracemalloc.stop()
    assert len(live) >= 3
    assert max(live[1:]) - live[0] <= 16_384, live


def test_default_chunk_holds_a_pass_of_draws():
    def rows(kind, n, lead, reps, depth=None):
        return [ones.shape[0] for _, _, ones in
                montecarlo._sample(kind, kind.one_probs(n), range(reps), 1, lead, depth=depth)]

    # mu + 3 sqrt(mu) + 2 jumps expected, mu = sum h = 1.89 here
    kind = ChainKind.x(PSequence.eta(0.5))
    assert montecarlo._jump_width(kind, kind.one_probs(12)) == 6
    # a block holds _CHUNK_DRAWS // draws replicates, at most _BLOCK_ROWS
    assert montecarlo._BLOCK_ROWS == 8192
    assert rows(kind, 12, 0, 40000) == [8192] * 4 + [7232]  # 6 draws a replicate
    assert rows(kind, 12, 12, 20000) == [3640] * 5 + [1800]  # 18 draws
    assert rows(ChainKind.eta(1.0), 50, 100, 1100) == [590, 510]  # 111 draws
    assert rows(kind, 12, 0, 20000, depth=1) == [8192, 8192, 3616]  # 1 draw
    assert rows(kind, 12, 11, 10000, depth=2) == [5041, 4959]  # 13 draws
    assert rows(kind, 12, 12, 10000, depth=2) == [4681, 4681, 638]  # 14 draws


def test_a_block_of_long_replicates_is_sized_by_the_budget(monkeypatch):
    # estimate('Lambda', n = 10**6) draws 10**6 orientations a replicate; a
    # 512-row block of them would take 4 GB, so only the first block is
    # drawn, and a draw of more rows than the budget allows stops first
    kind, n, lead = ChainKind.eta(1.0), 10**6, 10**6
    h = kind.one_probs(n)
    width = montecarlo._jump_width(kind, h)
    chunk = max(1, montecarlo._CHUNK_DRAWS // (lead + width))

    def guarded(seed, numbers, offset, count):
        assert numbers.size <= chunk, "the block holds more replicates than the budget"
        return replicate_uniforms(seed, numbers, offset, count)

    monkeypatch.setattr(montecarlo, "replicate_uniforms", guarded)
    _, draws, ones = next(montecarlo._sample(kind, h, range(600), 5, lead))
    assert draws.shape == (chunk, lead)
    assert ones.shape[0] == chunk
    for offset in (0, 1, lead // 2, lead - 3):
        assert np.array_equal(draws[0, offset:offset + 3], _reference_stream(5, 0, offset, 3))


@pytest.mark.parametrize("stat, reps, kw", [
    ("K", 6000, {}), ("Lambda", 2000, {}), ("Cstar_j", 2000, {"j": 2}),
])
def test_default_chunk_gives_the_fixed_chunk_results(stat, reps, kw):
    kind = ChainKind.x(PSequence.eta(0.5))
    got = estimate(stat, kind, 12, reps, 77, kappa=0.4, **kw)
    for budget in (7 * 18, 512 * 18):  # 7 and 576 rows at Lambda's 16 draws a row
        assert _with_budget(budget, estimate, stat, kind, 12, reps, 77, kappa=0.4, **kw) == got


@given(stat=st.sampled_from(("K", "Cj", "A1", "A2", "Lambda", "Cstar_j", "Astar1")),
       n=st.integers(2, 14), reps=st.integers(2, 400), budget=st.integers(1, 8000),
       seed=st.integers(0, 2**32))
def test_default_chunk_matches_any_chunk(stat, n, reps, budget, seed):
    kind = ChainKind.x(PSequence.eta(1.3))
    kw = {"j": 2, "kappa": 0.4, "target": 1}
    assert (_with_budget(budget, estimate, stat, kind, n, reps, seed, **kw)
            == estimate(stat, kind, n, reps, seed, **kw))
