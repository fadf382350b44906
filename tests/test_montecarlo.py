import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from derange import montecarlo, oracle
from derange.chains import ChainKind, cycle_statistics, generate_signed, sample_path, sample_paths
from derange.coupling import k_distribution
from derange.montecarlo import (
    _extract,
    _replicate_numbers,
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


@pytest.mark.parametrize("first", [0, 10**12 + 7, 2**63 - 3])
def test_block_draw_matches_replicate_streams(first):
    rnd = random.Random(first)
    seeds = [0, -1, 2**63, 2**64 - 1, -(2**63)] + [rnd.randrange(-2**70, 2**70) for _ in range(45)]
    for seed in seeds:
        reps = range(first, first + rnd.randrange(1, 7))
        offset, count = rnd.randrange(14), rnd.randrange(1, 21)
        want = [replicate_rng(seed, r).random(offset + count)[offset:] for r in reps]
        got = replicate_uniforms(seed, _replicate_numbers(reps), offset, count)
        assert got.shape == (len(reps), count)
        assert np.array_equal(got, want), (seed, reps, offset, count)


def test_seeded_outputs_are_pinned():
    kind = ChainKind.x(PSequence.eta(0.5))
    r = estimate("K", kind, 12, 40000, 12345)
    assert (r.mean, r.std_error) == (1.772525, 0.0037768849242289966)
    r = estimate("Lambda", kind, 12, 20000, 777, kappa=0.4)
    assert (r.mean, r.std_error) == (5.84765, 0.011572539481829514)
    r = clt_diagnostic(PSequence.eta(1.0), 20000, 2000, 99)
    assert (r.mean, r.p_value) == (-0.08431931262667572, 0.24021531509977942)
    word = sample_path(ChainKind.eta(1.0), 30, 5, 10**12 + 7)
    assert "".join(map(str, word)) == "100000010000000000000100000000"
    signed, perm = generate_signed(8, PSequence.eta(1.0), 0.4, 11, 3)
    assert signed.steps == ("1", "+0", "+0", "-0", "+0", "+0", "+0", "-0")
    assert perm.circles == ((8, -2, 3, 4, 1, -6, 5, 7),)


def test_replicate_generators_only_past_the_block_draw(monkeypatch):
    calls = []

    def counted(seed, rep):
        calls.append(rep)
        return replicate_rng(seed, rep)

    monkeypatch.setattr(montecarlo, "replicate_rng", counted)
    estimate("Lambda", ChainKind.eta(1.0), 12, 1000, 1, kappa=0.4)
    clt_diagnostic(PSequence.eta(1.0), 300, 600, 2)
    sample_paths(ChainKind.eta(1.0), 30, 3, range(50))
    assert calls == []
    gem_diagnostic(1.0, 200, 600, 4)  # the one stick-breaking stream
    assert len(calls) == 1
    # past _BLOCK_DRAWS draws per replicate, a generator per replicate is cheaper
    calls.clear()
    estimate("Lambda", ChainKind.eta(1.0), montecarlo._BLOCK_DRAWS, 40, 1, kappa=0.4)
    assert calls == list(range(40))


@pytest.mark.parametrize("lead", [2, montecarlo._BLOCK_DRAWS])
def test_sampler_draws_are_the_replicate_streams(lead):
    # one case on each side of the switch from block draw to generators
    kind, n, seed, reps = ChainKind.eta(1.5), 60, 8, range(10**12, 10**12 + 30)
    streams = np.array([replicate_rng(seed, r).random(lead + n) for r in reps])
    (_, draws, ones), = montecarlo._sample(kind, kind.one_probs(n), reps, seed, lead)
    assert np.array_equal(draws, streams[:, :lead])
    assert np.array_equal(ones, sample_bits(kind, n, streams[:, lead:]))


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


# ---------------------------------------------------------------------------
# jump sampler

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
    words = _words(sample_bits(kind, n, u), n)
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
    k = np.count_nonzero(sample_bits(kind, n, u), axis=1)
    values, counts = np.unique(k, return_counts=True)
    sampled = {int(v): int(c) for v, c in zip(values, counts)}
    law = dict(k_distribution(ChainKind.x(p), n).items())
    assert _chi_square_p(sampled, law, reps) > 1e-3


def test_words_do_not_depend_on_jump_width():
    kind = ChainKind.eta(4.0)
    n, reps = 300, 40
    full = np.array([replicate_rng(3, r).random(_full_width(kind, n)) for r in range(reps)])
    narrow = full[:, :1].copy()
    wide = sample_bits(kind, n, full)
    numbers = np.arange(reps, dtype=np.uint64)

    def extend(rows, width, count):
        return replicate_uniforms(3, numbers[rows], width, count)

    assert np.count_nonzero(wide, axis=1).min() > 3  # every row outgrows width 1
    assert np.array_equal(sample_bits(kind, n, narrow, extend), wide)
    with pytest.raises(ValueError):
        sample_bits(kind, n, narrow)


@pytest.mark.parametrize("depth", [1, 2, 5])
def test_one_column_with_extend_gives_the_full_width_words(depth):
    # depth None is test_words_do_not_depend_on_jump_width
    kind = ChainKind.eta(4.0)
    n, reps = 300, 40
    full = np.array([replicate_rng(3, r).random(_full_width(kind, n)) for r in range(reps)])
    numbers = np.arange(reps, dtype=np.uint64)

    def extend(rows, width, count):
        return replicate_uniforms(3, numbers[rows], width, count)

    wide = sample_bits(kind, n, full, depth=depth)
    assert wide.shape[1] == depth  # some word has more circles
    assert np.array_equal(sample_bits(kind, n, full[:, :1].copy(), extend, depth=depth), wide)


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
    kind = ChainKind.signed(PSequence.eta(1.3), 0.4)

    def run():
        if stat == "gem":
            return gem_diagnostic(1.3, n, reps, seed)
        return estimate(stat, kind, n, reps, seed, target=1)

    got = _with_budget(budget, run)
    # every depth None: the statistics read whole words
    with mock.patch.dict(montecarlo._JUMP_DEPTH, dict.fromkeys(montecarlo._JUMP_DEPTH)):
        assert _with_budget(budget, run) == got


def test_results_do_not_depend_on_jump_width(monkeypatch):
    # width 1 sends every replicate through the stream continuation, after
    # its orientation or dither draws
    kind = ChainKind.signed(PSequence.eta(1.5), 0.35)
    p = PSequence.eta(2.0)
    ref = (estimate("Cstar_j", kind, 25, 200, seed=6, j=2),
           clt_diagnostic(p, 300, 100, seed=6))
    monkeypatch.setattr(montecarlo, "_jump_width", lambda kind, h: 1)
    monkeypatch.setattr(montecarlo, "_CHUNK_DRAWS", 37 * 26)  # 37 replicates of 26 draws
    got = (estimate("Cstar_j", kind, 25, 200, seed=6, j=2),
           clt_diagnostic(p, 300, 100, seed=6))
    assert got == ref


def test_orientation_statistics_chunk_invariance():
    kind = ChainKind.signed(PSequence.eta(1.5), 0.35)
    for stat, kw in (("Lambda", {}), ("Cstar_j", {"j": 2}), ("Astar1", {"target": 1})):
        # a few rows a block, then every row in one block
        r1 = _with_budget(7 * 30, estimate, stat, kind, 25, 300, seed=4, **kw)
        r2 = _with_budget(1 << 20, estimate, stat, kind, 25, 300, seed=4, **kw)
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
    ones = sample_bits(kind, n, rng.random((rows, _full_width(kind, n))))
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
        estimate("Lambda", ChainKind.signed(p, 0.5), 1, 10, 1)
    with pytest.raises(ValueError):
        clt_diagnostic(p, 1, 100, 1)
    with pytest.raises(ValueError):
        clt_diagnostic(p, 50, 1, 1)
    with pytest.raises(ValueError):
        gem_diagnostic(1.0, 1, 100, 1)
    with pytest.raises(ValueError):
        gem_diagnostic(1.0, 50, 1, 1)
    # a coin word of length 1 is the single circle
    assert estimate("K", ChainKind.y(ThetaSequence.constant(1.0)), 1, 10, 1).mean == 1.0


def test_kappa_is_checked():
    signed = ChainKind.signed(PSequence.eta(1.0), 0.4)
    with pytest.raises(ValueError, match="conflicts"):
        estimate("Lambda", signed, 10, 10, 1, kappa=0.5)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        estimate("Lambda", ChainKind.eta(1.0), 10, 10, 1, kappa=1.5)
    # a matching kappa is the kind's own
    assert estimate("Lambda", signed, 10, 10, 1, kappa=0.4) == estimate("Lambda", signed, 10, 10, 1)


@pytest.mark.parametrize("offset, count", [(0, 5), (7, 9)])
def test_block_draw_with_more_rows_than_a_pass(offset, count):
    # more rows than _PASS_SIZE: one counter per Philox pass
    reps = range(10**9, 10**9 + montecarlo._PASS_SIZE + 3)
    got = replicate_uniforms(31, _replicate_numbers(reps), offset, count)
    assert got.shape == (len(reps), count)
    for i in [*range(0, len(reps), 997), len(reps) - 1]:
        want = replicate_rng(31, reps[i]).random(offset + count)[offset:]
        assert np.array_equal(got[i], want), i


def test_block_draw_count_spanning_several_passes():
    # 3 rows take _PASS_SIZE // 3 counters, 4 words each, a pass; the
    # offset is not a multiple of 4, so every seam cuts inside a counter
    reps = range(5, 8)
    offset = 4 * 1000 + 3
    count = 3 * 4 * (montecarlo._PASS_SIZE // 3) - 5
    got = replicate_uniforms(-12, _replicate_numbers(reps), offset, count)
    want = [replicate_rng(-12, r).random(offset + count)[offset:] for r in reps]
    assert np.array_equal(got, want)


# rows of a pass of 4 counters
_TILE = montecarlo._PASS_SIZE // 4


@pytest.mark.parametrize("rows", [1, 3, _TILE - 1, _TILE, _TILE + 1, montecarlo._PASS_SIZE + 3])
def test_block_draw_at_every_seam(rows):
    # a pass holds all rows (or _PASS_SIZE of them) and the counters that
    # fit beside them; counts cross counters (4 words) and passes, every
    # offset 0..7 starts at another word of a counter
    reps = range(2**40 + rows, 2**40 + 2 * rows)
    per_pass = montecarlo._PASS_SIZE // min(rows, montecarlo._PASS_SIZE)
    counts = [1, 5, 4 * per_pass + 3]
    # the first and last row, either side of the row seam, and a stride
    tile_end = min(rows, montecarlo._PASS_SIZE)
    check = sorted({0, rows - 1, tile_end - 1, tile_end % rows, *range(0, rows, 509)})
    streams = {i: replicate_rng(-5, reps[i]).random(8 + max(counts)) for i in check}
    numbers = _replicate_numbers(reps)
    for offset in range(8):
        for count in counts:
            got = replicate_uniforms(-5, numbers, offset, count)
            assert got.shape == (rows, count)
            for i in check:
                assert np.array_equal(got[i], streams[i][offset:offset + count]), (offset, count, i)


def test_block_draw_peak_memory():
    # the peak traced allocation of a 16384-row draw of one counter: the
    # kernel that built per-round temporaries and stacked its words
    # peaked at 2 492 956 bytes, this one at 1 642 332
    numbers = _replicate_numbers(range(16384))
    replicate_uniforms(9, numbers, 0, 4)
    tracemalloc.start()
    try:
        replicate_uniforms(9, numbers, 0, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_492_956


def test_default_chunk_holds_a_pass_of_draws():
    def rows(kind, n, lead, reps, depth=None):
        return [ones.shape[0] for _, _, ones in
                montecarlo._sample(kind, kind.one_probs(n), range(reps), 1, lead, depth=depth)]

    # mu + 3 sqrt(mu) + 2 jump draws up front, mu = sum h = 1.89 here,
    # rounded down to whole Philox counters of 4 draws
    kind = ChainKind.x(PSequence.eta(0.5))
    assert montecarlo._jump_width(kind, kind.one_probs(12)) == 6
    # a block holds _CHUNK_DRAWS // draws replicates, at most _PASS_SIZE
    assert montecarlo._PASS_SIZE == 8192
    assert rows(kind, 12, 0, 40000) == [8192] * 4 + [7232]  # 6 -> 4 draws a replicate
    assert rows(kind, 12, 12, 20000) == [4096] * 4 + [3616]  # 18 -> 16 draws
    signed = ChainKind.signed(PSequence.eta(1.0), 0.5)
    assert rows(signed, 50, 100, 1100) == [606, 494]  # 111 -> 108 draws
    # a draw count below one counter stays: one jump draw for A1
    assert rows(kind, 12, 0, 20000, depth=1) == [8192, 8192, 3616]
    # two jump draws for A2 after a lead: rounded down while one remains
    assert rows(kind, 12, 11, 10000, depth=2) == [5461, 4539]  # 13 -> 12 draws
    assert rows(kind, 12, 12, 10000, depth=2) == [4681, 4681, 638]  # 14 draws: 12 leaves none


def test_a_block_of_long_replicates_is_sized_by_the_budget(monkeypatch):
    # estimate('Lambda', n = 10**6) draws 10**6 orientations a replicate; a
    # 512-row block of them would take 4 GB, so only the first block is
    # drawn, and a block of more than 2 rows stops at its third stream
    def guarded(seed, rep):
        assert rep < 2, "the block holds more than 2 replicates"
        return replicate_rng(seed, rep)

    monkeypatch.setattr(montecarlo, "replicate_rng", guarded)
    kind, n, lead = ChainKind.eta(1.0), 10**6, 10**6
    h = kind.one_probs(n)
    width = montecarlo._jump_width(kind, h)
    _, draws, ones = next(montecarlo._sample(kind, h, range(600), 5, lead))
    assert draws.shape[0] == ones.shape[0] == max(1, montecarlo._CHUNK_DRAWS // (lead + width))
    assert np.array_equal(draws[0], replicate_rng(5, 0).random(lead))


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
    kind = ChainKind.signed(PSequence.eta(1.3), 0.4)
    kw = {"j": 2, "target": 1}
    assert (_with_budget(budget, estimate, stat, kind, n, reps, seed, **kw)
            == estimate(stat, kind, n, reps, seed, **kw))
