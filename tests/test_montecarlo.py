import numpy as np
import pytest
from scipy.stats import chisquare

from derange import montecarlo, oracle
from derange.chains import ChainKind, cycle_statistics
from derange.coupling import k_distribution
from derange.montecarlo import (
    _continuation,
    _extract,
    clt_diagnostic,
    estimate,
    gem_diagnostic,
    ks_p_value,
    ks_statistic,
    replicate_rng,
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


def test_estimate_deterministic():
    kind = ChainKind.eta(1.0)
    r1 = estimate("K", kind, 12, 400, seed=5)
    r2 = estimate("K", kind, 12, 400, seed=5)
    assert r1.mean == r2.mean


def test_chunk_size_invariance():
    kind = ChainKind.eta(0.8)
    r1 = estimate("K", kind, 10, 300, seed=9, chunk=32)
    r2 = estimate("K", kind, 10, 300, seed=9, chunk=300)
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
    law = dict(k_distribution("X", n, p).items())
    assert _chi_square_p(sampled, law, reps) > 1e-3


def test_words_do_not_depend_on_jump_width():
    kind = ChainKind.eta(4.0)
    n, reps = 300, 40
    full = np.array([replicate_rng(3, r).random(_full_width(kind, n)) for r in range(reps)])
    narrow = full[:, :1].copy()
    wide = sample_bits(kind, n, full)
    assert np.count_nonzero(wide, axis=1).min() > 3  # every row outgrows width 1
    assert np.array_equal(sample_bits(kind, n, narrow, _continuation(3, 0, 0)), wide)
    with pytest.raises(ValueError):
        sample_bits(kind, n, narrow)


def test_results_do_not_depend_on_jump_width(monkeypatch):
    # width 1 sends every replicate through the stream continuation, after
    # its orientation or dither draws
    kind = ChainKind.signed(PSequence.eta(1.5), 0.35)
    p = PSequence.eta(2.0)
    ref = (estimate("Cstar_j", kind, 25, 200, seed=6, j=2),
           clt_diagnostic(p, 300, 100, seed=6))
    monkeypatch.setattr(montecarlo, "_jump_width", lambda kind, h: 1)
    got = (estimate("Cstar_j", kind, 25, 200, seed=6, j=2, chunk=37),
           clt_diagnostic(p, 300, 100, seed=6))
    assert got == ref


def test_orientation_statistics_chunk_invariance():
    kind = ChainKind.signed(PSequence.eta(1.5), 0.35)
    for stat, kw in (("Lambda", {}), ("Cstar_j", {"j": 2}), ("Astar1", {"target": 1})):
        r1 = estimate(stat, kind, 25, 300, seed=4, chunk=7, **kw)
        r2 = estimate(stat, kind, 25, 300, seed=4, chunk=300, **kw)
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
    _, exact = lambda_total(n, kappa, k_distribution("X", n, p))
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
