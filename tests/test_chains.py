import itertools
import math
from collections import Counter

import numpy as np
import pytest

from derange.chains import (
    ChainKind,
    cycle_statistics,
    in_delta,
    marginal_one,
    path_probability,
    sample_path,
    sample_paths,
    transition_matrix,
    word_from_string,
    word_to_string,
)
from derange.params import PSequence, ThetaSequence
from derange import oracle
from test_montecarlo import _chi_square_p


@pytest.mark.parametrize("kindname", ["eta", "eta_tilde", "y", "xi_tilde"])
def test_row_stochastic(kindname):
    if kindname == "eta":
        kind = ChainKind.eta(0.7)
    elif kindname == "eta_tilde":
        kind = ChainKind.eta_tilde(0.7)
    elif kindname == "y":
        kind = ChainKind.y(ThetaSequence.eta_star(0.5))
    else:
        kind = ChainKind.xi_tilde(0.7)
    n = 9
    for r in range(1, n + 1):
        m = transition_matrix(kind, r, n)
        assert np.all(m >= -1e-15)
        assert np.allclose(m.sum(axis=1), 1.0, atol=1e-14)


def test_word_roundtrip():
    w = (1, 0, 1, 0, 0, 1, 0)
    assert word_from_string(word_to_string(w)) == tuple(w)


def test_in_delta():
    assert in_delta((1, 0, 1, 0, 0))  # stored ascending: w_1=1, w_n=0
    assert not in_delta((1, 1, 0, 0))  # adjacent ones
    assert not in_delta((0, 1, 0, 0))  # w_1 must be 1
    assert not in_delta((1, 0, 0, 1))  # w_n must be 0


def test_sample_determinism():
    kind = ChainKind.eta(1.0)
    a = sample_path(kind, 8, 3, 0)
    b = sample_path(kind, 8, 3, 0)
    c = sample_path(kind, 8, 3, 1)
    assert tuple(a) == tuple(b)
    assert in_delta(a) and in_delta(c)


def test_path_probability_sums_to_one():
    kind = ChainKind.eta(0.6)
    total = math.fsum(
        path_probability(kind, w) for w in oracle.enumerate_delta(7)
    )
    assert total == pytest.approx(1.0, abs=1e-13)


def test_path_probability_coin_closed_form():
    # the coin product formula (n-1)!/prod_{i=2}^n (theta_i + i - 1) times
    # theta_i/(i-1) at each 1 above index 1, in log space
    ts = ThetaSequence.eta_star(0.9)
    kind = ChainKind.y(ts)
    n = 5
    log_base = math.lgamma(n) - math.fsum(math.log(ts(i) + i - 1) for i in range(2, n + 1))
    for w in [(1, 0, 1, 1, 0), (1, 1, 1, 1, 1), (1, 0, 0, 0, 0)]:
        log_p = log_base + math.fsum(math.log(ts(i) / (i - 1))
                                     for i in range(2, n + 1) if w[i - 1])
        assert path_probability(kind, w) == pytest.approx(math.exp(log_p), rel=1e-13)
    assert path_probability(kind, (0, 1, 0, 1, 0)) == 0.0  # index 1 must close


@pytest.mark.parametrize("kind", [ChainKind.eta_tilde(0.7), ChainKind.y(ThetaSequence.eta_star(0.6))])
def test_path_probability_is_the_transition_product(kind):
    # every word of length 8, on and off support, scored from the virtual 1
    # down through the matching transition_matrix entries
    n = 8
    for word in itertools.product((0, 1), repeat=n):
        want = 1.0
        above = 1
        for r in range(n, 0, -1):
            want *= transition_matrix(kind, r, n)[above][word[r - 1]]
            above = word[r - 1]
        got = path_probability(kind, word)
        assert type(got) is float
        assert got == pytest.approx(want, rel=1e-15, abs=0.0), word


def test_marginal_one_vs_dp():
    n = 10
    for kind in (ChainKind.x(PSequence.eta(0.8)), ChainKind.y(ThetaSequence.eta_star(0.6))):
        law = oracle.exact_law(kind, n)
        for i in range(1, n + 1):
            brute = math.fsum(pr for w, pr in law.items() if w[i - 1] == 1)
            assert marginal_one(kind, i, n) == pytest.approx(brute, abs=1e-13)


def test_cycle_statistics():
    # stored ascending w_1..w_n; ones at chain indices; virtual 1 at n+1
    word = (1, 0, 1, 0, 0, 1, 0, 0)  # n=8: ones at 1,3,6; lengths 3,3,2
    counts, k, lengths = cycle_statistics(word)
    assert k == 3
    assert list(lengths) == [3, 3, 2]
    assert counts[2 - 1] == 1 and counts[3 - 1] == 2
    assert sum((j + 1) * c for j, c in enumerate(counts)) == 8


@pytest.mark.parametrize("kind, n", [
    (ChainKind.eta(0.7), 8),
    (ChainKind.y(ThetaSequence.constant(1.5)), 6),
])
def test_sampled_path_law_matches_exact(kind, n):
    reps = 20_000
    words = sample_paths(kind, n, 11, range(reps))
    law = dict(oracle.exact_law(kind, n).items())
    assert _chi_square_p(Counter(words), law, reps) > 1e-3
    for r in (0, 1, reps - 1):
        assert sample_path(kind, n, 11, r) == words[r]


def test_unsupported_kinds_raise():
    # the n -> infinity marginal is limitchain.phi
    with pytest.raises(ValueError, match="limitchain.phi"):
        marginal_one(ChainKind.eta(1.0), 3, math.inf)
