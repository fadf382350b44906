import itertools
import math

import numpy as np
import pytest

from derange import limitchain, oracle
from derange.chains import ChainKind, cycle_statistics, in_delta, word_law
from derange.coupling import erase11
from derange.dist import compare_laws
from derange.limitchain import phi, xinf_transition
from derange.params import PSequence, ThetaSequence


def test_delta_counts_fibonacci():
    # |Delta_n| follows the Fibonacci recursion
    counts = [len(oracle.enumerate_delta(n)) for n in range(2, 14)]
    assert counts[0] == 1 and counts[1] == 1
    for m in range(2, len(counts)):
        assert counts[m] == counts[m - 1] + counts[m - 2]


def test_enumerate_delta_valid_words():
    for w in oracle.enumerate_delta(9):
        assert in_delta(w)


def test_exact_law_sums_to_one():
    p = PSequence.eta(0.5)
    ts = ThetaSequence.eta_star(0.5)
    for kind in (ChainKind.x(p), ChainKind.y(ts)):
        law = oracle.exact_law(kind, 9)
        assert law.total() == pytest.approx(1.0, abs=1e-12)


def test_conditional_law_support():
    law = oracle.conditional_law(8, ThetaSequence.eta_star(0.6))
    for w in law.support():
        assert in_delta(w)
    assert law.total() == pytest.approx(1.0, abs=1e-12)


def test_dp_moments_vs_enumeration():
    p = PSequence.eta(0.7)
    kind = ChainKind.x(p)
    n = 10
    enum = oracle.enumeration_moments(kind, n, j_max=6)
    dp = oracle.dp_moments(kind, n, targets=("mean_k", "var_k"))
    assert dp["mean_k"] == pytest.approx(enum["mean_k"], abs=1e-12)
    assert dp["var_k"] == pytest.approx(enum["var_k"], abs=1e-12)
    for j in (2, 3, 4):
        d = oracle.dp_moments(kind, n, targets=("mean_cj", "var_cj"), j=j)
        assert d["mean_cj"] == pytest.approx(enum["mean_c"][j], abs=1e-12)
        assert d["var_cj"] == pytest.approx(enum["cov_c"][j][j], abs=1e-12)


def test_dp_moments_vs_enumeration_without_gap():
    # a coin kind forces nothing after a 1, so both DP rows are free rows
    kind = ChainKind.y(ThetaSequence.eta_star(0.6))
    n = 10
    enum = oracle.enumeration_moments(kind, n, j_max=6)
    dp = oracle.dp_moments(kind, n, targets=("mean_k", "var_k"))
    assert dp["mean_k"] == pytest.approx(enum["mean_k"], abs=1e-12)
    assert dp["var_k"] == pytest.approx(enum["var_k"], abs=1e-12)
    for j in (1, 2, 3):
        d = oracle.dp_moments(kind, n, targets=("mean_cj", "var_cj"), j=j)
        assert d["mean_cj"] == pytest.approx(enum["mean_c"][j], abs=1e-12)
        assert d["var_cj"] == pytest.approx(enum["cov_c"][j][j], abs=1e-12)
    d = oracle.dp_moments(kind, n, targets=("cov_cij",), j=3, i=2)
    assert d["cov_cij"] == pytest.approx(enum["cov_c"][2][3], abs=1e-12)


def test_dp_moments_build_rows_once(monkeypatch):
    # every horizon of the renewal sums reads one row table, so a call
    # evaluates each of the n scalar rows once
    calls = []
    row = ChainKind.row

    def counted(self, r):
        calls.append(r)
        return row(self, r)

    monkeypatch.setattr(ChainKind, "row", counted)
    oracle.dp_moments(ChainKind.x(PSequence.eta(0.5)), 60, ("var_cj",), j=3)
    assert 0 < len(calls) <= 60


def test_dp_cov_vs_enumeration():
    p = PSequence.eta(0.7)
    kind = ChainKind.x(p)
    n = 10
    enum = oracle.enumeration_moments(kind, n, j_max=6)
    for i, j in [(2, 3), (2, 4), (3, 5), (2, 2), (3, 3), (5, 5)]:
        d = oracle.dp_moments(kind, n, targets=("cov_cij",), j=j, i=i)
        assert d["cov_cij"] == pytest.approx(enum["cov_c"][i][j], abs=1e-12)
    # Var(C_j) is the i = j covariance
    for j in (2, 3, 5):
        d = oracle.dp_moments(kind, n, targets=("var_cj", "cov_cij"), j=j, i=j)
        assert d["var_cj"] == d["cov_cij"]


def _moments_by_loop(kind, n):
    """enumeration_moments as a loop over the words, each scored by
    cycle_statistics."""
    law = oracle.exact_law(kind, n)
    mean_k = e_k2 = 0.0
    mean_c = [0.0] * (n + 1)
    e_c2 = [[0.0] * (n + 1) for _ in range(n + 1)]
    k_law: dict = {}
    c_laws: list = [{} for _ in range(n + 1)]
    for w, pr in law.items():
        counts, k, _ = cycle_statistics(w)
        counts = (0,) + counts
        mean_k += pr * k
        e_k2 += pr * k * k
        k_law[k] = k_law.get(k, 0.0) + pr
        for a in range(1, n + 1):
            mean_c[a] += pr * counts[a]
            c_laws[a][counts[a]] = c_laws[a].get(counts[a], 0.0) + pr
            for b in range(1, n + 1):
                e_c2[a][b] += pr * counts[a] * counts[b]
    cov = [[e_c2[a][b] - mean_c[a] * mean_c[b] for b in range(n + 1)] for a in range(n + 1)]
    return mean_k, e_k2 - mean_k * mean_k, mean_c, cov, k_law, c_laws


@pytest.mark.parametrize("kind, n", [(ChainKind.eta_tilde(1.3), 14),
                                     (ChainKind.y(ThetaSequence.eta_star(0.8)), 12)])
def test_enumeration_moments_match_a_loop_over_the_words(kind, n):
    mean_k, var_k, mean_c, cov, k_law, c_laws = _moments_by_loop(kind, n)
    enum = oracle.enumeration_moments(kind, n)
    got = [enum["mean_k"], enum["var_k"], *enum["mean_c"], *sum(enum["cov_c"], [])]
    want = [mean_k, var_k, *mean_c, *sum(cov, [])]
    assert len(got) == len(want) and max(abs(a - b) for a, b in zip(got, want)) <= 1e-15
    for table, law in [(enum["k_law"], k_law)] + list(zip(enum["c_laws"][1:], c_laws[1:])):
        assert set(table) == set(law)
        assert max(abs(table[v] - law[v]) for v in law) <= 1e-15


def _tv_by_words(p, m):
    """The TV distance between the horizon-m law and X^inf on indices 1..m,
    each no-adjacent-1s word scored on its own: ``word_law`` for the first
    (0 when w_m = 1), a product of ``xinf_transition`` steps up from the 1
    at index 1 for the second."""
    horizon = word_law(ChainKind.x(p), m)
    up = [0.0] + [xinf_transition(i, p) for i in range(1, m)]
    gaps = []
    for bits in itertools.product((0, 1), repeat=m - 1):
        w = (1,) + bits
        if any(a and b for a, b in zip(w, bits)):
            continue
        limit = math.prod(up[i] if w[i] else 1.0 - up[i]
                          for i in range(1, m) if not w[i - 1])
        gaps.append(abs(horizon(w) - limit))
    return 0.5 * math.fsum(gaps)


@pytest.mark.parametrize("p", [
    PSequence.eta(0.5), PSequence.eta_tilde(3.0),
    PSequence.tabulated([0.0, 1.0] + [0.2 + 0.5 * (5 * i % 7) / 7 for i in range(3, 40)],
                        tail_rule="constant")], ids=["eta", "eta_tilde", "tabulated"])
def test_tv_sweep_matches_word_by_word_scoring(p):
    tv = oracle.tv_prefixes(12, ChainKind.x(p))
    assert tv[0] == tv[1] == 0.0
    for m in range(2, 13):
        assert tv[m] == pytest.approx(_tv_by_words(p, m), abs=1e-12), m


@pytest.mark.parametrize("theta", [0.05, 0.5, 3.0, 30.0, 100.0])
def test_tv_sweep_matches_the_theorem(theta):
    p = PSequence.eta(theta)
    tv = oracle.tv_prefixes(oracle.MAX_FULL_N, ChainKind.x(p))
    assert max(abs(tv[m] - phi(m, p)) for m in range(2, oracle.MAX_FULL_N + 1)) <= 1e-12


def test_direct_tv_never_calls_phi(monkeypatch):
    # the oracle side reads phi off its own marginal DP, so the series
    # under test can be broken without the enumeration noticing
    p = PSequence.eta(0.5)
    want = limitchain.tv_prefix(16, p, "theorem")

    def broken(*args, **kwargs):
        raise AssertionError("phi called")

    monkeypatch.setattr(limitchain, "phi", broken)
    assert limitchain.tv_prefix(16, p, "direct") == pytest.approx(want, abs=1e-12)


def test_guard_large_n():
    with pytest.raises(ValueError):
        oracle.exact_law(ChainKind.eta(0.5), oracle.MAX_FULL_N + 20)


def test_oracle_stays_independent():
    # the oracle certifies the closed forms, the array path, the word
    # product and the 11-erasing map, so it may import only the chain
    # definitions, and never reads a sequence's array form (dict .values()
    # takes no argument) nor a kind's array rows
    import ast
    from pathlib import Path

    tree = ast.parse(Path(oracle.__file__).read_text())
    allowed = {
        "chains": {"ChainKind", "cycle_statistics", "in_delta"},
        "dist": None,
        "params": None,
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            assert node.module in allowed, node.module
            names = {alias.name for alias in node.names}
            assert allowed[node.module] is None or names <= allowed[node.module], names
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("derange") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert not (node.module or "").startswith("derange"), node.module
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            assert not (node.func.attr == "values" and (node.args or node.keywords)), \
                ast.unparse(node)
            assert node.func.attr not in ("rows", "one_probs", "coin_probs"), \
                ast.unparse(node)


@pytest.mark.parametrize("kind", [ChainKind.x(PSequence.eta(0.7)),
                                  ChainKind.eta_tilde(1.3),
                                  ChainKind.y(ThetaSequence.eta_star(0.8))])
def test_walked_words_match_word_law_bit_for_bit(kind):
    # the walk multiplies word_law's factors in word_law's order, a forced
    # 0 as an exact 1.0, so every probability agrees to the last bit
    for n in range(1 + kind.gap, 15):
        law = oracle.exact_law(kind, n)
        prob = word_law(kind, n)
        assert len(law) == (len(oracle.enumerate_delta(n)) if kind.gap else 2 ** (n - 1))
        for w, pr in law.items():
            assert pr.hex() == prob(w).hex(), (n, w)


def test_conditional_words_match_word_law_bit_for_bit():
    # the coin rows over the no-adjacent-1s set: a 0 below a 1 is not
    # forced, so it pays the coin's row entry
    ts = ThetaSequence.eta_star(0.8)
    for n in range(2, 15):
        prob = word_law(ChainKind.y(ts), n)
        raw = {w: prob(w) for w in oracle.enumerate_delta(n)}
        norm = math.fsum(raw.values())
        law = oracle.conditional_law(n, ts)
        assert set(law) == set(raw)
        for w, pr in law.items():
            assert pr.hex() == (raw[w] / norm).hex(), (n, w)


class _Coins:
    """Coins that show the bits of one word for certain: the push-forward
    of this law is the point mass at that word's image."""

    def __init__(self, word):
        self.word = word

    def coin_prob(self, r):
        return float(self.word[r - 1])


def test_walked_image_is_erase11():
    for n in range(2, 13):
        for bits in itertools.product((0, 1), repeat=n - 2):
            w = (1,) + bits
            law = oracle.pushforward_law(n, _Coins(w))
            assert law.support() == [erase11(w, n)], w
            assert law[erase11(w, n)] == 1.0


@pytest.mark.parametrize("n", [4, 7, 10, 14, 18])
def test_pushforward_matches_per_word_enumeration(n):
    # the enumeration the walk replaced: every coin word scored and mapped
    # on its own
    ts = ThetaSequence.eta_star(0.8)
    prob = word_law(ChainKind.y(ts), n - 1)
    want: dict = {}
    for bits in itertools.product((0, 1), repeat=n - 2):
        w = (1,) + bits
        img = erase11(w, n)
        want[img] = want.get(img, 0.0) + prob(w)
    got = oracle.pushforward_law(n, ts)
    assert set(got) == set(want)
    assert max(abs(got[w] - want[w]) for w in want) <= 1e-15


def test_blocks_of_prefixes_give_the_same_laws(monkeypatch):
    # blocks of 16 words split the lower levels into hundreds of blocks;
    # word probabilities stay bit-identical, images are summed in another order
    ts = ThetaSequence.eta_star(0.8)
    kinds = (ChainKind.x(PSequence.eta(0.7)), ChainKind.y(ts))
    whole = [oracle.exact_law(kind, 13) for kind in kinds] + [oracle.pushforward_law(13, ts)]
    monkeypatch.setattr(oracle, "_BLOCK", 16)
    split = [oracle.exact_law(kind, 13) for kind in kinds] + [oracle.pushforward_law(13, ts)]
    for a, b in zip(whole[:2], split):
        assert np.array_equal(a.codes, b.codes) and np.array_equal(a.prob, b.prob)
    assert np.array_equal(whole[2].codes, split[2].codes)
    assert np.allclose(whole[2].prob, split[2].prob, rtol=0.0, atol=1e-16)


def test_relations_detect_one_perturbed_link():
    # theta_7 moved by 1 %: the coin-side laws no longer match the chain
    # built from the unperturbed sequence, while the unperturbed ones do
    n = 14
    ts = ThetaSequence.eta_star(0.8)
    bent = ThetaSequence.tabulated(
        [ts(i) * (1.01 if i == 7 else 1.0) for i in range(1, n + 1)], tail_rule="constant")
    for coin_law, link in ((oracle.conditional_law, PSequence.from_theta_conditional),
                           (oracle.pushforward_law, PSequence.from_theta_pushforward)):
        chain = oracle.exact_law(ChainKind.x(link(ts)), n)
        assert compare_laws(chain, coin_law(n, ts)).tv < 1e-12
        assert compare_laws(chain, coin_law(n, bent)).tv > 1e-6
