import itertools
import math
import time
import warnings
from collections import Counter

import mpmath
import numpy as np
import pytest
from scipy.stats import binom

from derange import oracle
from derange.chains import (
    ChainKind,
    cycle_statistics,
    generate_signed,
    generate_signed_many,
    path_probability,
)
from derange.coupling import k_distribution, ordered_cycle_prefix_prob
from derange.params import PSequence, ThetaSequence
from derange.signed_stats import (
    OrientationWeights,
    _binom_pmf,
    cki_distribution,
    cstar_moments,
    lambda_mean_identity,
    lambda_total,
    omega,
    ordered_star_prob,
)
from test_montecarlo import _chi_square_p, _reference_stream


def test_omega_worked_value():
    w = OrientationWeights.binomial(0.5)
    assert omega(3, 2, w) == pytest.approx(0.5)


def test_omega_rows_sum_to_one():
    for kappa in (0.0, 0.3, 1.0):
        w = OrientationWeights.binomial(kappa)
        for k in range(1, 30):
            assert math.fsum(omega(k, i, w) for i in range(1, k + 1)) == (
                pytest.approx(1.0, abs=1e-12)
            )


def test_omega_at_large_k():
    # the binomial coefficient C(1099, 549) overflows a float
    w = OrientationWeights.binomial(0.5)
    assert omega(1100, 550, w) == pytest.approx(binom.pmf(549, 1099, 0.5), rel=1e-12)
    assert math.fsum(omega(1100, i, w) for i in range(1, 1101)) == pytest.approx(1.0, abs=1e-11)


@pytest.mark.parametrize("m", [1, 7, 200, 1029, 1030, 2000])
@pytest.mark.parametrize("kappa", [0.0, 0.3, 0.5, 0.97, 1.0])
def test_binom_pmf_matches_mpmath(m, kappa):
    # from m = 1030 the coefficient C(m, m // 2) overflows a float; kappa
    # 0 and 1 need 0 log 0 = 0 for their point masses
    got = _binom_pmf(np.arange(m + 1), m, kappa)
    with mpmath.workdps(40):
        k = mpmath.mpf(kappa)
        want = np.array([float(mpmath.binomial(m, s) * k**s * (1 - k) ** (m - s))
                         for s in range(m + 1)])
    normal = want > 1e-290
    assert np.all(np.abs(got - want) <= 1e-14 * m * want + 1e-300 * ~normal)
    # a scalar s gives the array's entry
    for s in (0, m // 3, m):
        assert _binom_pmf(s, m, kappa) == got[s]


def test_omega_leader_always_in():
    # i = 0 impossible: the leader always looks in
    w = OrientationWeights.binomial(0.4)
    with pytest.raises(ValueError):
        omega(3, 0, w)


def test_custom_table_validation():
    with pytest.raises(ValueError):
        OrientationWeights.from_table({(2, 1): 0.5, (2, 2): 0.2})
    w = OrientationWeights.from_table({(2, 1): 0.5, (2, 2): 0.5})
    assert omega(2, 1, w) == 0.5


def test_cki_vs_direct_sum():
    p = PSequence.eta(0.8)
    n = 9
    w = OrientationWeights.binomial(0.3)
    k, i = 3, 2
    c_law = oracle.enumeration_moments(ChainKind.x(p), n)["c_laws"][k]
    for ell in range(0, 4):
        direct = math.fsum(
            math.comb(m, ell) * omega(k, i, w) ** ell
            * (1 - omega(k, i, w)) ** (m - ell) * pm
            for m, pm in c_law.items() if m >= ell
        )
        assert cki_distribution(k, i, ell, n, c_law, w) == pytest.approx(
            direct, abs=1e-13
        )


def test_cki_support_guard():
    p = PSequence.eta(0.8)
    c_law = oracle.enumeration_moments(ChainKind.x(p), 9)["c_laws"][4]
    w = OrientationWeights.binomial(0.3)
    assert cki_distribution(4, 2, 3, 9, c_law, w) == 0.0  # 4*3 > 9


def test_lambda_mean_identity_exact():
    for kappa in (0.3, 0.9):
        for n in range(4, 13):
            p = PSequence.eta(0.7)
            k_law = k_distribution(ChainKind.x(p), n)
            law, mean = lambda_total(n, kappa, k_law)
            assert law.total() == pytest.approx(1.0, abs=1e-12)
            assert mean == pytest.approx(
                lambda_mean_identity(n, kappa, k_law.mean()), abs=1e-12
            )


# a custom table with no binomial rows, every weight distinct
TABLE = OrientationWeights.from_table({
    (1, 1): 1.0, (2, 1): 0.3, (2, 2): 0.7, (3, 1): 0.2, (3, 2): 0.5, (3, 3): 0.3,
    (4, 1): 0.1, (4, 2): 0.2, (4, 3): 0.3, (4, 4): 0.4,
    (5, 1): 0.15, (5, 2): 0.25, (5, 3): 0.05, (5, 4): 0.35, (5, 5): 0.2,
})


def _in_look_patterns(lengths, w):
    """(in-look counts, probability) of each orientation pattern of the
    circles ``lengths``: each circle independently has omega(len, .)."""
    for combo in itertools.product(*[range(1, a + 1) for a in lengths]):
        yield combo, math.prod(omega(a, c, w) for a, c in zip(lengths, combo))


def test_cstar_vs_exhaustive():
    for w in (OrientationWeights.binomial(0.4), TABLE):
        _check_cstar_vs_exhaustive(w)


def _check_cstar_vs_exhaustive(w):
    # exhaustive check over words and orientation patterns at small n
    p = PSequence.eta(1.0)
    n = 6
    kind = ChainKind.x(p)
    law = oracle.exact_law(kind, n)
    j = 2
    mean_direct = 0.0
    sq_direct = 0.0
    mean_i_direct = 0.0
    cross_direct = 0.0
    i = 1
    for word, pr in law.items():
        _, _, lengths = cycle_statistics(word)
        for combo, pw in _in_look_patterns(lengths, w):
            pw *= pr
            cj = sum(1 for v in combo if v == j)
            ci = sum(1 for v in combo if v == i)
            mean_direct += pw * cj
            sq_direct += pw * cj * cj
            mean_i_direct += pw * ci
            cross_direct += pw * ci * cj
    m = oracle.enumeration_moments(kind, n)
    mean_j, cov_jj = cstar_moments(j, j, m["mean_c"], m["cov_c"], w)
    assert mean_j == pytest.approx(mean_direct, abs=1e-12)
    assert cov_jj == pytest.approx(sq_direct - mean_direct**2, abs=1e-12)
    _, cov_ij = cstar_moments(i, j, m["mean_c"], m["cov_c"], w)
    assert cov_ij == pytest.approx(
        cross_direct - mean_i_direct * mean_direct, abs=1e-12
    )


def test_cstar_moments_shapes_must_agree():
    m = oracle.enumeration_moments(ChainKind.eta(1.0), 6)
    w = OrientationWeights.binomial(0.4)
    with pytest.raises(ValueError, match=r"not \(7, 7\)"):
        cstar_moments(1, 2, m["mean_c"], np.asarray(m["cov_c"])[:6, :6], w)
    with pytest.raises(ValueError, match=r"require 1 <= i, j <= n"):
        cstar_moments(1, 7, m["mean_c"], m["cov_c"], w)


def _prefix_probs(law, k: int) -> dict:
    """{(A_1, ..., A_k): P(the first k circles have these lengths, K > k)},
    summed over the words of ``law``."""
    probs: dict = {}
    for word, pr in law.items():
        _, count, lengths = cycle_statistics(word)
        if count > k:
            probs.setdefault(lengths[:k], []).append(pr)
    return {r: math.fsum(v) for r, v in probs.items()}


def _ordered_star_by_enumeration(astar, prefix_probs: dict, w) -> float:
    """P(A*_1.. = astar, K > k): each word weighed by the omega of its
    first k circles, grouped by their lengths."""
    return math.fsum(pr * math.prod(omega(r, a, w) for r, a in zip(lengths, astar))
                     for lengths, pr in prefix_probs.items()
                     if all(a <= r for a, r in zip(astar, lengths)))


def test_ordered_star_vs_enumeration():
    weights = [OrientationWeights.binomial(0.0), OrientationWeights.binomial(0.4),
               OrientationWeights.binomial(1.0), TABLE]
    for ts in (ThetaSequence.constant(0.5), ThetaSequence.constant(3.0),
               ThetaSequence.eta_star(0.7)):
        for n in (4, 7, 12):
            law = oracle.exact_law(ChainKind.y(ts), n)
            for k in (1, 2, 3):
                prefixes = _prefix_probs(law, k)
                for astar in itertools.product(range(1, 4), repeat=k):
                    if sum(astar) >= n:
                        continue
                    for w in weights:
                        direct = _ordered_star_by_enumeration(astar, prefixes, w)
                        got = ordered_star_prob(ChainKind.y(ts), astar, n, w)
                        assert abs(got - direct) <= 1e-13 * direct, (ts, n, astar, w)


_KINDS = {
    "X eta(0.7)": ChainKind.eta(0.7),
    "X eta_tilde(1.3)": ChainKind.eta_tilde(1.3),
    "X push<-eta_star(0.8)":
        ChainKind.x(PSequence.from_theta_pushforward(ThetaSequence.eta_star(0.8))),
    "Y constant(0.5)": ChainKind.y(ThetaSequence.constant(0.5)),
    "Y constant(3)": ChainKind.y(ThetaSequence.constant(3.0)),
    "Y eta_star(0.7)": ChainKind.y(ThetaSequence.eta_star(0.7)),
}


@pytest.mark.parametrize("name", sorted(_KINDS))
def test_ordered_laws_vs_enumeration_for_each_kind(name):
    # on a kind's own rows both ordered laws are those of its words, the
    # zeros of a gap (no 1-cycles, two indices left below) included
    kind = _KINDS[name]
    weights = [OrientationWeights.binomial(0.0), OrientationWeights.binomial(0.4),
               OrientationWeights.binomial(1.0), TABLE]
    for n in (4, 7, 10, 12):
        law = oracle.exact_law(kind, n)
        for k in (1, 2, 3):
            prefixes = _prefix_probs(law, k)
            for a in itertools.product(range(1, n), repeat=k):
                if sum(a) >= n:
                    continue
                want = prefixes.get(a, 0.0)
                got = ordered_cycle_prefix_prob(kind, a, n)
                assert abs(got - want) <= 1e-13 * want, (n, a)
            for astar in itertools.product(range(1, 4), repeat=k):
                if sum(astar) >= n:
                    continue
                for w in weights:
                    direct = _ordered_star_by_enumeration(astar, prefixes, w)
                    got = ordered_star_prob(kind, astar, n, w)
                    assert abs(got - direct) <= 1e-13 * direct, (n, astar, w)


def test_ordered_star_enumeration_check_sees_one_weight():
    # one omega entry moved by 1e-9 (its row no longer sums to 1) moves the
    # dynamic program's value past the check's tolerance
    ts, n, astar = ThetaSequence.constant(3.0), 10, (2, 1)
    prefixes = _prefix_probs(oracle.exact_law(ChainKind.y(ts), n), len(astar))
    table = dict(TABLE.table)
    table[(3, 2)] += 1e-9
    moved = OrientationWeights(mode="custom", table=tuple(sorted(table.items())))
    direct = _ordered_star_by_enumeration(astar, prefixes, TABLE)
    assert abs(ordered_star_prob(ChainKind.y(ts), astar, n, TABLE) - direct) <= 1e-13 * direct
    assert abs(ordered_star_prob(ChainKind.y(ts), astar, n, moved) - direct) > 1e-13 * direct


@pytest.mark.parametrize("n", [12, 300, 2000])
@pytest.mark.parametrize("ts", [ThetaSequence.constant(0.5), ThetaSequence.constant(3.0),
                                ThetaSequence.eta_star(0.7)], ids=lambda ts: ts.label)
def test_ordered_star_with_every_member_looking_in(ts, n):
    # with kappa = 1 a circle's in-look count is its length
    w = OrientationWeights.binomial(1.0)
    for a in [(1,), (5,), (2, 3), (1, 7, 2), (4, 1, 3)]:
        want = ordered_cycle_prefix_prob(ChainKind.y(ts), a, n)
        assert ordered_star_prob(ChainKind.y(ts), a, n, w) == pytest.approx(
            want, rel=1e-13, abs=0.0), a


@pytest.mark.parametrize("n", [12, 300, 2000])
@pytest.mark.parametrize("name", [name for name in sorted(_KINDS) if name[0] == "X"])
def test_ordered_star_with_every_member_looking_in_on_x(name, n):
    # the same identity on the derangement chain, whose gap gives
    # 1-cycles probability 0 in both laws
    kind, w = _KINDS[name], OrientationWeights.binomial(1.0)
    for a in [(1,), (5,), (2, 3), (1, 7, 2), (4, 1, 3), (2, 2, 2)]:
        want = ordered_cycle_prefix_prob(kind, a, n)
        assert ordered_star_prob(kind, a, n, w) == pytest.approx(want, rel=1e-13, abs=0.0), a


@pytest.mark.parametrize("theta", [1e100, 1e200, 1e300])
@pytest.mark.parametrize("n", [10, 400])
def test_ordered_laws_at_extreme_theta(theta, n):
    # the prefix law is a sum of logs of probabilities, and the star law's
    # DP carries whole products of probabilities, so both stay in [0, 1]
    # with no numpy warning escaping
    w = OrientationWeights.binomial(0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind, a in ((ChainKind.y(ThetaSequence.constant(theta)), (1, 1)),
                        (ChainKind.eta(theta), (2, 2))):
            assert 0.0 <= ordered_cycle_prefix_prob(kind, a, n) <= 1.0
            assert 0.0 <= ordered_star_prob(kind, a, n, w) <= 1.0


@pytest.mark.parametrize("kind, astar, near", [
    (ChainKind.y(ThetaSequence.constant(1e200)), (1, 1), 1.0),
    (ChainKind.eta(1e100), (2, 2), 0.25),
], ids=["Y constant(1e200)", "X eta(1e100)"])
def test_ordered_star_where_stays_underflow(kind, astar, near):
    # a stay is about 1/theta, so a product of a few underflows while
    # h/stay would overflow: nearly every circle is a 1-circle, or a
    # 2-circle under the gap whose second member looks in with probability
    # 1/2.  The law is the sum over the circle lengths of the prefix law
    # (sums of logs) times the omega weights.
    n, w = 10, OrientationWeights.binomial(0.5)
    want = math.fsum(
        ordered_cycle_prefix_prob(kind, a, n) * math.prod(omega(r, i, w) for r, i in zip(a, astar))
        for a in itertools.product(range(1, n), repeat=len(astar))
        if sum(a) < n and all(i <= r for r, i in zip(a, astar)))
    got = ordered_star_prob(kind, astar, n, w)
    assert got == pytest.approx(want, rel=1e-13)
    assert got == pytest.approx(near, rel=1e-12)


def test_ordered_laws_where_a_closing_probability_underflows():
    # h_n = theta/(n - 1 + theta) is 0.0 for a subnormal theta: a
    # probability 0, with no log-of-zero warning
    kind = ChainKind.y(ThetaSequence.constant(1e-322))
    assert kind.one_probs(5000)[5000] == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ordered_cycle_prefix_prob(kind, (1,), 5000) == 0.0
        assert ordered_star_prob(kind, (1,), 5000, OrientationWeights.binomial(1.0)) == 0.0


def test_ordered_laws_at_large_theta_and_n():
    # theta = 1e3 at n = 2000 stays inside the float range on both chains
    w = OrientationWeights.binomial(1.0)
    for kind in (ChainKind.y(ThetaSequence.constant(1e3)), ChainKind.eta(1e3)):
        for a in [(2, 3), (5, 2, 2)]:
            want = ordered_cycle_prefix_prob(kind, a, 2000)
            assert 0.0 < want < 1.0
            assert ordered_star_prob(kind, a, 2000, w) == pytest.approx(want, rel=1e-12), a


def test_ordered_laws_read_only_the_kind_rows():
    # the one door: the ordered laws take the chain kind and read its rows,
    # so signed_stats needs nothing from params, and neither law reads a
    # sequence's array form or names a theta sequence
    import ast
    from pathlib import Path

    from derange import coupling, signed_stats

    for module, name in ((coupling, "ordered_cycle_prefix_prob"),
                         (signed_stats, "ordered_star_prob")):
        tree = ast.parse(Path(module.__file__).read_text())
        if module is signed_stats:
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    assert (node.module or "").split(".")[-1] != "params", ast.unparse(node)
                elif isinstance(node, ast.Import):
                    assert not any(a.name.endswith("params") for a in node.names)
        [fn] = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == name]
        for node in ast.walk(fn):
            assert not (isinstance(node, ast.Attribute) and node.attr == "values"), \
                ast.unparse(node)
            assert "thetaseq" not in {getattr(node, "id", None), getattr(node, "attr", None),
                                      getattr(node, "arg", None)}, ast.unparse(node)


def test_ordered_star_at_large_n_is_fast():
    ts, w = ThetaSequence.constant(1.0), OrientationWeights.binomial(0.5)
    start = time.perf_counter()
    ordered_star_prob(ChainKind.y(ts), (2, 1, 1), 120, w)
    assert time.perf_counter() - start < 0.1


def test_ordered_star_guards():
    ts = ThetaSequence.constant(1.0)
    w = OrientationWeights.binomial(0.5)
    with pytest.raises(ValueError):
        ordered_star_prob(ChainKind.y(ts), (0,), 5, w)
    with pytest.raises(ValueError):
        ordered_star_prob(ChainKind.y(ts), (3, 2), 5, w)


def _signed_law(p, n, kappa):
    """Exact signed-word law: the chain law of the projection times an
    independent orientation, '+0' with probability kappa, per 0-step."""
    law = {}
    for word in oracle.enumerate_delta(n):
        pr = path_probability(ChainKind.x(p), word)
        zeros = [i for i, b in enumerate(word) if b == 0]
        for looks in itertools.product(("+0", "-0"), repeat=len(zeros)):
            steps = ["1"] * n
            for i, s in zip(zeros, looks):
                steps[i] = s
            plus = looks.count("+0")
            law[tuple(steps)] = pr * kappa**plus * (1 - kappa) ** (len(zeros) - plus)
    return law


def test_generate_signed_law_matches_exact():
    p, n, kappa, reps = PSequence.eta(1.0), 6, 0.35, 40_000
    pairs = generate_signed_many(n, p, kappa, 3, range(reps))
    counts = Counter(word.steps for word, _ in pairs)
    law = _signed_law(p, n, kappa)
    assert math.fsum(law.values()) == pytest.approx(1.0, abs=1e-12)
    assert _chi_square_p(counts, law, reps) > 1e-3


def test_generate_signed_circles_match_word():
    p, n, kappa = PSequence.eta(0.8), 9, 0.4
    pairs = generate_signed_many(n, p, kappa, 8, range(500))
    for r, (word, perm) in enumerate(pairs):
        labels = [lab for c in perm.circles for lab in c]
        assert sorted(abs(v) for v in labels) == list(range(1, n + 1))
        _, _, lengths = cycle_statistics(word.projection())
        assert tuple(len(c) for c in perm.circles) == lengths
        # walking down from the virtual 1 above index n, each member's sign
        # is the orientation of the step above it
        idx = n
        for circle in perm.circles:
            assert circle[0] > 0
            for lab in circle[1:]:
                assert (lab > 0) == (word.steps[idx - 1] == "+0")
                idx -= 1
            idx -= 1
        if r < 3:
            assert generate_signed(n, p, kappa, 8, r) == (word, perm)


def _signed_by_loop(bits, draws, n, kappa):
    """(steps, circles) of one replicate by a walk down its indices (the
    reference): the stream holds n orientations, then n labeling uniforms."""
    steps = tuple("1" if b else ("+0" if u < kappa else "-0") for b, u in zip(bits, draws))
    labels = (np.argsort(draws[n:2 * n]) + 1).tolist()
    circles, current, above = [], [], "1"  # the virtual 1 above index n
    for idx in range(n, 0, -1):
        lab = labels[n - idx]
        if above == "1":
            if current:
                circles.append(tuple(current))
            current = [lab]  # a circle leader is positive
        else:
            current.append(lab if above == "+0" else -lab)
        above = steps[idx - 1]
    circles.append(tuple(current))
    return steps, tuple(circles)


@pytest.mark.parametrize("n, seed", [(2, 5), (3, 3), (9, 8), (40, 21), (300, 2)])
def test_generate_signed_matches_the_index_walk(n, seed):
    p, kappa = PSequence.eta(1.2), 0.45
    reps = range(10**6, 10**6 + 60)
    pairs = generate_signed_many(n, p, kappa, seed, reps)
    for r, (word, perm) in zip(reps, pairs):
        draws = _reference_stream(seed, r, 0, 2 * n)
        steps, circles = _signed_by_loop(word.projection(), draws, n, kappa)
        assert (word.steps, perm.circles) == (steps, circles)
        assert all(type(v) is int for c in perm.circles for v in c)


def test_lambda_total_at_large_n():
    # the Binomial(n - k, kappa) weights overflow a float outside log space
    n, kappa = 1100, 0.4
    k_law = k_distribution(ChainKind.eta(0.5), n)
    law, mean = lambda_total(n, kappa, k_law)
    assert law.total() == pytest.approx(1.0, abs=1e-10)
    assert mean == pytest.approx(lambda_mean_identity(n, kappa, k_law.mean()), rel=1e-10)
