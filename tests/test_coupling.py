import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from derange import coupling, oracle
from derange.chains import ChainKind, cycle_statistics
from derange.coupling import (
    MAX_STATES,
    delta_n,
    erase11,
    g_values,
    gamma_n,
    joint_cycle_counts,
    k_distribution,
    ordered_cycle_prefix_prob,
    pgf_k,
)
from derange.limitchain import LimitContext
from derange.moments import mean_k
from derange.numerics import NumericsError
from derange.params import PSequence, ThetaSequence, _coin_rows
from derange.signed_stats import OrientationWeights, ordered_star_prob


def test_g_recursion_seed():
    g = g_values(ThetaSequence.constant(0.5), 6)
    assert g[0] == 0.0 and g[1] == 1.0 and g[2] == 1.0
    for m in range(3, 7):
        theta = 0.5
        assert g[m] == pytest.approx(g[m - 1] + theta / (m - 1) * g[m - 2])


@pytest.mark.parametrize("family", ["constant", "eta_star"])
def test_gamma_three_methods(family):
    ts = (ThetaSequence.constant(0.8) if family == "constant"
          else ThetaSequence.eta_star(0.8))
    for n in range(2, 15):
        a = gamma_n(ts, n, method="recursion")
        b = gamma_n(ts, n, method="g_product")
        c = gamma_n(ts, n, method="p_product")
        assert a == pytest.approx(b, rel=1e-12)
        assert a == pytest.approx(c, rel=1e-12)


def _gamma_loop(t: np.ndarray) -> tuple[float, int]:
    """(m, e) with gamma_n = m 2^e by the recursion in theta, gamma_i =
    (i-1)/(i-1+theta_i) (gamma_{i-1} + c_{i-1} gamma_{i-2}), each drop of
    gamma_i below 2^-600 undone by an exact 2^600 scaling: a reference for
    the pair form ``coupling._no11``."""
    c = (t / (np.arange(-1.0, t.size - 1) + t)).tolist()
    t = t.tolist()
    prev, cur, e = 0.0, 1.0 / (1.0 + t[2]), 0  # gamma_1, gamma_2
    for i in range(3, len(t)):
        f, total = (i - 1) / (i - 1 + t[i]), cur + c[i - 1] * prev
        prev, cur = cur, f * total
        while cur < 2.0**-600 and f > 0.0:
            prev, total, e = prev * 2.0**600, total * 2.0**600, e - 600
            cur = f * total
    return cur, e


@example([300.0] * 40)  # every step rescales
@example([-300.0, 300.0] * 20)
@example([2.0] * 3)
@given(st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=60))
def test_no11_pass_matches_the_theta_loop_bit_for_bit(log10_theta):
    # theta_2 .. theta_n = 10^x, from 1e-300 to 1e300, so the rescale runs
    t = np.array([0.0, 1.0] + [10.0**x for x in log10_theta])
    stay, h = _coin_rows(np.arange(t.size), t)
    m, _, e = coupling._no11(stay[3:].tolist(), h[3:].tolist(), float(stay[2]), 0.0, 0)
    assert (m, e) == _gamma_loop(t)  # m is normal: == is bit identity
    assert gamma_n(ThetaSequence.tabulated(t[1:].tolist()), t.size - 1) == math.ldexp(m, e)


def test_gamma_is_no_11_probability():
    # gamma_n = P(Y word of length n has no adjacent 1s and ends in 0)
    ts = ThetaSequence.eta_star(0.6)
    n = 9
    law = oracle.exact_law(ChainKind.y(ts), n)
    brute = math.fsum(
        pr for w, pr in law.items()
        if w[-1] == 0 and not any(w[i] and w[i + 1] for i in range(n - 1))
    )
    assert gamma_n(ts, n) == pytest.approx(brute, rel=1e-12)


def test_theta2_invariance_of_conditioned_quantities():
    # Conditioning on the admissible set forces the index-2 bit to 0, so
    # conditioned laws do not depend on theta_2.
    base = ThetaSequence.eta_star(0.7)
    n = 8
    law0 = oracle.conditional_law(n, base.with_theta2(0.25))
    law1 = oracle.conditional_law(n, base.with_theta2(1.0))
    for w in law0.support():
        assert law0[w] == pytest.approx(law1[w], abs=1e-12)


def test_delta_matches_gamma_eta_star():
    for theta in (0.5, 1.0, 2.0):
        ts = ThetaSequence.eta_star(theta)
        for n in range(3, 13):
            assert delta_n(theta, n=n) == pytest.approx(gamma_n(ts, n), rel=1e-12)


@pytest.mark.parametrize("theta, theta2star", [(0.5, 1.0), (3.0, 0.5)])
def test_delta_n_at_large_n_against_a_40_digit_product(theta, theta2star):
    # gamma_n along eta_star, (n-1)! (theta+2)_(n-3) (theta^2+theta+2)
    # / ((1+theta2*)(theta+2) prod_{k=1}^{n-2} (k(k+1) + theta(theta+k)))
    n = 10**4
    with mpmath.workdps(40):
        t, t2 = mpmath.mpf(theta), mpmath.mpf(theta2star)
        ref = (mpmath.factorial(n - 1) * (t * t + t + 2) * mpmath.rf(t + 2, n - 3)
               / ((1 + t2) * (t + 2)
                  * mpmath.fprod(k * (k + 1) + t * (t + k) for k in range(1, n - 1))))
        assert abs(delta_n(theta, theta2star, n) - ref) <= 1e-13 * ref


def test_delta_complex_branch_real():
    # theta > 1 puts the characteristic roots on the complex-conjugate branch
    v = delta_n(2.0, n=50)
    assert 0.0 < v < 1.0


def test_k_distribution_sums_to_one():
    p = PSequence.eta(0.9)
    ts = ThetaSequence.eta_star(0.9)
    for n in (5, 10, 20):
        for law in (k_distribution(ChainKind.x(p), n), k_distribution(ChainKind.y(ts), n)):
            assert law.total() == pytest.approx(1.0, abs=1e-12)


def test_k_distribution_vs_enumeration():
    p = PSequence.eta(0.7)
    n = 9
    law = k_distribution(ChainKind.x(p), n)
    full = oracle.exact_law(ChainKind.x(p), n)
    brute = {}
    for w, pr in full.items():
        _, k, _ = cycle_statistics(w)
        brute[k] = brute.get(k, 0.0) + pr
    for k, pk in brute.items():
        assert law[k] == pytest.approx(pk, abs=1e-13)


@pytest.mark.parametrize("ts", [ThetaSequence.eta_star(0.6), ThetaSequence.constant(3.0)],
                         ids=lambda ts: ts.label)
def test_coin_k_distribution_vs_enumeration(ts):
    # a coin word closes one cycle per 1
    kind = ChainKind.y(ts)
    for n in range(1, 13):
        brute = {}
        for w, pr in oracle.exact_law(kind, n).items():
            brute[sum(w)] = brute.get(sum(w), 0.0) + pr
        law = k_distribution(kind, n)
        assert set(law) == set(brute), n
        for k, pk in brute.items():
            assert law[k] == pytest.approx(pk, abs=1e-15), (n, k)


def _uncapped_k_law(kind, n):
    """The K-law DP over all n + 1 counts, as it ran before the cap."""
    h = kind.one_probs(n).tolist()
    zero = np.zeros(n + 1)
    one = np.zeros(n + 1)
    one[0] = 1.0
    for r in range(n, 0, -1):
        free, held = (zero, one) if kind.gap else (zero + one, 0.0)
        one = np.concatenate(([0.0], free[:-1] * h[r]))
        zero = held + free * (1.0 - h[r])
    return zero + one


_CAPPED_KINDS = {
    **{f"eta({theta})": ChainKind.eta(theta) for theta in (0.01, 0.5, 3.0, 100.0)},
    "eta_tilde(2)": ChainKind.eta_tilde(2.0),
    "y(eta_star(0.7))": ChainKind.y(ThetaSequence.eta_star(0.7)),
    "y(constant(1000))": ChainKind.y(ThetaSequence.constant(1000.0)),
}


@pytest.mark.parametrize("n", [12, 300, 2000])
@pytest.mark.parametrize("name", sorted(_CAPPED_KINDS))
def test_k_distribution_is_the_uncapped_law_below_its_cap(name, n):
    kind = _CAPPED_KINDS[name]
    full = _uncapped_k_law(kind, n)
    k_max, bound = coupling._k_cap(kind.one_probs(n), kind.gap)
    assert k_max <= n // (1 + kind.gap)
    # bit for bit at every k <= k_max, nothing above
    want = {k: v for k, v in enumerate(full[:k_max + 1].tolist()) if v > 0.0}
    assert dict(k_distribution(kind, n).items()) == want
    dropped = math.fsum(full[k_max + 1:].tolist())
    assert dropped <= bound <= coupling.DROPPED_MASS
    if n == 12:  # the cap bites only where K can exceed about 20
        assert k_max == n // (1 + kind.gap) and bound == 0.0
    if bound > 0.0:  # k_max is the least k whose Chernoff bound meets 2^-64
        mu = math.fsum(kind.one_probs(n)[1:].tolist())

        def meets(k):  # e^-mu (e mu / (k + 1))^(k + 1) <= 2^-64, for k + 1 > mu
            t = k + 1
            return t > mu and t - mu + t * math.log(mu / t) <= -64 * math.log(2)

        assert meets(k_max) and not meets(k_max - 1)


def test_k_distribution_at_large_n():
    n = 10**5
    kind = ChainKind.eta(0.5)
    k_max, _ = coupling._k_cap(kind.one_probs(n), kind.gap)
    law = k_distribution(kind, n)
    assert len(law) <= k_max + 1 < 60
    assert law.total() == pytest.approx(1.0, abs=1e-12)
    # the mean from the marginal recursion, an independent engine
    assert law.mean() == pytest.approx(mean_k(kind, n), rel=1e-12)


def test_k_distribution_raises_past_its_bound(monkeypatch):
    # the guard on the derivation: a cap whose bound understates the mass
    # the DP shifts past it raises instead of returning a short law
    monkeypatch.setattr(coupling, "_k_cap", lambda h, gap: (3, 1e-30))
    with pytest.raises(NumericsError, match="dropped mass"):
        k_distribution(ChainKind.eta(0.5), 300)


def test_pgf_edge_cases():
    ts = ThetaSequence.constant(0.5)
    y, x = ChainKind.y(ts), ChainKind.x(PSequence.from_theta_conditional(ts))
    assert pgf_k(y, 0.0, 8) == 0.0
    assert pgf_k(y, 1.0, 8) == pytest.approx(1.0, rel=1e-12)
    assert pgf_k(x, 1.0, 8) == pytest.approx(1.0, rel=1e-12)


def test_joint_cycle_counts_vs_enumeration():
    p = PSequence.eta(0.6)
    ts = ThetaSequence.eta_star(0.6)
    n = 8
    full_x = oracle.exact_law(ChainKind.x(p), n)
    brute = {}
    for w, pr in full_x.items():
        c, _, _ = cycle_statistics(w)
        brute[c] = brute.get(c, 0.0) + pr
    for c, pc in brute.items():
        assert joint_cycle_counts(ChainKind.x(p), c, n) == pytest.approx(pc, abs=1e-12)
    full_y = oracle.exact_law(ChainKind.y(ts), n)
    brute_y = {}
    for w, pr in full_y.items():
        c, _, _ = cycle_statistics(w)
        brute_y[c] = brute_y.get(c, 0.0) + pr
    for c, pc in brute_y.items():
        assert joint_cycle_counts(ChainKind.y(ts), c, n) == pytest.approx(pc, abs=1e-13)


def test_joint_cycle_counts_past_nine_cycles():
    # ten cycles at n = 20 under the gap are all 2-cycles, so the count
    # vector (0, 10) is the event K = 10
    x = ChainKind.x(PSequence.eta(0.5))
    got = joint_cycle_counts(x, (0, 10), 20)
    assert got == pytest.approx(k_distribution(x, 20)[10], rel=1e-12)
    # the budget counts recursion states, prod (c_j + 1), not cycles
    c = (0,) + (1,) * 17  # 2**17 states
    assert 2**17 > MAX_STATES
    with pytest.raises(ValueError, match="budget"):
        joint_cycle_counts(x, c, sum(j for j, cj in enumerate(c, start=1) if cj))
    # 150 two-cycles: few states, but the weight product underflows
    with pytest.raises(NumericsError):
        joint_cycle_counts(x, (0, 150), 300)


def test_joint_cycle_counts_at_large_theta():
    # theta_e / (e - 1) > 1 for e < theta: the weights of a linear-space sum
    # overflow, the coin probabilities do not
    ts = ThetaSequence.constant(1000.0)
    y = ChainKind.y(ts)
    # n one-cycles are the all-1s word, the product of the coin probabilities
    coin = math.prod(ts.coin_prob(i) for i in range(1, 401))
    assert joint_cycle_counts(y, (400,), 400) == pytest.approx(coin, rel=1e-13)
    assert 1.6278604430e-31 == pytest.approx(coin, rel=1e-10)
    with mpmath.workdps(40):
        want = mpmath.fprod(mpmath.mpf(1000) / (i - 1 + 1000) for i in range(2, 101))
    assert joint_cycle_counts(y, (100,), 100) == pytest.approx(float(want), rel=1e-13)


def test_ordered_prefix_vs_enumeration():
    ts = ThetaSequence.eta_star(0.8)
    n = 8
    full = oracle.exact_law(ChainKind.y(ts), n)
    for prefix in [(2,), (3, 2), (1, 1)]:
        brute = 0.0
        for w, pr in full.items():
            _, k, lengths = cycle_statistics(w)
            r = len(prefix)
            if k > r and tuple(lengths[:r]) == prefix:
                brute += pr
        assert ordered_cycle_prefix_prob(ChainKind.y(ts), prefix, n) == pytest.approx(
            brute, abs=1e-13
        )


def test_erase11_worked_examples():
    y = [1, 1, 1, 1, 1, 0, 0, 1, 1, 1, 1, 0, 0, 0]
    assert "".join(map(str, erase11(y, 11))) == "10101001010"
    assert "".join(map(str, erase11(y, 12))) == "101010001010"


def test_erase11_window_map():
    # a window ending in 0 fixes every run of 1s, so the window map is the
    # finite map at any horizon past the window, cut to the window
    for bits in itertools.product((0, 1), repeat=7):
        y = (1,) + bits + (0,)
        window = erase11(y, math.inf)
        assert len(window) == len(y)
        for pad in (0, 1, 3):
            finite = erase11(y + (0,) * pad, len(y) + 1 + pad)
            assert window == finite[:len(y)] and not any(finite[len(y):])
    with pytest.raises(ValueError, match="window ends inside a run"):
        erase11((1, 0, 1, 1), math.inf)


def test_erase11_lands_in_delta():
    from derange.chains import in_delta
    import itertools

    n = 9
    for bits in itertools.product((0, 1), repeat=n - 1):
        word = (1,) + bits
        out = erase11(word, n)
        assert in_delta(tuple(out)), (word, out)


def test_k_distribution_has_no_derangement_of_one():
    x, y = ChainKind.eta(0.9), ChainKind.y(ThetaSequence.constant(0.9))
    for call in (lambda: k_distribution(x, 1), lambda: pgf_k(x, 0.5, 1),
                 lambda: joint_cycle_counts(x, (1,), 1)):
        with pytest.raises(ValueError, match="n >= 2"):
            call()
    assert dict(k_distribution(y, 1).items()) == {1: 1.0}
    assert pgf_k(y, 0.5, 1) == 0.5 and joint_cycle_counts(y, (1,), 1) == 1.0
    with pytest.raises(ValueError, match="n >= 1"):
        pgf_k(y, 0.5, 0)


@pytest.mark.parametrize("bad", [0.6, 1.9, 2])
def test_erase11_rejects_items_outside_the_alphabet(bad):
    # checked as given: int() would turn 0.6 into 0 and 1.9 into 1
    with pytest.raises(ValueError, match="0/1 word"):
        erase11((1, bad, 1, 0), 4)
    with pytest.raises(ValueError, match="0/1 word"):
        erase11((1, 0, bad, 0), math.inf)


@pytest.mark.parametrize("kind, s, n", [
    # the coin-chain factor prod (1 - c_i + s c_i), about e^1147, leaves the
    # float range before the gap factor scales it down; the pgf is 5e199
    (ChainKind.x(PSequence.eta(1.0)), 1e100, 5),
    # gamma_n(theta) underflows from n = 500 on; the pgf is 2.4e-64 .. 7.9e-230
    (ChainKind.x(PSequence.eta(800.0)), 0.5, 500),
    (ChainKind.x(PSequence.eta(800.0)), 0.5, 1000),
    (ChainKind.x(PSequence.eta(800.0)), 0.5, 3000),
    # factors (i - 1)/(i - 1 + theta_i) of the gamma recursion near 1e-145
    # and 1e-150, below 2^-474, so a step from a value near 2^-600
    # underflows unless it is rescaled first; the pgf is 2.98e-8
    (ChainKind.x(PSequence.eta(1e145)), 0.5, 50),
    (ChainKind.x(PSequence.eta(1e150)), 0.5, 50),
], ids=["coin_factor_overflows", "gamma_underflows_n500", "gamma_underflows_n1000",
        "gamma_underflows_n3000", "gamma_factor_tiny_theta1e145", "gamma_factor_tiny_theta1e150"])
def test_pgf_past_the_float_range_matches_the_k_law(kind, s, n):
    want = math.fsum(v * s**k for k, v in k_distribution(kind, n).items())
    got = pgf_k(kind, s, n)
    assert math.isfinite(got)
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("kind, s, n", [
    (ChainKind.x(PSequence.eta(1e150)), 1e10, 5),  # s theta_i overflows
])
def test_pgf_gap_factor_past_the_float_range_raises_numerics_error(kind, s, n):
    with pytest.raises(NumericsError):
        pgf_k(kind, s, n)


def test_pgf_and_delta_reject_non_finite_values():
    with pytest.raises(ValueError, match="s must be nonnegative and finite"):
        pgf_k(ChainKind.x(PSequence.eta(1.0)), math.inf, 5)
    with pytest.raises(ValueError, match="s must be nonnegative and finite"):
        pgf_k(ChainKind.y(ThetaSequence.constant(1.0)), math.nan, 5)
    for n in (10, math.inf):
        with pytest.raises(ValueError, match="theta must be positive and finite"):
            delta_n(math.nan, n=n)
        # theta^2 overflows: the value would be nan
        with pytest.raises(NumericsError):
            delta_n(1e200, n=n)


def _mp_gamma(th, s=1):
    """gamma_n by its recursion in mpmath, from theta_0..theta_n scaled by s."""
    prev, cur = mpmath.mpf(0), 1 / (1 + s * th[2])
    c_prev = s * th[2] / (1 + s * th[2])
    for i in range(3, len(th)):
        st = s * th[i]
        prev, cur = cur, (i - 1) / (i - 1 + st) * (cur + c_prev * prev)
        c_prev = st / (i - 1 + st)
    return cur


def test_theta_products_match_30_digit_references():
    # mpmath fed the same float theta_i.  Each product is an fsum of log1p
    # terms, within a few ulps at n = 2e4; a difference of two sums of
    # size n log n would cost about 1e-11 here
    n, s = 2 * 10**4, 1.7
    ts = ThetaSequence.eta_star(3.0)
    x = ChainKind.x(PSequence.from_theta_conditional(ts))
    with mpmath.workdps(30):
        th = [mpmath.mpf(v) for v in ts.values(n).tolist()]
        gamma = _mp_gamma(th)
        coin = s * mpmath.fprod(1 + (s - 1) * th[i] / (i - 1 + th[i]) for i in range(2, n + 1))
        want = {"g_product": (gamma_n(ts, n, "g_product"), gamma),
                "pgf_k Y": (pgf_k(ChainKind.y(ts), s, n), coin),
                "pgf_k X": (pgf_k(x, s, n), coin * _mp_gamma(th, s) / gamma)}
        for a in [(3,), (n // 3, 5)]:
            m, pos = sum(a), 0
            ref = mpmath.fprod(i / (th[i] + i - 1) for i in range(n - m + 1, n + 1))
            for ai in a:
                ref /= n - pos
                pos += ai
                ref *= th[n + 1 - pos]
            want[f"prefix {a}"] = (ordered_cycle_prefix_prob(ChainKind.y(ts), a, n), ref)
        for key, (got, ref) in want.items():
            assert abs(got - ref) <= 1e-13 * ref, key


def _count_evaluations(seq):
    """Wrap seq's family evaluator; the returned list's one entry counts
    the indices it has seen."""
    seen, ev = [0], seq._eval

    def counted(i):
        seen[0] += np.size(i)
        return ev(i)

    seq._eval = counted
    return seen


_N_COUNT = 4000
_ONE_EVALUATION = {
    "pgf_k Y": lambda ts, p: pgf_k(ChainKind.y(ts), 1.7, _N_COUNT),
    "pgf_k X of a conditional inverse":
        lambda ts, p: pgf_k(ChainKind.x(PSequence.from_theta_conditional(ts)), 1.7, _N_COUNT),
    "pgf_k X of eta": lambda ts, p: pgf_k(ChainKind.x(p), 1.7, _N_COUNT),
    "gamma_n": lambda ts, p: gamma_n(ts, _N_COUNT),
    "gamma_n g_product": lambda ts, p: gamma_n(ts, _N_COUNT, "g_product"),
    "ordered_cycle_prefix_prob": lambda ts, p: ordered_cycle_prefix_prob(
        ChainKind.y(ts), (3, 5), _N_COUNT),
    "ordered_cycle_prefix_prob X": lambda ts, p: ordered_cycle_prefix_prob(
        ChainKind.x(p), (3, 5), _N_COUNT),
    "ordered_star_prob Y": lambda ts, p: ordered_star_prob(
        ChainKind.y(ts), (3, 5), _N_COUNT, OrientationWeights.binomial(0.4)),
    "ordered_star_prob X": lambda ts, p: ordered_star_prob(
        ChainKind.x(p), (3, 5), _N_COUNT, OrientationWeights.binomial(0.4)),
    "joint_cycle_counts Y": lambda ts, p: joint_cycle_counts(
        ChainKind.y(ts), (0,) * (_N_COUNT - 1) + (1,), _N_COUNT),
    "joint_cycle_counts X": lambda ts, p: joint_cycle_counts(
        ChainKind.x(p), (0,) * (_N_COUNT - 1) + (1,), _N_COUNT),
    "LimitContext.probe": lambda ts, p: LimitContext.probe(p=p, horizon=_N_COUNT),
}


@pytest.mark.parametrize("name", sorted(_ONE_EVALUATION))
def test_one_sequence_evaluation_per_index(name):
    # each call reads one array of its sequence: about one evaluation per
    # index, not one per product it forms
    ts, p = ThetaSequence.eta_star(3.0), PSequence.eta(0.5)
    counts = _count_evaluations(ts), _count_evaluations(p)
    _ONE_EVALUATION[name](ts, p)
    assert 0 < counts[0][0] + counts[1][0] <= 1.01 * _N_COUNT, name
