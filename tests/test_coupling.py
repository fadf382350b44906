import itertools
import math

import pytest

from derange import oracle
from derange.chains import ChainKind, cycle_statistics
from derange.coupling import (
    delta_n,
    erase11,
    g_values,
    gamma_n,
    joint_cycle_counts,
    k_distribution,
    ordered_cycle_prefix_prob,
    pgf_k,
)
from derange.params import PSequence, ThetaSequence


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
    # conditioned laws and X joint cycle counts do not depend on theta_2.
    base = ThetaSequence.eta_star(0.7)
    n = 8
    law0 = oracle.conditional_law(n, base.with_theta2(0.25))
    law1 = oracle.conditional_law(n, base.with_theta2(1.0))
    for w in law0.support():
        assert law0[w] == pytest.approx(law1[w], abs=1e-12)
    for c in [(0, 4), (0, 1, 2), (0, 0, 0, 2)]:
        a = joint_cycle_counts("X", c, n, base.with_theta2(0.25))
        b = joint_cycle_counts("X", c, n, base.with_theta2(1.0))
        assert a == pytest.approx(b, abs=1e-12)


def test_delta_matches_gamma_eta_star():
    for theta in (0.5, 1.0, 2.0):
        ts = ThetaSequence.eta_star(theta)
        for n in range(3, 13):
            assert delta_n(theta, n=n) == pytest.approx(gamma_n(ts, n), rel=1e-12)


def test_delta_complex_branch_real():
    # theta > 1 puts the characteristic roots on the complex-conjugate branch
    v = delta_n(2.0, n=50)
    assert 0.0 < v < 1.0


def test_k_distribution_sums_to_one():
    p = PSequence.eta(0.9)
    ts = ThetaSequence.eta_star(0.9)
    for n in (5, 10, 20):
        for law in (k_distribution("X", n, p), k_distribution("Y", n, ts)):
            assert law.total() == pytest.approx(1.0, abs=1e-12)


def test_k_distribution_vs_enumeration():
    p = PSequence.eta(0.7)
    n = 9
    law = k_distribution("X", n, p)
    full = oracle.exact_law(ChainKind.x(p), n)
    brute = {}
    for w, pr in full.items():
        _, k, _ = cycle_statistics(w)
        brute[k] = brute.get(k, 0.0) + pr
    for k, pk in brute.items():
        assert law[k] == pytest.approx(pk, abs=1e-13)


def test_pgf_edge_cases():
    ts = ThetaSequence.constant(0.5)
    assert pgf_k("Y", 0.0, 8, ts) == 0.0
    assert pgf_k("Y", 1.0, 8, ts) == pytest.approx(1.0, rel=1e-12)
    assert pgf_k("X", 1.0, 8, ts) == pytest.approx(1.0, rel=1e-12)


def test_joint_cycle_counts_vs_enumeration():
    p = PSequence.eta(0.6)
    ts = ThetaSequence.eta_star(0.6)
    n = 8
    full_x = oracle.exact_law(ChainKind.x(p), n)
    brute = {}
    for w, pr in full_x.items():
        c, _, _ = cycle_statistics(w)
        brute[c] = brute.get(c, 0.0) + pr
    from derange.params import conditional_theta
    ts_x = conditional_theta(p)
    for c, pc in brute.items():
        assert joint_cycle_counts("X", c, n, ts_x) == pytest.approx(pc, abs=1e-12)
    full_y = oracle.exact_law(ChainKind.y(ts), n)
    brute_y = {}
    for w, pr in full_y.items():
        c, _, _ = cycle_statistics(w)
        brute_y[c] = brute_y.get(c, 0.0) + pr
    for c, pc in brute_y.items():
        assert joint_cycle_counts("Y", c, n, ts) == pytest.approx(pc, abs=1e-13)


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
        assert ordered_cycle_prefix_prob(prefix, n, ts) == pytest.approx(
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
    with pytest.raises(ValueError, match="n >= 2"):
        k_distribution("X", 1, PSequence.eta(0.9))
    assert dict(k_distribution("Y", 1, ThetaSequence.constant(0.9)).items()) == {1: 1.0}
