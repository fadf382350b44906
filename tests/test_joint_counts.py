"""``joint_cycle_counts`` against the enumerated law of the cycle-count
vector, over random and extreme theta, and the conditional relation
between the derangement chain and its coin chain."""

import itertools
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from derange import oracle
from derange.chains import ChainKind, cycle_statistics
from derange.coupling import MAX_STATES, gamma_n, joint_cycle_counts
from derange.numerics import NumericsError
from derange.params import PSequence, ThetaSequence, conditional_theta

KINDS = {
    "eta": ChainKind.eta,
    "eta_tilde": ChainKind.eta_tilde,
    "y eta_star": lambda theta: ChainKind.y(ThetaSequence.eta_star(theta)),
}


def _joint_law(kind: ChainKind, n: int) -> dict:
    """P(cycle-count vector = c) at horizon n, summed over the oracle's
    enumerated words."""
    terms = {}
    for w, pr in oracle.exact_law(kind, n).items():
        terms.setdefault(cycle_statistics(w)[0], []).append(pr)
    return {c: math.fsum(prs) for c, prs in terms.items()}


def _check(kind: ChainKind, c, n: int, want: float) -> None:
    """The joint count of c is a probability within 1e-12 relative of the
    enumerated one, or NumericsError where that lies below the normal
    float range."""
    try:
        got = joint_cycle_counts(kind, c, n)
    except NumericsError:
        assert want < sys.float_info.min, (kind, c, want)
        return
    assert math.isfinite(got) and 0.0 <= got <= 1.0, (kind, c, got)
    assert got == pytest.approx(want, rel=1e-12), (kind, c)


@settings(max_examples=100)
@given(st.sampled_from(sorted(KINDS)), st.floats(-2.0, 2.0), st.integers(2, 12), st.data())
def test_joint_counts_match_enumeration(name, log_theta, n, data):
    kind = KINDS[name](10.0**log_theta)
    law = _joint_law(kind, n)
    for c in data.draw(st.lists(st.sampled_from(sorted(law)), min_size=1, max_size=4,
                                unique=True)):
        _check(kind, c, n, law[c])


@pytest.mark.parametrize("theta", [1e10, 1e20, 1e40, 1e60, 1e80, 1e155, 1e300])
@pytest.mark.parametrize("make", [ChainKind.eta, ChainKind.eta_tilde], ids=["eta", "eta_tilde"])
def test_joint_counts_at_extreme_theta(make, theta):
    # the chain's own rows: a q near 1 and a p near 0 are both full-precision
    # quotients, where the conditionally linked coin chain's weights underflow
    kind, n = make(theta), 10
    for c, want in _joint_law(kind, n).items():
        _check(kind, c, n, want)


def test_subnormal_joint_count_raises():
    # (0, 0, 2, 1) at theta = 1e104 has probability about 4.6e-310: a
    # subnormal value has lost its relative precision, so it is refused
    kind = ChainKind.eta(1e104)
    want = _joint_law(kind, 10)[(0, 0, 2, 1) + (0,) * 6]
    assert 0.0 < want < sys.float_info.min
    with pytest.raises(NumericsError, match="underflows"):
        joint_cycle_counts(kind, (0, 0, 2, 1), 10)


def _no_one_cycles(n: int):
    """The count vectors (c_1..c_n) of the partitions of n without 1s."""
    def parts(left, top):
        if left == 0:
            yield ()
        for a in range(min(left, top), 1, -1):
            for rest in parts(left - a, a):
                yield (a,) + rest

    for lengths in parts(n, n):
        yield tuple(lengths.count(j) for j in range(1, n + 1))


@pytest.mark.parametrize("p", [PSequence.eta(0.5), PSequence.eta_tilde(1.3),
                               PSequence.from_theta_conditional(ThetaSequence.eta_star(2.0)),
                               PSequence.from_theta_pushforward(ThetaSequence.constant(1.5))],
                         ids=["eta", "eta_tilde", "conditional eta_star", "pushforward"])
def test_conditional_relation_of_joint_counts(p):
    # the derangement chain is the coin chain of conditional_theta(p) given
    # Delta_n, the words without 1-cycles: two computations sharing no rows
    x, ts = ChainKind.x(p), conditional_theta(p)
    y = ChainKind.y(ts)
    for n in (6, 12, 20, 30):
        g = gamma_n(ts, n)
        types = [c for c in _no_one_cycles(n) if math.prod(v + 1 for v in c) <= MAX_STATES]
        for c in itertools.islice(types, 0, None, max(1, len(types) // 150)):
            assert joint_cycle_counts(x, c, n) == pytest.approx(
                joint_cycle_counts(y, c, n) / g, rel=1e-12), (n, c)
