import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from derange.dist import DistTable, compare_laws


def test_disttable_basics():
    t = DistTable(np.arange(3), np.array([0.25, 0.5, 0.25]))
    assert t[1] == 0.5
    assert t[99] == 0.0
    assert t.n is None and list(t.items()) == [(0, 0.25), (1, 0.5), (2, 0.25)]
    assert t.total() == pytest.approx(1.0)
    assert t.mean() == pytest.approx(1.0)
    assert t.variance() == pytest.approx(0.5)


def test_disttable_normalization_check():
    with pytest.raises(ValueError):
        DistTable(np.arange(2), np.array([0.5, 0.2]))


def test_compare_laws_tv():
    a = DistTable(np.arange(2), np.array([0.5, 0.5]))
    b = DistTable(np.arange(3), np.array([0.25, 0.25, 0.5]))
    pair = compare_laws(a, b)
    assert pair.tv == pytest.approx(0.5)
    assert pair.max_gap == pytest.approx(0.5)
    # symmetry
    assert compare_laws(b, a).tv == pytest.approx(pair.tv)


def test_compare_laws_identical():
    a = DistTable(np.arange(2), np.array([0.3, 0.7]))
    assert compare_laws(a, a).tv == 0.0


def _union_formula(a: DistTable, b: DistTable) -> tuple:
    # the dict-union comparison the array alignment replaced
    gaps = [abs(a[k] - b[k]) for k in set(a) | set(b)]
    return 0.5 * math.fsum(gaps), max(gaps, default=0.0)


def _dict_moments(law: DistTable) -> tuple:
    # the per-outcome sums over the mapping view that the array sums replaced
    mean = math.fsum(k * v for k, v in law.items())
    return (math.fsum(v for _, v in law.items()), mean,
            math.fsum((k - mean) ** 2 * v for k, v in law.items()))


def _normalized(weights: list) -> list:
    total = math.fsum(weights)
    return [w / total for w in weights]


def _int_table(keys, weights) -> DistTable:
    keys = sorted(keys)
    prob = _normalized(weights[:len(keys)]) if keys else []
    return DistTable(np.array(keys, dtype=np.int64), np.array(prob), tol=1.0)


def _word_law(n: int, codes, weights) -> DistTable:
    law = _int_table(codes, weights)
    return DistTable(law.codes, law.prob, n, tol=1.0)


_WEIGHTS = st.lists(st.floats(1e-6, 1.0), min_size=12, max_size=12)


@given(st.sets(st.integers(0, 40), max_size=12), st.sets(st.integers(0, 40), max_size=12),
       _WEIGHTS, _WEIGHTS)
def test_compare_laws_on_integers_is_the_union_formula(keys_a, keys_b, wa, wb):
    # overlapping, disjoint and empty supports alike
    a = _int_table(keys_a, wa)
    b = _int_table(keys_b, wb)
    for x, y in ((a, b), (b, a), (a, a)):
        pair = compare_laws(x, y)
        assert (pair.tv, pair.max_gap) == _union_formula(x, y)


@given(st.integers(1, 7), st.sets(st.integers(0, 127), max_size=12),
       st.sets(st.integers(0, 127), max_size=12), _WEIGHTS, _WEIGHTS)
def test_compare_laws_on_words_is_the_union_formula(n, codes_a, codes_b, wa, wb):
    # the union is taken over the tuple-keyed views, the alignment over codes
    a = _word_law(n, {c % (1 << n) for c in codes_a}, wa)
    b = _word_law(n, {c % (1 << n) for c in codes_b}, wb)
    for x, y in ((a, b), (b, a), (a, a)):
        pair = compare_laws(x, y)
        assert (pair.tv, pair.max_gap) == _union_formula(x, y)


@given(st.sets(st.integers(-10**9, 10**9), max_size=40),
       st.lists(st.floats(1e-300, 1.0), min_size=40, max_size=40))
# a law whose variance differs in the last bit when the squares are d * d,
# not C pow's (k - m) ** 2
@example({22, 23}, [float.fromhex("0x1.d62539c3de3bfp-2"), float.fromhex("0x1.881090a755123p-1")]
         + [1.0] * 38)
def test_moments_are_the_per_outcome_sums(keys, weights):
    law = _int_table(keys, weights)
    got = (law.total(), law.mean(), law.variance())
    assert list(map(float.hex, got)) == list(map(float.hex, _dict_moments(law)))


def test_compare_laws_with_an_empty_side():
    empty = _int_table([], [])
    for law in (_int_table([3, 7], [0.25, 0.75]), _word_law(3, [1, 5], [0.25, 0.75])):
        for x, y in ((law, empty), (empty, law)):
            pair = compare_laws(x, y)
            assert (pair.tv, pair.max_gap) == _union_formula(x, y) == (0.5, 0.75)


def test_word_law_tuple_view():
    law = _word_law(3, [5, 1, 3], [0.25, 0.5, 0.25])
    assert law.codes.tolist() == [1, 3, 5]
    assert list(law.items()) == [((1, 0, 0), 0.25), ((1, 1, 0), 0.5), ((1, 0, 1), 0.25)]
    assert law[(1, 1, 0)] == 0.5 and law[(0, 1, 0)] == 0.0
    assert len(law) == 3 and set(law) == {(1, 0, 0), (1, 1, 0), (1, 0, 1)}
    assert law.support() == [(1, 0, 0), (1, 1, 0), (1, 0, 1)]
