import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from derange.dist import DistTable, WordLaw, compare_laws


def test_disttable_basics():
    t = DistTable({0: 0.25, 1: 0.5, 2: 0.25})
    assert t[1] == 0.5
    assert t[99] == 0.0
    assert t.total() == pytest.approx(1.0)
    assert t.mean() == pytest.approx(1.0)
    assert t.variance() == pytest.approx(0.5)


def test_disttable_normalization_check():
    with pytest.raises(ValueError):
        DistTable({0: 0.5, 1: 0.2})


def test_compare_laws_tv():
    a = DistTable({0: 0.5, 1: 0.5})
    b = DistTable({0: 0.25, 1: 0.25, 2: 0.5})
    pair = compare_laws(a, b)
    assert pair.tv == pytest.approx(0.5)
    assert pair.max_gap == pytest.approx(0.5)
    # symmetry
    assert compare_laws(b, a).tv == pytest.approx(pair.tv)


def test_compare_laws_identical():
    a = DistTable({0: 0.3, 1: 0.7})
    assert compare_laws(a, a).tv == 0.0


def test_disttable_takes_ownership_of_its_dict():
    probs = {0: 0.25, 1: 0.75}
    t = DistTable(probs)
    assert t.probs is probs


def _union_formula(a: DistTable, b: DistTable) -> tuple:
    # the dict-union comparison the array alignment replaced
    gaps = [abs(a[k] - b[k]) for k in set(a.probs) | set(b.probs)]
    return 0.5 * math.fsum(gaps), max(gaps, default=0.0)


def _normalized(weights: list) -> list:
    total = math.fsum(weights)
    return [w / total for w in weights]


def _int_table(keys, weights) -> DistTable:
    return DistTable(dict(zip(keys, _normalized(weights))) if keys else {}, tol=1.0)


def _word_law(n: int, codes, weights) -> WordLaw:
    codes = sorted(codes)
    prob = np.array(_normalized(weights[:len(codes)]) if codes else [])
    return WordLaw(n, np.array(codes, dtype=np.int64), prob, tol=1.0)


_WEIGHTS = st.lists(st.floats(1e-6, 1.0), min_size=12, max_size=12)


@given(st.sets(st.integers(0, 40), max_size=12), st.sets(st.integers(0, 40), max_size=12),
       _WEIGHTS, _WEIGHTS)
def test_compare_laws_on_integers_is_the_union_formula(keys_a, keys_b, wa, wb):
    # overlapping, disjoint and empty supports alike
    a = _int_table(sorted(keys_a), wa[:len(keys_a)])
    b = _int_table(sorted(keys_b), wb[:len(keys_b)])
    for x, y in ((a, b), (b, a), (a, a)):
        pair = compare_laws(x, y)
        assert (pair.tv, pair.max_gap) == _union_formula(x, y)


@given(st.integers(1, 7), st.sets(st.integers(0, 127), max_size=12),
       st.sets(st.integers(0, 127), max_size=12), _WEIGHTS, _WEIGHTS)
def test_compare_laws_on_words_is_the_union_formula(n, codes_a, codes_b, wa, wb):
    # a word law against another and against a hand-built tuple-keyed table
    codes_a = {c % (1 << n) for c in codes_a}
    codes_b = {c % (1 << n) for c in codes_b}
    a = _word_law(n, codes_a, wa)
    b = _word_law(n, codes_b, wb)
    hand = DistTable({tuple((c >> i) & 1 for i in range(n)): v
                      for c, v in zip(sorted(codes_b), b.prob.tolist())}, tol=1.0)
    assert dict(hand.items()) == dict(b.items())
    for x, y in ((a, b), (b, a), (a, hand), (hand, a), (hand, b)):
        pair = compare_laws(x, y)
        assert (pair.tv, pair.max_gap) == _union_formula(x, y)


def test_compare_laws_with_an_empty_side():
    empty = DistTable({}, tol=1.0)
    for law in (DistTable({3: 0.25, 7: 0.75}), _word_law(3, [1, 5], [0.25, 0.75])):
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
