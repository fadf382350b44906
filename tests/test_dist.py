import pytest

from derange.dist import DistTable, compare_laws


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
