import math

import pytest

from derange import oracle
from derange.chains import ChainKind, in_delta
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
    for i, j in [(2, 3), (2, 4), (3, 5)]:
        d = oracle.dp_moments(kind, n, targets=("cov_cij",), j=j, i=i)
        assert d["cov_cij"] == pytest.approx(enum["cov_c"][i][j], abs=1e-12)


def test_exact_cycle_provider():
    p = PSequence.eta(0.9)
    n = 9
    kind = ChainKind.x(p)
    provider = oracle.ExactCycleProvider(kind, n)
    enum = oracle.enumeration_moments(kind, n)
    for k in range(2, n + 1):
        assert provider.mean(k) == pytest.approx(enum["mean_c"][k], abs=1e-12)
    assert provider.cov(2, 3) == pytest.approx(enum["cov_c"][2][3], abs=1e-12)
    assert provider.k_law().total() == pytest.approx(1.0, abs=1e-12)


def test_guard_large_n():
    with pytest.raises(ValueError):
        oracle.exact_law(ChainKind.eta(0.5), oracle.MAX_FULL_N + 20)


def test_oracle_stays_independent():
    # the oracle certifies the closed forms and the array path, so it may
    # import only the chain definitions and the scalar word product, and
    # never reads a sequence's array form (dict .values() takes no argument)
    import ast
    from pathlib import Path

    tree = ast.parse(Path(oracle.__file__).read_text())
    allowed = {
        "chains": {"ChainKind", "cycle_statistics", "in_delta", "word_law"},
        "coupling": {"erase11"},
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
