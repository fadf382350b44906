"""Brute-force ground truth for every identity in the library.

Everything here is computed by exhaustive enumeration or by dynamic
programming over the chain transitions, never by the closed-form displays
the rest of the library implements — so agreement between the two is a
genuine check, not a tautology.
"""

from __future__ import annotations

import itertools
import math

from .chains import (
    ChainKind,
    cycle_statistics,
    path_probability,
    transition_matrix,
)
from .coupling import erase11
from .dist import DistTable
from .params import ThetaSequence

# Cardinality guards: Fibonacci-sized derangement supports up to n = 30,
# full 2^(n-1) coin-word spaces up to n = 22.
MAX_DELTA_N = 30
MAX_FULL_N = 22


def _words(n: int, gap: int) -> list:
    """The words of length n with w_1 = 1 in which, for gap 1, a 0 follows
    every 1, the virtual 1 at n + 1 included; lexicographic in the stored
    (ascending-index) tuple order."""
    words = [(1,)]
    for _ in range(n - 1):
        words = [w + (b,) for w in words for b in (0, 1) if not (gap and b and w[-1])]
    return [w for w in words if not (gap and w[-1])]


def enumerate_delta(n: int):
    """All words of the no-adjacent-1s set, lexicographic in the stored
    (ascending-index) tuple order."""
    if not (1 <= n <= MAX_DELTA_N):
        raise ValueError(f"n must lie in 1..{MAX_DELTA_N}")
    return _words(n, 1)


def exact_law(kind: ChainKind, n: int, check_tol: float = 1e-12) -> DistTable:
    """The full word law by exhaustive path probability over every word
    the chain's gap allows."""
    limit = MAX_DELTA_N if kind.gap else MAX_FULL_N
    if not (1 + kind.gap <= n <= limit):
        raise ValueError(f"exact_law of {kind!r} needs {1 + kind.gap} <= n <= {limit}")
    probs = {w: path_probability(kind, w, n) for w in _words(n, kind.gap)}
    total = math.fsum(probs.values())
    if abs(total - 1.0) > check_tol:
        raise AssertionError(f"exact law sums to {total}, off by {total - 1.0:.3g}")
    return DistTable(probs, tol=check_tol * 10)


def conditional_law(n: int, thetaseq: ThetaSequence) -> DistTable:
    """The coin-word law restricted to the no-adjacent-1s set and
    renormalized — the conditioning side of the conditional relation."""
    if n > MAX_FULL_N:
        raise ValueError(f"limited to n <= {MAX_FULL_N}")
    y = ChainKind.y(thetaseq)
    probs = {}
    for w in enumerate_delta(n):
        probs[w] = path_probability(y, w, n)
    norm = math.fsum(probs.values())
    return DistTable({w: v / norm for w, v in probs.items()}, tol=1e-10)


def pushforward_law(n: int, thetaseq: ThetaSequence) -> DistTable:
    """The image of the coin-word law under the horizon-n 11-erasing map.

    The map reads only the first n - 1 coin values (every output index
    at or above n is 0), so words of length n - 1 are enumerated.
    """
    if n > MAX_FULL_N:
        raise ValueError(f"limited to n <= {MAX_FULL_N}")
    y = ChainKind.y(thetaseq)
    probs: dict = {}
    for bits in itertools.product((0, 1), repeat=n - 2):
        w = (1,) + bits
        pr = path_probability(y, w, n - 1)
        img = erase11(w, n)
        probs[img] = probs.get(img, 0.0) + pr
    return DistTable(probs, tol=1e-10)


# ---------------------------------------------------------------------------
# DP moment engine

def _marginal_dp(kind: ChainKind, n: int):
    """P(word bit at index i is 1) for i = 1..n, by forward DP over the
    transition rows (independent of the closed-form marginal series)."""
    dist = [0.0, 1.0]  # state distribution at index n+1 (always 1)
    out = [0.0] * (n + 1)
    for r in range(n, 0, -1):
        m = transition_matrix(kind, r, n)
        nxt = [
            dist[0] * m[0][0] + dist[1] * m[1][0],
            dist[0] * m[0][1] + dist[1] * m[1][1],
        ]
        out[r] = nxt[1]
        dist = nxt
    return out


def _pattern_probs_dp(kind: ChainKind, n: int, j: int) -> dict:
    """{i: P(a j-cycle ends exactly at index position i)} under horizon n
    for i = j+1..n+1, where i = n+1 denotes the boundary cycle touching the
    top; computed from one marginal DP and transition rows only."""
    def run_down(prob, top, bottom):
        # 0s at top-1..bottom+1, then 1 at bottom, from a 1 at top
        state = 1
        for r in range(top - 1, bottom - 1, -1):
            m = transition_matrix(kind, r, n)
            want = 1 if r == bottom else 0
            prob *= m[state][want]
            state = want
        return prob

    marg = _marginal_dp(kind, n)
    out = {i: run_down(marg[i], i, i - j) for i in range(j + 1, n + 1)}
    if n >= j:
        out[n + 1] = run_down(1.0, n + 1, n + 1 - j)
    return out


def dp_moments(kind: ChainKind, n: int, targets=("mean_k",), j: int | None = None,
               i: int | None = None) -> dict:
    """Moment values by marginal/pattern DP, independent of the library's
    closed forms.

    Recognized targets: 'mean_k', 'var_k', 'mean_cj' (needs j),
    'mean_cj_sq' and 'var_cj' (need j), 'cov_cij' (needs i and j).
    """
    if n > 5000:
        raise ValueError("dp moment engine limited to n <= 5000")
    out: dict = {}
    marg = None
    if any(t in targets for t in ("mean_k", "var_k")):
        marg = _marginal_dp(kind, n)
        # K = 1 + number of stored 1s strictly below the top... the virtual
        # 1 at n+1 opens the first cycle and every stored 1 at i >= 2 closes
        # one; the forced 1 at index 1 closes the last.  K = total stored 1s.
        out["mean_k"] = math.fsum(marg[1:])
    if "var_k" in targets:
        # E[K^2] needs pairwise P(bit_a = bit_b = 1); use conditional DP
        total = out["mean_k"]
        pair_sum = 0.0
        for a in range(n, 0, -1):
            if marg[a] == 0.0:
                continue
            # propagate P(bit_b = 1 | bit_a = 1) downward
            dist = [0.0, 1.0]
            for r in range(a - 1, 0, -1):
                m = transition_matrix(kind, r, n)
                dist = [
                    dist[0] * m[0][0] + dist[1] * m[1][0],
                    dist[0] * m[0][1] + dist[1] * m[1][1],
                ]
                pair_sum += marg[a] * dist[1]
        e_k2 = total + 2.0 * pair_sum
        out["var_k"] = e_k2 - total * total
    if any(t in targets for t in ("mean_cj", "mean_cj_sq", "var_cj")):
        if j is None:
            raise ValueError("targets involving C_j need j")
        r_full = _pattern_probs_dp(kind, n, j)
        mean_cj = math.fsum(r_full.values())
        out["mean_cj"] = mean_cj
        if "mean_cj_sq" in targets or "var_cj" in targets:
            # E[C_j^2] = E[C_j] + 2 sum_{u > v} P(cycles end at u and v);
            # given a j-cycle ends at u, the chain below index u - j is a
            # fresh horizon-(u - j - 1) chain.
            cross = 0.0
            for u, ru in r_full.items():
                if ru == 0.0 or u - j - 1 < j:
                    continue
                cross += ru * math.fsum(_pattern_probs_dp(kind, u - j - 1, j).values())
            e_sq = mean_cj + 2.0 * cross
            out["mean_cj_sq"] = e_sq
            out["var_cj"] = e_sq - mean_cj * mean_cj
    if "cov_cij" in targets:
        if i is None or j is None:
            raise ValueError("cov_cij needs i and j")
        out["cov_cij"] = _cov_cycle_counts(kind, n, i, j)
    return out


def _cov_cycle_counts(kind: ChainKind, n: int, a: int, b: int) -> float:
    """Cov(C_a, C_b) for a != b by the same end-position decomposition."""
    if a == b:
        return dp_moments(kind, n, targets=("var_cj",), j=a)["var_cj"]
    r_a = _pattern_probs_dp(kind, n, a)
    r_b = _pattern_probs_dp(kind, n, b)
    mean_a = math.fsum(r_a.values())
    mean_b = math.fsum(r_b.values())
    # E[C_a C_b] = sum over ordered pairs of end positions (u above v)
    e_ab = 0.0
    for u, pu in r_a.items():
        if pu == 0.0 or u - a - 1 < b:
            continue
        e_ab += pu * math.fsum(_pattern_probs_dp(kind, u - a - 1, b).values())
    for u, pu in r_b.items():
        if pu == 0.0 or u - b - 1 < a:
            continue
        e_ab += pu * math.fsum(_pattern_probs_dp(kind, u - b - 1, a).values())
    return e_ab - mean_a * mean_b


def enumeration_moments(kind: ChainKind, n: int, j_max: int | None = None) -> dict:
    """Cycle-count moments by full enumeration (small n): means, second
    moments, and the exact laws of K and each C_j."""
    law = exact_law(kind, n)
    j_max = j_max or n
    mean_k = 0.0
    e_k2 = 0.0
    mean_c = [0.0] * (j_max + 1)
    e_c2 = [[0.0] * (j_max + 1) for _ in range(j_max + 1)]
    k_law: dict = {}
    c_laws: list = [dict() for _ in range(j_max + 1)]
    for w, pr in law.items():
        counts, k, _ = cycle_statistics(w)
        mean_k += pr * k
        e_k2 += pr * k * k
        k_law[k] = k_law.get(k, 0.0) + pr
        for a in range(1, j_max + 1):
            ca = counts[a - 1] if a <= len(counts) else 0
            mean_c[a] += pr * ca
            c_laws[a][ca] = c_laws[a].get(ca, 0.0) + pr
            for b in range(1, j_max + 1):
                cb = counts[b - 1] if b <= len(counts) else 0
                e_c2[a][b] += pr * ca * cb
    return {
        "mean_k": mean_k,
        "var_k": e_k2 - mean_k * mean_k,
        "mean_c": mean_c,
        "cov_c": [
            [e_c2[a][b] - mean_c[a] * mean_c[b] for b in range(j_max + 1)]
            for a in range(j_max + 1)
        ],
        "k_law": DistTable(k_law, tol=1e-10),
        "c_laws": [DistTable(cl, tol=1e-10) if cl else None for cl in c_laws],
    }


class ExactCycleProvider:
    """Unsigned cycle-count moments for the signed-statistics layer,
    backed by enumeration (n <= 14)."""

    def __init__(self, kind: ChainKind, n: int):
        if n > 14:
            raise ValueError("exact cycle provider limited to n <= 14")
        self.n = n
        self._m = enumeration_moments(kind, n)

    def mean(self, k: int) -> float:
        return self._m["mean_c"][k] if k <= self.n else 0.0

    def cov(self, k: int, kp: int) -> float:
        if k > self.n or kp > self.n:
            return 0.0
        return self._m["cov_c"][k][kp]

    def k_law(self) -> DistTable:
        return self._m["k_law"]

    def c_law(self, k: int) -> DistTable:
        law = self._m["c_laws"][k] if k <= self.n else None
        return law if law is not None else DistTable({0: 1.0})
