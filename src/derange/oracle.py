"""Brute-force ground truth for every identity in the library.

Everything here is computed by exhaustive enumeration or by dynamic
programming over the chain transitions, never by the closed-form displays
the rest of the library implements — so agreement between the two is a
genuine check, not a tautology.

Enumerations grow each word from index n down, depth first, so words with
a common top segment share its product (O(2^n) products, not O(n 2^n)), in
``chains.word_law``'s order: each word's probability is bit-identical to
it.  The push-forward walk carries the 11-erased image bit, y_i and not the
image bit above, the run parity of ``coupling.erase11``; it scores the 2^20
words of ``pushforward_law(22, ·)`` in about 0.6 s.
"""

from __future__ import annotations

import math

from .chains import ChainKind, cycle_statistics
from .dist import DistTable
from .params import ThetaSequence

# Cardinality guards: Fibonacci-sized derangement supports up to n = 30,
# full 2^(n-1) coin-word spaces up to n = 22.
MAX_DELTA_N = 30
MAX_FULL_N = 22


def _walk(rows: list, n: int, no11: bool):
    """Yield (word, product of rows[r][bit above][bit] from r = n down) for
    the words of length n with w_1 = 1 and, with ``no11``, no adjacent 1s,
    the virtual 1 at n + 1 included; a forced 0 carries the factor 1.0."""
    stack = [(n, (), 1.0, 1)]  # (index to fill, bits above it, product, bit above)
    while stack:
        r, w, pr, above = stack.pop()
        row = rows[r][above]
        if r == 1:
            if not (no11 and above):  # n = 1 under the virtual 1
                yield (1,) + w, pr * row[1]
            continue
        if not (no11 and (above or r == 2)):
            stack.append((r - 1, (1,) + w, pr * row[1], 1))
        stack.append((r - 1, (0,) + w, pr * row[0], 0))


def enumerate_delta(n: int):
    """All words of the no-adjacent-1s set, lexicographic in the stored
    (ascending-index) tuple order."""
    if not (1 <= n <= MAX_DELTA_N):
        raise ValueError(f"n must lie in 1..{MAX_DELTA_N}")
    return sorted(w for w, _ in _walk([((1.0, 1.0),) * 2] * (n + 1), n, True))


def exact_law(kind: ChainKind, n: int, check_tol: float = 1e-12) -> DistTable:
    """The full word law by exhaustive path probability over every word
    the chain's gap allows."""
    limit = MAX_DELTA_N if kind.gap else MAX_FULL_N
    if not (1 + kind.gap <= n <= limit):
        raise ValueError(f"exact_law of {kind!r} needs {1 + kind.gap} <= n <= {limit}")
    probs = dict(_walk(_rows(kind, n), n, bool(kind.gap)))
    total = math.fsum(probs.values())
    if abs(total - 1.0) > check_tol:
        raise AssertionError(f"exact law sums to {total}, off by {total - 1.0:.3g}")
    return DistTable(probs, tol=check_tol * 10)


def conditional_law(n: int, thetaseq: ThetaSequence) -> DistTable:
    """The coin-word law restricted to the no-adjacent-1s set and
    renormalized — the conditioning side of the conditional relation;
    a 0 below a 1 is not forced, so it pays its coin row entry."""
    if not (2 <= n <= MAX_FULL_N):
        raise ValueError(f"limited to 2 <= n <= {MAX_FULL_N}")
    probs = dict(_walk(_rows(ChainKind.y(thetaseq), n), n, True))
    norm = math.fsum(probs.values())
    return DistTable({w: v / norm for w, v in probs.items()}, tol=1e-10)


def pushforward_law(n: int, thetaseq: ThetaSequence) -> DistTable:
    """The image of the coin-word law under the horizon-n 11-erasing map.

    The map reads only the first n - 1 coin values (every output index
    at or above n is 0), so words of length n - 1 are enumerated.  Output
    1 is 1, output 2 is 0, and output i >= 3 is y_i and not output i + 1.
    The images are thus the no-adjacent-1s words, each summed in a list at
    its Zeckendorf rank, which gives index i the Fibonacci weight F_(n+1-i).
    """
    if not (2 <= n <= MAX_FULL_N):
        raise ValueError(f"limited to 2 <= n <= {MAX_FULL_N}")
    rows = _rows(ChainKind.y(thetaseq), n - 1)
    weight, count, ahead = [0] * n, 1, 2  # weight[r] = F_(n+1-r) for r >= 3, else 0
    for r in range(n - 1, 2, -1):
        weight[r], count, ahead = count, ahead, count + ahead
    probs = [0.0] * count
    stack = [(n - 1, 0, 1.0, 0)]  # (index to fill, image rank, product, image bit above)
    while stack:
        r, k, pr, out = stack.pop()
        zero, one = rows[r][0]
        if r == 1:
            probs[k] += pr * one
        else:  # a 1 below an image 1 is erased; weight[2] = 0 keeps index 2 at 0
            stack.append((r - 1, k, pr * one, 0) if out else
                         (r - 1, k + weight[r], pr * one, 1))
            stack.append((r - 1, k, pr * zero, 0))
    images = {}
    for k, v in enumerate(probs):  # decoded greedily from the heaviest weight
        img = [1] + [0] * (n - 1)
        for r in range(3, n):
            if k >= weight[r]:
                img[r - 1], k = 1, k - weight[r]
        images[tuple(img)] = v
    return DistTable(images, tol=1e-10)


# ---------------------------------------------------------------------------
# DP moment engine

def _rows(kind: ChainKind, n: int) -> list:
    """rows[r] = (row after a 0, row after a 1) for the value at index
    r = 1..n, as float pairs from the scalar ``kind.row(r)``; with a gap the
    row after a 1 is the forced 0.

    One table serves every horizon h <= n: at h the rows differ only in
    the row after a 0 at index h, which no DP reaches, since the value
    above index h is the virtual 1.
    """
    if kind.kappa is not None:
        raise ValueError(f"{kind!r} has three states, not 0/1 transition rows")
    rows = [None]
    for r in range(1, n + 1):
        free = kind.row(r)
        rows.append((free, (1.0, 0.0) if kind.gap else free))
    return rows


def _marginal_dp(rows: list, n: int):
    """P(word bit at index i is 1) for i = 1..n under horizon n, by forward
    DP over the rows from ``_rows`` (independent of the closed-form
    marginal series)."""
    d0, d1 = 0.0, 1.0  # state distribution at index n+1 (always 1)
    out = [0.0] * (n + 1)
    for r in range(n, 0, -1):
        (z0, z1), (o0, o1) = rows[r]
        d0, d1 = d0 * z0 + d1 * o0, d0 * z1 + d1 * o1
        out[r] = d1
    return out


def _pattern_probs_dp(rows: list, n: int, j: int) -> dict:
    """{i: P(a j-cycle ends exactly at index position i)} under horizon n
    for i = j+1..n+1, where i = n+1 denotes the boundary cycle touching the
    top; computed from one marginal DP and the rows only."""
    def run_down(prob, top, bottom):
        # 0s at top-1..bottom+1, then 1 at bottom, from a 1 at top
        state = 1
        for r in range(top - 1, bottom, -1):
            prob *= rows[r][state][0]
            state = 0
        return prob * rows[bottom][state][1]

    marg = _marginal_dp(rows, n)
    out = {i: run_down(marg[i], i, i - j) for i in range(j + 1, n + 1)}
    if n >= j:
        out[n + 1] = run_down(1.0, n + 1, n + 1 - j)
    return out


def _renewal_sum(rows: list, ends: dict, a: int, b: int, total: float = 0.0) -> float:
    """total + sum_u P(an a-cycle ends at u) E[C_b(u - a - 1)], over the
    end positions ``ends`` of the a-cycles: given an a-cycle ending at u,
    the chain below index u - a is a fresh horizon-(u - a - 1) chain."""
    for u, pu in ends.items():
        if pu == 0.0 or u - a - 1 < b:
            continue
        total += pu * math.fsum(_pattern_probs_dp(rows, u - a - 1, b).values())
    return total


def dp_moments(kind: ChainKind, n: int, targets=("mean_k",), j: int | None = None,
               i: int | None = None) -> dict:
    """Moment values by marginal/pattern DP, independent of the library's
    closed forms.  The scalar transition rows are built once per call, by
    ``_rows``, and every DP, renewal horizons included, reads that table.

    Recognized targets: 'mean_k', 'var_k', 'mean_cj' (needs j),
    'mean_cj_sq' and 'var_cj' (need j), 'cov_cij' (needs i and j).
    """
    if n > 5000:
        raise ValueError("dp moment engine limited to n <= 5000")
    rows = _rows(kind, n)
    out: dict = {}
    marg = None
    if any(t in targets for t in ("mean_k", "var_k")):
        marg = _marginal_dp(rows, n)
        # K = 1 + number of stored 1s strictly below the top... the virtual
        # 1 at n+1 opens the first cycle and every stored 1 at i >= 2 closes
        # one; the forced 1 at index 1 closes the last.  K = total stored 1s.
        out["mean_k"] = math.fsum(marg[1:])
    if "var_k" in targets:
        # E[K^2] needs pairwise P(bit_a = bit_b = 1); below a 1 at a the
        # chain is a fresh horizon-(a - 1) chain
        total = out["mean_k"]
        pair_sum = 0.0
        for a in range(n, 0, -1):
            if marg[a] == 0.0:
                continue
            below = _marginal_dp(rows, a - 1)
            for r in range(a - 1, 0, -1):
                pair_sum += marg[a] * below[r]
        e_k2 = total + 2.0 * pair_sum
        out["var_k"] = e_k2 - total * total
    if any(t in targets for t in ("mean_cj", "mean_cj_sq", "var_cj")):
        if j is None:
            raise ValueError("targets involving C_j need j")
        mean_cj = math.fsum(_pattern_probs_dp(rows, n, j).values())
        out["mean_cj"] = mean_cj
        if "mean_cj_sq" in targets or "var_cj" in targets:
            out["var_cj"] = _cov_cycle_counts(rows, n, j, j)
            out["mean_cj_sq"] = out["var_cj"] + mean_cj * mean_cj
    if "cov_cij" in targets:
        if i is None or j is None:
            raise ValueError("cov_cij needs i and j")
        out["cov_cij"] = _cov_cycle_counts(rows, n, i, j)
    return out


def _cov_cycle_counts(rows: list, n: int, a: int, b: int) -> float:
    """Cov(C_a, C_b) by the same end-position decomposition."""
    r_a = _pattern_probs_dp(rows, n, a)
    mean_a = math.fsum(r_a.values())
    if a == b:
        # E[C_a^2] = E[C_a] + 2 sum_{u > v} P(a-cycles end at u and v)
        e_sq = mean_a + 2.0 * _renewal_sum(rows, r_a, a, a)
        return e_sq - mean_a * mean_a
    r_b = _pattern_probs_dp(rows, n, b)
    mean_b = math.fsum(r_b.values())
    # E[C_a C_b] = sum over ordered pairs of end positions (u above v)
    e_ab = _renewal_sum(rows, r_b, b, a, _renewal_sum(rows, r_a, a, b))
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
