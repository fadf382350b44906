"""Brute-force ground truth for every identity in the library.

Everything here is computed by exhaustive enumeration or by dynamic
programming over the chain transitions, never by the closed-form displays
the rest of the library implements — so agreement between the two is a
genuine check, not a tautology.

Enumerations sweep every word level by level in numpy, from index n down
to 1: at each index each surviving prefix's product is multiplied by the
scalar row entry of its bit below the bit above, ``chains.word_law``'s
factors in its order, so each word's probability is bit-identical to it,
and words with a common top segment share its product.  Once the
prefixes fill a block of ``_BLOCK`` words, the lower levels run on
blocks of top prefixes.  The push-forward sweep carries the 11-erased
image bit, y_i and not the image bit above, the run parity of
``coupling.erase11``, and sums the images by Zeckendorf rank; it scores
the 2^20 words of ``pushforward_law(22, ·)`` in about 0.02 s, at a
process peak RSS of 30 MB, on a 2-CPU VM.

The one upward sweep, ``tv_prefixes``, grows the words from index 1 and
scores the total variation distance to the limit chain X^inf at every
horizon m <= n on the way.  The limit chain's phi_r come from this
module's own marginal DP at a horizon past n where the remaining product
of q_r is below 1e-17, never from ``limitchain.phi``, which it certifies.
"""

from __future__ import annotations

import math

import numpy as np

from .chains import ChainKind
from .dist import DistTable, word_tuples
from .params import ThetaSequence

# Cardinality guards: Fibonacci-sized derangement supports up to n = 30,
# full 2^(n-1) coin-word spaces up to n = 22.
MAX_DELTA_N = 30
MAX_FULL_N = 22

# Most words a sweep holds in one array (128 KiB of float64): below the
# level where the prefixes fill it, the sweep runs on blocks of prefixes.
_BLOCK = 1 << 14

# tv_prefixes reads phi off the marginals at the first horizon N > n with
# q_{n+1} ... q_N < _TAIL, and gives up past N = n + _TAIL_CAP.
_TAIL = 1e-17
_TAIL_CAP = 10**4


def _sweep(rows: list, top: int, weight: list, above: bool, no11: bool = False,
           erase: bool = False):
    """Yield (keys, products) of the words grown from index ``top`` down to
    index 1, w_1 = 1, block by block.

    The prefixes are held as (keys, products) in two groups by the bit c
    they carry down, c = ``above`` over index ``top``.  A bit b at index r
    multiplies a prefix's product by rows[r][c][b], a forced 0 by 1.0, and
    carries b down, or with ``erase`` the image bit b and not c; a carried
    1 adds weight[r] to the key.  With ``no11`` a 1 below a carried 1 is
    dropped.
    """
    def level(r, zero, one):  # the groups below index r; at index 1 its 1s
        (z0, z1), (o0, o1) = rows[r]
        ones = [(zero[0] + weight[r], zero[1] * z1)]
        erased = []
        if not no11:  # a 1 below a 1: an image 0, or a 1
            if erase:
                erased.append((one[0], one[1] * o1))
            else:
                ones.append((one[0] + weight[r], one[1] * o1))
        if r == 1:
            return _joined(ones + erased)
        return _joined([(zero[0], zero[1] * z0), (one[0], one[1] * o0)] + erased), _joined(ones)

    empty, start = (np.zeros(0, np.int64), np.zeros(0)), (np.zeros(1, np.int64), np.ones(1))
    zero, one = (empty, start) if above else (start, empty)
    r = top
    while r > 1 and 2 * (zero[0].size + one[0].size) <= _BLOCK:
        zero, one = level(r, zero, one)
        r -= 1
    step = max(1, _BLOCK >> r)  # two groups of step prefixes grow into at most _BLOCK words
    for s in range(0, max(zero[0].size, one[0].size), step):
        z, o = [(k[s:s + step], p[s:s + step]) for k, p in (zero, one)]
        for q in range(r, 1, -1):
            z, o = level(q, z, o)
        yield level(1, z, o)


def _joined(parts: list) -> tuple:
    """The (keys, products) parts as one pair of arrays; a single part as is."""
    if len(parts) == 1:
        return parts[0]
    return np.concatenate([k for k, _ in parts]), np.concatenate([p for _, p in parts])


def _words(rows: list, n: int, no11: bool) -> tuple:
    """(ascending codes, bit i - 1 = w_i; products) of the words of length
    n, swept from below the virtual 1 at index n + 1."""
    blocks = list(_sweep(rows, n, [0] + [1 << (r - 1) for r in range(1, n + 1)], True, no11))
    codes, probs = (np.concatenate(part) for part in zip(*blocks))
    order = np.argsort(codes)
    return codes[order], probs[order]


def enumerate_delta(n: int):
    """All words of the no-adjacent-1s set, lexicographic in the stored
    (ascending-index) tuple order."""
    if not (1 <= n <= MAX_DELTA_N):
        raise ValueError(f"n must lie in 1..{MAX_DELTA_N}")
    codes, _ = _words([((1.0, 1.0),) * 2] * (n + 1), n, True)
    return sorted(word_tuples(codes, n))


def exact_law(kind: ChainKind, n: int) -> DistTable:
    """The full word law by exhaustive path probability over every word
    the chain's gap allows."""
    limit = MAX_DELTA_N if kind.gap else MAX_FULL_N
    if not (1 + kind.gap <= n <= limit):
        raise ValueError(f"exact_law of {kind!r} needs {1 + kind.gap} <= n <= {limit}")
    codes, probs = _words(_rows(kind, n), n, bool(kind.gap))
    total = math.fsum(probs.tolist())
    if abs(total - 1.0) > 1e-12:
        raise AssertionError(f"exact law sums to {total}, off by {total - 1.0:.3g}")
    return DistTable(codes, probs, n, tol=1e-11)


def conditional_law(n: int, thetaseq: ThetaSequence) -> DistTable:
    """The coin-word law restricted to the no-adjacent-1s set and
    renormalized — the conditioning side of the conditional relation;
    a 0 below a 1 is not forced, so it pays its coin row entry."""
    if not (2 <= n <= MAX_FULL_N):
        raise ValueError(f"limited to 2 <= n <= {MAX_FULL_N}")
    codes, probs = _words(_rows(ChainKind.y(thetaseq), n), n, True)
    return DistTable(codes, probs / math.fsum(probs.tolist()), n, tol=1e-10)


def pushforward_law(n: int, thetaseq: ThetaSequence) -> DistTable:
    """The image of the coin-word law under the horizon-n 11-erasing map.

    The map reads only the first n - 1 coin values (every output index
    at or above n is 0), so words of length n - 1 are swept.  Output 1 is
    1, output 2 is 0, and output i >= 3 is y_i and not output i + 1.  The
    images are thus the no-adjacent-1s words on indices 3..n - 1, each
    summed at its Zeckendorf rank, which gives index i the Fibonacci
    weight of the words on indices 3..i - 1, so ranks ascend with codes.
    """
    if not (2 <= n <= MAX_FULL_N):
        raise ValueError(f"limited to 2 <= n <= {MAX_FULL_N}")
    # the image codes on indices 3..r, ascending, are those with a 0 at r,
    # then those with a 1 at r over a 0 at r - 1: a 1 at r ranks past the
    # images.size words on indices 3..r - 1
    weight, older, images = [0] * n, np.zeros(1, np.int64), np.zeros(1, np.int64)
    for r in range(3, n):
        weight[r] = images.size
        older, images = images, np.concatenate((images, older | 1 << (r - 1)))
    probs = np.zeros(images.size)
    # the coin rows do not depend on the bit above, so carrying the image
    # bit in its place reads the same entries
    for ranks, prods in _sweep(_rows(ChainKind.y(thetaseq), n - 1), n - 1, weight, False,
                               erase=True):
        probs += np.bincount(ranks, prods, minlength=probs.size)
    return DistTable(images | 1, probs, n, tol=1e-10)


def tv_prefixes(n: int, kind: ChainKind) -> np.ndarray:
    """tv[m], m = 2..n: the total variation distance between the limit
    chain X^inf of the derangement chain ``kind`` on indices 1..m and its
    horizon-m law, from one upward sweep (tv[0] = tv[1] = 0).

    The words w_1..w_m, w_1 = 1, without adjacent 1s are grouped by w_m.
    Each carries its horizon product less index m's factor (rows[m][0][w_m],
    or 1 below w_{m+1} = 1) and its X^inf product, whose step up from a 0 at
    index m is a 1 with probability phi_{m+1}/(1 - phi_m).  The horizon law
    holds index m at 0, so tv[m] = (sum over w_m = 0 of |horizon - limit|
    + sum over w_m = 1 of limit) / 2.  phi_r, r <= n + 1, is within
    q_{n+1} ... q_N < ``_TAIL`` of the limit at horizon N; when sum p_r
    converges no N gets there.
    """
    if not kind.gap:
        raise ValueError(f"tv_prefixes needs a derangement chain, not {kind!r}")
    if not (1 <= n <= MAX_DELTA_N):
        raise ValueError(f"tv_prefixes limited to 1 <= n <= {MAX_DELTA_N}")
    top, tail = n, 1.0
    while tail >= _TAIL:
        if top == n + _TAIL_CAP:
            raise ValueError(
                f"sum p_j does not appear to diverge: q_{n + 1} ... q_{top} stays "
                f"above {_TAIL:g}, so the limit chain is not well defined")
        top += 1
        tail *= kind.row(top)[1]
    rows = _rows(kind, top)
    phi = _marginal_dp(rows, top)
    tv = np.zeros(n + 1)
    zero, one = (np.zeros(0), np.zeros(0)), (np.ones(1), np.ones(1))
    for m in range(1, n):
        up = phi[m + 1] / (1.0 - phi[m]) if m > 1 else 0.0  # no word has w_1 = 0
        p_m, q_m = rows[m][0]
        zero, one = ((np.concatenate((zero[0] * p_m, one[0] * q_m)),
                      np.concatenate((zero[1] * (1.0 - up), one[1]))),
                     (zero[0], zero[1] * up))
        tv[m + 1] = 0.5 * (np.abs(zero[0] - zero[1]).sum() + one[1].sum())
    return tv


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
    rows = [None] * (n + 1)
    for r in range(n, 0, -1):  # from the top: a sequence kept as a run array runs once
        free = kind.row(r)
        rows[r] = (free, (1.0, 0.0) if kind.gap else free)
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

    Recognized targets: 'mean_k', 'var_k', 'mean_cj' and 'var_cj' (need
    j), 'cov_cij' (needs i and j).
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
    if "mean_cj" in targets or "var_cj" in targets:
        if j is None:
            raise ValueError("targets involving C_j need j")
        out["mean_cj"] = math.fsum(_pattern_probs_dp(rows, n, j).values())
        if "var_cj" in targets:
            out["var_cj"] = _cov_cycle_counts(rows, n, j, j)
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
    moments, and the exact laws of K and each C_j.

    The counts come from the word codes in numpy, one level per index from
    n down to 1: a 1 at index i closes a cycle of length (index of the
    nearest 1 above it, the virtual one at n + 1 included) - i.  Every sum
    adds its terms one after another in code order (``np.cumsum``'s last
    row, and ``np.bincount`` for the laws), as a loop over the words would.
    """
    law = exact_law(kind, n)
    j_max = j_max or n
    codes, probs = law.codes, law.prob
    counts = np.zeros((codes.size, max(n, j_max) + 1))
    above = np.full(codes.size, n + 1)
    for i in range(n, 0, -1):
        ones = np.flatnonzero(codes >> (i - 1) & 1)
        counts[ones, above[ones] - i] += 1.0
        above[ones] = i
    k = counts.sum(axis=1)
    counts = counts[:, :j_max + 1]
    weighted = probs[:, None] * counts
    mean_k = float(np.cumsum(probs * k)[-1])
    mean_c = np.cumsum(weighted, axis=0)[-1]
    e_c2 = np.array([np.cumsum(weighted[:, [a]] * counts, axis=0)[-1]
                     for a in range(j_max + 1)])

    def law_of(values):
        keys, at = np.unique(values.astype(np.int64), return_inverse=True)
        return DistTable(keys, np.bincount(at, probs), tol=1e-10)

    return {
        "mean_k": mean_k,
        "var_k": float(np.cumsum(probs * k * k)[-1]) - mean_k * mean_k,
        "mean_c": mean_c.tolist(),
        "cov_c": (e_c2 - np.outer(mean_c, mean_c)).tolist(),
        "k_law": law_of(k),
        "c_laws": [None] + [law_of(counts[:, a]) for a in range(1, j_max + 1)],
    }
