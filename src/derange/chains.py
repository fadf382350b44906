"""Chain definitions, exact path probabilities, samplers, cycle extraction.

Every chain is {0,1}-valued and runs from index n+1 (value 1, never
stored) down to index 1; each 1 closes a circle.  One rule covers every
family.  At a free index r the chain shows a 1, closing a circle, with
probability h_r, and index 1 always closes the last one (h_1 = 1):

* derangement chains (``x``, ``eta``, ``eta_tilde``): h_r = q_r = 1 - p_r.
  Their words have no 11-pattern, so a 0 is forced below every 1, the
  virtual one at n+1 included: the gap is 1, and a free index is one
  below a 0.  The words land in the set Delta_n.
* independent-coin chains (``y``, ``xi_tilde``): h_r = theta_r/(r-1+theta_r),
  the generalized Feller coupling.  Nothing is forced (gap 0), so every
  index is free.

Words are stored ascending by chain index (w_1 first); string serialization
reverses to the visual top-down order.  A signed word is a derangement
word with an orientation: ``generate_signed_many`` takes the orientation
probability kappa as an argument, makes each 0-step '+0' with
probability kappa, else '-0', and extends the word to a signed
permutation by uniform labeling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import PSequence, ThetaSequence, _coin_rows

# The three steps of a signed word.
SIGNED_STATES = ("+0", "-0", "1")


class ChainKind:
    """A chain family: its closing probabilities and its gap.

    Use the classmethod constructors.  A derangement kind carries a
    PSequence ``p`` and has ``gap`` 1; a coin kind carries a
    ThetaSequence ``thetaseq`` and has ``gap`` 0.  ``label``, the
    constructor's name in capitals, only names the kind in ``repr`` and
    reports.
    """

    def __init__(self, label: str, p: PSequence | None = None,
                 thetaseq: ThetaSequence | None = None):
        self.label = label.upper()
        self.p = p
        self.thetaseq = thetaseq
        self.gap = 0 if p is None else 1

    @classmethod
    def x(cls, p: PSequence) -> "ChainKind":
        return cls("x", p=p)

    @classmethod
    def eta(cls, theta: float) -> "ChainKind":
        return cls("eta", p=PSequence.eta(theta))

    @classmethod
    def eta_tilde(cls, theta: float) -> "ChainKind":
        """Derangement chain whose law matches a derangement-conditioned
        theta-biased permutation (``PSequence.eta_tilde``)."""
        return cls("eta_tilde", p=PSequence.eta_tilde(theta))

    @classmethod
    def y(cls, thetaseq: ThetaSequence) -> "ChainKind":
        return cls("y", thetaseq=thetaseq)

    @classmethod
    def xi_tilde(cls, theta: float) -> "ChainKind":
        return cls("xi_tilde", thetaseq=ThetaSequence.constant(theta))

    def row(self, r: int) -> tuple:
        """(P(0), P(1)) at a free index r, from the scalar sequence:
        (p_r, 1 - p_r) or (1 - c_r, c_r)."""
        if self.p is None:
            c = self.thetaseq.coin_prob(r)
            return 1.0 - c, c
        pr = self.p(r)
        return pr, 1.0 - pr

    def check_horizon(self, n: int) -> None:
        """Raise ValueError unless the chain has a word at horizon n: a gap
        holds index n at 0 and index 1 closes the last circle."""
        if n < 1 + self.gap:
            raise ValueError(f"{self!r} needs n >= {1 + self.gap}")

    def check_cycle_length(self, j: int) -> None:
        """Raise ValueError unless the chain has j-circles: a gap rules out 1-circles."""
        if j < 1 + self.gap:
            raise ValueError(f"j must be >= {1 + self.gap} for {self!r}")

    def rows(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The arrays (P(0), P(1)) of ``row`` at r = 0..n (entry 0 unused),
        from one evaluation of the sequence; a coin kind's are the quotients
        (r-1)/d_r and theta_r/d_r, d_r = r - 1 + theta_r, with no 1 - c."""
        self.check_horizon(n)
        if self.p is not None:
            pv = self.p.values(n)
            return pv, 1.0 - pv
        return _coin_rows(np.arange(n + 1), self.thetaseq.values(n))

    def one_probs(self, n: int) -> np.ndarray:
        """h[r] = P(value 1 at index r | index r is free): ``rows(n)[1]``."""
        return self.rows(n)[1]

    def __repr__(self):
        return f"ChainKind({self.label})"


# ---------------------------------------------------------------------------
# words

def word_to_string(word) -> str:
    """Serialize bits in visual order, index n down to 1."""
    return "".join(str(b) for b in reversed(word))


def word_from_string(s: str):
    return tuple(int(c) for c in reversed(s))


def in_delta(word) -> bool:
    """Membership in Delta_n: w_1 = 1, w_n = 0, no adjacent 1s."""
    n = len(word)
    if n < 2:
        return False
    if word[0] != 1 or word[-1] != 0:
        return False
    return all(word[i] + word[i + 1] < 2 for i in range(n - 1))


@dataclass(frozen=True)
class SignedWord:
    """Steps at indices 1..n, each '+0', '-0' or '1', plus the orientation
    probability kappa used to generate them."""

    steps: tuple
    kappa: float

    def __post_init__(self):
        if not all(map(SIGNED_STATES.__contains__, self.steps)):
            bad = next(s for s in self.steps if s not in SIGNED_STATES)
            raise ValueError(f"invalid signed step {bad!r}")

    def projection(self):
        """The underlying 0/1 word (both 0-orientations collapse to 0)."""
        return tuple(1 if s == "1" else 0 for s in self.steps)

    def to_string(self) -> str:
        """Characters {o, i, 1} for {-0, +0, 1}, index n down to 1."""
        table = {"-0": "o", "+0": "i", "1": "1"}
        return "".join(table[s] for s in reversed(self.steps))


@dataclass(frozen=True)
class SignedPermutation:
    """Ordered circles of signed labels; first label of each circle
    positive, absolute labels partitioning 1..n."""

    circles: tuple


# ---------------------------------------------------------------------------
# transition structure

def transition_matrix(kind: ChainKind, r: int, n: int) -> np.ndarray:
    """Row-stochastic one-step matrix used when generating the value at
    index r (rows indexed by the value at index r+1).

    Row 0 is the free row; row 1 is the forced 0 of a gap, or the free row
    without one.  Index n lies below the virtual 1, so both of its rows
    are row 1.
    """
    if not (1 <= r <= n):
        raise ValueError(f"index r={r} outside 1..{n}")
    free = kind.row(r)
    after_one = (1.0, 0.0) if kind.gap else free
    return np.array([after_one if r == n else free, after_one])


# ---------------------------------------------------------------------------
# sampling

# the steps -0, +0 and 1 by code, as objects so a block's steps share them
_STEP_NAMES = np.array(["-0", "+0", "1"], dtype=object)


def _jump_blocks(kind: ChainKind, n: int, seed: int, replicates: range, lead: int = 0):
    """Yield (leading draws, 1-positions, 0/1 words) per block of
    ``replicates``, drawn by the jump sampler of ``montecarlo`` over each
    replicate's stream: row r of the 1-positions lists replicate r's in
    descending chain index, padded with 0, and row r of the words is its
    word in ascending chain index."""
    from . import montecarlo

    h = kind.one_probs(n)
    for _, draws, ones in montecarlo._sample(kind, h, replicates, seed, lead):
        bits = np.zeros((ones.shape[0], n + 1), dtype=np.int8)
        np.put_along_axis(bits, ones, 1, axis=1)  # padding lands in column 0
        yield draws, ones, bits[:, 1:]
        del draws, ones, bits  # the next block is drawn without this one alive


def sample_paths(kind: ChainKind, n: int, seed: int, replicates: range) -> list:
    """The words of replicates ``replicates`` of run ``seed``; word r is
    ``sample_path(kind, n, seed, r)``."""
    return [tuple(word) for _, _, words in _jump_blocks(kind, n, seed, replicates)
            for word in words.tolist()]


def sample_path(kind: ChainKind, n: int, seed: int, rep: int = 0):
    """Replicate ``rep`` of run ``seed`` of the chain law; deterministic
    given (kind, n, seed, rep)."""
    return sample_paths(kind, n, seed, range(rep, rep + 1))[0]


def _signed_blocks(n: int, p: PSequence, kappa: float, seed: int, replicates: range):
    """Yield (codes, labels, starts) per block of ``replicates``, one row
    per replicate, as ``generate_signed_many`` documents its draws.

    ``codes`` (rows, n) holds each step in ascending chain index, 0, 1 or 2
    for '-0', '+0' or '1' (``_STEP_NAMES``); ``labels`` (rows, n) holds the
    signed labels in circle order; row r of ``starts`` lists where each
    circle after the first starts in row r of ``labels``, the last one at
    n, padded past n.
    """
    if not (0.0 <= kappa <= 1.0):
        raise ValueError("kappa must lie in [0, 1]")
    for lead, ones, bits in _jump_blocks(ChainKind.x(p), n, seed, replicates, 2 * n):
        plus = lead[:, :n] < kappa
        codes = np.where(bits == 1, 2, plus)
        # label t belongs to index n - t; its sign is that of the step at
        # index n - t + 1, the virtual 1 above index n counting as positive
        labels = np.argsort(lead[:, n:], axis=1) + 1
        labels[:, 1:] *= np.where(codes == 0, -1, 1)[:, :0:-1]
        # the 1 at index i closes a circle, so the next one starts at label
        # n + 1 - i; padding maps past the last label
        yield codes, labels, n + 1 - ones
        del lead, ones, bits, plus, codes, labels  # drop this block before the next


def _circles(labels: list, starts: list) -> list:
    """One replicate's circles: its labels cut at its circle starts, a row
    of ``_signed_blocks``'s starts, whose padding follows the end at n."""
    starts = starts[:starts.index(len(labels)) + 1]
    return [labels[a:b] for a, b in zip([0, *starts], starts)]


def generate_signed_many(n: int, p: PSequence, kappa: float, seed: int,
                         replicates: range) -> list:
    """(signed word, uniformly labeled signed permutation) of each replicate
    in ``replicates`` of run ``seed``.

    A replicate's stream gives n orientation uniforms (the 0-step at index
    i is '+0' when the i-th is below kappa), then n labeling uniforms (the
    label order is their argsort), then the jump uniforms of its word.
    """
    out = []
    for codes, labels, starts in _signed_blocks(n, p, kappa, seed, replicates):
        for word, labs, cuts in zip(_STEP_NAMES[codes].tolist(), labels.tolist(),
                                    starts.tolist()):
            out.append((SignedWord(steps=tuple(word), kappa=kappa),
                        SignedPermutation(circles=tuple(map(tuple, _circles(labs, cuts))))))
    return out


def generate_signed(n: int, p: PSequence, kappa: float, seed: int, rep: int = 0):
    """Replicate ``rep`` of run ``seed``: a signed word and its uniformly
    labeled signed permutation."""
    return generate_signed_many(n, p, kappa, seed, range(rep, rep + 1))[0]


# ---------------------------------------------------------------------------
# exact evaluation

def path_probability(kind: ChainKind, word) -> float:
    """Exact probability of a word under the chain law, 0 off-support:
    ``word_law(kind, len(word))(word)``."""
    return word_law(kind, len(word))(word)


def word_law(kind: ChainKind, n: int):
    """The probability of a 0/1 word of length n under the chain law, as a
    function of the word: from index n down it multiplies the free row
    entry of each free index and rejects a 1 where the gap forces a 0.
    The rows of (kind, n) are evaluated once, for every word it scores.
    """
    gap = kind.gap
    if n < 1 + gap:
        return lambda word: 0.0  # the virtual 1 would force index 1 to 0, yet it must close
    rows = [kind.row(r) for r in range(n, 0, -1)]

    def prob(word) -> float:
        pr = 1.0
        above = 1  # the virtual 1 at index n + 1
        for bit, row in zip(reversed(word), rows):
            if above and gap:
                if bit:
                    return 0.0
            else:
                pr *= row[bit]
            above = bit
        return pr

    return prob


def marginals(h: np.ndarray, gap: int) -> np.ndarray:
    """P(value at index i is 1) at horizon n = h.size - 1, where h is
    ``kind.one_probs(n)`` and gap is ``kind.gap``, as an array indexed by i.

    Index i is free with probability 1 - gap m_{i+1}, since a gap forces a
    0 below a 1, and a free index shows a 1 with probability h_i, so
    m_i = h_i (1 - gap m_{i+1}), started from the virtual m_{n+1} = 1.
    Entry 0 is unused (0.0) and entry n+1 is the virtual 1.
    """
    n = h.size - 1
    g = float(gap)  # a float factor: int * float is the slower mixed multiply
    out = np.zeros(n + 2)
    # memoryviews read and write Python floats without list copies
    h, m = memoryview(h), memoryview(out)
    m[n + 1] = above = 1.0
    for i in range(n, 0, -1):
        m[i] = above = h[i] * (1.0 - g * above)
    return out


def cycle_weights(stay: np.ndarray, h: np.ndarray, gap: int, j: int) -> np.ndarray:
    """c over l = 0..n+1 for (stay, h) = ``kind.rows(n)``: the weight
    h_{l-j} stay_{l-j+1} ... stay_{l-1-gap} of a top circle of length j at
    horizon l - 1 (0 for l <= j), so a j-circle ends at l with probability
    c_l m_l under the marginals m (m_{n+1} = 1).  Few ends of long circles
    take one window product each, else one shifted array per factor."""
    n = h.size - 1
    c = np.zeros(n + 2)
    if n >= j:  # position k of each slice below is index l = j + 1 + k
        c[j + 1:] = h[1:n + 2 - j]
        if j - 1 - gap > n + 1 - j:
            s = stay.tolist()
            for l in range(j + 1, n + 2):  # the multiply order of the arrays below
                c[l] = math.prod(s[l - 1 - gap:l - j:-1], start=c[l])
        else:
            for d in range(1 + gap, j):
                c[j + 1:] *= stay[j + 1 - d:n + 2 - d]
    return c


def marginal_one(kind: ChainKind, i: int, horizon: int) -> float:
    """P(value at index i is 1) at the finite horizon n."""
    if horizon == math.inf:
        raise ValueError("marginal_one needs a finite horizon; the n -> infinity "
                         "limit is limitchain.phi")
    n = int(horizon)
    if not (1 <= i <= n):
        raise ValueError(f"index {i} outside 1..{n}")
    return float(marginals(kind.one_probs(n), kind.gap)[i])


def cycle_statistics(word):
    """(cycle-type counts c_1..c_n, K, ordered lengths A_1..A_K).

    The virtual 1 at index n+1 opens the first cycle; each stored 1 closes
    a cycle and opens the next.
    """
    n = len(word)
    if word[0] != 1:
        raise ValueError("cycle extraction requires w_1 = 1")
    ones = [i for i in range(1, n + 1) if word[i - 1] == 1]
    positions = [n + 1] + sorted(ones, reverse=True)
    lengths = tuple(positions[m] - positions[m + 1] for m in range(len(positions) - 1))
    counts = [0] * n
    for a in lengths:
        counts[a - 1] += 1
    return tuple(counts), len(lengths), lengths
