"""Chain definitions, exact path probabilities, samplers, cycle extraction.

Two families of {0,1}-valued chains run from index n+1 (value 1, never
stored) down to index 1:

* derangement chains (tags X, ETA, ETA_TILDE): inhomogeneous two-state
  chains whose words land in the no-adjacent-1s set Delta_n;
* independent-coin chains (tags Y, XI_TILDE): index i carries a 1 with
  probability theta_i/(i-1+theta_i), independently.

Words are stored ascending by chain index (w_1 first); string serialization
reverses to the visual top-down order.  The signed variant (tag SIGNED)
carries a +/- orientation on each 0-step and extends to a signed
permutation by uniform labeling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import PSequence, ThetaSequence

_DERANGEMENT_TAGS = ("X", "ETA", "ETA_TILDE")
_COIN_TAGS = ("Y", "XI_TILDE")

# The three steps of a signed word.
SIGNED_STATES = ("+0", "-0", "1")


class ChainKind:
    """Tagged chain family with its parameters.

    Use the classmethod constructors; every kind exposes either an
    effective PSequence (derangement family) or ThetaSequence (coin
    family).
    """

    def __init__(self, tag: str, p: PSequence | None = None,
                 thetaseq: ThetaSequence | None = None,
                 kappa: float | None = None):
        self.tag = tag
        self.p = p
        self.thetaseq = thetaseq
        self.kappa = kappa

    @classmethod
    def x(cls, p: PSequence) -> "ChainKind":
        return cls("X", p=p)

    @classmethod
    def eta(cls, theta: float) -> "ChainKind":
        return cls("ETA", p=PSequence.eta(theta))

    @classmethod
    def eta_tilde(cls, theta: float) -> "ChainKind":
        """Derangement chain whose law matches a derangement-conditioned
        theta-biased permutation (``PSequence.eta_tilde``)."""
        return cls("ETA_TILDE", p=PSequence.eta_tilde(theta))

    @classmethod
    def y(cls, thetaseq: ThetaSequence) -> "ChainKind":
        return cls("Y", thetaseq=thetaseq)

    @classmethod
    def xi_tilde(cls, theta: float) -> "ChainKind":
        return cls("XI_TILDE", thetaseq=ThetaSequence.constant(theta))

    @classmethod
    def signed(cls, p: PSequence, kappa: float) -> "ChainKind":
        if not (0.0 <= kappa <= 1.0):
            raise ValueError("kappa must lie in [0, 1]")
        return cls("SIGNED", p=p, kappa=kappa)

    @property
    def is_derangement(self) -> bool:
        return self.tag in _DERANGEMENT_TAGS

    @property
    def is_coin(self) -> bool:
        return self.tag in _COIN_TAGS

    def __repr__(self):
        return f"ChainKind({self.tag})"


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
        for s in self.steps:
            if s not in SIGNED_STATES:
                raise ValueError(f"invalid signed step {s!r}")

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

    def n(self) -> int:
        return sum(len(c) for c in self.circles)


# ---------------------------------------------------------------------------
# transition structure

def transition_matrix(kind: ChainKind, r: int, n: int) -> np.ndarray:
    """Row-stochastic one-step matrix used when generating the value at
    index r (rows indexed by the value at index r+1)."""
    if not (1 <= r <= n):
        raise ValueError(f"index r={r} outside 1..{n}")
    if kind.is_derangement:
        p = kind.p
        if r == n:
            return np.array([[1.0, 0.0], [1.0, 0.0]])
        if r == 1:
            return np.array([[0.0, 1.0], [0.0, 1.0]])
        pr = p(r)
        return np.array([[pr, 1.0 - pr], [1.0, 0.0]])
    if kind.is_coin:
        c = kind.thetaseq.coin_prob(r)
        return np.array([[1.0 - c, c], [1.0 - c, c]])
    raise ValueError(f"unsupported kind {kind.tag}")


# ---------------------------------------------------------------------------
# sampling

def _jump_words(kind: ChainKind, n: int, seed: int, replicates: range, lead: int = 0):
    """Yield (leading draws, 0/1 word) for each replicate in ``replicates``,
    drawn by the jump sampler of ``montecarlo`` over that replicate's
    stream; the word is a list in ascending chain index."""
    from . import montecarlo

    h = montecarlo._one_probs(kind, n)
    for _, draws, ones in montecarlo._sample(kind, h, replicates, seed, lead):
        bits = np.zeros((ones.shape[0], n + 1), dtype=np.int8)
        np.put_along_axis(bits, ones, 1, axis=1)  # padding lands in column 0
        yield from zip(draws, bits[:, 1:].tolist())


def sample_paths(kind: ChainKind, n: int, seed: int, replicates: range) -> list:
    """The words of replicates ``replicates`` of run ``seed``; word r is
    ``sample_path(kind, n, seed, r)``."""
    if kind.tag == "SIGNED":
        pairs = generate_signed_many(n, kind.p, kind.kappa, seed, replicates)
        return [word for word, _ in pairs]
    return [tuple(word) for _, word in _jump_words(kind, n, seed, replicates)]


def sample_path(kind: ChainKind, n: int, seed: int, rep: int = 0):
    """Replicate ``rep`` of run ``seed`` of the chain law; deterministic
    given (kind, n, seed, rep)."""
    return sample_paths(kind, n, seed, range(rep, rep + 1))[0]


def generate_signed_many(n: int, p: PSequence, kappa: float, seed: int,
                         replicates: range) -> list:
    """(signed word, uniformly labeled signed permutation) of each replicate
    in ``replicates`` of run ``seed``.

    A replicate's stream gives n orientation uniforms (the 0-step at index
    i is '+0' when the i-th is below kappa), then n labeling uniforms (the
    label order is their argsort), then the jump uniforms of its word.
    """
    out = []
    for lead, bits in _jump_words(ChainKind.signed(p, kappa), n, seed, replicates, 2 * n):
        steps = tuple(np.where(bits, "1", np.where(lead[:n] < kappa, "+0", "-0")).tolist())
        labels = (np.argsort(lead[n:]) + 1).tolist()
        # index i's label sign comes from the step at index i+1
        circles = []
        current = []
        above = "1"  # virtual step at index n+1
        for idx in range(n, 0, -1):
            lab = labels[n - idx]
            if above == "1":
                if current:
                    circles.append(tuple(current))
                current = [lab]  # circle leader, always positive
            elif above == "+0":
                current.append(lab)
            else:
                current.append(-lab)
            above = steps[idx - 1]
        circles.append(tuple(current))
        out.append((SignedWord(steps=steps, kappa=kappa),
                    SignedPermutation(circles=tuple(circles))))
    return out


def generate_signed(n: int, p: PSequence, kappa: float, seed: int, rep: int = 0):
    """Replicate ``rep`` of run ``seed``: a signed word and its uniformly
    labeled signed permutation."""
    return generate_signed_many(n, p, kappa, seed, range(rep, rep + 1))[0]


# ---------------------------------------------------------------------------
# exact evaluation

def path_probability(kind: ChainKind, word, n: int | None = None,
                     method: str = "auto") -> float:
    """Exact probability of a word under the chain law; 0 off-support."""
    if n is None:
        n = len(word)
    if len(word) != n:
        raise ValueError("word length must equal n")
    if kind.is_coin:
        if word[0] != 1:
            return 0.0
        if method in ("auto", "product"):
            prob = 1.0
            for i in range(2, n + 1):
                c = kind.thetaseq.coin_prob(i)
                prob *= c if word[i - 1] == 1 else 1.0 - c
            return prob
        if method == "closed_form":
            t = kind.thetaseq
            log_p = math.lgamma(n) - t.bracket_product_log(n) + math.log(t.theta1)
            for i in range(2, n + 1):
                if word[i - 1] == 1:
                    log_p += math.log(t(i)) - math.log(i - 1)
            return math.exp(log_p)
        raise ValueError(f"unknown method {method!r}")
    if kind.is_derangement:
        if not in_delta(word):
            return 0.0
        prob = 1.0
        prev = 1
        for r in range(n, 0, -1):
            row = transition_matrix(kind, r, n)[prev]
            bit = word[r - 1]
            prob *= row[bit]
            prev = bit
        return prob
    raise ValueError(f"unsupported kind {kind.tag}")


def marginals(pv: np.ndarray) -> np.ndarray:
    """P(value at index i is 1) at horizon n = pv.size - 1, where pv is
    ``p.values(n)``, as an array indexed by i.

    A 1 at index i needs a 0 at i+1 and then a 1 from the coin with
    probability q_i, so m_i = q_i (1 - m_{i+1}), started from the virtual
    m_{n+1} = 1; m_n = 0 because index n always follows that virtual 1.
    Entry 0 is unused (0.0) and entry n+1 is the virtual 1.
    """
    n = pv.size - 1
    q = (1.0 - pv).tolist()
    m = [0.0] * (n + 2)
    m[n + 1] = 1.0
    for i in range(n - 1, 0, -1):
        m[i] = q[i] * (1.0 - m[i + 1])
    return np.array(m)


def marginal_one(kind: ChainKind, i: int, horizon: int) -> float:
    """P(value at index i is 1) at the finite horizon n."""
    if kind.is_coin:
        return kind.thetaseq.coin_prob(i)
    if horizon == math.inf:
        raise ValueError("marginal_one needs a finite horizon; the n -> infinity "
                         "limit is limitchain.phi")
    n = int(horizon)
    if not (1 <= i <= n):
        raise ValueError(f"index {i} outside 1..{n}")
    return float(marginals(kind.p.values(n))[i])


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
