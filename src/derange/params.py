"""Parameter sequences for the chains and the two maps linking them.

A ``ThetaSequence`` drives the independent-coin process (index i succeeds
with probability theta_i/(i-1+theta_i)); a ``PSequence`` drives the
derangement chain (index i continues with probability p_i).  Two distinct
correspondences connect them:

* conditional link: theta_i = (i-1) q_i / (p_i p_{i-1}), the choice under
  which conditioning the coin process on "no adjacent 1s" reproduces the
  chain law exactly;
* push-forward link: theta_i = (i-1) q_i / p_i, the choice under which
  erasing 11-patterns from the coin process reproduces the chain law.

Conventions throughout: theta_1 = 1, p_1 = 0, p_2 = 1.

Each family has one evaluator, valid from index 3, for a Python int or an
index array.  ``values(n)``, the array over 0..n, applies the conventions
and runs it over chunks of indices with one range check each; ``seq(i)``
runs it on one int in plain Python.  They agree bit for bit, except that
numpy's power may differ from the C library's in the last bit (``holst``).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np


def check_theta(theta: float) -> None:
    """Raise ValueError unless theta is a positive finite number."""
    if not (math.isfinite(theta) and theta > 0):
        raise ValueError("theta must be positive and finite")


_CHUNK = 1 << 14  # indices per evaluator call in values(n): bounds its temporaries


def _family(seq, i: np.ndarray) -> np.ndarray:
    """The family at an index array with every index >= 3, range-checked;
    the check rejects any inf or NaN, so numpy need not warn of them."""
    with np.errstate(all="ignore"):
        v = seq._eval(i)
    if np.ndim(v) == 0:  # a constant family
        v = np.full(i.shape, v, dtype=float)
    ok = (v > 0.0) & (v < seq._top)
    if not ok.all():
        k = int(np.argmin(ok))
        raise ValueError(seq._rule.format(i=int(i[k]), v=v[k]))
    return v


def _at(seq, i):
    """seq at index i: ``seq(i)`` for an int; for an index array, the
    conventions below index 3 and the family from 3 on, range-checked."""
    if not isinstance(i, np.ndarray):
        return seq(i)
    if i.size and i.min() >= 3:
        return _family(seq, i)
    v = np.take(seq._head, np.minimum(i, 2))
    top = i >= 3
    if top.any():
        v[top] = _family(seq, i[top])
    return v


def _call(seq, i: int) -> float:
    """seq at one int index, in plain Python: the conventions below index 3,
    the family from 3 on, range-checked."""
    if i < 1:
        raise ValueError("index must be >= 1")
    if i < 3:
        return seq._head[i]
    v = float(seq._eval(i))
    if not 0.0 < v < seq._top:
        raise ValueError(seq._rule.format(i=i, v=v))
    return v


def _values(seq, n: int) -> np.ndarray:
    """The sequence over 0..n as a float64 array (entry 0 unused, 0.0)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = np.empty(n + 1)
    out[:3] = seq._head[:n + 1]
    for lo in range(3, n + 1, _CHUNK):
        out[lo:lo + _CHUNK] = _family(seq, np.arange(lo, min(lo + _CHUNK, n + 1)))
    return out


class TableRangeError(IndexError, ValueError):
    """A tabulated sequence read past its table under the 'reject' rule;
    a ValueError, as every rejected input is, and an IndexError."""


def _tabulated(values: Sequence[float], tail_rule: str, name: str) -> Callable:
    """Evaluator reading ``values[i - 1]``; past the table the 'constant'
    rule repeats the last entry and 'reject' raises TableRangeError."""
    if tail_rule not in ("constant", "reject"):
        raise ValueError("tail_rule must be 'constant' or 'reject'")
    vals = [float(v) for v in values]
    table = np.array(vals)
    last = len(vals)

    def ev(i):
        if type(i) is int and i <= last:
            return vals[i - 1]
        top = int(np.max(i))
        if top > last and tail_rule == "reject":
            raise TableRangeError(f"{name} table has no entry for i={top}")
        return table[np.minimum(i, last) - 1]

    return ev


class ThetaSequence:
    """Evaluator i -> theta_i, positive and finite, with family metadata.

    Families:
      constant(theta)       theta_i = theta for i >= 3
      eta_star(theta)       theta_3 = theta, theta_i = theta(1 + theta/(i-2))
      holst(a, b, c)        theta_i = a(i-1)/(b - a + (i-1)^c)
      tabulated(values)     explicit table with a tail rule
    and the links ``conditional_theta`` and ``pushforward_theta`` of a
    PSequence.
    """

    def __init__(self, family: str, evaluator: Callable, theta2: float = 1.0, label: str = ""):
        self.family = family
        self.theta2 = float(theta2)
        self.label = label or family
        self._eval = evaluator
        self._head = (0.0, 1.0, self.theta2)  # entry 0 unused

    @classmethod
    def constant(cls, theta: float, theta2: float | None = None) -> "ThetaSequence":
        check_theta(theta)
        t2 = theta if theta2 is None else theta2
        return cls("constant", lambda i: theta, theta2=t2, label=f"constant({theta})")

    @classmethod
    def eta_star(cls, theta: float, theta2: float = 1.0) -> "ThetaSequence":
        """The sequence for which conditioning reproduces the playground chain."""
        check_theta(theta)
        if not (0 < theta2 <= 1):
            raise ValueError("theta2 must lie in (0, 1]")

        def ev(i):
            # the factor (i > 3) makes theta_3 = theta exactly
            return theta * (1.0 + (i > 3) * theta / (i - 2))

        seq = cls("eta_star", ev, theta2=theta2, label=f"eta_star({theta})")
        seq.theta = theta
        return seq

    @classmethod
    def holst(cls, a: float, b: float, c: float) -> "ThetaSequence":
        if a <= 0 or c <= 0:
            raise ValueError("require a > 0 and c > 0")

        def ev(i):  # a float power: an integer one would wrap on int64 arrays
            return a * (i - 1) / (b - a + (i - 1) ** float(c))

        return cls("holst", ev, theta2=ev(2), label=f"holst({a},{b},{c})")

    @classmethod
    def tabulated(cls, values: Sequence[float], tail_rule: str = "reject") -> "ThetaSequence":
        if any(v <= 0 for v in values[1:]):
            raise ValueError("all tabulated theta values must be positive")
        t2 = float(values[1]) if len(values) > 1 else 1.0
        return cls("tabulated", _tabulated(values, tail_rule, "theta"), theta2=t2,
                   label="tabulated")

    __call__ = _call
    values = _values
    _top = math.inf  # theta_i lies in (0, _top)
    _rule = "theta_{i} = {v} is not positive and finite"

    def with_theta2(self, theta2: float) -> "ThetaSequence":
        return ThetaSequence(self.family, self._eval, theta2=theta2, label=self.label)

    def scaled(self, s: float) -> "ThetaSequence":
        """Every theta_i with i >= 2 multiplied by s; theta_1 stays 1."""
        if s < 0:
            raise ValueError("scale must be nonnegative")
        return ThetaSequence(f"scaled({s})*{self.family}", lambda i: s * self._eval(i),
                             theta2=s * self.theta2, label=f"{s}*{self.label}")

    def coin_prob(self, i: int) -> float:
        """P(coin at index i shows 1) = theta_i/(i-1+theta_i); 1 at i=1."""
        if i == 1:
            return 1.0
        t = self(i)
        return t / (i - 1 + t)

    def coin_probs(self, n: int) -> np.ndarray:
        """``coin_prob`` over 0..n as a float64 array (entry 0 unused)."""
        return _coin_rows(np.arange(n + 1), self.values(n))[1]


def _coin_rows(r: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The coin rows (stay, h) at indices r with thetas t, as new arrays: the
    quotients (r-1)/d_r and theta_r/d_r, d_r = r - 1 + theta_r, with no 1 - c."""
    r1 = r - 1.0
    d = r1 + t
    return np.divide(r1, d, out=r1), np.divide(t, d, out=d)


class PSequence:
    """Evaluator i -> p_i with p_1 = 0, p_2 = 1, p_i in (0,1) for i >= 3."""

    def __init__(self, evaluator: Callable, family: str = "custom", label: str = ""):
        self.family = family
        self.label = label or family
        self._eval = evaluator

    @classmethod
    def eta(cls, theta: float) -> "PSequence":
        """p_i = (i-1)/(theta+i-1), the playground-game chain."""
        check_theta(theta)
        seq = cls(lambda i: (i - 1) / (theta + i - 1), family="eta", label=f"eta({theta})")
        seq.theta = theta
        return seq

    @classmethod
    def eta_tilde(cls, theta: float) -> "PSequence":
        """A theta-biased permutation conditioned to be a derangement:
        p_i = (theta+i-1) lambda_i / ((theta+i-1) lambda_i + theta lambda_{i-1})
        in its derangement probabilities, the conditional inverse of theta."""
        seq = _ConditionalInverse(ThetaSequence.constant(theta), "eta_tilde",
                                  f"eta_tilde({theta})")
        seq.theta = theta
        return seq

    @classmethod
    def from_theta_conditional(cls, thetaseq: ThetaSequence) -> "PSequence":
        """p_i = G_{i-1}/G_i, inverting the conditional link."""
        return _ConditionalInverse(thetaseq, "from_theta_conditional",
                                   f"cond<-{thetaseq.label}")

    @classmethod
    def from_theta_pushforward(cls, thetaseq: ThetaSequence) -> "PSequence":
        """p_i = (i-1)/(i-1+theta_i), inverting the push-forward link."""

        def ev(i):
            return (i - 1) / (i - 1 + _at(thetaseq, i))

        return cls(ev, family="from_theta_pushforward", label=f"push<-{thetaseq.label}")

    @classmethod
    def tabulated(cls, values: Sequence[float], tail_rule: str = "reject") -> "PSequence":
        return cls(_tabulated(values, tail_rule, "p"), family="tabulated", label="tabulated")

    __call__ = _call
    values = _values
    _top = 1.0  # p_i lies in (0, _top)
    _rule = "p_{i} = {v} must lie in (0, 1)"
    _head = (0.0, 0.0, 1.0)  # entry 0 unused

    def q(self, i: int) -> float:
        return 1.0 - self(i)


class _ConditionalInverse(PSequence):
    """p_i = G_{i-1}/G_i by the ratio recursion p_i = 1/(1 + theta_i
    p_{i-1}/(i-1)) from p_2 = 1, the G recursion divided by G_{i-1}.  The
    recursion is not pointwise, so the instance keeps the array it has run
    and runs it on when a larger index is asked for: any sequence of calls
    up to index n costs O(n)."""

    def __init__(self, thetaseq: ThetaSequence, family: str, label: str):
        super().__init__(lambda i: self._upto(i if type(i) is int else int(np.max(i)))[i],
                         family, label)
        self.thetaseq = thetaseq
        self._p, self._top = np.array([0.0, 0.0, 1.0]), 2  # p_0..p_top are run

    def _upto(self, n: int) -> np.ndarray:
        """The kept array, run on to index n if it stops short of it."""
        top = self._top
        if n > top:
            theta = memoryview(_at(self.thetaseq, np.arange(top + 1, n + 1)))
            if n >= self._p.size:  # at least double the room: growing runs stay O(n)
                self._p = np.concatenate((self._p[:top + 1], np.empty(max(n, 2 * top) - top)))
            p = memoryview(self._p)
            prev = p[top]
            for k in range(top + 1, n + 1):
                prev = 1.0 / (1.0 + theta[k - top - 1] * prev / (k - 1))
                p[k] = prev
            self._top = n
        return self._p

    def values(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("n must be nonnegative")
        return self._upto(n)[:n + 1].copy()


def conditional_theta(p: PSequence, theta2: float = 1.0) -> ThetaSequence:
    """theta_i = (i-1) q_i / (p_i p_{i-1}), the ThetaSequence conditionally
    linked to p (index 2 value configurable).  A conditional inverse gives
    back the sequence it was built from, exactly and with no O(n) p call."""
    if isinstance(p, _ConditionalInverse):
        return p.thetaseq.with_theta2(theta2)

    def ev(i):
        if isinstance(i, np.ndarray):  # p once per index, over min(i) - 1 .. max(i)
            lo = int(i.min()) - 1
            pw = _at(p, np.arange(lo, int(i.max()) + 1))
            k = i - lo
            pi, prev = pw[k], pw[k - 1]
        else:
            pi, prev = p(i), p(i - 1)
        return (i - 1) * (1.0 - pi) / (pi * prev)

    return ThetaSequence("conditional", ev, theta2=theta2, label=f"cond<-{p.label}")


def pushforward_theta(p: PSequence, theta2: float = 1.0) -> ThetaSequence:
    """theta_i = (i-1) q_i / p_i, the ThetaSequence push-forward linked to p."""
    def ev(i):
        pi = _at(p, i)
        return (i - 1) * (1.0 - pi) / pi

    return ThetaSequence("pushforward", ev, theta2=theta2, label=f"push<-{p.label}")
