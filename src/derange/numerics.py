"""Special functions and quadrature shared by all closed-form evaluations.

Everything here is a pure function of its arguments.  Hypergeometric series
are summed by forward recurrence on the term ratio.  Integrals over an
interval or a rectangle use one tanh-sinh (double-exponential) rule
(Takahasi & Mori, Publ. RIMS 9, 1974), evaluated as numpy array sums, which
absorbs integrable endpoint singularities.  ``scipy.special`` is imported
inside the functions that call it, here and across the package: importing it
costs more than most single evaluations, and importing the package loads
numpy only.  No module loads ``scipy.integrate``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


class NumericsError(Exception):
    """Raised when a numeric routine cannot meet its accuracy contract."""


def overflow_is_numerics_error(fn):
    """fn raising NumericsError where a float operation in it raises
    OverflowError: a value past the float range meets no accuracy contract."""
    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except OverflowError as exc:
            raise NumericsError(f"{fn.__name__} overflows the float range: {exc}") from exc
    return checked


@dataclass(frozen=True)
class AccuracySpec:
    """Tolerances and budgets for series summation and quadrature.

    ``quad_max_depth`` counts tanh-sinh levels, steps h = 1/2 ... 2^-depth."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_terms: int = 10**6
    quad_max_depth: int = 7

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be strictly positive")
        if self.max_terms < 100:
            raise ValueError("max_terms must be at least 100")
        if not 0 < self.quad_max_depth <= 10:
            raise ValueError("quad_max_depth must be between 1 and 10")


DEFAULT_ACC = AccuracySpec()

def rising_factorial(x: float, m: int) -> float:
    """x(x+1)...(x+m-1), the Pochhammer symbol, in linear space.

    Raises OverflowError when the product leaves double range; callers
    needing large m should use :func:`log_rising_factorial`.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    out = 1.0
    for k in range(m):
        out *= x + k
        if math.isinf(out):
            raise OverflowError(
                f"rising_factorial({x}, {m}) overflows; use log_rising_factorial"
            )
    return out


def log_rising_factorial(x: float, m: int) -> tuple[float, int]:
    """(log |x_(m)|, sign) of the rising factorial, stable for m up to 1e6.

    The sign is 0 when a factor is exactly zero.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m == 0:
        return 0.0, 1
    from scipy import special as _sp

    if x > 0:
        return float(_sp.gammaln(x + m) - _sp.gammaln(x)), 1
    # Negative or zero start: peel off the nonpositive factors explicitly.
    log_abs = 0.0
    sign = 1
    for k in range(m):
        f = x + k
        if f == 0.0:
            return -math.inf, 0
        if f > 0:
            # the remaining factors are all positive
            rest = m - k
            return (
                log_abs + float(_sp.gammaln(f + rest) - _sp.gammaln(f)),
                sign,
            )
        log_abs += math.log(-f)
        sign = -sign
    return log_abs, sign


def kummer_m(
    a: float, b: float, z: float, acc: AccuracySpec = DEFAULT_ACC, method: str = "series"
) -> float:
    """Confluent hypergeometric function M(a, b, z) = sum a_(j) z^j / (b_(j) j!)."""
    if b <= 0 and b == int(b):
        raise ValueError("b must not be a nonpositive integer")
    if method == "series":
        return _pfq_series((a,), (b,), z, acc)[0]
    if method == "integral":
        if not (b > a > 0):
            raise ValueError("integral representation requires b > a > 0")
        c = math.exp(math.lgamma(b) - math.lgamma(a) - math.lgamma(b - a))

        # the half above 1/2 reflected (u -> 1 - u), so that both power
        # factors are singular only at 0, where the nodes are exact
        def f(u):
            v = 1.0 - u
            return (np.exp(z * u) * u ** (a - 1.0) * v ** (b - a - 1.0)
                    + np.exp(z * v) * v ** (a - 1.0) * u ** (b - a - 1.0))

        return c * integrate(f, (0.0, 0.5), acc)[0]
    raise ValueError(f"unknown method {method!r}")


def generalized_pfq(
    a: tuple[float, ...], b: tuple[float, ...], z: float, acc: AccuracySpec = DEFAULT_ACC
) -> float:
    """Generalized hypergeometric series pFq(a; b; z)."""
    for bi in b:
        if bi <= 0 and bi == int(bi):
            raise ValueError("no lower parameter may be a nonpositive integer")
    if len(a) > len(b) + 1:
        raise ValueError("divergent series: p > q+1")
    if len(a) == len(b) + 1 and abs(z) >= 1 and z != 0:
        raise ValueError("p = q+1 requires |z| < 1")
    return _pfq_series(tuple(a), tuple(b), z, acc)[0]


def _pfq_series(a, b, z, acc) -> tuple[float, float]:
    """Sum the pFq series by the term-ratio recurrence.

    Stops when three consecutive terms are below abs_tol relative to the
    partial sum.  Returns (sum, magnitude of the last term kept), the
    latter a truncation estimate for a series whose terms alternate and
    shrink.
    """
    if z == 0.0:
        return 1.0, 0.0
    term = 1.0
    total = 1.0
    small = 0
    for j in range(acc.max_terms):
        num = 1.0
        for ai in a:
            num *= ai + j
        den = 1.0
        for bi in b:
            den *= bi + j
        den *= j + 1
        term *= num * z / den
        total += term
        if abs(term) < acc.abs_tol * max(1.0, abs(total)):
            small += 1
            if small >= 3:
                return total, abs(term)
        else:
            small = 0
    raise NumericsError(
        f"hypergeometric series did not converge in {acc.max_terms} terms; "
        f"partial sum {total}, last term {term}"
    )


def beta_fn(z1, z2) -> float:
    """Beta function B(z1, z2) = Gamma(z1)Gamma(z2)/Gamma(z1+z2).

    Accepts complex-conjugate pairs, for which the value is real and is
    returned as a real number.
    """
    z1c, z2c = complex(z1), complex(z2)
    if z1c.real <= 0 or z2c.real <= 0:
        raise ValueError("beta_fn requires Re(z1), Re(z2) > 0")
    from scipy import special as _sp

    if z1c.imag == 0 and z2c.imag == 0:
        return float(_sp.beta(z1c.real, z2c.real))
    if abs(z1c - z2c.conjugate()) <= 1e-12 * max(1.0, abs(z1c)):
        # |Gamma(z1)|^2 / Gamma(2 Re z1), which is real.
        lg = _sp.loggamma(z1c)
        return float(math.exp(2.0 * lg.real - _sp.gammaln(2.0 * z1c.real)))
    out = np.exp(_sp.loggamma(z1c) + _sp.loggamma(z2c) - _sp.loggamma(z1c + z2c))
    if abs(out.imag) > 1e-10 * abs(out):
        raise ValueError("beta_fn of a non-conjugate complex pair is not real")
    return float(out.real)


def integrate(f, domain, acc: AccuracySpec = DEFAULT_ACC) -> tuple[float, float]:
    """Tanh-sinh quadrature over an interval (a, b) or rectangle ((a,b),(c,d)).

    Returns (value, error): the difference of the last two levels, at least
    a rounding unit.  The integrand takes arrays, ``f(x)`` or
    ``f(x[:, None], y[None, :])``, once per level (per ``_BLOCK`` points on
    a rectangle).  The step halves from h = 1/2, for at most
    ``acc.quad_max_depth`` levels, until two levels agree within
    max(abs_tol, rel_tol |I|).  Nodes crowd double-exponentially into the
    ends, which absorbs integrable power-law and log singularities there;
    keep a singular end at 0, where the nodes are exact.  Raises
    NumericsError when the levels do not agree, or when the weighted
    integrand at the end nodes is not negligible (mass beyond the nodes).
    """
    intervals = (domain,) if np.isscalar(domain[0]) else domain
    if any(hi < lo for lo, hi in intervals):
        raise ValueError("empty integration interval")
    prev = None
    for level in range(1, acc.quad_max_depth + 1):
        total, edge = _tanh_sinh_sum(f, intervals, 0.5**level)
        if not math.isfinite(total):
            raise NumericsError(f"integrand is not finite at the nodes (sum {total})")
        tol = max(acc.abs_tol, acc.rel_tol * abs(total))
        if edge > tol:
            raise NumericsError(f"mass beyond the end nodes: their terms sum to {edge:.3g}")
        if prev is not None and abs(total - prev) <= tol:
            return total, max(abs(total - prev), math.ulp(total))
        prev = total
    raise NumericsError(
        f"tanh-sinh levels did not converge in {acc.quad_max_depth} halvings; "
        f"last two {prev:.15g} and {total:.15g}"
    )


# Node range |t| <= 6: the end nodes sit exp(-pi sinh 6) ~ 1e-275 from the
# endpoints, near the smallest normal double, and exp(pi sinh t) stays finite.
_T_MAX = 6.0
# Integrand points per call on a rectangle, which bounds the temporaries.
_BLOCK = 1 << 18


def _nodes(lo, hi, h):
    """Tanh-sinh nodes on (lo, hi) at step h and their weights without h.

    A node is placed by its offset from the nearer endpoint, so the nodes
    next to lo keep their full relative precision.
    """
    t = h * np.arange(-round(_T_MAX / h), round(_T_MAX / h) + 1)
    off = 1.0 / (1.0 + np.exp(np.pi * np.abs(np.sinh(t))))
    x = np.where(t < 0, lo + (hi - lo) * off, hi - (hi - lo) * off)
    return x, (hi - lo) * np.pi * np.cosh(t) * off * (1.0 - off)


def _tanh_sinh_sum(f, intervals, h):
    """The level-h sum and the weighted integrand summed over the end nodes."""
    (x, wx), *rest = [_nodes(lo, hi, h) for lo, hi in intervals]
    if not rest:
        g = wx * f(x)
        return h * float(g.sum()), abs(g[0]) + abs(g[-1])
    y, wy = rest[0]
    rows = max(1, _BLOCK // y.size)
    by_row = np.empty(x.size)  # h * sum_j wy_j f(x_i, y_j)
    by_col = np.zeros(y.size)  # h * sum_i wx_i f(x_i, y_j)
    for s in range(0, x.size, rows):
        xs = x[s:s + rows]
        vals = np.broadcast_to(f(xs[:, None], y[None, :]), (xs.size, y.size))
        by_row[s:s + rows] = h * (vals @ wy)
        by_col += h * (wx[s:s + rows] @ vals)
    edge = (abs(wx[0] * by_row[0]) + abs(wx[-1] * by_row[-1])
            + abs(wy[0] * by_col[0]) + abs(wy[-1] * by_col[-1]))
    return h * float(wx @ by_row), edge


def harmonic_h(y: float) -> float:
    """Generalized harmonic number H_y = int_0^1 (1 - x^y)/(1 - x) dx.

    Equals digamma(y+1) + Euler's gamma; matches sum 1/i at integer y.
    """
    if y <= -1:
        raise ValueError("harmonic_h requires y > -1")
    from scipy import special as _sp

    return float(_sp.digamma(y + 1.0) + np.euler_gamma)


EULER_GAMMA = float(np.euler_gamma)
