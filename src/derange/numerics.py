"""Special functions and quadrature shared by all closed-form evaluations.

Everything here is a pure function of its arguments.  Hypergeometric series
are summed by forward recurrence on the term ratio; integrals go through an
adaptive quadrature wrapper that splits off endpoint singularities.
``scipy.special`` and ``scipy.integrate`` are imported inside the functions
that call them, here and across the package: importing either costs more
than most single evaluations, and importing the package loads numpy only.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np


class NumericsError(Exception):
    """Raised when a numeric routine cannot meet its accuracy contract."""


@dataclass(frozen=True)
class AccuracySpec:
    """Tolerances and budgets for series summation and quadrature."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_terms: int = 10**6
    quad_max_depth: int = 30

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be strictly positive")
        if self.max_terms < 100:
            raise ValueError("max_terms must be at least 100")
        if self.quad_max_depth <= 0:
            raise ValueError("quad_max_depth must be strictly positive")


DEFAULT_ACC = AccuracySpec()

# Offset used to detach an endpoint singularity before integrating.
_ENDPOINT_EPS = 1e-8


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
        return _pfq_series((a,), (b,), z, acc)
    if method == "integral":
        if not (b > a > 0):
            raise ValueError("integral representation requires b > a > 0")
        from scipy import special as _sp

        c = math.exp(_sp.gammaln(b) - _sp.gammaln(a) - _sp.gammaln(b - a))
        val = integrate(
            lambda u: math.exp(z * u) * u ** (a - 1.0) * (1.0 - u) ** (b - a - 1.0),
            (0.0, 1.0),
            acc,
        )
        return c * val
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
    return _pfq_series(tuple(a), tuple(b), z, acc)


def _pfq_series(a, b, z, acc):
    """Sum the pFq series by the term-ratio recurrence.

    Stops when three consecutive terms are below abs_tol relative to the
    partial sum.
    """
    if z == 0.0:
        return 1.0
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
                return total
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


def integrate(f, domain, acc: AccuracySpec = DEFAULT_ACC) -> float:
    """Adaptive quadrature over an interval (a, b) or rectangle ((a,b),(c,d)).

    Endpoint singularities (at most integrable power laws) are handled by
    splitting a small collar off each endpoint.  Rectangles are integrated
    as nested one-dimensional integrals.  Deterministic for fixed inputs.
    """
    if len(domain) == 2 and np.isscalar(domain[0]):
        return _quad1d(f, float(domain[0]), float(domain[1]), acc)
    (ax, bx), (ay, by) = domain
    # inner integrals are noisy at their own tolerance level, so the outer
    # pass must not chase accuracy below that noise floor
    inner_acc = AccuracySpec(
        abs_tol=max(acc.abs_tol * 1e-2, 5e-14),
        rel_tol=max(acc.rel_tol * 1e-2, 5e-13),
        max_terms=acc.max_terms,
        quad_max_depth=acc.quad_max_depth,
    )
    outer_acc = AccuracySpec(
        abs_tol=max(acc.abs_tol, 1e-9),
        rel_tol=max(acc.rel_tol, 1e-9),
        max_terms=acc.max_terms,
        quad_max_depth=acc.quad_max_depth,
    )
    return _quad1d(
        lambda y: _quad1d(lambda x: f(x, y), float(ax), float(bx), inner_acc),
        float(ay),
        float(by),
        outer_acc,
    )


def _quad1d(f, a, b, acc):
    # scipy.integrate also pulls in scipy.optimize, sparse and linalg
    from scipy import integrate as _sciint

    if not (b > a):
        if b == a:
            return 0.0
        raise ValueError("empty integration interval")
    limit = min(2**acc.quad_max_depth, 1000)
    threshold = lambda t: max(acc.abs_tol, acc.rel_tol * abs(t)) * 1e3
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", _sciint.IntegrationWarning)
        total, err = _sciint.quad(
            f, a, b, epsabs=acc.abs_tol, epsrel=acc.rel_tol, limit=limit
        )
        if err <= threshold(total):
            return total
        # retry with endpoint collars split off, which tames power-law
        # endpoint singularities the whole-interval pass struggled with
        width = b - a
        eps = _ENDPOINT_EPS * width
        total2 = 0.0
        err2 = 0.0
        for lo, hi in [(a, a + eps), (a + eps, b - eps), (b - eps, b)]:
            v, e = _sciint.quad(
                f, lo, hi, epsabs=acc.abs_tol, epsrel=acc.rel_tol, limit=limit
            )
            total2 += v
            err2 += e
    if err2 < err:
        total, err = total2, err2
    if err > threshold(total):
        raise NumericsError(
            f"quadrature error bound {err:.3g} too large for estimate {total:.12g}"
        )
    return total


def harmonic_h(y: float) -> float:
    """Generalized harmonic number H_y = int_0^1 (1 - x^y)/(1 - x) dx.

    Equals digamma(y+1) + Euler's gamma; matches sum 1/i at integer y.
    """
    if y <= -1:
        raise ValueError("harmonic_h requires y > -1")
    from scipy import special as _sp

    return float(_sp.digamma(y + 1.0) + np.euler_gamma)


EULER_GAMMA = float(np.euler_gamma)
