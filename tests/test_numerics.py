import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import special as sp

from derange.numerics import (
    EULER_GAMMA,
    AccuracySpec,
    NumericsError,
    beta_fn,
    generalized_pfq,
    harmonic_h,
    integrate,
    kummer_m,
    log_rising_factorial,
    rising_factorial,
)


def test_rising_factorial_vs_scipy():
    for a in (0.3, 1.0, 2.5):
        for k in range(0, 8):
            assert rising_factorial(a, k) == pytest.approx(sp.poch(a, k), rel=1e-13)
            log_abs, sign = log_rising_factorial(a, k)
            assert sign * math.exp(log_abs) == pytest.approx(sp.poch(a, k), rel=1e-12)
    # negative start: sign tracking
    log_abs, sign = log_rising_factorial(-1.5, 3)
    assert sign * math.exp(log_abs) == pytest.approx(sp.poch(-1.5, 3), rel=1e-12)


def test_kummer_vs_scipy():
    # the integrand u^{a-1} (1-u)^{b-a-1} e^{zu} is singular at an end
    # wherever a < 1 or b - a < 1
    for a, b, z in [(1.0, 2.5, -0.5), (0.7, 3.0, -2.0), (2.0, 4.0, 1.5), (0.05, 3.0, -1.0),
                    (1.0, 1.2, 0.5), (0.3, 0.8, 2.0), (0.5, 1.5, -1.0), (3.0, 3.05, 1.0)]:
        ref = sp.hyp1f1(a, b, z)
        assert kummer_m(a, b, z) == pytest.approx(ref, rel=1e-10)
        assert kummer_m(a, b, z, method="integral") == pytest.approx(ref, rel=1e-12)


def test_kummer_integral_raises_when_truncated():
    # at a = 1e-4 most of the mass of u^{a-1} lies below the node nearest 0
    with pytest.raises(NumericsError, match="end nodes"):
        kummer_m(1e-4, 1.0, 0.5, method="integral")


def test_generalized_pfq_reduces_to_kummer():
    # 1F1 as a special case of the general series
    val = generalized_pfq((0.8,), (2.3,), -1.1)
    assert val == pytest.approx(sp.hyp1f1(0.8, 2.3, -1.1), rel=1e-11)


def test_beta_fn_real():
    assert beta_fn(2.0, 3.0) == pytest.approx(sp.beta(2.0, 3.0), rel=1e-13)


def test_beta_fn_conjugate_pair_is_real():
    z1 = complex(1.5, 0.8)
    z2 = z1.conjugate()
    val = beta_fn(z1, z2)
    # |Gamma(z1)|^2 / Gamma(z1 + z2) -- must be real and positive
    import scipy.special as s
    ref = abs(complex(s.gamma(z1))) ** 2 / s.gamma(2 * z1.real)
    assert isinstance(val, float)
    assert val == pytest.approx(ref, rel=1e-12)


def test_beta_fn_general_complex_pair():
    # a pair just off conjugate misses the |Gamma|^2 branch; its value is
    # real to rounding and is returned, and a far-off pair is rejected
    z1 = complex(1.5, 0.8)
    z2 = z1.conjugate() + 1e-11
    ref = complex(mpmath.beta(z1, z2))
    assert abs(ref.imag) < 1e-10 * abs(ref)
    assert beta_fn(z1, z2) == pytest.approx(ref.real, rel=1e-12)
    with pytest.raises(ValueError, match="not real"):
        beta_fn(complex(1.0, 1.0), complex(2.0, -0.5))


def test_integrate_1d():
    acc = AccuracySpec()
    val, err = integrate(lambda x: x * x, (0.0, 1.0), acc)
    assert val == pytest.approx(1 / 3, abs=1e-12)
    # the error reported is the last level difference, within the tolerance
    assert 0 < err <= max(acc.abs_tol, acc.rel_tol * val)


def test_integrate_2d():
    acc = AccuracySpec()
    val, err = integrate(lambda x, y: x * y, ((0.0, 1.0), (0.0, 2.0)), acc)
    assert val == pytest.approx(1.0, abs=1e-9)
    assert 0 < err <= acc.abs_tol


@pytest.mark.parametrize("domain, f", [
    ((0.0, 1.0), lambda x: np.exp(-x) / np.sqrt(x)),
    (((0.0, 1.0), (0.0, 2.0)), lambda x, y: np.log(x) * np.exp(x * y)),
], ids=["interval", "rectangle"])
def test_integrate_calls_integrand_once_per_level(domain, f):
    # one array call per level, each on the whole finer node set: a slide
    # back to per-point or per-row Python calls repeats or shrinks sizes
    sizes = []

    def spy(*args):
        sizes.append(np.broadcast(*args).size)
        return f(*args)

    integrate(spy, domain)
    assert 2 <= len(sizes) <= AccuracySpec().quad_max_depth
    assert sizes == sorted(set(sizes)) and sizes[0] >= 25


def test_integrate_endpoint_singularities():
    # x^{-1/2} and log x at 0, with their exact values
    val, err = integrate(lambda x: 1.0 / np.sqrt(x), (0.0, 4.0))
    assert val == pytest.approx(4.0, rel=1e-13) and err <= 1e-10 * 4.0
    val, _ = integrate(np.log, (0.0, 1.0))
    assert val == pytest.approx(-1.0, rel=1e-13)


def test_integrate_raises_when_levels_disagree():
    # a jump inside the interval stalls the level differences
    with pytest.raises(NumericsError, match="did not converge"):
        integrate(lambda x: (x > 1 / 3).astype(float), (0.0, 1.0),
                  AccuracySpec(quad_max_depth=5))


def test_harmonic_h():
    # generalized harmonic number via digamma; integers match partial sums
    for m in range(1, 8):
        assert harmonic_h(m) == pytest.approx(
            math.fsum(1 / k for k in range(1, m + 1)), rel=1e-13
        )
    assert harmonic_h(0) == pytest.approx(0.0, abs=1e-14)


def test_euler_gamma():
    assert EULER_GAMMA == pytest.approx(0.5772156649015329, abs=1e-15)


def test_cli_import_leaves_quadrature_unloaded():
    # scipy.integrate loads scipy.optimize, sparse and linalg; only
    # quadrature needs it, so it is imported on first use
    code = "import sys, derange.cli; print('scipy.integrate' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_integral_methods_leave_quadrature_unloaded():
    code = ("import sys; from derange import kummer_m, mean_cj_eta_limit\n"
            "mean_cj_eta_limit(0.5, 3, method='integral')\n"
            "kummer_m(0.3, 0.8, 2.0, method='integral')\n"
            "print('scipy.integrate' in sys.modules)")
    assert _fresh_interpreter(code) == "False"


def _fresh_interpreter(code):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_package_import_leaves_scipy_unloaded():
    # scipy.special is imported inside the functions that call it, so the
    # package, the CLI, the sampler and the oracle load no scipy module
    code = ("import sys, derange, derange.cli, derange.montecarlo, derange.oracle; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _fresh_interpreter(code) == "[]"


@pytest.mark.parametrize("argv", [
    ["table2"],
    ["sample", "--kind", "signed", "--n", "20", "--reps", "5"],
    ["table1"],
    ["exact", "--quantity", "delta_n", "--n", "50", "--theta", "0.5"],
    ["exact", "--quantity", "mean_cj_eta", "--n", "7", "--j", "7", "--theta", "0.5"],
    ["signed", "--quantity", "omega"],
    ["signed", "--quantity", "cki", "--n", "8"],
    ["signed", "--quantity", "cstar", "--n", "8"],
    ["signed", "--quantity", "lambda", "--n", "10"],
    ["signed", "--quantity", "ordered_star", "--astar", "1,2", "--n", "8"],
    ["verify", "--suite", "all", "--n", "8"],
])
def test_commands_leave_special_functions_unloaded(argv):
    code = ("import contextlib, io, sys; from derange import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = cli.run_command({argv!r})\n"
            "print(code, 'scipy.special' in sys.modules)")
    assert _fresh_interpreter(code) == "0 False"
