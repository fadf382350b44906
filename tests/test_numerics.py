import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest
from scipy import special as sp

from derange.numerics import (
    EULER_GAMMA,
    AccuracySpec,
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
    for a, b, z in [(1.0, 2.5, -0.5), (0.7, 3.0, -2.0), (2.0, 4.0, 1.5)]:
        ref = sp.hyp1f1(a, b, z)
        assert kummer_m(a, b, z) == pytest.approx(ref, rel=1e-10)
        assert kummer_m(a, b, z, method="integral") == pytest.approx(ref, rel=1e-8)


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
    assert integrate(lambda x: x * x, (0.0, 1.0), acc) == pytest.approx(1 / 3, abs=1e-12)


def test_integrate_2d():
    acc = AccuracySpec()
    val = integrate(lambda x, y: x * y, ((0.0, 1.0), (0.0, 2.0)), acc)
    assert val == pytest.approx(1.0, abs=1e-9)


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
])
def test_commands_leave_special_functions_unloaded(argv):
    code = ("import contextlib, io, sys; from derange import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = cli.run_command({argv!r})\n"
            "print(code, 'scipy.special' in sys.modules)")
    assert _fresh_interpreter(code) == "0 False"
