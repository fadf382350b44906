"""The smallest inputs each take their own branch: one value check per row.

Each row is (call, expected value); an expected value that is a callable
is the same quantity by another route, compared to rounding.
"""

import numpy as np
import pytest

from derange.chains import ChainKind, in_delta, word_law
from derange.coupling import delta_n, gamma_n
from derange.limitchain import _looks_convergent, phi, phi_eta, phi_eta_tilde, tv_prefix
from derange.moments import mean_cj, mean_cj_eta, mean_k, mean_k_eta
from derange.montecarlo import replicate_uniforms
from derange.numerics import kummer_m
from derange.params import PSequence, ThetaSequence

P = PSequence.eta(0.7)
X = ChainKind.x(P)

ROWS = [
    # a word of length 1 cannot end in a 0 below its closing 1
    ("in_delta of length 1", lambda: in_delta((1,)), False),
    ("word_law of a gap kind at n = 1", lambda: word_law(ChainKind.eta(1.0), 1)((1,)), 0.0),
    ("gamma_n at n = 1", lambda: gamma_n(ThetaSequence.eta_star(0.5), 1), 0.0),
    ("delta_n at n = 1", lambda: delta_n(0.5, n=1), 0.0),
    # the only derangement word at n = 2 or 3 is one circle
    ("mean_k_eta at n = 2", lambda: mean_k_eta(2, 0.7), lambda: mean_k(X, 2)),
    ("mean_k_eta at n = 3", lambda: mean_k_eta(3, 0.7), lambda: mean_k(X, 3)),
    ("mean_cj_eta at j = n = 2", lambda: mean_cj_eta(2, 2, 0.7), lambda: mean_cj(X, 2, 2)),
    ("phi_eta at i = 1", lambda: phi_eta(1, 0.7), lambda: phi(1, P)),
    ("phi_eta at i = 2", lambda: phi_eta(2, 0.7), lambda: phi(2, P)),
    ("phi_eta_tilde at i = 1", lambda: phi_eta_tilde(1, 0.7),
     lambda: phi(1, PSequence.eta_tilde(0.7))),
    ("phi_eta_tilde at i = 2", lambda: phi_eta_tilde(2, 0.7),
     lambda: phi(2, PSequence.eta_tilde(0.7))),
    ("tv_prefix direct at n = 1", lambda: tv_prefix(1, P, "direct"),
     lambda: tv_prefix(1, P, "theorem")),
    # no positive block sum: nothing to extrapolate
    ("_looks_convergent on zero blocks", lambda: _looks_convergent([0.0, 0.0, 0.0]), (True, 0.0)),
    ("kummer_m at z = 0", lambda: kummer_m(1.5, 2.5, 0.0), 1.0),
    ("replicate_uniforms of no draws",
     lambda: replicate_uniforms(7, np.arange(3, dtype=np.uint64), 0, 0).shape, (3, 0)),
]


@pytest.mark.parametrize("call, want", [r[1:] for r in ROWS], ids=[r[0] for r in ROWS])
def test_small_input_value(call, want):
    got = call()
    if callable(want):
        assert got == pytest.approx(want(), rel=1e-12, abs=1e-300)
    else:
        assert got == want and type(got) is type(want)
