"""Every input guard raises its documented error.

One row per guard: (call, exception type, message fragment).  Each call
is cheap, so the table stays well under a second.
"""

import io
import math
import re

import numpy as np
import pytest

from derange import oracle
from derange.chains import (
    ChainKind,
    SignedWord,
    cycle_statistics,
    generate_signed_many,
    marginal_one,
    transition_matrix,
)
from derange.cli import command_parser, emit_report
from derange.coupling import (
    delta_n,
    erase11,
    g_values,
    gamma_n,
    joint_cycle_counts,
    ordered_cycle_prefix_prob,
)
from derange.dist import DistTable, compare_laws
from derange.limitchain import (
    LimitContext,
    delta_i_inf,
    gamma_inf,
    phi,
    tv_prefix,
    xinf_transition,
)
from derange.moments import (
    cov_eta,
    eta_abar,
    lambda_esf,
    mean_cj_eta,
    mean_cj_eta_limit,
    mean_k,
    mean_k_eta,
    mean_k_eta_limit,
    second_moments,
    var_cj_horizons,
)
from derange.montecarlo import estimate
from derange.numerics import (
    AccuracySpec,
    NumericsError,
    beta_fn,
    generalized_pfq,
    harmonic_h,
    integrate,
    kummer_m,
    rising_factorial,
)
from derange.params import PSequence, ThetaSequence
from derange.signed_stats import (
    OrientationWeights,
    cki_distribution,
    cstar_moments,
    lambda_total,
)

P = PSequence.eta(1.0)
X = ChainKind.x(P)
TS = ThetaSequence.constant(1.0)
W = OrientationWeights.binomial(0.5)
SHORT = AccuracySpec(max_terms=100)
# sum p_i converges, so the product of the q_i never falls below 1e-17
CONVERGENT = PSequence.tabulated([1.0 / (i * i) for i in range(1, 20_001)])


def cli_call(command, *argv):
    """The command on argv, its errors not mapped to exit codes."""
    args = command_parser(command).parse_args(argv)
    return args.func(args)


def verify(*argv):
    return cli_call("verify", *argv)


GUARDS = [
    # numerics
    (lambda: AccuracySpec(abs_tol=0.0), ValueError, "tolerances must be strictly positive"),
    (lambda: AccuracySpec(max_terms=99), ValueError, "max_terms must be at least 100"),
    (lambda: AccuracySpec(quad_max_depth=11), ValueError, "quad_max_depth must be between"),
    (lambda: rising_factorial(1.0, -1), ValueError, "m must be nonnegative"),
    (lambda: kummer_m(1.0, -2.0, 0.5), ValueError, "b must not be a nonpositive integer"),
    (lambda: kummer_m(2.0, 1.0, 0.5, method="integral"), ValueError, "requires b > a > 0"),
    (lambda: kummer_m(1.0, 2.0, 0.5, method="bogus"), ValueError, "unknown method"),
    (lambda: generalized_pfq((1.0,), (0.0,), 0.5), ValueError, "no lower parameter"),
    (lambda: generalized_pfq((1.0, 1.0, 1.0), (2.0,), 0.5), ValueError, "divergent series"),
    (lambda: generalized_pfq((1.0, 1.0), (2.0,), 1.5), ValueError, "requires |z| < 1"),
    (lambda: generalized_pfq((1.0,), (1.0,), 50.0, acc=SHORT), NumericsError, "did not converge"),
    (lambda: beta_fn(0, 1), ValueError, "requires Re(z1), Re(z2) > 0"),
    (lambda: integrate(np.exp, (1.0, 0.0)), ValueError, "empty integration interval"),
    (lambda: harmonic_h(-1), ValueError, "requires y > -1"),
    # params and dist
    (lambda: P(0), ValueError, "index must be >= 1"),
    (lambda: ThetaSequence.tabulated([1.0, 2.0], "bogus"), ValueError, "tail_rule must be"),
    (lambda: ThetaSequence.eta_star(1.0, theta2=2.0), ValueError, "theta2 must lie in (0, 1]"),
    (lambda: ThetaSequence.holst(0.0, 1.0, 1.0), ValueError, "require a > 0 and c > 0"),
    (lambda: ThetaSequence.tabulated([1.0, -2.0]), ValueError, "must be positive"),
    (lambda: TS.scaled(-1.0), ValueError, "scale must be nonnegative"),
    (lambda: DistTable({0: 1.5, 1: -0.5}), ValueError, "negative probability"),
    (lambda: compare_laws(DistTable({2: 1.0}), DistTable({(1, 0): 1.0})), ValueError,
     "cannot compare a law on integers with one on words of length 2"),
    (lambda: compare_laws(DistTable({(1, 2): 1.0}), DistTable({(1, 0): 1.0})), ValueError,
     "is not a 0/1 word"),
    (lambda: compare_laws(DistTable({(1,): 0.5, (1, 0): 0.5}), DistTable({1: 1.0})),
     ValueError, "integers or 0/1 words of one length"),
    # chains
    (lambda: generate_signed_many(5, P, 1.5, 0, range(1)), ValueError,
     "kappa must lie in [0, 1]"),
    (lambda: SignedWord(("1", "x"), 0.5), ValueError, "invalid signed step 'x'"),
    (lambda: transition_matrix(X, 0, 5), ValueError, "outside 1..5"),
    (lambda: marginal_one(X, 6, 5), ValueError, "index 6 outside 1..5"),
    (lambda: cycle_statistics((0, 1)), ValueError, "requires w_1 = 1"),
    # coupling
    (lambda: g_values(TS, -1), ValueError, "n must be nonnegative"),
    (lambda: gamma_n(TS, 0), ValueError, "n must be >= 1"),
    (lambda: gamma_n(TS, 5, method="bogus"), ValueError, "unknown method"),
    (lambda: delta_n(1.0, 2.0, n=5), ValueError, "theta2star must lie in (0, 1]"),
    (lambda: delta_n(1.0), ValueError, "n required"),
    (lambda: delta_n(1.0, n=0), ValueError, "n must be >= 1"),
    (lambda: joint_cycle_counts(X, (-1, 2), 3), ValueError, "counts must be nonnegative"),
    (lambda: joint_cycle_counts(X, (0, 1), 3), ValueError, "sum j*c_j = n"),
    (lambda: ordered_cycle_prefix_prob((0,), 5, TS), ValueError, "lengths must be >= 1"),
    (lambda: ordered_cycle_prefix_prob((2, 3), 5, TS), ValueError, "must be < n"),
    (lambda: erase11((0, 1), 3), ValueError, "must start with a 1"),
    (lambda: erase11((1, 2), 3), ValueError, "must be a 0/1 word"),
    (lambda: erase11((1, 1), math.inf), ValueError, "window ends inside a run"),
    (lambda: erase11((1, 0), 1), ValueError, "horizon must be >= 2"),
    (lambda: erase11((1, 0), 5), ValueError, "need input length >= 4"),
    # limitchain
    (lambda: LimitContext.probe(), ValueError, "provide p or thetaseq"),
    (lambda: LimitContext.probe(P, ThetaSequence.holst(1.0, 2.0, 0.7), 64), ValueError,
     "not both"),
    (lambda: LimitContext.probe(P, horizon=63), ValueError, "horizon must be >= 64"),
    (lambda: LimitContext.probe(P, horizon=64).require("bogus"), ValueError,
     "unknown condition flag 'bogus'"),
    (lambda: phi(0, P), ValueError, "index must be >= 1"),
    (lambda: phi(5, PSequence(lambda i: 1.0 / (i * i))), ValueError,
     "does not appear to diverge"),
    (lambda: phi(5, PSequence.from_theta_pushforward(TS), method="closed_form"), ValueError,
     "no closed form"),
    (lambda: phi(5, P, method="bogus"), ValueError, "unknown method"),
    (lambda: phi(1, P, method="bogus"), ValueError, "unknown method"),
    (lambda: phi(3, PSequence.eta(1000.0), acc=SHORT), NumericsError, "did not converge"),
    # the accuracy is keyword-only: a positional one is refused, not misread
    (lambda: phi(1, P, "bogus"), TypeError, "phi() takes 2 positional arguments but 3"),
    (lambda: phi(5, P, "bogus"), TypeError, "phi() takes 2 positional arguments but 3"),
    (lambda: xinf_transition(0, P), ValueError, "index must be >= 1"),
    (lambda: tv_prefix(0, P), ValueError, "n must be >= 1"),
    (lambda: tv_prefix(5, P, "bogus"), ValueError, "unknown method"),
    (lambda: tv_prefix(31, P, "direct"), ValueError, "tv_prefixes limited to 1 <= n <= 30"),
    (lambda: tv_prefix(10, CONVERGENT, "direct"), ValueError,
     "does not appear to diverge: q_11 ... q_"),
    (lambda: gamma_inf(1, TS), ValueError, "index must be >= 2"),
    (lambda: gamma_inf(3, ThetaSequence.holst(1.0, 1.0, 0.5)), ValueError,
     "does not appear to converge"),
    (lambda: gamma_inf(3, TS, "x"), TypeError, "gamma_inf() takes 2 positional arguments but 3"),
    (lambda: delta_i_inf(1.0, 1), ValueError, "index must be >= 2"),
    # moments
    (lambda: mean_k(1, P), ValueError, "n must be >= 2"),
    (lambda: mean_k_eta(1, 1.0), ValueError, "n must be >= 2"),
    (lambda: eta_abar(1.0, 0), ValueError, "j must be >= 1"),
    (lambda: mean_k_eta_limit(1.0, method="bogus"), ValueError, "unknown method"),
    (lambda: mean_cj_eta(10, 1, 1.0), ValueError, "j must be >= 2"),
    (lambda: mean_cj_eta_limit(1.0, 1), ValueError, "j must be >= 2"),
    (lambda: mean_cj_eta_limit(1.0, 2, method="bogus"), ValueError, "unknown method"),
    (lambda: second_moments(10, 1, P), ValueError, "j must be >= 2"),
    (lambda: var_cj_horizons(1, (3,), P), ValueError, "n must be >= 2"),
    (lambda: var_cj_horizons(10, (3, 1), P), ValueError, "j must be >= 2"),
    (lambda: var_cj_horizons(10, (), P), ValueError, "js must name at least one j"),
    (lambda: cov_eta(10, 4, 3, 1.0), ValueError, "require 2 < i < j < n-1"),
    (lambda: lambda_esf(0, 1.0), ValueError, "n must be >= 1"),
    # montecarlo
    (lambda: estimate("K", X, 5, 1, 0), ValueError, "reps must be >= 2"),
    (lambda: estimate("bogus", X, 5, 10, 0), ValueError, "unknown statistic 'bogus'"),
    (lambda: estimate("Cj", X, 5, 10, 0), ValueError, "needs j"),
    (lambda: estimate("K", X, 5, 10, 0, kappa=1.5), ValueError, "kappa must lie in [0, 1]"),
    (lambda: estimate("Lambda", X, 5, 10, 0), ValueError, "needs an orientation probability"),
    # oracle
    (lambda: oracle.enumerate_delta(0), ValueError, "n must lie in 1.."),
    (lambda: oracle.conditional_law(1, TS), ValueError, "limited to 2 <= n"),
    (lambda: oracle.pushforward_law(1, TS), ValueError, "limited to 2 <= n"),
    (lambda: oracle.dp_moments(X, 5001), ValueError, "limited to n <= 5000"),
    (lambda: oracle.dp_moments(X, 5, targets=("mean_cj",)), ValueError, "need j"),
    (lambda: oracle.dp_moments(X, 5, targets=("cov_cij",), j=2), ValueError,
     "cov_cij needs i and j"),
    (lambda: oracle.tv_prefixes(5, ChainKind.y(TS)), ValueError, "needs a derangement chain"),
    (lambda: oracle.tv_prefixes(31, X), ValueError, "limited to 1 <= n <= 30"),
    # signed statistics
    (lambda: OrientationWeights.binomial(-0.1), ValueError, "kappa must lie in [0, 1]"),
    (lambda: OrientationWeights.from_table({(2, 3): 1.0}), ValueError, "outside 1 <= i <= k"),
    (lambda: OrientationWeights.from_table({(2, 1): -0.5, (2, 2): 1.5}), ValueError,
     "weights must be nonnegative"),
    (lambda: OrientationWeights.from_table({(2, 1): 0.5}), ValueError, "row k=2 sums to"),
    (lambda: cki_distribution(2, 1, -1, 5, DistTable({1: 1.0}), W), ValueError,
     "ell must be nonnegative"),
    (lambda: cstar_moments(0, 1, np.zeros(6), np.zeros((6, 6)), W), ValueError,
     "require 1 <= i, j <= n"),
    (lambda: cstar_moments(1, 1, np.zeros(6), np.zeros((5, 5)), W), ValueError,
     "not (6, 6) for 6 means"),
    (lambda: lambda_total(5, 1.5, DistTable({1: 1.0})), ValueError, "kappa must lie in [0, 1]"),
    # cli
    (lambda: emit_report([], "xml", {}, io.StringIO()), ValueError, "unknown format 'xml'"),
    (lambda: verify("--suite", "tv", "--n", "2"), ValueError, "needs --n >= 3"),
    (lambda: verify("--suite", "all", "--n", "2"), ValueError, "needs --n >= 3"),
    (lambda: verify("--suite", "conditional", "--trials", "0"), ValueError,
     "--trials must be >= 1"),
    (lambda: cli_call("signed", "--quantity", "cstar", "--n", "15"), ValueError,
     "limited to n <= 14"),
]


@pytest.mark.parametrize("call, exc, fragment", GUARDS, ids=[f for _, _, f in GUARDS])
def test_input_guard_raises(call, exc, fragment):
    with pytest.raises(exc, match=re.escape(fragment)):
        call()
