"""Biased random derangement chains.

Exact laws, couplings, conditioning and push-forward relations, moment
formulas, limit chains, signed-model statistics, and Monte Carlo
diagnostics for {0,1}-valued Markov chains whose paths encode random
derangements and, more generally, random permutations built from
independent biased coins.
"""

__version__ = "1.0.0"

from .params import (
    PSequence,
    ThetaSequence,
    conditional_theta,
    pushforward_theta,
)
from .chains import (
    ChainKind,
    SignedPermutation,
    SignedWord,
    cycle_statistics,
    generate_signed,
    in_delta,
    marginal_one,
    path_probability,
    sample_path,
    transition_matrix,
    word_from_string,
    word_to_string,
)
from .coupling import (
    delta_n,
    erase11,
    g_values,
    gamma_n,
    joint_cycle_counts,
    k_distribution,
    ordered_cycle_prefix_prob,
    pgf_k,
)
from .dist import DistTable, LawPair, compare_laws
from .limitchain import (
    LimitContext,
    delta_i_inf,
    gamma_inf,
    phi,
    tv_prefix,
    xinf_transition,
)
from .moments import (
    LimitEstimate,
    lambda_esf,
    mean_cj,
    mean_cj_eta,
    mean_cj_eta_limit,
    mean_k,
    mean_k_eta,
    mean_k_eta_limit,
    second_moments,
    var_cj_horizons,
)
from .numerics import AccuracySpec, NumericsError, kummer_m
from .signed_stats import (
    OrientationWeights,
    cki_distribution,
    cstar_moments,
    lambda_mean_identity,
    lambda_total,
    omega,
    ordered_star_prob,
)

__all__ = [
    "AccuracySpec",
    "ChainKind",
    "DistTable",
    "LawPair",
    "LimitContext",
    "LimitEstimate",
    "NumericsError",
    "OrientationWeights",
    "PSequence",
    "SignedPermutation",
    "SignedWord",
    "ThetaSequence",
    "__version__",
    "cki_distribution",
    "compare_laws",
    "conditional_theta",
    "cstar_moments",
    "cycle_statistics",
    "delta_i_inf",
    "delta_n",
    "erase11",
    "g_values",
    "gamma_inf",
    "gamma_n",
    "generate_signed",
    "in_delta",
    "joint_cycle_counts",
    "k_distribution",
    "kummer_m",
    "lambda_esf",
    "lambda_mean_identity",
    "lambda_total",
    "marginal_one",
    "mean_cj",
    "mean_cj_eta",
    "mean_cj_eta_limit",
    "mean_k",
    "mean_k_eta",
    "mean_k_eta_limit",
    "omega",
    "ordered_cycle_prefix_prob",
    "ordered_star_prob",
    "path_probability",
    "pgf_k",
    "phi",
    "pushforward_theta",
    "sample_path",
    "second_moments",
    "transition_matrix",
    "tv_prefix",
    "var_cj_horizons",
    "word_from_string",
    "word_to_string",
    "xinf_transition",
]
