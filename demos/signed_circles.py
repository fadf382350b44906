"""Signed permutations: circles with members looking in or out.

Each cycle ("circle") of the random permutation gets an orientation: the
leader always looks in, every other member independently with probability
kappa.  Exact laws and moments of the oriented counts follow from the
unsigned cycle structure.
"""

from derange import (
    ChainKind,
    OrientationWeights,
    PSequence,
    ThetaSequence,
    generate_signed,
    k_distribution,
    lambda_mean_identity,
    lambda_total,
    omega,
    ordered_star_prob,
)
from derange import oracle
from derange.signed_stats import cstar_moments

n, kappa, theta = 10, 0.4, 1.0
p = PSequence.eta(theta)
w = OrientationWeights.binomial(kappa)

print("a few signed permutations (o = leader, i = looking in, 1 = out):")
for r in range(3):
    word, perm = generate_signed(n, p, kappa, 5, r)
    circles = [tuple(int(v) for v in c) for c in perm.circles]
    print(f"  {word.to_string()}   circles {circles}")

print(f"\nomega weights for a 4-circle (kappa = {kappa}):")
print("  " + "  ".join(f"i={i}: {omega(4, i, w):.4f}" for i in range(1, 5)))

k_law = k_distribution(ChainKind.x(p), n)
law, mean = lambda_total(n, kappa, k_law)
print(f"\ntotal looking in: E[Lambda] = {mean:.10f}")
print(f"identity n*kappa + (1-kappa)E[K] = "
      f"{lambda_mean_identity(n, kappa, k_law.mean()):.10f}")

moments = oracle.enumeration_moments(ChainKind.x(p), n)
m1, v1 = cstar_moments(1, 1, moments["mean_c"], moments["cov_c"], w)
print(f"\ncircles with exactly one in-looker: mean {m1:.6f}, variance {v1:.6f}")

print("\nfirst-circle in-look counts (more circles following), for the "
      "derangement chain X and the coin process Y:")
for a in (1, 2, 3):
    x_prob = ordered_star_prob(ChainKind.x(p), (a,), n, w)
    y_prob = ordered_star_prob(ChainKind.y(ThetaSequence.constant(theta)), (a,), n, w)
    print(f"  P(A*_1 = {a}, K > 1) = {x_prob:.6f} (X), {y_prob:.6f} (Y)")
