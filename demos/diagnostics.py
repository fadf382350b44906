"""Statistical diagnostics of the asymptotic claims.

Monte Carlo samples of the chain are tested against the limiting laws:
the cycle count K_n is asymptotically normal, and the renormalized cycle
lengths converge to the GEM stick-breaking law.
"""

from derange.chains import ChainKind
from derange.montecarlo import clt_diagnostic, gem_diagnostic

print("normality of K_n (n = 20000, 2000 replicates, theta = 1):")
rep = clt_diagnostic(ChainKind.eta(1.0), 20000, 2000, seed=11)
print(f"  sample mean {rep.mean:.4f}, KS = {rep.ks_stat:.4f}, "
      f"p = {rep.p_value:.3f}")
print(f"  theorem-standardized KS = {rep.extras['ks_stat_theoretical']:.4f}, "
      f"p = {rep.extras['p_value_theoretical']:.2e}")
print(f"  (the asymptotic centering leaves an O(1) finite-n offset of "
      f"{rep.mean:+.3f} standard deviations, so the shape test uses "
      "sample standardization)")

print("\nGEM limit of the renormalized cycle lengths "
      "(n = 5000, 2000 replicates, theta = 0.7):")
rep = gem_diagnostic(0.7, 5000, 2000, seed=17)
print(f"  A1/n vs Beta(1, 0.7):       KS = {rep.ks_stat:.4f}, "
      f"p = {rep.p_value:.3f}")
print(f"  A2/(n-A1) vs Beta(1, 0.7):  KS = {rep.extras['ks_stat_a2']:.4f}, "
      f"p = {rep.extras['p_value_a2']:.3f}")
print(f"  joint prefix cell: empirical {rep.extras['joint_prefix_empirical']:.4f} "
      f"vs exact GEM box {rep.extras['joint_prefix_oracle']:.4f}")
