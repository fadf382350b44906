"""Cycle-count moments: exact finite-n values and their large-n limits.

Regenerates the two summary tables: the limit of E[C_j(n)] with certified
error bounds, and Var(C_j(n)) at every horizon from one call, checked cell
by cell against a dynamic-programming recursion over the transition rows.
"""

from derange import ChainKind, ThetaSequence, mean_cj_eta_limit, mean_k_eta_limit, var_cj_horizons
from derange import oracle

theta = 0.5

print(f"lim E[C_j(n)] for theta = {theta} (series, m = 2):")
print(f"  {'j':>2}  {'limit':>12}  {'error bound':>12}  {'theta/j':>8}")
for j in range(2, 8):
    est = mean_cj_eta_limit(theta, j, method="series", m=2)
    print(f"  {j:>2}  {est.value:>12.6f}  {est.error_bound:>12.3e}  {theta/j:>8.3f}")

est = mean_k_eta_limit(theta, m=3)
print(f"\nlim (E[K_n] - {theta} log n) = {est.value:.6f}"
      f"  (bracket {est.error_bound:.3e})")

print(f"\nVar(C_j(n)) for theta = {theta}, two independent computations:")
kind = ChainKind.eta(theta)
js, cols = range(3, 8), (20, 50, 100)
var = var_cj_horizons(kind, cols[-1], js)  # every horizon h <= 100 in one call
print(f"  {'j':>2}  " + "  ".join(f"{'n='+str(n):>12}" for n in cols))
for j, row in zip(js, var):
    for n in cols:
        dp = oracle.dp_moments(kind, n, targets=("var_cj",), j=j)["var_cj"]
        assert abs(row[n] - dp) < 1e-10
    print(f"  {j:>2}  " + "  ".join(f"{row[n]:>12.6f}" for n in cols))
print("  (one-pass horizons and DP recursion agree to 1e-10 at every cell)")

y = ChainKind.y(ThetaSequence.constant(theta))  # the coin chain: 1-cycles count
print(f"\nVar(C_j(100)) of the coin chain Y, constant theta = {theta}, same engine:")
for j, row in zip((1, 2, 3), var_cj_horizons(y, 100, (1, 2, 3))):
    dp = oracle.dp_moments(y, 100, targets=("var_cj",), j=j)["var_cj"]
    assert abs(row[100] - dp) < 1e-10
    print(f"  j = {j}: {row[100]:.6f}")
