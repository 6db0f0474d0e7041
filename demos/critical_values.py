"""Tabulate critical values and check them against theory.

For a single sample the limit laws have classical closed forms: the
squared bridge statistic follows the Kolmogorov law squared (95% point
1.358^2) and the known-target statistic the reflection law (95% point
2.2414^2).  The sum-of-squares values for several samples convolve that
law K times, with each supremum shifted down by 0.5826 / sqrt(n_grid) to
match the grid of n_grid points the statistics use, so the anchors print
slightly below theory.  The pooled statistic weights the samples by the
data; its value is a Monte Carlo quantile over exact draws of each
sample's maximum and minimum.
"""

from covcusum import limits
from covcusum.limits import NullLaw

print("single sample, closed-form anchors:")
print(f"  bridge 95% point   (theory 1.844): "
      f"{limits.critical_value(NullLaw('q-breve', 1), 0.95):.4f}")
print(f"  known-target 95%   (theory 5.024): "
      f"{limits.critical_value(NullLaw('q', 1), 0.95):.4f}")

print("\nsum-of-squares bridge statistic, level 0.95:")
for K in (1, 2, 4, 6):
    law = NullLaw("q-breve", K)
    print(f"  K={K}: {limits.critical_value(law, 0.95):.4f} ({law.method})")

print("\npooled bridge statistic with unequal scales, level 0.95:")
law = NullLaw("v-breve", 4, seed=5)
weights = law.weights(alpha_weights=(1.0, 1.5, 0.7, 1.0),
                      kappa=(100 / 380, 120 / 380, 70 / 380, 90 / 380))
print(f"  K=4: {limits.critical_value(law, 0.95, weights):.4f} ({law.method})")
