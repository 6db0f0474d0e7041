"""Simulate a K-sample AR(1) panel and eyeball its covariance structure.

Generates four samples of unequal length whose coordinates share one
innovation stream per time step, prints the empirical projected variance
against its closed form, and injects a mid-stream scale change to show
how the panel generator handles pre/post segments.
"""

import numpy as np

from covcusum import simgen

d = 5
rho = 0.1 + 0.5 * np.arange(1, d + 1) / d

cfg = simgen.PanelConfig(K=4, d=d, N=(100, 120, 70, 90),
                         rho0=tuple(rho), sigma0=(1.0, 1.5, 0.7, 1.0),
                         seed=12345)
samples = simgen.gen_ar1_panel(cfg)
print("sample sizes:", tuple(len(y) for y in samples))

v = simgen.gen_dirichlet_projection(d, seed=1)
print("projection vector:", np.round(v, 4))

for j, (y, sigma) in enumerate(zip(samples, cfg.sigma0), start=1):
    target = simgen.ar1_bilinear_target(rho, sigma, v, v)
    empirical = np.mean((y @ v) ** 2)
    print(f"sample {j}: v'Cov v target {target:.4f}, empirical {empirical:.4f}")

# Now break the second sample: halve its innovation scale at index 60.
broken = simgen.PanelConfig(K=4, d=d, N=(100, 120, 70, 90),
                            rho0=tuple(rho), sigma0=(1.0, 1.5, 0.7, 1.0),
                            sigma1=(1.0, 0.7, 1.2, 1.0), tau=(50, 60, 35, 45),
                            seed=12345)
y1 = simgen.gen_ar1_panel(broken)[1] @ v
print("\nafter the change in sample 2:")
print(f"  pre-change mean square  {np.mean(y1[:60] ** 2):.4f}")
print(f"  post-change mean square {np.mean(y1[60:] ** 2):.4f}")
