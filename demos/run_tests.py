"""Run all four change-point tests on one simulated panel.

The target-free ("breve") statistics need nothing but the data; the
plain ones are handed the true projected covariance targets, which are
known here because we simulated the panel ourselves.
"""

import numpy as np

from covcusum import cptest, simgen, sumproc

d = 10
rho = 0.1 + 0.5 * np.arange(1, d + 1) / d
sigma = (1.0, 1.5, 0.7, 1.0)

cfg = simgen.PanelConfig(K=4, d=d, N=(100, 120, 70, 90), rho0=tuple(rho),
                         sigma0=sigma,
                         sigma1=(1.0, 0.7, 1.2, 1.0), tau=(50, 60, 35, 45),
                         seed=777)
samples = simgen.gen_ar1_panel(cfg)

v = simgen.gen_dirichlet_projection(d, seed=3)
pair = sumproc.ProjectionPair.from_vectors(v)
targets = [simgen.ar1_bilinear_target(rho, s, v, v) for s in sigma]

specs = [cptest.TestSpec(kind=kind, level=0.95,
                         targets=targets if kind in ("q", "v") else None,
                         n_grid=1000, n_rep=50_000, seed=42)
         for kind in ("q", "q-breve", "v", "v-breve")]
for report in cptest.run_tests([sumproc.project(y, pair) for y in samples], specs):
    flag = "REJECT" if report.reject else "accept"
    print(f"{report.kind:8s} statistic {report.statistic:8.4f}  "
          f"critical {report.critical_value:8.4f}  -> {flag}")
    for j, s in enumerate(report.per_sample):
        print(f"         sample {j + 1}: alpha_sq {s.alpha_sq:.4f}, "
              f"max at k={s.argmax_k}")
