"""A small Monte Carlo size/power study.

Runs the target-free tests on the smallest design case: first under the
null, then with a scale change injected after 600 of the 1200 time
instants.  Replication counts are kept low so the script finishes in
about 1.3 s (1.1-1.5 s over seven runs) on a 2-vCPU x86-64 machine;
raise them for tighter rates.
"""

from covcusum import harness

common = dict(cases=("I",), dims=(10,), critval_n_grid=1000,
              critval_n_rep=50_000)

print("size under the null (level 0.05):")
cfg = harness.ExperimentConfig(replications=400, scenario="none",
                               seed=2101, **common)
for r in harness.run_experiment(cfg):
    print(f"  {r.test:8s} rejection rate {r.rate:.3f} (se {r.stderr:.3f})")

print("\npower, scale change after 600 time instants,")
print("long-run variance from a 500-instant learning stretch:")
cfg = harness.ExperimentConfig(replications=400, scenario="sigma-change",
                               change_times=(600,), learning_length=500,
                               seed=2102, **common)
for r in harness.run_experiment(cfg):
    print(f"  {r.test:8s} rejection rate {r.rate:.3f} (se {r.stderr:.3f})")
