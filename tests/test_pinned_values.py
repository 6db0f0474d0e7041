"""Pinned critical values, test reports and rejection counts.

A change that moves any of these values changes the program's output:
it updates the pin in the same commit and names the change in CHANGES.md.
Floats are pinned to 1e-9 relative, not to their bytes, because the
series and the draws go through BLAS and libm, which differ by CPU.
"""

import pytest

from covcusum import cptest, harness, limits, simgen, sumproc
from covcusum.harness import ExperimentConfig
from covcusum.limits import NullLaw

# 0.95 critical values at n_grid 2000, for K = 1..6 samples.
Q_PINS = {
    "q": (4.965657253578602, 8.006361313169197, 10.708296492806006,
          13.25095776158105, 15.696704092321376, 18.075631783191593),
    "q-breve": (1.80921716442089, 2.990788004905854, 4.0729920620193525,
                5.107353664247655, 6.11215564618122, 7.096369285077101),
}

# 0.95 critical values of the v kinds at seed 5 with 2000 exact draws.
V_PINS = {"v": 2.863946150903284, "v-breve": 1.868836350795687}


@pytest.mark.parametrize("kind", limits.CORRECTED_KINDS)
@pytest.mark.parametrize("K", range(1, 7))
def test_q_kind_critical_value(kind, K):
    value = limits.critical_value(NullLaw(kind, K, n_grid=2000), 0.95)
    assert value == pytest.approx(Q_PINS[kind][K - 1], rel=1e-9, abs=0)


@pytest.mark.parametrize("kind", limits.POOLED_KINDS)
def test_v_kind_critical_value(kind):
    law = NullLaw(kind, K=3, n_grid=2000, n_rep=2000, seed=5)
    weights = law.weights(alpha_weights=(1.0, 1.5, 0.7), kappa=(0.3, 0.3, 0.4))
    value = limits.critical_value(law, 0.95, weights)
    assert value == pytest.approx(V_PINS[kind], rel=1e-9, abs=0)


# Reports of the four kinds on ``_panel()``, in-sample and with 60 learning
# products per sample: statistic, critical value, decision and one
# (alpha_sq, bandwidth, argmax_k) per sample.  The v kinds use seed 3 and
# 2000 exact draws.
REPORT_PINS = {
    ("q", None): (13.871136066725551, 10.708296492806006, True, (
        (4.395010010023122, 4.235603175225354, 193),
        (18.309102727257564, 3.0821058940371335, 166),
        (0.5262504821261375, 1.3899415704951874, 260),
    )),
    ("v", None): (8.95759793753891, 6.806572416790571, True, (
        (4.395010010023122, 4.235603175225354, 193),
        (18.309102727257564, 3.0821058940371335, 166),
        (0.5262504821261375, 1.3899415704951874, 260),
    )),
    ("q-breve", None): (2.005204141482796, 4.0729920620193525, False, (
        (4.395010010023122, 4.235603175225354, 124),
        (18.309102727257564, 3.0821058940371335, 147),
        (0.5262504821261375, 1.3899415704951874, 77),
    )),
    ("v-breve", None): (2.84422624921372, 4.308547485578284, False, (
        (4.395010010023122, 4.235603175225354, 124),
        (18.309102727257564, 3.0821058940371335, 166),
        (0.5262504821261375, 1.3899415704951874, 77),
    )),
    ("q", 60): (35.752187186448495, 10.708296492806006, True, (
        (1.1626528381357462, 0.937977362222814, 133),
        (11.215774784168872, 2.34621015545534, 106),
        (1.0722927403977407, 2.6137739078532363, 200),
    )),
    ("v", 60): (9.075727477578974, 5.085284766990881, True, (
        (1.1626528381357462, 0.937977362222814, 133),
        (11.215774784168872, 2.34621015545534, 106),
        (1.0722927403977407, 2.6137739078532363, 200),
    )),
    ("q-breve", 60): (8.070176143930691, 4.0729920620193525, True, (
        (1.1626528381357462, 0.937977362222814, 64),
        (11.215774784168872, 2.34621015545534, 106),
        (1.0722927403977407, 2.6137739078532363, 36),
    )),
    ("v-breve", 60): (3.7296713103759505, 3.2591162435540904, True, (
        (1.1626528381357462, 0.937977362222814, 64),
        (11.215774784168872, 2.34621015545534, 106),
        (1.0722927403977407, 2.6137739078532363, 36),
    )),
}


def _panel():
    """Three AR(1) samples (N = 240, 200, 260, d = 5, seed 5) projected through one pair."""
    d = 5
    cfg = simgen.PanelConfig(K=3, d=d, N=(240, 200, 260), rho0=tuple(harness.rho_pre(d)),
                             sigma0=(1.0, 1.5, 0.7), seed=5)
    pair = sumproc.ProjectionPair.from_vectors(simgen.gen_dirichlet_projection(d, 5))
    return [sumproc.project(y, pair) for y in simgen.gen_ar1_panel(cfg)]


@pytest.mark.parametrize("kind,learning_length", REPORT_PINS)
def test_report(kind, learning_length):
    targets = None if kind in limits.BRIDGE_KINDS else (0.9, 1.9, 0.45)
    spec = cptest.TestSpec(kind=kind, targets=targets, n_rep=2000, seed=3)
    panel = _panel()
    L = learning_length or 0
    learning = None if learning_length is None else [p[:L] for p in panel]
    report = cptest.run_test([p[L:] for p in panel], spec, learning)
    statistic, crit, reject, per_sample = REPORT_PINS[kind, learning_length]
    assert report.statistic == pytest.approx(statistic, rel=1e-9, abs=0)
    assert report.critical_value == pytest.approx(crit, rel=1e-9, abs=0)
    assert report.reject is reject
    assert len(report.per_sample) == len(per_sample)
    for info, (alpha_sq, bandwidth, argmax_k) in zip(report.per_sample, per_sample):
        assert info.alpha_sq == pytest.approx(alpha_sq, rel=1e-9, abs=0)
        assert info.bandwidth == pytest.approx(bandwidth, rel=1e-9, abs=0)
        assert info.argmax_k == argmax_k


# Rejections out of 200 replications of a Case I, d = 3 cell (seed 5, 2000
# exact draws), one cell per scenario.
CELL_PINS = {
    "none": ({}, {"q-breve": 4, "v-breve": 9}),
    "sigma-change": (dict(change_times=(600,)), {"q-breve": 133, "v-breve": 61}),
    "coefficient-change": (dict(change_times=(300,), learning_length=500),
                           {"q-breve": 196, "v-breve": 182}),
}


@pytest.mark.parametrize("scenario", CELL_PINS)
def test_cell_rejection_counts(scenario):
    settings, counts = CELL_PINS[scenario]
    rows = harness.run_experiment(ExperimentConfig(
        replications=200, cases=("I",), dims=(3,), scenario=scenario,
        critval_n_rep=2000, seed=5, **settings))
    assert {r.test: round(r.rate * r.n_rep) for r in rows} == counts
