"""Pinned critical values.

A change that moves any of these values changes the program's output:
it updates the pin in the same commit and names the change in CHANGES.md.
Floats are pinned to 1e-9 relative, not to their bytes, because the
series and the draws go through BLAS and libm, which differ by CPU.
"""

import pytest

from covcusum import limits
from covcusum.limits import CritValRequest

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
    value = limits.critical_value(CritValRequest(kind=kind, K=K, level=0.95, n_grid=2000))
    assert value == pytest.approx(Q_PINS[kind][K - 1], rel=1e-9, abs=0)


@pytest.mark.parametrize("kind", limits.POOLED_KINDS)
def test_v_kind_critical_value(kind):
    req = CritValRequest(kind=kind, K=3, level=0.95, alpha_weights=(1.0, 1.5, 0.7),
                         kappa=(0.3, 0.3, 0.4), n_grid=2000, n_rep=2000, seed=5)
    assert limits.critical_value(req) == pytest.approx(V_PINS[kind], rel=1e-9, abs=0)
