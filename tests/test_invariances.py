"""Exact symmetries of the four statistics, checked on panels drawn by hypothesis.

Each check compares two tests whose values are equal in exact arithmetic.
Where both runs do the same float operations the check is bit for bit.
Elsewhere the two runs round differently, and the check allows a small
multiple of that.  The v kinds' critical value under a change of sample
order is left out, for the exact-mc value pairs draw column j with weight j.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covcusum import cptest, limits

LAW = dict(n_grid=500, n_rep=2000, seed=5)
# Relative tolerance of a value that the two runs round differently.  On 400
# random panels of the shape drawn here, the largest differences were 3e-16 under a new sample order, 4e-15 under one
# scale, 6e-15 under time reversal and 9e-15 under a shift: 1e-13 is ten times that.
RTOL = 1e-13
SHIFT = 2.0  # the largest constant added to a sample
# Deterministic, so the same panels are drawn in every run.
CHECKS = settings(max_examples=20, deadline=None, derandomize=True, database=None)


@st.composite
def panels(draw):
    """K product series of lengths N_j, nonnegative and serially dependent like (Yv)^2."""
    sizes = draw(st.lists(st.integers(20, 60), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    panel = []
    for n in sizes:
        x = rng.standard_normal(n + 1)
        panel.append((x[1:] + 0.4 * x[:-1]) ** 2)
    return panel


def run(kind, panel, targets=None):
    """``kind``'s report on ``panel``; a plain kind tests each sample against ``targets``,
    by default 1.16, the mean of each product."""
    if kind in limits.BRIDGE_KINDS:
        targets = None
    elif targets is None:
        targets = [1.16] * len(panel)
    return cptest.run_test(panel, cptest.TestSpec(kind=kind, targets=targets, **LAW))


@pytest.mark.parametrize("kind", limits.BRIDGE_KINDS)
@CHECKS
@given(panel=panels())
def test_time_reversal_keeps_the_statistic_and_reflects_the_argmax(kind, panel):
    # The bridge of the reversed series is k -> -bridge(N - k).
    fwd, rev = run(kind, panel), run(kind, [p[::-1] for p in panel])
    assert rev.statistic == pytest.approx(fwd.statistic, rel=RTOL, abs=0)
    for n, a, b in zip(fwd.sample_sizes, fwd.per_sample, rev.per_sample):
        # A maximum at both endpoints, where the bridge is 0, breaks to index 0 both ways.
        assert b.argmax_k % n == (n - a.argmax_k) % n


@pytest.mark.parametrize("kind", limits.KINDS)
@CHECKS
@given(panel=panels(), c=st.floats(1e-3, 1e3))
def test_one_scale_keeps_the_statistic_over_the_critical_value(kind, panel, c):
    # A plain kind's target is a bilinear form, so it scales with the products.
    base = run(kind, panel)
    scaled = run(kind, [c * p for p in panel], [c * 1.16] * len(panel))
    assert (scaled.statistic / scaled.critical_value
            == pytest.approx(base.statistic / base.critical_value, rel=RTOL, abs=0))


@pytest.mark.parametrize("kind", limits.KINDS)
@CHECKS
@given(panel=panels(), data=st.data())
def test_a_constant_added_to_a_sample_keeps_the_statistic(kind, panel, data):
    # The bridge kinds recenter by the endpoint; a plain kind's target moves with its sample.
    shifts = data.draw(st.lists(st.floats(-SHIFT, SHIFT), min_size=len(panel),
                                max_size=len(panel)))
    base = run(kind, panel)
    moved = run(kind, [p + a for p, a in zip(panel, shifts)], [1.16 + a for a in shifts])
    assert moved.statistic == pytest.approx(base.statistic, rel=RTOL, abs=0)
    if kind not in limits.POOLED_KINDS:  # nor the law; a pooled one reads the new scales
        assert moved.critical_value == base.critical_value


@pytest.mark.parametrize("kind", limits.BRIDGE_KINDS)
@CHECKS
@given(panel=panels(), data=st.data())
def test_sample_order_keeps_the_statistic(kind, panel, data):
    order = data.draw(st.permutations(range(len(panel))))
    base, moved = run(kind, panel), run(kind, [panel[j] for j in order])
    assert moved.statistic == pytest.approx(base.statistic, rel=RTOL, abs=0)
    # Each sample is summarized alone, so its entries move with it bit for bit.
    assert moved.per_sample == [base.per_sample[j] for j in order]
    if kind == "q-breve":  # its law depends on K alone
        assert moved.critical_value == base.critical_value
