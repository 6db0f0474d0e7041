"""Every array argument of the layers below ``covcusum test`` is read by
``limits.real_array``: a complex, non-numeric or wrong-ndim array is refused with a
``ShapeError`` that names the argument, never cast to its real part or failed bare."""

import numpy as np
import pytest

from covcusum import cptest, limits, lrv, sumproc
from covcusum.errors import ShapeError
from covcusum.sumproc import ProjectionPair

SERIES = np.arange(1.0, 9.0)
PAIR = ProjectionPair.from_vectors([1.0, 2.0])
SPEC = cptest.TestSpec(kind="q-breve", n_grid=500)

# (call of the one argument under test, a value it accepts, the argument's name in
# its refusals, a value of another ndim, or None where every ndim is read)
CALLS = {
    "autocov_hat": (lambda p: lrv.autocov_hat(p, 1), SERIES, "product series", SERIES[None]),
    "lrv_estimate": (lrv.lrv_estimate, SERIES, "product series", SERIES[None]),
    "lrv_estimates": (lrv.lrv_estimates, SERIES[None], "product series", SERIES),
    "qs_weight": (lrv.qs_weight, SERIES, "kernel argument", None),
    "kahan_cumsum": (sumproc.kahan_cumsum, SERIES, "series", 3.0),
    "project": (lambda y: sumproc.project(y, PAIR), np.ones((5, 2)), "sample", np.ones(2)),
    "unscaled_deviation": (sumproc.unscaled_deviation, SERIES, "partial sums", 3.0),
    "unscaled_deviation-target": (lambda t: sumproc.unscaled_deviation(SERIES, t), 3.0,
                                  "target", SERIES[1:]),
    "pooled_d_grid_max": (lambda f: sumproc.pooled_d_grid_max([f]), SERIES, "process",
                          SERIES[None, None]),
    "per_sample_max_sq": (lambda f: sumproc.per_sample_max_sq(f, 1.0), SERIES, "process",
                          SERIES[None, None]),
    "per_sample_max_sq-scale": (lambda a: sumproc.per_sample_max_sq(SERIES, a), 1.0, "scale",
                                np.ones(1)),
    "from_vectors": (ProjectionPair.from_vectors, [1.0, 2.0], "projection vector",
                     np.ones((1, 1, 2))),
    "from_vectors-w": (lambda w: ProjectionPair.from_vectors([1.0, 2.0], w), [1.0, 2.0],
                       "projection vector", np.ones((1, 1, 2))),
    "run_test": (lambda p: cptest.run_test([p], SPEC), SERIES, "product series", SERIES[None]),
    "run_batch": (lambda p: cptest.run_batch([p], [SPEC]), SERIES[None], "product series", SERIES),
    "sup_abs_bm_cdf": (limits.sup_abs_bm_cdf, SERIES, "bound", None),
    "sup_abs_bb_cdf": (limits.sup_abs_bb_cdf, SERIES, "bound", None),
    "empirical_quantile": (lambda d: limits.empirical_quantile(d, 0.5), SERIES, "set of draws",
                           SERIES[None]),
}
FLAWS = {
    "complex": lambda good, other: np.asarray(good) + 1j,
    "non-numeric": lambda good, other: np.full(np.shape(good), "x"),
    "wrong-ndim": lambda good, other: other,
}


@pytest.mark.parametrize("name", CALLS)
def test_valid_array_accepted(name):
    call, good, _, _ = CALLS[name]
    call(good)


@pytest.mark.parametrize("name, flaw", [(name, flaw) for name in CALLS for flaw in FLAWS
                                         if flaw != "wrong-ndim" or CALLS[name][3] is not None])
def test_flawed_array_refused_by_name(name, flaw):
    call, good, what, other = CALLS[name]
    with pytest.raises(ShapeError) as exc:
        call(FLAWS[flaw](good, other))
    assert what in str(exc.value)
