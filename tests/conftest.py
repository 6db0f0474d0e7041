import numpy as np
import pytest

from covcusum import limits


@pytest.fixture(scope="session")
def bridge_suprema():
    """sup |B| of 100 000 Brownian bridges on a 2000-step grid, drawn once per session.

    The bridge-law oracles of ``test_acceptance`` and ``test_limits`` read
    the same draw; the least-recently-used memo of ``simulate_path_extrema``
    alone would not keep it between them, because the calls in between evict it.
    """
    hi, lo = limits.simulate_path_extrema(1, 2000, 100_000, seed=2025, workers=2)["bb"]
    sup_bb = np.maximum(hi[:, 0], lo[:, 0])
    sup_bb.flags.writeable = False
    return sup_bb
