"""Change-point tests for the covariance structure of K independent
high-dimensional vector time series, built from CUSUM statistics of
projected bilinear forms of the sample covariance matrices."""

from .errors import (
    ConfigurationError,
    CovCusumError,
    DegenerateLrvError,
    IngestionError,
    ShapeError,
)
from .simgen import PanelConfig, gen_ar1_panel, gen_dirichlet_projection
from .sumproc import (
    ProjectionPair,
    per_sample_max_sq,
    pooled_d_grid_max,
    project,
    unscaled_deviation,
)
from .lrv import LrvEstimate, autocov_hat, lrv_estimate, qs_weight
from .limits import (
    CritValRequest,
    critical_value,
    sup_abs_bb_cdf,
    sup_abs_bm_cdf,
)
from .cptest import TestReport, TestSpec, run_test, run_tests
from .harness import ExperimentConfig, change_time_mapping, run_experiment

__version__ = "0.1.0"
