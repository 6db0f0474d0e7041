"""Change-point tests for the covariance structure of K independent
high-dimensional vector time series, built from CUSUM statistics of
projected bilinear forms of the sample covariance matrices."""

__version__ = "0.1.0"
