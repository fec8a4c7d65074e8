"""Learned spatio-temporal map priors for odometry-only indoor localization."""

__version__ = "0.1.0"
