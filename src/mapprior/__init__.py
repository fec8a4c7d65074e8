"""Learned spatio-temporal map priors for odometry-only indoor localization."""

from .occupancy import MapError, OccupancyMap, crop, load_map, save_map
from .simulate import (NoiseProfile, Odometry, Pose, Trajectory,
                       corrupt_to_odometry, dead_reckoning, diff_drive_step,
                       generate_trajectory, integrate_odometry, window,
                       wrap_angle)
from .targets import TargetMap, TrajectoryKernel, cross_correlate, make_target, rasterize_kernel
from .model import ModelConfig, build_training_set, encode_map, encode_odometry, score, train
from .particle_filter import (FilterConfig, ParticleSet, estimate,
                              maybe_reinit, propagate, resample_low_variance,
                              reweight, run_filter)
from .baselines import (CrfParams, LocationGraph, build_graph, crf_match,
                        heuristic_prior, pdr)
from .metrics import TrajectoryError, ate, cdf_points, end_error, prior_kl, trajectory_error

__version__ = "0.1.0"
