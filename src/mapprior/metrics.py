"""Trajectory error metrics and prior-quality KL divergence."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .occupancy import OccupancyMap
from .simulate import Trajectory

PRIOR_FLOOR = 1e-12


@dataclass(frozen=True)
class TrajectoryError:
    ate: float                   # RMSE over matched timestamps, meters
    ee: float                    # final-position distance, meters
    per_step_errors: np.ndarray
    n_matched: int
    n_total: int


def trajectory_error(est: Trajectory, gt: Trajectory) -> TrajectoryError:
    """Errors between trajectories whose timestamps align within half a period.

    Estimated samples without a ground-truth partner are excluded and show up
    in the n_matched / n_total coverage counts.
    """
    half = 0.5 * gt.period
    idx = np.searchsorted(gt.t, est.t)
    idx = np.clip(idx, 0, len(gt.t) - 1)
    idx_prev = np.clip(idx - 1, 0, len(gt.t) - 1)
    pick = np.where(np.abs(gt.t[idx] - est.t) <= np.abs(gt.t[idx_prev] - est.t),
                    idx, idx_prev)
    ok = np.abs(gt.t[pick] - est.t) <= half
    if not ok.any():
        raise ValueError("no overlapping timestamps between trajectories")
    diffs = est.xy[ok] - gt.xy[pick[ok]]
    errors = np.hypot(diffs[:, 0], diffs[:, 1])
    return TrajectoryError(ate=float(np.sqrt(np.mean(errors ** 2))),
                           ee=end_error(est, gt),
                           per_step_errors=errors, n_matched=int(ok.sum()),
                           n_total=len(est.t))


def ate(est: Trajectory, gt: Trajectory) -> float:
    return trajectory_error(est, gt).ate


def end_error(est: Trajectory, gt: Trajectory) -> float:
    return float(np.hypot(*(est.xy[-1] - gt.xy[-1])))


def cdf_points(errors) -> np.ndarray:
    """Empirical CDF support points: (n, 2) array of (error, fraction)."""
    errors = np.sort(np.asarray(errors, dtype=np.float64))
    if errors.size == 0:
        raise ValueError("no errors given")
    fractions = np.arange(1, errors.size + 1) / errors.size
    return np.stack([errors, fractions], axis=1)


def heatmap_to_distribution(heatmap: np.ndarray, occ: OccupancyMap) -> np.ndarray:
    """Floor-clamped heatmap normalized into a distribution over free cells."""
    p = np.where(occ.free, np.maximum(heatmap.astype(np.float64), PRIOR_FLOOR), 0.0)
    total = p.sum()
    if not 0 < total < np.inf:
        raise ValueError(f"prior mass on free space must be finite and > 0, not {total}")
    return p / total


def prior_kl(heatmap: np.ndarray, occ: OccupancyMap, gt_xy,
             sigma: float = 1.0) -> float:
    """KL(G || P) in nats, where G is a truncated Gaussian around the true
    location discretized over free cells and P is the normalized prior.

    Penalizes priors that place no mass where the agent actually is.
    """
    ys, xs = np.nonzero(occ.free)
    centers = np.stack(occ.cell_center(xs, ys), axis=1)
    d2 = ((centers - np.asarray(gt_xy, dtype=np.float64)) ** 2).sum(axis=1)
    g = np.exp(-0.5 * d2 / (sigma * sigma))
    g_total = g.sum()
    if g_total <= 0:
        raise ValueError("ground-truth Gaussian has no mass on free cells")
    g /= g_total
    p_grid = heatmap_to_distribution(heatmap, occ)
    p = p_grid[ys, xs]
    nz = g > 0
    return float(np.sum(g[nz] * np.log(g[nz] / p[nz])))
