"""Training targets: trajectory kernels, map cross-correlation, location peaks.

The learned prior regresses `location_target`: on free cells a floor plus a
Gaussian peak around where the window truly ended, zero on occupied cells.

`make_target` is the overlap target: a trajectory window is rasterized into a
normalized kernel, slid over the map to measure free-space overlap T_bar in
[0, 1], and exponentially reweighted so fully feasible end locations dominate
(TARGET_SCALE * exp(TARGET_GAIN * T_bar), the formula acceptance criterion 3
pins).  It scores where a window *fits*, not where it *was*: on open floors
a short window fits almost everywhere, so a model regressing it learns
little about the agent's position.  The overlap itself is the heuristic
prior of `baselines`.

The overlap is computed in small integers.  A kernel puts the same weight w
on each of its n visited cells and the map is 0/1, so each term of a cell's
float sum is w or +0.0, and adding +0.0 changes nothing.  The sum therefore
depends only on m, how many of the cell's taps land on free cells, and
equals the m-th entry of the sequential sum 0, w, w + w, ...  Counting the
free taps in uint8 or uint16 and looking that entry up gives the float sum's
bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .occupancy import OccupancyMap

TARGET_SCALE = 1e-6
TARGET_GAIN = 14.0

# location_target: peak width and the floor on free cells.  Neither comes
# from the paper; both are design choices.  The width is the 1 m kernel of
# metrics.prior_kl.  Of floors 0.1, 0.2 and 0.3, 0.1 gave the lowest
# acceptance-criterion-6 ATE after full training, by less than the spread
# between those variants.
LOCATION_SIGMA_M = 1.0
LOCATION_FLOOR = 0.1


@dataclass(frozen=True)
class TrajectoryKernel:
    """Normalized rasterized trajectory with the end cell as alignment anchor.

    grid[ky, kx] is 1/n on each of the n visited cells of a tight bounding
    box and 0 elsewhere; `cross_correlate` relies on that uniform weight.
    anchor = (ax, ay) is the end position's cell within the grid.
    """

    grid: np.ndarray
    anchor: tuple[int, int]


@dataclass(frozen=True)
class TargetMap:
    """Per-cell overlap target and the overlap it was computed from."""

    values: np.ndarray        # TARGET_SCALE * exp(GAIN * overlap)
    overlap: np.ndarray       # raw T_bar in [0, 1]


def _bresenham(c0: tuple[int, int], c1: tuple[int, int]):
    """Integer cells on the line from c0 to c1, endpoints included."""
    x0, y0 = c0
    x1, y1 = c1
    dx, dy = abs(x1 - x0), -abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx + dy
    cells = []
    while True:
        cells.append((x0, y0))
        if x0 == x1 and y0 == y1:
            return cells
        e2 = 2 * err
        if e2 >= dy:
            err += dy
            x0 += sx
        if e2 <= dx:
            err += dx
            y0 += sy


def rasterize_kernel(window_xy: np.ndarray, resolution: float) -> TrajectoryKernel:
    """Rasterize a relative trajectory window onto the cell grid.

    Consecutive positions are connected with Bresenham lines; visited cells get
    uniform weight normalized to sum 1.
    """
    window_xy = np.asarray(window_xy, dtype=np.float64).reshape(-1, 2)
    if len(window_xy) == 0:
        raise ValueError("window must contain at least one position")
    cells_f = np.floor(window_xy / resolution).astype(int)
    cells = np.array([cells_f[0]] + [
        c for i in range(len(cells_f) - 1)
        for c in _bresenham(tuple(cells_f[i]), tuple(cells_f[i + 1]))])
    xs, ys = cells.T
    x_min, y_min = int(xs.min()), int(ys.min())
    mask = np.zeros((int(ys.max()) - y_min + 1, int(xs.max()) - x_min + 1), dtype=bool)
    mask[ys - y_min, xs - x_min] = True
    anchor = (int(cells_f[-1, 0]) - x_min, int(cells_f[-1, 1]) - y_min)
    grid = mask.astype(np.float64)
    grid /= grid.sum()
    return TrajectoryKernel(grid=grid, anchor=anchor)


def cross_correlate(occ: OccupancyMap, kernel: TrajectoryKernel) -> np.ndarray:
    """Free-space overlap T_bar(x) for the trajectory ending at each cell x.

    T_bar(x) = sum_k grid[k] * free(x - anchor + k), zero outside the map,
    summed left to right in kernel row-major order.  Each term is w or +0.0,
    so the sum is table[m], with m the number of free taps and table the
    same left-to-right sum of w's: table = [0.0, w, w + w, ...].  The counts
    add one shifted slice of the zero-padded map per tap, in the smallest
    unsigned type that holds the tap count (uint8 below 256 taps), and one
    lookup turns them into float64.  The result is bit-identical to the
    float sum, and to a scalar per-placement sum in the same order.
    """
    grid = kernel.grid
    kh, kw = grid.shape
    h, w = occ.free.shape
    if kh > h or kw > w:
        raise ValueError(f"kernel {kh}x{kw} larger than map {h}x{w}")
    ky, kx = np.nonzero(grid)
    weights = grid[ky, kx]
    if not (weights.size and 0 < weights[0] < np.inf
            and np.all(weights == weights[0])):
        raise ValueError("kernel needs one positive finite weight on its "
                         f"nonzero cells, not {np.unique(weights)[:4]}")
    table = np.concatenate([[0.0], np.cumsum(np.full(weights.size, weights[0]))])
    ax, ay = kernel.anchor
    padded = np.pad(occ.free, ((ay, kh - 1 - ay), (ax, kw - 1 - ax))).view(np.uint8)
    count = np.zeros((h, w), dtype=np.min_scalar_type(weights.size))
    for y, x in zip(ky.tolist(), kx.tolist()):
        count += padded[y : y + h, x : x + w]
    return table.take(count.astype(np.intp), mode="clip")


def make_target(occ: OccupancyMap, window_xy: np.ndarray) -> TargetMap:
    """Overlap target for a trajectory window on a map (or crop)."""
    t_bar = cross_correlate(occ, rasterize_kernel(window_xy, occ.resolution))
    return TargetMap(values=TARGET_SCALE * np.exp(TARGET_GAIN * t_bar),
                     overlap=t_bar)


def location_target(occ: OccupancyMap, end_xy) -> np.ndarray:
    """Regression target of the learned prior for a window ending at end_xy.

    LOCATION_FLOOR plus a unit-peak Gaussian of width LOCATION_SIGMA_M around
    end_xy on free cells, zero on occupied cells.  Its regression optimum is
    the floor plus the Gaussian-smoothed posterior of the end position given
    the crop and the window, which is positive on every free cell.
    """
    xs, ys = occ.cell_center(np.arange(occ.width), np.arange(occ.height))
    d2 = (xs[None, :] - end_xy[0]) ** 2 + (ys[:, None] - end_xy[1]) ** 2
    peak = np.exp(-0.5 * d2 / LOCATION_SIGMA_M ** 2)
    return np.where(occ.free, LOCATION_FLOOR + peak, 0.0)
