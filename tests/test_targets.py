import numpy as np
import pytest

from mapprior import simulate, synthmaps
from mapprior.baselines import heuristic_prior
from mapprior.occupancy import OccupancyMap
from mapprior.targets import (TARGET_GAIN, TARGET_SCALE, TrajectoryKernel,
                              _bresenham, cross_correlate, make_target,
                              rasterize_kernel)

from conftest import random_map


def brute_force_overlap(occ: OccupancyMap, kernel: TrajectoryKernel) -> np.ndarray:
    """Per-placement overlap sum, scalar accumulation in kernel row-major order."""
    h, w = occ.free.shape
    kh, kw = kernel.grid.shape
    ax, ay = kernel.anchor
    out = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for ky in range(kh):
                for kx in range(kw):
                    yy, xx = y - ay + ky, x - ax + kx
                    inside = 0 <= yy < h and 0 <= xx < w
                    free = 1.0 if inside and occ.free[yy, xx] else 0.0
                    acc += kernel.grid[ky, kx] * free
            out[y, x] = acc
    return out


def cross_correlate_slices(occ: OccupancyMap, kernel: TrajectoryKernel) -> np.ndarray:
    """Overlap as a float sum: one weighted shifted slice of the zero-padded
    map added per nonzero kernel cell, in row-major order."""
    kh, kw = kernel.grid.shape
    h, w = occ.free.shape
    ax, ay = kernel.anchor
    padded = np.pad(occ.free.astype(np.float64),
                    ((ay, kh - 1 - ay), (ax, kw - 1 - ax)))
    out = np.zeros((h, w), dtype=np.float64)
    for ky, kx in zip(*np.nonzero(kernel.grid)):
        out += kernel.grid[ky, kx] * padded[ky : ky + h, kx : kx + w]
    return out


def serpentine_kernel(n: int, side: int = 16) -> TrajectoryKernel:
    """Kernel of exactly n cells: a walk that sweeps rows of `side` cells."""
    rows, cols = np.divmod(np.arange(n), side)
    cols = np.where(rows % 2 == 1, side - 1 - cols, cols)
    return rasterize_kernel(np.stack([cols, rows], axis=1) + 0.5, 1.0)


def random_kernel(rng: np.random.Generator, max_side: int = 5) -> TrajectoryKernel:
    """Kernel rasterized from a random short walk (always uniform weights)."""
    steps = rng.integers(1, 4)
    pts = np.cumsum(rng.normal(0, max_side / 4, (steps + 1, 2)), axis=0)
    return rasterize_kernel(pts, 1.0)


def rasterize_kernel_set(window_xy, resolution: float):
    """Grid and anchor of `rasterize_kernel`, with the visited cells
    collected in a set: the straightforward version it must equal."""
    cells_f = np.floor(np.asarray(window_xy, dtype=np.float64) / resolution).astype(int)
    visited = {tuple(cells_f[0])}
    for i in range(len(cells_f) - 1):
        visited.update(_bresenham(tuple(cells_f[i]), tuple(cells_f[i + 1])))
    xs = np.array([c[0] for c in visited])
    ys = np.array([c[1] for c in visited])
    x_min, y_min = int(xs.min()), int(ys.min())
    mask = np.zeros((int(ys.max()) - y_min + 1, int(xs.max()) - x_min + 1), dtype=bool)
    mask[ys - y_min, xs - x_min] = True
    grid = mask.astype(np.float64)
    grid /= grid.sum()
    return grid, (int(cells_f[-1][0]) - x_min, int(cells_f[-1][1]) - y_min)


class TestRasterizeKernel:
    def test_matches_set_oracle(self):
        rng = np.random.default_rng(12)
        for trial in range(3000):
            n = int(rng.integers(1, 25))
            pts = np.cumsum(rng.normal(0, rng.choice([0.0, 0.1, 0.5, 2.0]),
                                       (n, 2)), axis=0) + rng.uniform(-5, 5, 2)
            res = float(rng.choice([0.25, 0.5, 1.0]))
            k = rasterize_kernel(pts, res)
            grid, anchor = rasterize_kernel_set(pts, res)
            assert k.grid.dtype == grid.dtype, trial
            assert np.array_equal(k.grid, grid), trial
            assert k.anchor == anchor, trial
            assert all(type(a) is int for a in k.anchor), trial

    def test_stationary_window_degenerates(self):
        k = rasterize_kernel(np.zeros((5, 2)), 0.25)
        assert k.grid.shape == (1, 1)
        assert k.grid[0, 0] == 1.0
        assert k.anchor == (0, 0)

    def test_straight_east_segment(self):
        win = np.array([[0.0, 0.0], [0.25, 0.0], [0.5, 0.0], [0.75, 0.0]])
        k = rasterize_kernel(win, 0.25)
        assert k.grid.shape == (1, 4)
        assert np.allclose(k.grid, 0.25)
        assert k.anchor == (3, 0)

    def test_weights_always_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            pts = np.cumsum(rng.normal(0, 1.0, (rng.integers(1, 8), 2)), axis=0)
            k = rasterize_kernel(pts, 0.25)
            assert k.grid.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(k.grid >= 0)

    def test_bounding_box_is_tight(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            pts = np.cumsum(rng.normal(0, 1.0, (5, 2)), axis=0)
            k = rasterize_kernel(pts, 0.25)
            assert k.grid.sum(axis=0).all() or k.grid.shape[1] == 1
            assert k.grid[0].any() and k.grid[-1].any()
            assert k.grid[:, 0].any() and k.grid[:, -1].any()

    def test_bresenham_connects_consecutive_positions(self):
        win = np.array([[0.0, 0.0], [1.0, 1.0]])
        k = rasterize_kernel(win, 0.25)
        # A 4-cell diagonal is connected (8-connectivity), weights uniform.
        assert k.grid.shape == (5, 5)
        visited = int(round(1.0 / k.grid[k.grid > 0].min()))
        assert visited == np.count_nonzero(k.grid)


class TestCrossCorrelate:
    def test_all_free_interior_is_one(self):
        occ = OccupancyMap(np.ones((9, 9), dtype=bool), 1.0)
        k = rasterize_kernel(np.array([[0.0, 0.0], [2.0, 1.0]]), 1.0)
        t_bar = cross_correlate(occ, k)
        kh, kw = k.grid.shape
        ax, ay = k.anchor
        interior = t_bar[ay : 9 - (kh - 1 - ay), ax : 9 - (kw - 1 - ax)]
        assert np.allclose(interior, 1.0)

    def test_all_occupied_is_zero(self):
        occ = OccupancyMap(np.zeros((6, 6), dtype=bool), 1.0)
        k = rasterize_kernel(np.array([[0.0, 0.0], [1.0, 0.0]]), 1.0)
        assert np.all(cross_correlate(occ, k) == 0.0)

    def test_single_obstacle_half_overlap(self):
        free = np.ones((5, 5), dtype=bool)
        free[2, 2] = False
        occ = OccupancyMap(free, 1.0)
        grid = np.array([[0.5, 0.5]])
        k = TrajectoryKernel(grid=grid, anchor=(0, 0))
        t_bar = cross_correlate(occ, k)
        oracle = brute_force_overlap(occ, k)
        assert np.array_equal(t_bar, oracle)
        # Exactly the placements overlapping the obstacle with one of two cells.
        assert t_bar[2, 2] == 0.5 and t_bar[2, 1] == 0.5
        assert t_bar[2, 3] == 1.0

    def test_matches_brute_force_bitwise(self):
        rng = np.random.default_rng(3)
        for trial in range(25):
            h, w = rng.integers(3, 17, 2)
            occ = random_map(rng, h, w, p_free=float(rng.uniform(0.2, 0.9)))
            k = random_kernel(rng)
            if k.grid.shape[0] > h or k.grid.shape[1] > w:
                continue
            assert np.array_equal(cross_correlate(occ, k),
                                  brute_force_overlap(occ, k)), f"trial {trial}"

    def test_kernel_larger_than_map_raises(self):
        occ = OccupancyMap(np.ones((2, 2), dtype=bool), 1.0)
        k = TrajectoryKernel(grid=np.full((3, 3), 1 / 9), anchor=(1, 1))
        with pytest.raises(ValueError, match="larger"):
            cross_correlate(occ, k)

    @pytest.mark.parametrize("grid", [[[0.25, 0.75]], [[0.0, 0.0]],
                                      [[0.5, -0.5]], [[np.inf, 0.0]]])
    def test_non_uniform_or_empty_kernel_raises(self, grid):
        occ = OccupancyMap(np.ones((4, 4), dtype=bool), 1.0)
        k = TrajectoryKernel(grid=np.array(grid), anchor=(0, 0))
        with pytest.raises(ValueError, match="one positive finite weight") as err:
            cross_correlate(occ, k)
        assert "\n" not in str(err.value)


class TestCountsMatchFloatSum:
    """`cross_correlate` counts free taps in small ints; the float sum of
    `cross_correlate_slices` is its oracle, byte for byte."""

    @staticmethod
    def assert_bytes_equal(got, want, what):
        assert got.dtype == want.dtype == np.float64, what
        assert got.tobytes() == want.tobytes(), what

    def test_query_windows_on_256_map(self):
        # The benchmark's query walks: window_len positions, ~1.4 m steps.
        occ = synthmaps.office_floor(256, 256)
        rng = np.random.default_rng(0)
        for q in range(200):
            win = np.vstack([[0.0, 0.0],
                             np.cumsum(rng.normal(0.0, 1.0, (4, 2)), axis=0)])
            want = cross_correlate_slices(occ, rasterize_kernel(win, occ.resolution))
            self.assert_bytes_equal(heuristic_prior(occ, win), want, f"window {q}")

    def test_held_out_stream_on_acceptance_map(self):
        occ = synthmaps.office_floor()
        gt = simulate.generate_trajectory(occ, seed=500, duration_s=120.0)
        odom = simulate.corrupt_to_odometry(gt, simulate.NoiseProfile.pedestrian(),
                                            seed=501, resolution=occ.resolution)
        wins = simulate.window(simulate.integrate_odometry(odom), 5)
        assert len(wins) > 100
        for i, win in enumerate(wins):
            want = cross_correlate_slices(occ, rasterize_kernel(win, occ.resolution))
            self.assert_bytes_equal(make_target(occ, win).overlap, want, f"window {i}")

    @pytest.mark.parametrize("n", [255, 256, 300])
    def test_uint8_to_uint16_boundary(self, n):
        k = serpentine_kernel(n)
        assert np.count_nonzero(k.grid) == n
        all_free = OccupancyMap(np.ones((40, 40), dtype=bool), 0.25)
        for occ in (all_free, synthmaps.office_floor(256, 256)):
            want = cross_correlate_slices(occ, k)
            self.assert_bytes_equal(cross_correlate(occ, k), want, occ.free.shape)
        # On the 256-cell map too, some placement has every tap free.
        assert want.max() == cross_correlate_slices(all_free, k).max()


class TestMakeTarget:
    def test_exponential_endpoints(self):
        occ = OccupancyMap(np.ones((8, 8), dtype=bool), 1.0)
        tm = make_target(occ, np.zeros((3, 2)))
        # Full overlap everywhere: T = 1e-6 * e^14.
        assert np.allclose(tm.values, TARGET_SCALE * np.exp(TARGET_GAIN),
                           rtol=1e-9)
        blocked = OccupancyMap(np.zeros((8, 8), dtype=bool) | False, 1.0)
        free = np.zeros((8, 8), dtype=bool)
        blocked = OccupancyMap(free, 1.0)
        tm0 = make_target(blocked, np.zeros((3, 2)))
        assert np.allclose(tm0.values, TARGET_SCALE, rtol=1e-12)

    def test_monotone_in_overlap(self):
        rng = np.random.default_rng(5)
        occ = random_map(rng, 12, 12)
        win = np.cumsum(rng.normal(0, 0.4, (4, 2)), axis=0)
        tm = make_target(occ, win)
        a, b = tm.overlap.ravel(), tm.values.ravel()
        order = np.argsort(a)
        assert np.all(np.diff(b[order]) >= -1e-12)

    def test_value_range(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            occ = random_map(rng, 10, 10, resolution=1.0)
            win = np.cumsum(rng.normal(0, 0.5, (5, 2)), axis=0)
            tm = make_target(occ, win)
            assert tm.values.min() >= TARGET_SCALE * (1 - 1e-12)
            assert tm.values.max() <= TARGET_SCALE * np.exp(TARGET_GAIN) * (1 + 1e-12)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(7)
        inner = rng.random((6, 6)) < 0.6
        pad_a = np.ones((14, 14), dtype=bool)
        pad_b = np.ones((14, 14), dtype=bool)
        pad_a[2:8, 2:8] = inner
        pad_b[5:11, 6:12] = inner
        win = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 1.0]])
        ta = make_target(OccupancyMap(pad_a, 1.0), win)
        tb = make_target(OccupancyMap(pad_b, 1.0), win)
        # Away from the border the shifted targets agree on the shifted block.
        assert np.allclose(ta.values[3:7, 3:7], tb.values[6:10, 7:11])
