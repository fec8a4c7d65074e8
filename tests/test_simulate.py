import csv
import dataclasses
import heapq
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

from mapprior import synthmaps
from mapprior.baselines import CrfParams
from mapprior.model import ModelConfig
from mapprior.occupancy import OccupancyMap
from mapprior.particle_filter import FilterConfig
from mapprior.simulate import (NoiseProfile, Odometry, Trajectory,
                               _astar, _planning_map, _write_csv, corrupt_to_odometry,
                               dead_reckoning, diff_drive_step,
                               generate_trajectory, integrate_odometry,
                               read_odometry_csv, read_trajectory_csv, window,
                               wrap_angle, write_odometry_csv,
                               write_trajectory_csv)


# Each config class and the prefix of its messages.  Every field gets a bool
# and a value of another type, so a field added without a type check fails.
CONFIG_PREFIXES = ((ModelConfig, "config "), (FilterConfig, ""),
                   (NoiseProfile, "noise "), (CrfParams, "CRF "))


@pytest.mark.parametrize("cls, where, field, value", [
    pytest.param(cls, where, f, bad, id=f"{cls.__name__}.{f.name}-{bad!r}")
    for cls, where in CONFIG_PREFIXES for f in dataclasses.fields(cls)
    for bad in (True, 1 if f.type == "str" else "1")])
def test_every_config_field_rejects_a_wrong_type(cls, where, field, value):
    message = f"{where}{field.name} must be {field.type}, not {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cls(**{field.name: value})


@pytest.mark.parametrize("cls, where, field", [
    pytest.param(cls, where, f.name, id=f"{cls.__name__}.{f.name}")
    for cls, where in CONFIG_PREFIXES for f in dataclasses.fields(cls)
    if f.type == "float"])
def test_every_float_field_rejects_an_int_beyond_float_range(cls, where, field):
    # 10**400 compares below inf but cannot be converted to a float.
    with pytest.raises(ValueError, match=f"^{re.escape(where + field)} must be "):
        cls(**{field: 10**400})


def test_int_within_float_range_passes_a_float_field():
    noise = NoiseProfile(additive_sigma=int(sys.float_info.max))
    assert noise.additive_sigma == sys.float_info.max


class TestDiffDrive:
    def test_one_rev_each_wheel_straight(self):
        # One revolution per wheel, no turn: arc length pi*r*(nL+nR).
        x, y, th = diff_drive_step(0.0, 0.0, 0.0, 1.0, 1.0, 0.0)
        assert x == pytest.approx(np.pi * 0.033 * 2.0, rel=1e-12)
        assert y == pytest.approx(0.0, abs=1e-12)
        assert th == 0.0

    def test_translation_follows_heading_plus_dtheta(self):
        x, y, th = diff_drive_step(1.0, 2.0, np.pi / 2, 0.5, 0.5, np.pi / 2)
        ds = np.pi * 0.033
        assert x == pytest.approx(1.0 + ds * np.cos(np.pi), rel=1e-12)
        assert y == pytest.approx(2.0 + ds * np.sin(np.pi), abs=1e-9)
        assert th == pytest.approx(np.pi, rel=1e-12)


class TestGenerateTrajectory:
    def test_pedestrian_stays_in_free_space(self, rooms_map):
        traj = generate_trajectory(rooms_map, seed=7, duration_s=120.0)
        assert all(rooms_map.is_free(traj.xy[i]) for i in range(len(traj)))

    def test_deterministic(self, rooms_map):
        a = generate_trajectory(rooms_map, seed=3, duration_s=60.0)
        b = generate_trajectory(rooms_map, seed=3, duration_s=60.0)
        assert np.array_equal(a.xy, b.xy)
        assert np.array_equal(a.theta, b.theta)

    def test_wheeled_profile_feasible_and_slow(self, rooms_map):
        traj = generate_trajectory(rooms_map, seed=5, duration_s=90.0,
                                   profile="wheeled")
        assert all(rooms_map.is_free(traj.xy[i]) for i in range(len(traj)))
        speeds = np.hypot(*np.diff(traj.xy, axis=0).T) / np.diff(traj.t)
        assert speeds.max() < 0.3  # driving profile, not walking

    def test_pedestrian_speed_near_target(self, rooms_map):
        traj = generate_trajectory(rooms_map, seed=11, duration_s=120.0)
        dist = np.hypot(*np.diff(traj.xy, axis=0).T).sum()
        avg = dist / (traj.t[-1] - traj.t[0])
        assert 0.6 < avg < 1.4  # slows in turns, never exceeds 1.3

    def test_no_free_space_raises(self):
        occ = synthmaps.open_box(6, 6)
        blocked = type(occ)(np.zeros_like(occ.free), occ.resolution)
        with pytest.raises(ValueError, match="free"):
            generate_trajectory(blocked, seed=0, duration_s=10.0)

    @pytest.mark.parametrize("duration", [np.nan, np.inf, -np.inf, -1.0, 0.0,
                                          0.5, 0.94])
    def test_duration_without_two_samples_rejected(self, rooms_map, duration):
        with pytest.raises(ValueError, match=f"duration {duration} s"):
            generate_trajectory(rooms_map, seed=0, duration_s=duration)

    def test_shortest_duration_gives_two_samples(self, rooms_map):
        for profile in ("pedestrian", "wheeled"):
            traj = generate_trajectory(rooms_map, seed=0, duration_s=1.0,
                                       profile=profile)
            assert len(traj) == 2

    def test_theta_wrapped_and_time_uniform(self, rooms_map):
        traj = generate_trajectory(rooms_map, seed=2, duration_s=30.0)
        assert np.all(traj.theta > -np.pi) and np.all(traj.theta <= np.pi)
        assert np.allclose(np.diff(traj.t), 1.0)


def scipy_erosion(free: np.ndarray) -> np.ndarray:
    return ndimage.binary_erosion(free, structure=np.ones((3, 3)),
                                  border_value=0)


class TestPlanningMap:
    def test_matches_scipy_on_layouts(self):
        for occ in (synthmaps.open_box(), synthmaps.corridor_rooms(),
                    synthmaps.office_floor(), synthmaps.hallway_with_rooms()):
            got = _planning_map(occ)
            want = scipy_erosion(occ.free)
            assert got.free.dtype == want.dtype
            assert np.array_equal(got.free, want)
            assert got.resolution == occ.resolution and got.origin == occ.origin

    def test_matches_scipy_on_random_maps(self):
        rng = np.random.default_rng(0)
        shapes = [(1, n) for n in range(1, 41)] + [(n, 1) for n in range(1, 41)]
        shapes += [tuple(rng.integers(1, 41, size=2)) for _ in range(1000)]
        for k, shape in enumerate(shapes):
            free = rng.random(shape) < rng.uniform(0.5, 1.0)
            if k % 10 == 0:
                free[:] = True
            want = scipy_erosion(free)
            got = _planning_map(OccupancyMap(free, 0.25)).free
            # An empty erosion falls back to the raw map.
            assert np.array_equal(got, want if want.any() else free), shape

    def test_empty_erosion_returns_raw_map(self):
        free = np.zeros((6, 6), dtype=bool)
        free[2:4, 1:5] = True  # two cells thick: erodes to nothing
        occ = OccupancyMap(free, 0.25)
        assert not scipy_erosion(free).any()
        assert _planning_map(occ) is occ


def astar_oracle(occ, start, goal):
    """The tuple-keyed A* that `_astar` replaced: octile heuristic, no
    diagonal corner cutting, heap ties broken on (x, y) tuples."""
    if start == goal:
        return [start]
    w, h = occ.width, occ.height
    free = occ.free
    sqrt2 = float(np.sqrt(2.0))

    def heuristic(c):
        dx, dy = abs(c[0] - goal[0]), abs(c[1] - goal[1])
        return (dx + dy) + (sqrt2 - 2.0) * min(dx, dy)

    open_heap = [(heuristic(start), 0.0, start)]
    g_cost = {start: 0.0}
    came = {}
    closed = set()
    while open_heap:
        _, g, cur = heapq.heappop(open_heap)
        if cur == goal:
            path = [cur]
            while cur in came:
                cur = came[cur]
                path.append(cur)
            return path[::-1]
        if cur in closed:
            continue
        closed.add(cur)
        cx, cy = cur
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                nx, ny = cx + dx, cy + dy
                if not (0 <= nx < w and 0 <= ny < h) or not free[ny, nx]:
                    continue
                if dx != 0 and dy != 0 and not (free[cy, nx] and free[ny, cx]):
                    continue
                step = sqrt2 if dx != 0 and dy != 0 else 1.0
                ng = g + step
                nxt = (nx, ny)
                if ng < g_cost.get(nxt, np.inf):
                    g_cost[nxt] = ng
                    came[nxt] = cur
                    heapq.heappush(open_heap, (ng + heuristic(nxt), ng, nxt))
    return None


def two_rooms():
    """An open box split by a full-height wall: no path crosses it."""
    occ = synthmaps.open_box(24, 16)
    free = occ.free.copy()
    free[:, 11] = False
    return OccupancyMap(free, occ.resolution)


class TestAstar:
    LAYOUTS = {"open_box": synthmaps.open_box,
               "corridor_rooms": synthmaps.corridor_rooms,
               "office_floor": synthmaps.office_floor,
               "hallway_with_rooms": synthmaps.hallway_with_rooms,
               "two_rooms": two_rooms}

    @staticmethod
    def pairs(occ, rng, n):
        """Seeded (start, goal) pairs: free to free, free to occupied, any
        cell to any cell, edge cells as starts, and start == goal."""
        h, w = occ.height, occ.width
        cells = [tuple(int(v) for v in c) for c in occ.free_cells()]
        walls = [(int(x), int(y)) for y, x in np.argwhere(~occ.free)]

        def pick():
            return cells[rng.integers(len(cells))]

        def anywhere():
            return int(rng.integers(w)), int(rng.integers(h))

        edges = sorted({(x, y) for x in range(w) for y in (0, h - 1)}
                       | {(x, y) for x in (0, w - 1) for y in range(h)})
        out = [(pick(), pick()) for _ in range(n)]
        out += [(pick(), walls[rng.integers(len(walls))]) for _ in range(n // 4)]
        out += [(anywhere(), anywhere()) for _ in range(n // 2)]
        out += [(anywhere(), pick()) for _ in range(n // 2)]
        out += [(edges[i], pick()) for i in rng.choice(len(edges), n // 2)]
        out += [(c, c) for c in (pick(), anywhere(), edges[0])]
        return out

    @pytest.mark.parametrize("name", sorted(LAYOUTS))
    def test_matches_tuple_keyed_oracle(self, name):
        rng = np.random.default_rng(sorted(self.LAYOUTS).index(name))
        raw = self.LAYOUTS[name]()
        for occ in (raw, _planning_map(raw)):
            outcomes = set()
            for start, goal in self.pairs(occ, rng, 24):
                got = _astar(occ, start, goal)
                want = astar_oracle(occ, start, goal)
                assert got == want, (name, start, goal)
                assert got is None or all(type(v) is int for c in got for v in c)
                outcomes.add(got is None)
            assert outcomes == {True, False}  # some pairs have no path

    def test_matches_oracle_on_scattered_pillars(self):
        # Lone occupied cells block diagonals, so two parents can offer a
        # cell the same cost at the same (f, g): the heap's cell order picks
        # the path.  Keys ordered y-major instead fail here.
        rng = np.random.default_rng(7)
        for _ in range(300):
            h, w = (int(v) for v in rng.integers(3, 24, 2))
            occ = OccupancyMap(rng.random((h, w)) < rng.uniform(0.75, 1.0), 0.25)
            for _ in range(10):
                start = (int(rng.integers(w)), int(rng.integers(h)))
                goal = (int(rng.integers(w)), int(rng.integers(h)))
                assert _astar(occ, start, goal) == astar_oracle(occ, start, goal)

    def test_start_or_goal_outside_grid_has_no_path(self):
        occ = OccupancyMap(np.ones((8, 8), dtype=bool), 0.25)
        for start, goal in (((-1, 3), (3, 3)), ((3, 3), (8, 3)),
                            ((3, 3), (3, -1)), ((3, 9), (3, 3))):
            assert _astar(occ, start, goal) is None
        assert _astar(occ, (-1, 3), (-1, 3)) == [(-1, 3)]


def test_pipeline_loads_no_scipy():
    """Simulate, build a training set and run both priors without scipy.

    A subprocess, because other test modules import scipy in this one."""
    script = textwrap.dedent("""
        import sys
        from mapprior import synthmaps
        from mapprior.model import ModelConfig, build_training_set, init_weights
        from mapprior.particle_filter import FilterConfig, run_filter
        from mapprior.simulate import (NoiseProfile, corrupt_to_odometry,
                                       generate_trajectory)
        occ = synthmaps.corridor_rooms()
        gt = generate_trajectory(occ, seed=0, duration_s=20.0)
        config = ModelConfig(channels=4, unet_depth=2, base_width=2,
                             window_len=3, crop_size=8, epochs=1)
        build_training_set(occ, [gt], config, NoiseProfile.pedestrian(), seed=0)
        odom = corrupt_to_odometry(gt, NoiseProfile.pedestrian(), seed=1,
                                   resolution=occ.resolution)
        fc = FilterConfig(particle_count=20, window_len=3)
        run_filter(odom, occ, "heuristic", fc, seed=0, start=gt.pose(0))
        run_filter(odom, occ, "learned", fc, seed=0, start=gt.pose(0),
                   weights=init_weights(config, 0), model_config=config)
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"


class TestCorruptToOdometry:
    def make_traj(self):
        t = np.arange(8.0)
        xy = np.stack([0.5 * t, 0.25 * t], axis=1)
        theta = np.full(8, 0.1)
        return Trajectory(t=t, xy=xy, theta=theta)

    def test_zero_noise_is_identity(self):
        traj = self.make_traj()
        odom = corrupt_to_odometry(traj, NoiseProfile.noiseless(), seed=0)
        assert np.array_equal(odom.dxy, np.diff(traj.xy, axis=0))
        assert np.array_equal(odom.dtheta, wrap_angle(np.diff(traj.theta)))

    @pytest.mark.parametrize("key, value", [
        ("velocity_bias_sigma", float("nan")), ("additive_sigma", float("inf")),
        ("heading_drift_sigma", float("nan")), ("bias_window_s", float("nan")),
        ("bias_window_s", -3.0), ("bias_window_s", True), ("additive_sigma", "0.1")])
    def test_out_of_range_field_rejected_at_construction(self, key, value):
        with pytest.raises(ValueError, match=f"^noise {key} must be"):
            NoiseProfile(**{key: value})

    def test_one_bias_block_scales_every_displacement(self):
        # A bias window longer than the walk: one draw scales every step.
        traj = self.make_traj()
        noise = NoiseProfile(velocity_bias_sigma=0.5, additive_sigma=0.0,
                             heading_drift_sigma=0.0, bias_window_s=10.0)
        odom = corrupt_to_odometry(traj, noise, seed=0)
        factor = odom.dxy / np.diff(traj.xy, axis=0)
        assert factor[0, 0] != 1.0
        assert np.allclose(factor, factor[0, 0], rtol=1e-12, atol=0)

    def test_additive_noise_statistics(self):
        # 1000 steps of pure additive noise: residual std within 10% of spec.
        n = 1001
        t = np.arange(float(n))
        traj = Trajectory(t=t, xy=np.zeros((n, 2)) + [[1.0, 2.0]],
                          theta=np.zeros(n))
        noise = NoiseProfile(velocity_bias_sigma=0.0, additive_sigma=0.25,
                             heading_drift_sigma=0.0)
        odom = corrupt_to_odometry(traj, noise, seed=42, resolution=0.25)
        residual = odom.dxy - np.diff(traj.xy, axis=0)
        expected = 0.25 * 0.25
        assert abs(residual.std() - expected) < 0.1 * expected

    def test_heading_drift_rotates_displacements(self):
        traj = self.make_traj()
        noise = NoiseProfile(velocity_bias_sigma=0.0, additive_sigma=0.0,
                             heading_drift_sigma=0.05)
        odom = corrupt_to_odometry(traj, noise, seed=3)
        true_d = np.diff(traj.xy, axis=0)
        # Magnitudes preserved by rotation, directions not.
        assert np.allclose(np.hypot(*odom.dxy.T), np.hypot(*true_d.T))
        assert not np.allclose(odom.dxy, true_d)
        # Reported heading deltas include the injected noise exactly.
        drift = odom.dtheta - wrap_angle(np.diff(traj.theta))
        assert np.allclose(np.cumsum(drift),
                           np.arctan2(odom.dxy[:, 1], odom.dxy[:, 0])
                           - np.arctan2(true_d[:, 1], true_d[:, 0]))

    def test_deterministic(self):
        traj = self.make_traj()
        a = corrupt_to_odometry(traj, NoiseProfile.pedestrian(), seed=9)
        b = corrupt_to_odometry(traj, NoiseProfile.pedestrian(), seed=9)
        assert np.array_equal(a.dxy, b.dxy)

    def test_nonuniform_sampling_rejected(self):
        t = np.array([0.0, 1.0, 3.0])
        traj = Trajectory(t=t, xy=np.zeros((3, 2)), theta=np.zeros(3))
        with pytest.raises(ValueError, match="^sampled every 1 to 2 s, not at 1 Hz$"):
            corrupt_to_odometry(traj, NoiseProfile.noiseless(), seed=0)

    def test_uniform_sampling_other_than_1hz_rejected(self):
        # Bias blocks and odometry windows count samples of the 1 Hz clock.
        t = 0.5 * np.arange(8.0)
        traj = Trajectory(t=t, xy=np.zeros((8, 2)), theta=np.zeros(8))
        with pytest.raises(ValueError, match="^sampled every 0.5 s, not at 1 Hz$"):
            corrupt_to_odometry(traj, NoiseProfile.noiseless(), seed=0)


class TestWindow:
    def test_constant_velocity_positions(self):
        positions = np.stack([np.arange(10.0), np.zeros(10)], axis=1)
        wins = window(positions, 5)
        expected = np.stack([np.arange(5.0), np.zeros(5)], axis=1)
        assert np.array_equal(wins[0], expected)
        assert len(wins) == 6

    def test_exact_length_stream_gives_one_window(self):
        positions = np.arange(10.0).reshape(5, 2)
        wins = window(positions, 5)
        assert wins.shape == (1, 5, 2)

    def test_translation_invariance(self):
        rng = np.random.default_rng(0)
        positions = rng.normal(size=(20, 2))
        shifted = positions + np.array([123.4, -56.7])
        assert np.allclose(window(positions, 4), window(shifted, 4))

    def test_every_window_starts_at_zero(self):
        rng = np.random.default_rng(1)
        wins = window(rng.normal(size=(30, 2)), 6)
        assert np.array_equal(wins[:, 0, :], np.zeros((len(wins), 2)))

    def test_too_short_stream_raises(self):
        with pytest.raises(ValueError, match="shorter"):
            window(np.zeros((3, 2)), 5)


class TestIntegration:
    def test_integrate_inverts_diff(self):
        rng = np.random.default_rng(2)
        xy = np.cumsum(rng.normal(size=(12, 2)), axis=0)
        odom = Odometry(t=np.arange(1.0, 12.0), dxy=np.diff(xy, axis=0),
                        dtheta=np.zeros(11))
        rebuilt = integrate_odometry(odom, xy[0])
        assert np.allclose(rebuilt, xy)


class TestCsvRoundTrip:
    def test_trajectory(self, tmp_path, rooms_map):
        traj = generate_trajectory(rooms_map, seed=1, duration_s=20.0)
        path = tmp_path / "t.csv"
        write_trajectory_csv(traj, path)
        back = read_trajectory_csv(path)
        assert np.array_equal(back.xy, traj.xy)
        assert np.array_equal(back.t, traj.t)
        assert np.array_equal(back.theta, traj.theta)

    def test_odometry(self, tmp_path):
        rng = np.random.default_rng(4)
        odom = Odometry(t=np.arange(1.0, 9.0), dxy=rng.normal(size=(8, 2)),
                        dtheta=rng.normal(size=8))
        path = tmp_path / "o.csv"
        write_odometry_csv(odom, path)
        back = read_odometry_csv(path)
        assert np.array_equal(back.dxy, odom.dxy)
        assert np.array_equal(back.dtheta, odom.dtheta)

    def test_writer_matches_csv_module_bytes(self, tmp_path):
        """`_write_csv` writes what csv.writer writes for '%.17g' fields."""
        rng = np.random.default_rng(13)
        specials = [-0.0, 0.0, 1e300, -1e300, 5e-324, 1 / 3, 1e16, np.nan,
                    np.inf, -np.inf]
        for trial in range(60):
            n = int(rng.integers(1, 40))
            rows = rng.normal(0, 10.0 ** rng.integers(-300, 300, (n, 4)))
            rows.flat[rng.integers(0, rows.size, 3)] = rng.choice(specials, 3)
            header = ["t", "x", "y", "theta"]
            _write_csv(tmp_path / "a.csv", header, rows[:, 0], rows[:, 1:3], rows[:, 3])
            with open(tmp_path / "b.csv", "w", newline="") as fh:
                out = csv.writer(fh)
                out.writerow(header)
                for row in rows:
                    out.writerow([format(float(v), ".17g") for v in row])
            assert ((tmp_path / "a.csv").read_bytes()
                    == (tmp_path / "b.csv").read_bytes()), trial

    def test_header_is_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_trajectory_csv(path)

    def test_row_with_missing_field_names_file_and_line(self, tmp_path):
        path = tmp_path / "o.csv"
        path.write_text("t,dx,dy,dtheta\n1,0.5,0,0\n2,0.5,0\n")
        with pytest.raises(ValueError, match=r"o\.csv: line 3: 3 fields"):
            read_odometry_csv(path)

    def test_non_finite_value_names_file(self, tmp_path):
        path = tmp_path / "o.csv"
        path.write_text("t,dx,dy,dtheta\n1,0.5,0,0\n2,nan,0,0\n")
        with pytest.raises(ValueError, match=r"o\.csv: odometry has non-finite"):
            read_odometry_csv(path)


def odometry(t=(1.0, 2.0, 3.0), dxy=None, dtheta=None) -> Odometry:
    n = len(t)
    return Odometry(t=np.asarray(t, dtype=float),
                    dxy=np.ones((n, 2)) if dxy is None else dxy,
                    dtheta=np.zeros(n) if dtheta is None else dtheta)


class TestStreamValidation:
    def test_valid_odometry_is_read_only_float64(self):
        odom = odometry(t=np.array([1, 2, 3]))
        assert odom.t.dtype == np.float64
        with pytest.raises(ValueError):
            odom.dxy[0, 0] = 5.0

    @pytest.mark.parametrize("bad", [
        {"dxy": np.array([[1.0, 1.0], [np.nan, 1.0], [1.0, 1.0]])},
        {"dtheta": np.array([0.0, np.inf, 0.0])},
        {"t": (1.0, np.nan, 3.0)},
    ])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            odometry(**bad)

    def test_decreasing_timestamps_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            odometry(t=(1.0, 3.0, 2.0))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes"):
            odometry(dxy=np.ones((3, 3)))

    def test_empty_odometry_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            odometry(t=())

    def test_trajectory_needs_two_poses(self):
        with pytest.raises(ValueError, match="at least 2"):
            Trajectory(t=[0.0], xy=[[0.0, 0.0]], theta=[0.0])

    def test_trajectory_nan_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            Trajectory(t=[0.0, 1.0], xy=[[0.0, 0.0], [np.nan, 0.0]],
                       theta=[0.0, 0.0])


class TestDeadReckoning:
    def test_noiseless_odometry_reproduces_trajectory(self, rooms_map):
        gt = generate_trajectory(rooms_map, seed=3, duration_s=30.0)
        odom = corrupt_to_odometry(gt, NoiseProfile.noiseless(), seed=0)
        est = dead_reckoning(odom, gt.pose(0))
        assert np.array_equal(est.t, gt.t)
        assert np.allclose(est.xy, gt.xy, atol=1e-9)
        assert np.allclose(wrap_angle(est.theta - gt.theta), 0.0, atol=1e-9)


class TestWrapAngle:
    def test_range_and_fixed_points(self):
        assert wrap_angle(np.pi) == np.pi
        assert wrap_angle(-np.pi) == np.pi
        assert wrap_angle(0.0) == 0.0
        xs = np.linspace(-20, 20, 1001)
        w = wrap_angle(xs)
        assert np.all(w > -np.pi) and np.all(w <= np.pi)
        assert np.allclose(np.cos(w), np.cos(xs), atol=1e-12)
        assert np.allclose(np.sin(w), np.sin(xs), atol=1e-12)
