import numpy as np
import pytest

from mapprior import synthmaps
from mapprior.simulate import (NoiseProfile, Odometry, Trajectory,
                               corrupt_to_odometry, dead_reckoning,
                               diff_drive_step, generate_trajectory,
                               integrate_odometry, read_odometry_csv,
                               read_trajectory_csv, window, wrap_angle,
                               write_odometry_csv, write_trajectory_csv)


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

    def test_theta_wrapped_and_time_uniform(self, rooms_map):
        traj = generate_trajectory(rooms_map, seed=2, duration_s=30.0)
        assert np.all(traj.theta > -np.pi) and np.all(traj.theta <= np.pi)
        assert np.allclose(np.diff(traj.t), 1.0)


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

    def test_fixed_bias_doubles_displacements(self):
        traj = self.make_traj()
        noise = NoiseProfile(velocity_bias_sigma=0.0, additive_sigma=0.0,
                             heading_drift_sigma=0.0, fixed_bias=2.0)
        odom = corrupt_to_odometry(traj, noise, seed=0)
        assert np.array_equal(odom.dxy, 2.0 * np.diff(traj.xy, axis=0))

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
        with pytest.raises(ValueError, match="uniform"):
            corrupt_to_odometry(traj, NoiseProfile.noiseless(), seed=0)


class TestWindow:
    def test_constant_velocity_positions(self):
        positions = np.stack([np.arange(10.0), np.zeros(10)], axis=1)
        wins = window(positions, 5.0, 1.0)
        expected = np.stack([np.arange(5.0), np.zeros(5)], axis=1)
        assert np.array_equal(wins[0], expected)
        assert len(wins) == 6

    def test_exact_length_stream_gives_one_window(self):
        positions = np.arange(10.0).reshape(5, 2)
        wins = window(positions, 5.0, 1.0)
        assert wins.shape == (1, 5, 2)

    def test_translation_invariance(self):
        rng = np.random.default_rng(0)
        positions = rng.normal(size=(20, 2))
        shifted = positions + np.array([123.4, -56.7])
        assert np.allclose(window(positions, 4.0, 1.0), window(shifted, 4.0, 1.0))

    def test_every_window_starts_at_zero(self):
        rng = np.random.default_rng(1)
        wins = window(rng.normal(size=(30, 2)), 6.0, 1.0)
        assert np.array_equal(wins[:, 0, :], np.zeros((len(wins), 2)))

    def test_too_short_stream_raises(self):
        with pytest.raises(ValueError, match="shorter"):
            window(np.zeros((3, 2)), 5.0, 1.0)


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
