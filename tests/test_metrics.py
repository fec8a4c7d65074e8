import numpy as np
import pytest

from mapprior import synthmaps
from mapprior.metrics import (ate, cdf_points, end_error,
                              heatmap_to_distribution, prior_kl,
                              trajectory_error)
from mapprior.occupancy import OccupancyMap
from mapprior.simulate import Trajectory


def traj(points, t0=0.0) -> Trajectory:
    xy = np.asarray(points, dtype=float)
    n = len(xy)
    return Trajectory(t=t0 + np.arange(float(n)), xy=xy, theta=np.zeros(n))


class TestAte:
    def test_identical_trajectories_zero(self):
        a = traj([[0, 0], [1, 1], [2, 0]])
        assert ate(a, a) == 0.0

    def test_hand_computed_rmse(self):
        est = traj([[0, 0], [1, 0]])
        gt = traj([[0, 0], [0, 0]])
        assert ate(est, gt) == pytest.approx(np.sqrt(0.5), rel=1e-12)

    def test_rigid_translation_invariance(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(10, 2))
        est, gt = traj(pts), traj(pts + rng.normal(0, 0.3, (10, 2)))
        shift = np.array([17.0, -4.0])
        a1 = ate(est, gt)
        a2 = ate(traj(est.xy + shift), traj(gt.xy + shift))
        assert a1 == pytest.approx(a2, rel=1e-12)

    def test_timestamp_association_within_half_period(self):
        gt = traj([[0, 0], [1, 0], [2, 0], [3, 0]])
        est = Trajectory(t=np.array([0.9, 2.1]),
                         xy=np.array([[1.0, 1.0], [2.0, 1.0]]),
                         theta=np.zeros(2))
        err = trajectory_error(est, gt)
        # est[0] pairs with gt t=1, est[1] with gt t=2: both errors are 1.
        assert err.ate == pytest.approx(1.0)
        assert err.n_matched == 2

    def test_no_overlap_raises(self):
        a = traj([[0, 0], [1, 0]])
        b = traj([[0, 0], [1, 0]], t0=100.0)
        with pytest.raises(ValueError, match="overlap"):
            ate(a, b)

    def test_ate_squared_is_mean_of_squares(self):
        rng = np.random.default_rng(1)
        est = traj(rng.normal(size=(9, 2)))
        gt = traj(rng.normal(size=(9, 2)))
        err = trajectory_error(est, gt)
        assert err.ate ** 2 == pytest.approx(np.mean(err.per_step_errors ** 2),
                                             rel=1e-12)


class TestEndError:
    def test_identical_endpoints(self):
        a = traj([[0, 0], [5, 5]])
        assert end_error(a, a) == 0.0

    def test_three_four_five(self):
        est = traj([[0, 0], [3, 4]])
        gt = traj([[0, 0], [0, 0]])
        assert end_error(est, gt) == pytest.approx(5.0, rel=1e-12)

    def test_ignores_intermediate_poses(self):
        gt = traj([[0, 0], [1, 1], [2, 2]])
        est1 = traj([[0, 0], [9, 9], [2, 2]])
        est2 = traj([[0, 0], [-3, 7], [2, 2]])
        assert end_error(est1, gt) == end_error(est2, gt) == 0.0


class TestCdfPoints:
    def test_half_fraction_at_median(self):
        pts = cdf_points([1.0, 2.0, 3.0, 4.0])
        idx = np.where(pts[:, 0] == 2.0)[0][0]
        assert pts[idx, 1] == 0.5

    def test_single_error_step(self):
        pts = cdf_points([2.5])
        assert pts.shape == (1, 2)
        assert pts[0, 0] == 2.5 and pts[0, 1] == 1.0

    def test_fractions_monotone_ending_at_one(self):
        rng = np.random.default_rng(2)
        pts = cdf_points(rng.exponential(size=57))
        assert np.all(np.diff(pts[:, 1]) >= 0)
        assert np.all(np.diff(pts[:, 0]) >= 0)
        assert pts[-1, 1] == 1.0

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="errors"):
            cdf_points([])


class TestPriorKl:
    def free_map(self, n=20, res=0.25):
        return OccupancyMap(np.ones((n, n), dtype=bool), res)

    def gaussian_heatmap(self, occ, center, sigma):
        ys, xs = np.mgrid[0 : occ.height, 0 : occ.width]
        cx = occ.origin[0] + (xs + 0.5) * occ.resolution
        cy = occ.origin[1] + (ys + 0.5) * occ.resolution
        d2 = (cx - center[0]) ** 2 + (cy - center[1]) ** 2
        return np.exp(-0.5 * d2 / sigma ** 2)

    def test_matching_gaussian_gives_zero(self):
        occ = self.free_map()
        center = occ.cell_center(10, 10)
        heat = self.gaussian_heatmap(occ, center, 1.0)
        assert prior_kl(heat, occ, center, sigma=1.0) == pytest.approx(0.0, abs=1e-6)

    def test_uniform_prior_closed_form(self):
        # 3 free cells, G concentrated: KL = sum G log(G k).
        free = np.zeros((1, 5), dtype=bool)
        free[0, :3] = True
        occ = OccupancyMap(free, resolution=1.0)
        gt = occ.cell_center(0, 0)
        heat = np.ones((1, 5))
        ys, xs = np.nonzero(free)
        centers = np.stack([(xs + 0.5), (ys + 0.5)], axis=1)
        g = np.exp(-0.5 * ((centers - gt) ** 2).sum(axis=1) / 1.0)
        g /= g.sum()
        expected = float(np.sum(g * np.log(g * 3)))
        assert prior_kl(heat, occ, gt, sigma=1.0) == pytest.approx(expected, rel=1e-9)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        occ = self.free_map()
        for _ in range(10):
            heat = rng.random((20, 20))
            gt = occ.cell_center(int(rng.integers(20)), int(rng.integers(20)))
            assert prior_kl(heat, occ, gt) >= -1e-12

    def test_mass_restricted_to_free_cells(self):
        free = np.ones((6, 6), dtype=bool)
        free[2:4, 2:4] = False
        occ = OccupancyMap(free, resolution=0.5)
        p = heatmap_to_distribution(np.ones((6, 6)), occ)
        assert p[2:4, 2:4].sum() == 0.0
        assert p.sum() == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_heatmap_rejected(self, bad):
        occ = synthmaps.open_box(12, 12)
        with pytest.raises(ValueError, match=rf"^prior mass on free space must be "
                                             rf"finite and > 0, not {bad}$"):
            prior_kl(np.full(occ.free.shape, bad), occ, occ.cell_center(5, 5))

    def test_misplaced_prior_scores_worse(self):
        occ = self.free_map()
        gt = occ.cell_center(5, 5)
        good = self.gaussian_heatmap(occ, gt, 1.0)
        bad = self.gaussian_heatmap(occ, occ.cell_center(15, 15), 1.0)
        assert prior_kl(bad, occ, gt) > prior_kl(good, occ, gt) + 1.0
