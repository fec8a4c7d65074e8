from dataclasses import fields, replace

import numpy as np
import pytest

from mapprior import particle_filter, synthmaps
from mapprior.model import ModelConfig, init_weights
from mapprior.occupancy import OccupancyMap, segment_hits_obstacle
from mapprior.particle_filter import (FilterConfig, ParticleSet, estimate,
                                      init_particles, maybe_reinit, propagate,
                                      resample_low_variance, reweight,
                                      run_filter)
from mapprior.simulate import (NoiseProfile, Odometry, Pose,
                               corrupt_to_odometry, generate_trajectory,
                               integrate_odometry, wrap_angle)

from conftest import random_map


def make_set(xy, theta=None, weights=None, hits=None) -> ParticleSet:
    xy = np.asarray(xy, dtype=np.float64)
    p = len(xy)
    return ParticleSet(
        xy=xy,
        theta=np.zeros(p) if theta is None else np.asarray(theta, dtype=float),
        weights=np.full(p, 1.0 / p) if weights is None else np.asarray(weights, dtype=float),
        hit_obstacle=np.zeros(p, dtype=bool) if hits is None else np.asarray(hits, dtype=bool),
    )


@pytest.fixture(scope="module")
def open_map():
    return synthmaps.open_box(40, 40)


def zero_noise_config(**kw) -> FilterConfig:
    kw.setdefault("particle_count", 4)
    kw.setdefault("init_sigma", 0.0)
    kw.setdefault("motion_sigma_xy", 0.0)
    kw.setdefault("motion_sigma_theta", 0.0)
    return FilterConfig(**kw)


class TestPropagate:
    def test_pedestrian_translates_by_odometry(self, open_map):
        cfg = zero_noise_config()
        ps = make_set([[2.0, 3.0]] * 4)
        rng = np.random.default_rng(0)
        out = propagate(ps, (1.0, -1.0), 0.0, cfg, open_map, rng)
        assert np.allclose(out.xy, [[3.0, 2.0]] * 4)

    def test_wheeled_moves_along_particle_heading(self, open_map):
        cfg = zero_noise_config(mode="wheeled")
        ps = make_set([[5.0, 5.0]], theta=[np.pi / 2])
        rng = np.random.default_rng(0)
        out = propagate(ps, (1.0, 0.0), 0.0, cfg, open_map, rng)
        assert out.xy[0, 0] == pytest.approx(5.0, abs=1e-12)
        assert out.xy[0, 1] == pytest.approx(6.0, rel=1e-12)

    def test_zero_everything_is_identity(self, open_map):
        cfg = zero_noise_config()
        ps = make_set([[4.0, 4.0], [6.0, 6.0]])
        out = propagate(ps, (0.0, 0.0), 0.0, cfg, open_map,
                        np.random.default_rng(1))
        assert np.array_equal(out.xy, ps.xy)
        assert np.array_equal(out.theta, ps.theta)

    def test_wall_crossing_sets_hit_flag(self):
        free = np.ones((8, 8), dtype=bool)
        free[:, 4] = False
        occ = OccupancyMap(free, resolution=1.0)
        cfg = zero_noise_config()
        ps = make_set([[2.5, 2.5], [1.0, 1.0]])
        out = propagate(ps, (4.0, 0.0), 0.0, cfg, occ, np.random.default_rng(2))
        assert bool(out.hit_obstacle[0])   # crossed the wall column
        assert bool(out.hit_obstacle[1])   # also crosses (same displacement)
        out2 = propagate(make_set([[1.0, 1.0]]), (1.0, 0.5), 0.0, cfg, occ,
                         np.random.default_rng(3))
        assert not out2.hit_obstacle[0]

    def test_wheeled_heading_integrates_dtheta(self, open_map):
        cfg = zero_noise_config(mode="wheeled")
        ps = make_set([[5.0, 5.0]], theta=[0.1])
        out = propagate(ps, (0.0, 0.0), 0.25, cfg, open_map,
                        np.random.default_rng(4))
        assert out.theta[0] == pytest.approx(0.35, rel=1e-12)


class TestPropagateOracle:
    @pytest.mark.parametrize("mode", ["pedestrian", "wheeled"])
    def test_hit_flags_match_per_particle_scalar_loop(self, mode):
        occ = synthmaps.office_floor()
        rng = np.random.default_rng(5)
        cells = occ.free_cells()
        cells = cells[rng.integers(len(cells), size=2000)]
        xy = np.stack(occ.cell_center(cells[:, 0], cells[:, 1]), axis=1)
        ps = make_set(xy, theta=rng.uniform(-np.pi, np.pi, len(xy)))
        cfg = getattr(FilterConfig, mode)(particle_count=len(xy),
                                          motion_sigma_xy=0.3)
        out = propagate(ps, (1.5, -0.7), 0.2, cfg, occ, rng)
        want = [segment_hits_obstacle(occ, a, b) for a, b in zip(ps.xy, out.xy)]
        assert out.hit_obstacle.tolist() == want
        assert 0.1 < out.hit_obstacle.mean() < 0.9


class TestReweight:
    def test_uniform_heatmap_gives_uniform_weights(self, open_map):
        ps = make_set([[3.0, 3.0], [5.0, 5.0], [7.0, 7.0]])
        heat = np.ones((40, 40))
        out, degen = reweight(ps, heat, open_map)
        assert not degen
        assert np.allclose(out.weights, 1 / 3)

    def test_single_hot_cell_takes_all_weight(self, open_map):
        ps = make_set([[3.125, 3.125], [5.0, 5.0]])
        heat = np.zeros((40, 40))
        ix, iy = open_map.world_to_cell((3.125, 3.125))
        heat[iy, ix] = 2.5
        out, degen = reweight(ps, heat, open_map)
        assert not degen
        assert out.weights[0] > 0.999999

    def test_negative_scores_clamped_to_floor(self, open_map):
        ps = make_set([[3.0, 3.0], [5.0, 5.0]])
        heat = np.full((40, 40), -4.0)
        ix, iy = open_map.world_to_cell((5.0, 5.0))
        heat[iy, ix] = 1.0
        out, degen = reweight(ps, heat, open_map)
        assert not degen
        assert out.weights[1] > 0.999999
        assert out.weights[0] > 0  # floored, not negative or zero

    def test_out_of_bounds_gets_floor(self, open_map):
        ps = make_set([[-5.0, -5.0], [5.0, 5.0]])
        heat = np.ones((40, 40))
        out, _ = reweight(ps, heat, open_map)
        assert out.weights[1] > 0.999999

    def test_all_floor_is_degenerate_uniform(self, open_map):
        ps = make_set([[3.0, 3.0], [5.0, 5.0]])
        heat = np.zeros((40, 40))
        out, degen = reweight(ps, heat, open_map)
        assert degen
        assert np.allclose(out.weights, 0.5)

    def test_weights_normalized(self, open_map):
        rng = np.random.default_rng(5)
        ps = make_set(rng.uniform(1, 9, (50, 2)))
        heat = rng.random((40, 40))
        out, _ = reweight(ps, heat, open_map)
        assert out.weights.sum() == pytest.approx(1.0, rel=1e-12)


class TestResample:
    def test_all_weight_on_one_particle(self):
        ps = make_set([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]],
                      weights=[1.0, 0.0, 0.0])
        out = resample_low_variance(ps, np.random.default_rng(0))
        assert np.allclose(out.xy, [[1.0, 1.0]] * 3)
        assert np.allclose(out.weights, 1 / 3)

    def test_uniform_weights_copy_each_exactly_once(self):
        rng = np.random.default_rng(1)
        xy = np.arange(20.0).reshape(10, 2)
        for _ in range(20):
            out = resample_low_variance(make_set(xy), rng)
            assert np.array_equal(np.sort(out.xy[:, 0]), np.sort(xy[:, 0]))

    def test_three_one_split(self):
        ps = make_set([[0.0, 0.0], [1.0, 1.0]], weights=[0.75, 0.25])
        rng = np.random.default_rng(2)
        for _ in range(50):
            ps4 = ParticleSet(xy=np.vstack([ps.xy, ps.xy]),
                              theta=np.zeros(4), weights=np.array([0.75, 0.25, 0.0, 0.0]),
                              hit_obstacle=np.zeros(4, dtype=bool))
            out = resample_low_variance(ps4, rng)
            copies_first = int((out.xy[:, 0] == 0.0).sum())
            assert copies_first == 3

    def test_count_preserved_and_weights_reset(self):
        rng = np.random.default_rng(3)
        w = rng.random(17)
        ps = make_set(rng.normal(size=(17, 2)), weights=w / w.sum())
        out = resample_low_variance(ps, rng)
        assert len(out) == 17
        assert np.allclose(out.weights, 1 / 17)

    def test_copy_counts_match_weights_statistically(self):
        # Smaller version of the acceptance statistic.
        rng = np.random.default_rng(4)
        weights = np.array([0.5, 0.3, 0.15, 0.05])
        ps = make_set(np.arange(8.0).reshape(4, 2), weights=weights)
        counts = np.zeros(4)
        trials = 20000
        for _ in range(trials):
            out = resample_low_variance(ps, rng)
            for i in range(4):
                counts[i] += (out.xy[:, 0] == ps.xy[i, 0]).sum()
        freq = counts / (trials * 4)
        assert np.all(np.abs(freq - weights) < 0.01)

    def test_zero_weight_total_raises(self):
        ps = make_set([[0.0, 0.0]], weights=[0.0])
        with pytest.raises(ValueError, match="zero"):
            resample_low_variance(ps, np.random.default_rng(0))

    def test_nan_weight_total_raises(self):
        ps = make_set([[0.0, 0.0], [1.0, 1.0]], weights=[np.nan, 1.0])
        with pytest.raises(ValueError, match="weight is nan"):
            resample_low_variance(ps, np.random.default_rng(0))

    def test_hit_flags_travel_with_copies(self):
        ps = make_set([[0.0, 0.0], [1.0, 1.0]], weights=[1.0, 0.0],
                      hits=[True, False])
        out = resample_low_variance(ps, np.random.default_rng(5))
        assert out.hit_obstacle.all()


class TestEstimate:
    def test_component_wise_median_then_nearest(self):
        ps = make_set([[0.0, 0.0], [0.0, 1.0], [10.0, 10.0]])
        pose = estimate(ps, t=3.0)
        assert (pose.x, pose.y) == (0.0, 1.0)
        assert pose.t == 3.0

    def test_single_particle(self):
        ps = make_set([[2.5, -1.5]])
        pose = estimate(ps)
        assert (pose.x, pose.y) == (2.5, -1.5)

    def test_returns_an_actual_particle(self):
        rng = np.random.default_rng(6)
        # Bimodal cloud: estimate must coincide with a member, not a midpoint.
        a = rng.normal((0, 0), 0.1, (25, 2))
        b = rng.normal((10, 10), 0.1, (25, 2))
        ps = make_set(np.vstack([a, b]))
        pose = estimate(ps)
        assert any(np.allclose([pose.x, pose.y], p) for p in ps.xy)

    def test_tie_breaks_to_lowest_index(self):
        ps = make_set([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.5]])
        # median x = 0, median y = 0; particles 0 and 1 are equidistant.
        ps2 = make_set([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0]])
        pose = estimate(ps2)
        assert (pose.x, pose.y) == (1.0, 0.0)


class TestMaybeReinit:
    @pytest.mark.parametrize("r_reinit", [0.0, -1.0, float("nan")])
    def test_nonpositive_radius_rejected(self, r_reinit):
        # A zero radius never grows, so a walled-in estimate would spin forever.
        with pytest.raises(ValueError, match="r_reinit"):
            FilterConfig(r_reinit=r_reinit)

    @pytest.mark.parametrize("key, value", [
        ("motion_sigma_xy", float("nan")), ("init_sigma", float("inf")),
        ("motion_sigma_theta", float("nan")), ("window_len", 0),
        ("r_reinit", float("inf")),
        ("particle_count", 20.5), ("window_len", 2.5), ("particle_count", True),
        ("window_len", "5")])
    def test_out_of_range_field_rejected_at_construction(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            FilterConfig(**{key: value})

    def test_fires_above_threshold(self, open_map):
        cfg = FilterConfig(particle_count=1000, s_reinit=0.90)
        rng = np.random.default_rng(7)
        hits = np.zeros(1000, dtype=bool)
        hits[:950] = True
        ps = make_set(np.tile([[5.0, 5.0]], (1000, 1)), hits=hits)
        out, fired = maybe_reinit(ps, Pose(0, 5.0, 5.0, 0.0), cfg, open_map, rng)
        assert fired
        assert np.allclose(out.weights, 1e-3)
        d = np.hypot(out.xy[:, 0] - 5.0, out.xy[:, 1] - 5.0)
        assert d.max() <= 5.0 + 1e-9
        assert all(open_map.is_free(p) for p in out.xy)
        assert not out.hit_obstacle.any()

    def test_does_not_fire_at_exact_threshold(self, open_map):
        cfg = FilterConfig(particle_count=1000, s_reinit=0.90)
        hits = np.zeros(1000, dtype=bool)
        hits[:900] = True
        ps = make_set(np.tile([[5.0, 5.0]], (1000, 1)), hits=hits)
        out, fired = maybe_reinit(ps, Pose(0, 5.0, 5.0, 0.0), cfg, open_map,
                                  np.random.default_rng(8))
        assert not fired
        assert out is ps and out.hit_obstacle.sum() == 900  # set untouched

    def test_radius_expands_when_estimate_is_walled_in(self):
        # Last estimate sits in a sealed pocket; free space is > r_reinit away.
        free = np.zeros((60, 60), dtype=bool)
        free[40:59, 40:59] = True
        occ = OccupancyMap(free, resolution=0.25)
        cfg = FilterConfig(particle_count=50, s_reinit=0.5)
        ps = make_set(np.tile([[1.0, 1.0]], (50, 1)),
                      hits=np.ones(50, dtype=bool))
        out, fired = maybe_reinit(ps, Pose(0, 1.0, 1.0, 0.0), cfg, occ,
                                  np.random.default_rng(9))
        assert fired
        assert all(occ.is_free(p) for p in out.xy)

    def test_wheeled_mode_randomizes_heading(self, open_map):
        cfg = FilterConfig(particle_count=200, s_reinit=0.5, mode="wheeled",
                           motion_sigma_theta=0.01, window_len=20)
        ps = make_set(np.tile([[5.0, 5.0]], (200, 1)),
                      hits=np.ones(200, dtype=bool))
        out, fired = maybe_reinit(ps, Pose(0, 5.0, 5.0, 0.0), cfg, open_map,
                                  np.random.default_rng(10))
        assert fired
        assert out.theta.std() > 0.5
        assert np.all(out.theta > -np.pi) and np.all(out.theta <= np.pi)


def scalar_is_free(occ, point) -> bool:
    """The free-space test of one world point, written out in scalars."""
    ix = int(np.floor((float(point[0]) - occ.origin[0]) / occ.resolution))
    iy = int(np.floor((float(point[1]) - occ.origin[1]) / occ.resolution))
    return 0 <= ix < occ.width and 0 <= iy < occ.height and bool(occ.free[iy, ix])


def reinit_loop_oracle(particles, last_estimate, config, occ, rng):
    """maybe_reinit with a per-candidate free-space test, the slow, obvious
    version of its vectorised test."""
    if not particles.hit_obstacle.mean() > config.s_reinit:
        particles.hit_obstacle[:] = False
        return particles, False
    center = np.array([last_estimate.x, last_estimate.y])
    diag = float(np.hypot(*occ.extent_m))
    radius = config.r_reinit
    p = config.particle_count
    accepted = []
    empty_rounds = 0
    while len(accepted) < p:
        need = p - len(accepted)
        r = radius * np.sqrt(rng.uniform(0.0, 1.0, 4 * need))
        phi = rng.uniform(-np.pi, np.pi, 4 * need)
        cand = center + np.stack([r * np.cos(phi), r * np.sin(phi)], axis=1)
        ok = [c for c in cand if scalar_is_free(occ, c)]
        accepted.extend(ok[:need])
        if ok:
            empty_rounds = 0
        else:
            empty_rounds += 1
            if radius < diag:
                radius = min(2.0 * radius, diag)
            elif empty_rounds > 50:
                raise ValueError("no free space")
    if config.mode == "wheeled":
        theta = wrap_angle(rng.uniform(-np.pi, np.pi, p))
    else:
        theta = np.zeros(p)
    return ParticleSet(xy=np.asarray(accepted), theta=theta,
                       weights=np.full(p, 1.0 / p),
                       hit_obstacle=np.zeros(p, dtype=bool)), True


class EdgeRng:
    """Random draws that put reinit candidates exactly on cell edges and
    corners: radii are whole multiples of `step`, angles are multiples of
    pi / 2, so with a center on a cell corner the candidates fall on grid
    lines (or within rounding of them, where cos and sin are not exact)."""

    def __init__(self, seed: int, step: float, radius: float):
        self.rng = np.random.default_rng(seed)
        self.step, self.radius = step, radius

    def uniform(self, low, high, size):
        if (low, high) == (0.0, 1.0):  # radial draw, r = radius * sqrt(u)
            k = self.rng.integers(0, int(self.radius / self.step) + 1, size)
            return (k * self.step / self.radius) ** 2
        return self.rng.choice([-np.pi, -np.pi / 2, 0.0, np.pi / 2, np.pi], size)


class TestReinitOracle:
    """The vectorised free-space test in maybe_reinit accepts the same
    candidates, in the same order, as a per-candidate is_free loop."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_draws_match_loop(self, seed):
        rng = np.random.default_rng(seed)
        occ = random_map(rng, 24, 32, p_free=0.5)   # 8 m x 6 m at 0.25 m
        center = rng.uniform(-2.0, 10.0, 2)         # sometimes off the map
        cfg = FilterConfig(particle_count=300, s_reinit=0.5,
                           r_reinit=float(rng.uniform(0.5, 6.0)),
                           mode="wheeled" if seed % 2 else "pedestrian")
        ps = make_set(np.tile(center, (300, 1)), hits=np.ones(300, dtype=bool))
        est = Pose(0.0, float(center[0]), float(center[1]), 0.0)
        got, fired = maybe_reinit(ps, est, cfg, occ, np.random.default_rng(seed))
        want, _ = reinit_loop_oracle(ps, est, cfg, occ, np.random.default_rng(seed))
        assert fired
        assert np.array_equal(got.xy, want.xy)
        assert np.array_equal(got.theta, want.theta)

    @pytest.mark.parametrize("center", [(2.0, 3.0), (0.0, 0.0), (8.0, 6.0),
                                        (-0.5, 3.25)])
    def test_candidates_on_cell_edges_match_loop(self, center):
        occ = random_map(np.random.default_rng(5), 24, 32, p_free=0.5)
        cfg = FilterConfig(particle_count=400, s_reinit=0.5, r_reinit=4.0)
        ps = make_set(np.tile(center, (400, 1)), hits=np.ones(400, dtype=bool))
        est = Pose(0.0, *center, 0.0)
        got, _ = maybe_reinit(ps, est, cfg, occ, EdgeRng(1, 0.25, 4.0))
        want, _ = reinit_loop_oracle(ps, est, cfg, occ, EdgeRng(1, 0.25, 4.0))
        assert np.array_equal(got.xy, want.xy)
        assert np.any(np.mod(got.xy, 0.25) == 0.0)


class TestRunFilter:
    def test_none_prior_zero_noise_equals_integration(self, open_map):
        gt = generate_trajectory(open_map, seed=21, duration_s=40.0)
        odom = corrupt_to_odometry(gt, NoiseProfile.noiseless(), seed=0)
        cfg = zero_noise_config(particle_count=10)
        run = run_filter(odom, open_map, "none", cfg, seed=0, start=gt.pose(0))
        expected = integrate_odometry(odom, (gt.xy[0, 0], gt.xy[0, 1]))
        assert np.allclose(run.estimates.xy, expected, atol=1e-9)

    def test_fixed_seed_is_bit_identical(self, open_map):
        gt = generate_trajectory(open_map, seed=22, duration_s=30.0)
        odom = corrupt_to_odometry(gt, NoiseProfile.pedestrian(), seed=5,
                                   resolution=open_map.resolution)
        cfg = FilterConfig(particle_count=100)
        runs = [run_filter(odom, open_map, "heuristic", cfg, seed=3,
                           start=gt.pose(0)) for _ in range(2)]
        assert np.array_equal(runs[0].estimates.xy, runs[1].estimates.xy)
        assert np.array_equal(runs[0].estimates.theta, runs[1].estimates.theta)

    def test_heuristic_without_evidence_is_the_none_run(self, open_map,
                                                        monkeypatch):
        # Every window too large for the map: each evidence step is skipped,
        # so the run draws the same numbers as a run without a prior.
        def oversized(occ, window_xy):
            raise ValueError("window larger than the map")

        monkeypatch.setattr(particle_filter, "heuristic_prior", oversized)
        gt = generate_trajectory(open_map, seed=2, duration_s=30.0)
        odom = corrupt_to_odometry(gt, NoiseProfile.pedestrian(), seed=3,
                                   resolution=open_map.resolution)
        cfg = FilterConfig(particle_count=50)
        runs = [run_filter(odom, open_map, prior, cfg, seed=7, start=gt.pose(0))
                for prior in ("heuristic", "none")]
        assert np.array_equal(runs[0].estimates.xy, runs[1].estimates.xy)
        assert np.array_equal(runs[0].estimates.theta, runs[1].estimates.theta)
        assert runs[0].reinit_count == runs[1].reinit_count
        assert runs[0].degenerate_count == runs[1].degenerate_count == 0
        assert runs[1].skipped_steps == 0
        assert runs[0].skipped_steps == len(odom) - cfg.window_len + 2

    def test_unknown_prior_rejected(self, open_map):
        odom = Odometry(t=np.array([1.0]), dxy=np.zeros((1, 2)),
                        dtheta=np.zeros(1))
        with pytest.raises(ValueError, match="prior"):
            run_filter(odom, open_map, "magic", FilterConfig(), 0,
                       Pose(0, 5, 5, 0))

    def test_learned_prior_requires_weights(self, open_map):
        odom = Odometry(t=np.array([1.0]), dxy=np.zeros((1, 2)),
                        dtheta=np.zeros(1))
        with pytest.raises(ValueError, match="weights"):
            run_filter(odom, open_map, "learned", FilterConfig(), 0,
                       Pose(0, 5, 5, 0))

    @pytest.mark.parametrize("layer, edit, message", [
        ("unet.out.b", lambda a: np.full_like(a, np.nan),
         "layer unet.out.b has non-finite values"),
        ("lstm.l1.b_hh", None,
         r"layer lstm.l1.b_hh is missing in the weights but \(32,\) in the model config"),
        ("unet.out.b", lambda a: a[:3],
         r"layer unet.out.b is \(3,\) in the weights but \(8,\) in the model config")])
    def test_learned_weights_checked_before_the_run(self, rooms_map, layer, edit,
                                                    message):
        config = ModelConfig(channels=8, unet_depth=2, base_width=4)
        weights = {k: p.data for k, p in init_weights(config, 0).items()}
        if edit is None:
            del weights[layer]
        else:
            weights[layer] = edit(weights[layer])
        gt = generate_trajectory(rooms_map, seed=0, duration_s=10.0)
        odom = corrupt_to_odometry(gt, NoiseProfile.pedestrian(), seed=1,
                                   resolution=rooms_map.resolution)
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_filter(odom, rooms_map, "learned", FilterConfig(particle_count=20),
                       0, gt.pose(0), weights=weights, model_config=config)

    def test_odometry_period_must_match_filter_rate(self, open_map):
        odom = Odometry(t=np.arange(1.0, 6.0) * 0.5, dxy=np.zeros((5, 2)),
                        dtheta=np.zeros(5))
        with pytest.raises(ValueError, match="^sampled every 0.5 s, not at 1 Hz$"):
            run_filter(odom, open_map, "none", FilterConfig(), 0,
                       Pose(0, 5, 5, 0))

    def test_rate_is_the_sample_clock_not_a_field(self):
        # The learned prior's windows are sample counts, so the filter runs
        # only at the rate the model was trained at.
        assert "rate_hz" not in {f.name for f in fields(FilterConfig)}
        assert FilterConfig().rate_hz == 1.0

    def test_wheeled_window_is_ground_truth_relative_window(self, open_map,
                                                            monkeypatch):
        # Unit steps along a heading sequence with a 90-degree turn at step 6,
        # so several windows contain the turn.  Steps follow the filter's
        # wheeled motion model: advance along the current heading, then turn.
        headings = np.array([0.3] * 6 + [0.3 + np.pi / 2] * 6)
        xy = np.vstack([[2.0, 2.0], [2.0, 2.0] + np.cumsum(
            np.stack([np.cos(headings), np.sin(headings)], axis=1), axis=0)])
        # The odometry frame is the map frame rotated by -offset; the cloud
        # holds the map-frame heading, as after it has corrected a drift.
        offset = 0.7
        c, s = np.cos(-offset), np.sin(-offset)
        dxy = np.diff(xy, axis=0) @ np.array([[c, s], [-s, c]])
        dtheta = np.diff(np.concatenate([headings, headings[-1:]]))
        odom = Odometry(t=np.arange(1.0, len(dxy) + 1), dxy=dxy, dtheta=dtheta)
        start = Pose(0.0, 2.0, 2.0, headings[0] - offset)

        init = particle_filter.init_particles
        monkeypatch.setattr(
            particle_filter, "init_particles",
            lambda st, cfg, rng: init(replace(st, theta=st.theta + offset),
                                      cfg, rng))
        windows = []

        def capture(occ, window_xy):
            windows.append(np.array(window_xy))
            return np.ones(occ.free.shape)

        monkeypatch.setattr(particle_filter, "heuristic_prior", capture)
        cfg = zero_noise_config(mode="wheeled", window_len=4)
        run = run_filter(odom, open_map, "heuristic", cfg, seed=0, start=start)
        assert np.allclose(run.estimates.xy, xy, atol=1e-9)
        assert len(windows) == len(odom) - cfg.window_len + 2
        for n, got in enumerate(windows):
            j = n + cfg.window_len - 1
            want = xy[j - cfg.window_len + 1 : j + 1]
            assert np.allclose(got, want - want[0], atol=1e-9), f"window {n}"

    def test_estimates_align_with_odometry_times(self, open_map):
        gt = generate_trajectory(open_map, seed=23, duration_s=20.0)
        odom = corrupt_to_odometry(gt, NoiseProfile.pedestrian(), seed=2,
                                   resolution=open_map.resolution)
        run = run_filter(odom, open_map, "heuristic",
                         FilterConfig(particle_count=50), seed=1,
                         start=gt.pose(0))
        assert np.array_equal(run.estimates.t, gt.t)


class TestInitParticles:
    def test_spread_matches_sigma(self):
        cfg = FilterConfig(particle_count=4000, init_sigma=0.01)
        ps = init_particles(Pose(0, 3.0, 4.0, 0.5), cfg,
                            np.random.default_rng(11))
        assert ps.xy[:, 0].std() == pytest.approx(0.01, rel=0.1)
        assert np.allclose(ps.theta, 0.5)
        assert np.allclose(ps.weights, 1 / 4000)
