"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

The drift-reduction, wheel-generalization, and prior-quality criteria share
one trained model (module-scoped fixture); its training wall time counts
toward the drift-reduction runtime budget.
"""

import sys
import time

import numpy as np
import pytest

import mapprior as mp
from mapprior import nn, synthmaps
from mapprior.baselines import (CrfParams, LocationGraph, heuristic_prior)
from mapprior.metrics import ate, prior_kl
from mapprior.model import (ModelConfig, build_training_set, encode_map,
                            encode_odometry, init_weights, lstm_param_list,
                            score, train, unet_forward)
from mapprior.nn.tensor import constant
from mapprior.occupancy import OccupancyMap, save_map
from mapprior.particle_filter import (FilterConfig, ParticleSet,
                                      resample_low_variance, run_filter)
from mapprior.simulate import (NoiseProfile, Odometry, corrupt_to_odometry,
                               dead_reckoning, generate_trajectory,
                               integrate_odometry, window)
from mapprior.targets import (TARGET_GAIN, TARGET_SCALE, TrajectoryKernel,
                              cross_correlate, make_target, rasterize_kernel)

from conftest import random_map
from test_baselines import tiny_graph, viterbi_oracle
from test_targets import brute_force_overlap


def report(criterion: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}\n"
    sys.__stdout__.write(line)
    sys.__stdout__.flush()


# Shared experiment configuration (criterion 6 pins the runtime budget).
TRAIN_TRAJS = 6
TRAIN_DURATION_S = 240.0
TRAIN_STRIDE = 4
MODEL_CONFIG = ModelConfig(window_len=5, crop_size=32, epochs=60,
                           batch_size=32, augment_copies=3, target_dilate=1)


@pytest.fixture(scope="module")
def pipeline():
    """Map, trained weights, and the wall-clock cost of producing them."""
    t0 = time.perf_counter()
    occ = synthmaps.office_floor()
    trajs = [generate_trajectory(occ, seed=s, duration_s=TRAIN_DURATION_S)
             for s in range(TRAIN_TRAJS)]
    dataset = build_training_set(occ, trajs, MODEL_CONFIG,
                                 NoiseProfile.pedestrian(), seed=0,
                                 stride=TRAIN_STRIDE)
    weights, history = train(dataset, MODEL_CONFIG, seed=0)
    return {
        "occ": occ,
        "weights": weights,
        "config": MODEL_CONFIG,
        "history": history,
        "setup_seconds": time.perf_counter() - t0,
    }


class TestCriterion1GradientCorrectness:
    def test_all_ops_and_composed_model(self):
        t0 = time.perf_counter()
        worst = {}
        rng = np.random.default_rng(42)

        x = nn.parameter(rng.normal(size=(2, 2, 6, 6)), np.float64)
        w = nn.parameter(rng.normal(size=(3, 2, 3, 3)), np.float64)
        b = nn.parameter(rng.normal(size=(3,)), np.float64)
        tgt = rng.normal(size=(2, 3, 6, 6))
        wgt = np.abs(rng.normal(size=(2, 3, 6, 6))) + 0.1
        worst["conv2d+wmse"] = nn.finite_difference_check(
            lambda: nn.weighted_mse(nn.conv2d(x, w, b), tgt, wgt),
            {"x": x, "w": w, "b": b}, h=1e-5)

        hidden = 3
        lstm_p = {}
        for tag, shape in (("w_ih", (4 * hidden, 2)), ("w_hh", (4 * hidden, hidden)),
                           ("b_ih", (4 * hidden,)), ("b_hh", (4 * hidden,))):
            lstm_p[tag] = nn.parameter(rng.normal(size=shape) * 0.5, np.float64)
        seq = rng.normal(size=(2, 4, 2))
        worst["lstm"] = nn.finite_difference_check(
            lambda: nn.sum_all(nn.mul(
                nn.lstm_forward(constant(seq), [lstm_p], hidden),
                nn.lstm_forward(constant(seq), [lstm_p], hidden))),
            lstm_p, h=1e-3)

        x2 = nn.parameter(rng.normal(size=(2, 4, 4, 4)), np.float64)
        v2 = nn.parameter(rng.normal(size=(2, 8)), np.float64)

        def pool_loss():
            up = nn.upsample2(nn.maxpool2(x2))
            both = nn.concat([up, x2], axis=1)
            heat = nn.channel_dot(both, v2)
            act = nn.add(nn.sigmoid(heat), nn.tanh(heat))
            return nn.sum_all(nn.mul(act, act))

        worst["pool/upsample/concat/dot/sig/tanh"] = nn.finite_difference_check(
            pool_loss, {"x": x2, "v": v2}, h=1e-5)

        mini = ModelConfig(channels=4, unet_depth=2, base_width=2,
                           lstm_layers=2, window_len=3, crop_size=8)
        params = init_weights(mini, 102, dtype=np.float64)
        rng2 = np.random.default_rng(2)
        crops = rng2.normal(size=(2, 1, 8, 8))
        wins = rng2.normal(size=(2, 3, 2))
        tgt2 = rng2.random((2, 8, 8))
        wgt2 = np.abs(rng2.normal(size=(2, 8, 8))) + 0.1

        def full_loss():
            mt = unet_forward(constant(crops), params, mini)
            vec = nn.lstm_forward(constant(wins), lstm_param_list(params, mini),
                                  mini.channels)
            return nn.weighted_mse(nn.channel_dot(mt, vec), tgt2, wgt2)

        worst["composed model"] = nn.finite_difference_check(
            full_loss, params, h=1e-5)

        elapsed = time.perf_counter() - t0
        peak = max(worst.values())
        ok = peak < 1e-4 and elapsed < 60
        report("criterion 1 (gradients)", ok,
               f"max rel err {peak:.2e} over {list(worst)} in {elapsed:.1f}s")
        assert peak < 1e-4
        assert elapsed < 60

    def test_finite_forward_outputs(self):
        cfg = ModelConfig(channels=8, unet_depth=2, base_width=4,
                          window_len=4, crop_size=16)
        w = init_weights(cfg, 5)
        occ = synthmaps.corridor_rooms()
        out = encode_map(occ, w, cfg)
        assert np.all(np.isfinite(out))


class TestCriterion2CrossCorrelationOracle:
    def test_exhaustive_small_instances(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(7)
        checked = 0
        for h, wd in [(3, 3), (5, 7), (9, 12), (16, 16), (16, 5)]:
            for p_free in (0.0, 0.35, 0.7, 1.0):
                occ = random_map(rng, h, wd, p_free=p_free, resolution=1.0)
                for _ in range(4):
                    while True:
                        steps = rng.integers(1, 4)
                        pts = np.cumsum(rng.normal(0, 1.2, (steps + 1, 2)), axis=0)
                        k = rasterize_kernel(pts, 1.0)
                        if k.grid.shape[0] <= min(5, h) and k.grid.shape[1] <= min(5, wd):
                            break
                    got = cross_correlate(occ, k)
                    want = brute_force_overlap(occ, k)
                    assert np.array_equal(got, want)
                    assert np.array_equal(heuristic_prior(occ, pts),
                                          want)
                    checked += 1
        elapsed = time.perf_counter() - t0
        ok = elapsed < 60
        report("criterion 2 (correlation oracle)", ok,
               f"{checked} map/kernel instances bit-equal in {elapsed:.1f}s")
        assert ok


class TestCriterion3TargetFormula:
    def test_endpoint_values(self):
        all_free = OccupancyMap(np.ones((8, 8), dtype=bool), 1.0)
        all_occ = OccupancyMap(np.zeros((8, 8), dtype=bool), 1.0)
        stationary = np.zeros((3, 2))
        hi = make_target(all_free, stationary).values
        lo = make_target(all_occ, stationary).values
        hi_expected = TARGET_SCALE * np.exp(TARGET_GAIN)  # 1e-6 * e^14
        rel_hi = np.max(np.abs(hi - hi_expected) / hi_expected)
        rel_lo = np.max(np.abs(lo - TARGET_SCALE) / TARGET_SCALE)
        ok = rel_hi < 1e-9 and rel_lo < 1e-9 and abs(hi_expected - 1.2026042841647768) < 1e-12
        report("criterion 3 (target formula)", ok,
               f"T(1)={hi.max():.10f} vs {hi_expected:.10f}, rel {max(rel_hi, rel_lo):.1e}")
        assert ok


class TestCriterion4ResamplerStatistics:
    def test_copy_frequencies(self):
        rng = np.random.default_rng(11)
        weights = np.array([0.42, 0.27, 0.16, 0.09, 0.06])
        p = len(weights)
        ps = ParticleSet(xy=np.arange(2.0 * p).reshape(p, 2),
                         theta=np.zeros(p), weights=weights.copy(),
                         hit_obstacle=np.zeros(p, dtype=bool))
        trials = 100_000
        counts = np.zeros(p)
        first_col = ps.xy[:, 0]
        for _ in range(trials):
            out = resample_low_variance(ps, rng)
            idx = np.searchsorted(first_col, out.xy[:, 0])
            counts += np.bincount(idx, minlength=p)
        freq = counts / (trials * p)
        max_dev = float(np.max(np.abs(freq - weights)))

        uniform = ParticleSet(xy=np.arange(2.0 * p).reshape(p, 2),
                              theta=np.zeros(p), weights=np.full(p, 1 / p),
                              hit_obstacle=np.zeros(p, dtype=bool))
        uniform_exact = all(
            np.array_equal(np.sort(resample_low_variance(uniform, rng).xy[:, 0]),
                           first_col) for _ in range(200))
        ok = max_dev < 0.01 and uniform_exact
        report("criterion 4 (resampler)", ok,
               f"max |freq - weight| {max_dev:.4f} over {trials} trials; "
               f"uniform one-copy-each {uniform_exact}")
        assert ok


class TestCriterion5ViterbiOracle:
    def test_exhaustive_instances(self):
        rng = np.random.default_rng(13)
        from mapprior.baselines import crf_match
        checked = 0
        for trial in range(40):
            n_nodes = int(rng.integers(2, 7))
            graph = tiny_graph(rng, n_nodes)
            if not any(graph.neighbors):
                continue
            t_len = int(rng.integers(1, 6))
            odom = Odometry(t=np.arange(1.0, t_len + 1),
                            dxy=rng.normal(0, 1.0, (t_len, 2)),
                            dtheta=np.zeros(t_len))
            params = CrfParams(unary_weight=float(rng.uniform(0.2, 3.0)),
                               pairwise_weight=float(rng.uniform(0.2, 3.0)))
            start = rng.uniform(0, 4, 2)
            want = viterbi_oracle(graph, odom, params, start)
            got = crf_match(graph, odom, params, start)
            assert np.allclose(got.xy, graph.nodes[want]), f"trial {trial}"
            checked += 1
        ok = checked >= 25
        report("criterion 5 (Viterbi oracle)", ok,
               f"{checked} instances (<=6 nodes, <=5 steps) match brute force")
        assert ok


class TestCriterion6DriftReduction:
    N_SEEDS = 10
    RUN_DURATION_S = 120.0

    def test_median_ate_improvement(self, pipeline):
        t0 = time.perf_counter()
        occ, weights, cfg = pipeline["occ"], pipeline["weights"], pipeline["config"]
        ates = {"learned": [], "heuristic": [], "odom": []}
        for seed in range(500, 500 + self.N_SEEDS):
            gt = generate_trajectory(occ, seed=seed, duration_s=self.RUN_DURATION_S)
            odom = corrupt_to_odometry(gt, NoiseProfile.pedestrian(),
                                       seed=seed + 1, resolution=occ.resolution)
            start = gt.pose(0)
            fc = FilterConfig.pedestrian()
            run_l = run_filter(odom, occ, "learned", fc, seed, start,
                               weights=weights, model_config=cfg)
            run_h = run_filter(odom, occ, "heuristic", fc, seed, start)
            ates["learned"].append(ate(run_l.estimates, gt))
            ates["heuristic"].append(ate(run_h.estimates, gt))
            ates["odom"].append(ate(dead_reckoning(odom, start), gt))
        med = {k: float(np.median(v)) for k, v in ates.items()}
        total_runtime = pipeline["setup_seconds"] + (time.perf_counter() - t0)
        ok = (med["learned"] <= 0.6 * med["odom"]
              and med["learned"] <= med["heuristic"]
              and total_runtime < 900)
        report("criterion 6 (drift reduction)", ok,
               f"median ATE learned {med['learned']:.2f} m vs odom {med['odom']:.2f} m "
               f"(ratio {med['learned'] / med['odom']:.2f} <= 0.6) and heuristic "
               f"{med['heuristic']:.2f} m; runtime {total_runtime:.0f}s < 900s")
        assert med["learned"] <= 0.6 * med["odom"]
        assert med["learned"] <= med["heuristic"]
        assert total_runtime < 900


class TestCriterion7WheelGeneralization:
    N_SEEDS = 5
    RUN_DURATION_S = 480.0

    def test_wheeled_reuse_without_retraining(self, pipeline):
        occ, weights = pipeline["occ"], pipeline["weights"]
        cfg = pipeline["config"]  # pedestrian-trained weights, untouched
        ates_l, ates_o = [], []
        for seed in range(700, 700 + self.N_SEEDS):
            gt = generate_trajectory(occ, seed=seed, profile="wheeled",
                                     duration_s=self.RUN_DURATION_S)
            odom = corrupt_to_odometry(gt, NoiseProfile.wheeled(),
                                       seed=seed + 1, resolution=occ.resolution)
            start = gt.pose(0)
            fc = FilterConfig.wheeled()  # 20 s window, heading state (Eq-style)
            run_l = run_filter(odom, occ, "learned", fc, seed, start,
                               weights=weights, model_config=cfg)
            ates_l.append(ate(run_l.estimates, gt))
            ates_o.append(ate(dead_reckoning(odom, start), gt))
        med_l, med_o = float(np.median(ates_l)), float(np.median(ates_o))
        ok = med_l <= 0.6 * med_o
        report("criterion 7 (wheel generalization)", ok,
               f"median ATE learned {med_l:.2f} m vs wheel odometry {med_o:.2f} m "
               f"(ratio {med_l / med_o:.2f} <= 0.6), window 20 s, no retraining")
        assert ok


class TestCriterion8PriorQuality:
    def test_kl_factor(self, pipeline):
        occ, weights, cfg = pipeline["occ"], pipeline["weights"], pipeline["config"]
        map_tensor = encode_map(occ, weights, cfg)
        kls_l, kls_h = [], []
        for seed in (800, 801, 802):
            gt = generate_trajectory(occ, seed=seed, duration_s=120.0)
            odom = corrupt_to_odometry(gt, NoiseProfile.pedestrian(),
                                       seed=seed + 1, resolution=occ.resolution)
            pos = integrate_odometry(odom, (gt.xy[0, 0], gt.xy[0, 1]))
            wins = window(pos, cfg.window_len)
            for k in range(0, len(wins), 3):
                gt_end = gt.xy[k + cfg.window_len - 1]
                vec = encode_odometry(wins[k] / occ.resolution, weights, cfg)
                kls_l.append(prior_kl(score(map_tensor, vec), occ, gt_end))
                kls_h.append(prior_kl(heuristic_prior(occ, wins[k]), occ, gt_end))
        mean_l, mean_h = float(np.mean(kls_l)), float(np.mean(kls_h))
        factor = mean_h / mean_l
        ok = len(kls_l) >= 100 and factor >= 1.5
        report("criterion 8 (prior quality)", ok,
               f"mean KL learned {mean_l:.2f} vs heuristic {mean_h:.2f} nats "
               f"over {len(kls_l)} held-out windows (factor {factor:.2f} >= 1.5)")
        assert len(kls_l) >= 100
        assert factor >= 1.5


class TestCriterion9Performance:
    def test_cached_scoring_latency_and_filter_throughput(self, pipeline):
        weights, cfg = pipeline["weights"], pipeline["config"]
        rng = np.random.default_rng(3)
        big = OccupancyMap(rng.random((256, 256)) < 0.75, 0.25)
        map_tensor = encode_map(big, weights, cfg)  # cached once

        wins = rng.normal(0, 4.0, (50, cfg.window_len, 2))
        t0 = time.perf_counter()
        for k in range(len(wins)):
            vec = encode_odometry(wins[k], weights, cfg)
            score(map_tensor, vec)
        per_query_ms = (time.perf_counter() - t0) / len(wins) * 1e3

        occ = pipeline["occ"]
        gt = generate_trajectory(occ, seed=900, duration_s=60.0)
        odom = corrupt_to_odometry(gt, NoiseProfile.pedestrian(), seed=901,
                                   resolution=occ.resolution)
        fc = FilterConfig.pedestrian(particle_count=1000)
        run = run_filter(odom, occ, "learned", fc, seed=9, start=gt.pose(0),
                         weights=weights, model_config=cfg)
        steps = np.asarray(run.step_seconds)
        realtime_factor = len(steps) / steps.sum() / fc.rate_hz
        ok = per_query_ms < 50 and realtime_factor >= 4
        report("criterion 9 (performance)", ok,
               f"256x256 cached scoring {per_query_ms:.1f} ms/query (< 50); "
               f"filter {realtime_factor:.1f}x real-time at p=1000 (>= 4)")
        assert per_query_ms < 50
        assert realtime_factor >= 4


class TestCriterion10Determinism:
    def run_twice(self, argv, out_a, out_b):
        from mapprior.cli import main
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0

    @staticmethod
    def data_bytes(path):
        """Bytes of every data output; manifests carry timings and are the
        documented exception to bit-identity."""
        if path.is_file():
            return {path.name: path.read_bytes()}
        return {p.name: p.read_bytes() for p in sorted(path.rglob("*"))
                if p.is_file() and not p.name.endswith("manifest.json")}

    def test_all_commands_bit_identical(self, tmp_path):
        map_path = tmp_path / "m.pgm"
        save_map(synthmaps.corridor_rooms(), map_path)
        results = {}

        sim_a, sim_b = tmp_path / "sim_a", tmp_path / "sim_b"
        self.run_twice(["simulate", "--map", str(map_path), "--n-trajs", "2",
                        "--duration", "40", "--seed", "4"], sim_a, sim_b)
        results["simulate"] = self.data_bytes(sim_a) == self.data_bytes(sim_b)

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"channels": 8, "unet_depth": 2, "base_width": 4,'
                            ' "window_len": 5, "crop_size": 24, "epochs": 2,'
                            ' "batch_size": 16}')
        w_a, w_b = tmp_path / "w_a.lmw", tmp_path / "w_b.lmw"
        self.run_twice(["train", "--map", str(map_path), "--traj-dir",
                        str(sim_a), "--config", str(cfg_path), "--seed", "2",
                        "--stride", "2"], w_a, w_b)
        results["train"] = (w_a.read_bytes() == w_b.read_bytes() and
                            (tmp_path / "w_a.lmw.log.csv").read_bytes()
                            == (tmp_path / "w_b.lmw.log.csv").read_bytes())

        loc = {}
        for method, extra in [("odom", []), ("heuristic", []),
                              ("pdr", []), ("crf", []),
                              ("ours", ["--weights", str(w_a)])]:
            e_a = tmp_path / f"est_{method}_a.csv"
            e_b = tmp_path / f"est_{method}_b.csv"
            self.run_twice(["localize", "--map", str(map_path), "--odom",
                            str(sim_a / "odom_000.csv"), "--method", method,
                            "--gt", str(sim_a / "gt_000.csv"), "--seed", "6"]
                           + extra, e_a, e_b)
            loc[method] = e_a.read_bytes() == e_b.read_bytes()
        results["localize"] = all(loc.values())

        est_dir = tmp_path / "est"
        est_dir.mkdir()
        (est_dir / "est_000.csv").write_bytes(
            (tmp_path / "est_odom_a.csv").read_bytes())
        ev_a, ev_b = tmp_path / "ev_a", tmp_path / "ev_b"
        self.run_twice(["eval", "--est-dir", str(est_dir), "--gt-dir",
                        str(sim_a)], ev_a, ev_b)
        results["eval"] = self.data_bytes(ev_a) == self.data_bytes(ev_b)

        ok = all(results.values())
        report("criterion 10 (determinism)", ok,
               f"bit-identical data outputs per command: {results} "
               "(manifests excluded: they record wall-clock timings)")
        assert ok
