import re

import numpy as np
import pytest

from mapprior import nn, synthmaps
from mapprior.model import (ModelConfig, ODOM_INPUT_SCALE, TrainingDiverged,
                            as_tensors, build_training_set, encode_map,
                            encode_odometry, init_weights, lstm_param_list,
                            score, train, unet_forward)
from mapprior.nn.tensor import constant
from mapprior.occupancy import OccupancyMap
from mapprior.simulate import NoiseProfile, Trajectory, generate_trajectory
from mapprior.targets import LOCATION_FLOOR

MINI = ModelConfig(channels=4, unet_depth=2, base_width=2, lstm_layers=2,
                   window_len=3, crop_size=8, epochs=2, batch_size=4)


def zero_weights(config) -> dict:
    return {k: np.zeros_like(p.data) for k, p in init_weights(config, 0).items()}


class TestModelConfig:
    def test_crop_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divisible"):
            ModelConfig(crop_size=50)

    @pytest.mark.parametrize("field, value, message", [
        ("channels", True, "config channels must be int, not True"),
        ("epochs", 2.0, "config epochs must be int, not 2.0"),
        ("crop_size", "32", "config crop_size must be int, not '32'"),
        ("learning_rate", "0.1", "config learning_rate must be float, not '0.1'"),
        ("max_grad_norm", float("nan"), "config max_grad_norm must not be nan"),
        ("warmup_epochs", -1, "config warmup_epochs must be >= 0, not -1"),
        ("target_dilate", -1, "config target_dilate must be >= 0, not -1"),
    ])
    def test_bad_field_raises_one_value_error(self, field, value, message):
        # The API path: the same check as from_dict, naming the field.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ModelConfig(**{field: value})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            ModelConfig.from_dict({"channels": 8, "bogus": 1})

    def test_json_round_trip(self):
        # The path the weights header takes: asdict, JSON, from_dict.
        import dataclasses
        import json
        cfg = ModelConfig(channels=8, unet_depth=2, crop_size=16)
        text = json.dumps(dataclasses.asdict(cfg))
        assert ModelConfig.from_dict(json.loads(text)) == cfg


class TestEncodeMap:
    def test_output_dims_equal_input_dims(self):
        rng = np.random.default_rng(0)
        w = init_weights(MINI, 1)
        for shape in [(8, 8), (12, 20), (9, 13)]:
            occ = OccupancyMap(rng.random(shape) < 0.7, 0.25)
            out = encode_map(occ, w, MINI)
            assert out.shape == (MINI.channels, *shape)
            assert np.all(np.isfinite(out))

    def test_zero_weights_give_bias_output(self):
        w = zero_weights(MINI)
        w["unet.out.b"] = np.array([1.5, -2.0, 0.0, 3.0], dtype=np.float32)
        occ = synthmaps.open_box(8, 8)
        out = encode_map(occ, w, MINI)
        for c in range(4):
            assert np.allclose(out[c], w["unet.out.b"][c])

    def test_non_finite_weights_rejected(self):
        w = zero_weights(MINI)
        w["unet.out.b"] = np.array([0.0, np.nan, 0.0, 0.0], dtype=np.float32)
        with pytest.raises(ValueError,
                           match=r"^layer unet\.out\.b has non-finite values$"):
            encode_map(synthmaps.open_box(8, 8), w, MINI)

    def test_encoding_is_deterministic_and_cacheable(self, rooms_map):
        w = init_weights(MINI, 2)
        a = encode_map(rooms_map, w, MINI)
        b = encode_map(rooms_map, w, MINI)
        assert np.array_equal(a, b)


class TestEncodeOdometry:
    def test_zero_weights_give_zero_vector(self):
        w = zero_weights(MINI)
        out = encode_odometry(np.ones((3, 2)), w, MINI)
        assert np.array_equal(out, np.zeros(4, dtype=np.float32))

    def test_default_config_vector_length(self):
        cfg = ModelConfig()
        w = init_weights(cfg, 3)
        out = encode_odometry(np.zeros((5, 2)), w, cfg)
        assert out.shape == (32,)

    def test_identical_windows_identical_vectors(self):
        w = init_weights(MINI, 4)
        win = np.random.default_rng(5).normal(size=(3, 2))
        assert np.array_equal(encode_odometry(win, w, MINI),
                              encode_odometry(win.copy(), w, MINI))

    @pytest.mark.parametrize("shape", [(7, 3), (7,), (0, 2)])
    def test_non_window_shape_rejected(self, shape):
        w = init_weights(MINI, 4)
        with pytest.raises(ValueError, match="window"):
            encode_odometry(np.zeros(shape), w, MINI)

    def test_any_length_matches_lstm_over_that_many_steps(self):
        w = init_weights(MINI, 4)
        win = np.random.default_rng(6).normal(size=(7, 2)).astype(np.float32)
        params = lstm_param_list(as_tensors(w), MINI)
        want = nn.lstm_forward(constant(win[None] * ODOM_INPUT_SCALE), params,
                               MINI.channels).data[0]
        assert MINI.window_len != 7
        assert np.array_equal(encode_odometry(win, w, MINI), want)


class TestScore:
    def test_zero_vector_gives_zero_heatmap(self):
        mt = np.random.default_rng(6).normal(size=(4, 5, 5)).astype(np.float32)
        assert np.all(score(mt, np.zeros(4, dtype=np.float32)) == 0)

    def test_one_hot_projects_channel(self):
        rng = np.random.default_rng(7)
        mt = rng.normal(size=(4, 5, 5)).astype(np.float32)
        e2 = np.zeros(4, dtype=np.float32)
        e2[2] = 1.0
        assert np.allclose(score(mt, e2), mt[2])

    def test_bilinear(self):
        rng = np.random.default_rng(8)
        mt = rng.normal(size=(4, 6, 6))
        u, v = rng.normal(size=4), rng.normal(size=4)
        assert np.allclose(score(mt, 2.5 * u), 2.5 * score(mt, u))
        assert np.allclose(score(mt, u + v), score(mt, u) + score(mt, v))
        assert np.allclose(score(mt + mt, u), 2.0 * score(mt, u))

    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="channel"):
            score(np.zeros((4, 3, 3)), np.zeros(5))


class TestEndToEndGradients:
    def test_miniature_pipeline_gradcheck(self):
        # Composed map-branch + odometry-branch + dot + weighted MSE on an
        # 8x8 crop and length-3 window.  Inputs are smooth to keep finite
        # differences away from pool ties and relu kinks.
        rng = np.random.default_rng(2)
        params = init_weights(MINI, 102, dtype=np.float64)
        crops = rng.normal(size=(2, 1, 8, 8))
        wins = rng.normal(size=(2, 3, 2))
        targets = rng.random((2, 8, 8))
        weights = np.abs(rng.normal(size=(2, 8, 8))) + 0.1

        def loss():
            mt = unet_forward(constant(crops), params, MINI)
            vec = nn.lstm_forward(constant(wins), lstm_param_list(params, MINI),
                                  MINI.channels)
            pred = nn.channel_dot(mt, vec)
            return nn.weighted_mse(pred, targets, weights)

        assert nn.finite_difference_check(loss, params, h=1e-5) < 1e-4


class TestTraining:
    @pytest.fixture(scope="class")
    def toy_setup(self):
        occ = synthmaps.corridor_rooms()
        cfg = ModelConfig(channels=8, unet_depth=2, base_width=4, window_len=5,
                          crop_size=24, epochs=60, batch_size=10,
                          val_fraction=0.0, augment_copies=1)
        traj = generate_trajectory(occ, seed=3, duration_s=30.0)
        ds = build_training_set(occ, [traj], cfg, NoiseProfile.pedestrian(),
                                seed=0)[:10]
        return occ, cfg, ds

    def test_overfit_toy_set_halves_loss(self, toy_setup):
        occ, cfg, ds = toy_setup
        cfg200 = ModelConfig(**{**cfg.__dict__, "epochs": 200})
        _, hist = train(ds, cfg200, seed=0)
        assert hist[-1][1] <= 0.5 * hist[0][1]

    def test_training_is_deterministic(self, toy_setup):
        occ, cfg, ds = toy_setup
        cfg2 = ModelConfig(**{**cfg.__dict__, "epochs": 3})
        w1, h1 = train(ds, cfg2, seed=4)
        w2, h2 = train(ds, cfg2, seed=4)
        assert h1 == h2
        assert all(np.array_equal(w1[k], w2[k]) for k in w1)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train([], MINI, seed=0)

    def test_divergence_detected(self, toy_setup):
        occ, cfg, ds = toy_setup
        bad = ModelConfig(**{**cfg.__dict__, "learning_rate": 1e6,
                             "epochs": 30, "max_grad_norm": 0.0,
                             "warmup_epochs": 0})
        with pytest.warns(RuntimeWarning), \
                pytest.raises((TrainingDiverged, FloatingPointError)):
            train(ds, bad, seed=0)

    def test_history_has_epoch_zero_baseline(self, toy_setup):
        occ, cfg, ds = toy_setup
        cfg1 = ModelConfig(**{**cfg.__dict__, "epochs": 1})
        _, hist = train(ds, cfg1, seed=0)
        assert hist[0][0] == 0 and hist[-1][0] == 1
        assert len(hist) == 2


class TestBuildTrainingSet:
    def test_sample_shapes_and_alignment(self, rooms_map):
        cfg = ModelConfig(channels=8, unet_depth=2, base_width=4,
                          window_len=5, crop_size=24)
        traj = generate_trajectory(rooms_map, seed=6, duration_s=40.0)
        ds = build_training_set(rooms_map, [traj], cfg,
                                NoiseProfile.pedestrian(), seed=1)
        assert len(ds) == len(traj) - cfg.window_len + 1
        s = ds[0]
        assert s.crop_free.shape == (24, 24)
        assert s.window_cells.shape == (5, 2)
        assert s.target_values.shape == (24, 24)
        assert np.all(s.window_cells[0] == 0)

    def test_stride_and_copies_scale_count(self, rooms_map):
        cfg = ModelConfig(channels=8, unet_depth=2, base_width=4,
                          window_len=5, crop_size=24, augment_copies=2)
        traj = generate_trajectory(rooms_map, seed=6, duration_s=40.0)
        ds = build_training_set(rooms_map, [traj], cfg,
                                NoiseProfile.pedestrian(), seed=1, stride=2)
        base = len(traj) - cfg.window_len + 1
        assert len(ds) == 2 * ((base + 1) // 2)

    def test_zero_noise_windows_match_ground_truth(self, rooms_map):
        cfg = ModelConfig(channels=8, unet_depth=2, base_width=4,
                          window_len=5, crop_size=24)
        traj = generate_trajectory(rooms_map, seed=7, duration_s=30.0)
        ds = build_training_set(rooms_map, [traj], cfg,
                                NoiseProfile.noiseless(), seed=1)
        from mapprior.simulate import window
        wins = window(traj.xy, 5)
        for k in (0, 5):
            assert np.allclose(ds[k].window_cells,
                               wins[k] / rooms_map.resolution, atol=1e-5)

    def test_target_is_a_location_peak_on_free_cells(self, rooms_map):
        cfg = ModelConfig(channels=8, unet_depth=2, base_width=4,
                          window_len=5, crop_size=24)
        traj = generate_trajectory(rooms_map, seed=7, duration_s=30.0)
        ds = build_training_set(rooms_map, [traj], cfg,
                                NoiseProfile.noiseless(), seed=1)
        ends = traj.xy[cfg.window_len - 1 :]
        for s, end in zip(ds, ends):
            assert np.all(s.target_values >= 0)
            assert np.all(s.target_values[s.crop_free == 0] == 0)
            assert np.all(s.target_values[s.crop_free == 1] >= LOCATION_FLOOR)
            # The crop is not stored; find its offset from the map itself.
            iy, ix = np.unravel_index(np.argmax(s.target_values),
                                      s.target_values.shape)
            ex, ey = rooms_map.world_to_cell(end)
            x0, y0 = ex - ix, ey - iy
            assert np.array_equal(
                rooms_map.free[y0 : y0 + 24, x0 : x0 + 24],
                s.crop_free.astype(bool))
            # The end lies within half a cell diagonal of that cell's center.
            assert 0.98 <= s.target_values[iy, ix] <= 1.0 + LOCATION_FLOOR

    def test_training_set_is_deterministic(self, rooms_map):
        cfg = ModelConfig(channels=8, unet_depth=2, base_width=4,
                          window_len=5, crop_size=24, augment_copies=2)
        traj = generate_trajectory(rooms_map, seed=6, duration_s=30.0)
        a, b = (build_training_set(rooms_map, [traj], cfg,
                                   NoiseProfile.pedestrian(), seed=3)
                for _ in range(2))
        for s, t in zip(a, b):
            for field in ("crop_free", "window_cells", "target_values",
                          "loss_weights"):
                assert np.array_equal(getattr(s, field), getattr(t, field))
