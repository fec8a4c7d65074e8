import json
import os
import stat
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from mapprior import synthmaps
from mapprior.baselines import crf_grid_search
from mapprior.cli import build_parser, main
from mapprior.nn import load_weights, save_weights
from mapprior.nn.serialize import MAGIC
from mapprior.occupancy import load_map, save_map
from mapprior.simulate import (Trajectory, integrate_odometry,
                               read_odometry_csv, read_trajectory_csv,
                               write_trajectory_csv)


@pytest.fixture(scope="module")
def map_path(tmp_path_factory):
    d = tmp_path_factory.mktemp("maps")
    occ = synthmaps.corridor_rooms()
    p = d / "rooms.pgm"
    save_map(occ, p)
    return p


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory, map_path):
    out = tmp_path_factory.mktemp("sim")
    rc = main(["simulate", "--map", str(map_path), "--n-trajs", "2",
               "--duration", "40", "--seed", "5", "--out", str(out)])
    assert rc == 0
    return out


def data_files(d: Path) -> list[Path]:
    return sorted(p for p in d.iterdir() if not p.name.endswith("manifest.json"))


class TestSimulate:
    def test_writes_pairs_and_manifest(self, sim_dir):
        names = [p.name for p in data_files(sim_dir)]
        assert names == ["gt_000.csv", "gt_001.csv", "odom_000.csv", "odom_001.csv"]
        manifest = json.loads((sim_dir / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["args"]["seed"] == 5
        assert "wall_s" in manifest["timings"]

    def test_same_seed_is_byte_identical(self, tmp_path, map_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = main(["simulate", "--map", str(map_path), "--n-trajs", "1",
                       "--duration", "30", "--seed", "9", "--out", str(out)])
            assert rc == 0
            outs.append(out)
        for fname in ("gt_000.csv", "odom_000.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_zero_duration_fails_without_partial_files(self, tmp_path, map_path, capsys):
        out = tmp_path / "bad"
        rc = main(["simulate", "--map", str(map_path), "--duration", "0",
                   "--out", str(out)])
        assert rc != 0
        assert not out.exists() or not any(out.iterdir())
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_trajectories_satisfy_map(self, sim_dir, map_path):
        from mapprior.occupancy import load_map
        occ = load_map(map_path)
        traj = read_trajectory_csv(sim_dir / "gt_000.csv")
        assert all(occ.is_free(traj.xy[i]) for i in range(len(traj)))


@pytest.fixture(scope="module")
def trained(tmp_path_factory, map_path, sim_dir):
    out = tmp_path_factory.mktemp("train")
    cfg = {"channels": 8, "unet_depth": 2, "base_width": 4, "window_len": 5,
           "crop_size": 24, "epochs": 3, "batch_size": 16,
           "augment_copies": 1}
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    weights = out / "model.lmw"
    rc = main(["train", "--map", str(map_path), "--traj-dir", str(sim_dir),
               "--config", str(cfg_path), "--seed", "3", "--stride", "2",
               "--out", str(weights)])
    assert rc == 0
    return weights


class TestTrain:
    def test_outputs_exist(self, trained):
        assert trained.exists()
        log = trained.parent / (trained.name + ".log.csv")
        assert log.exists()
        lines = log.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert len(lines) == 5  # header + epoch 0 baseline + 3 epochs

    def test_weights_carry_model_config(self, trained):
        from mapprior.nn import load_weights
        weights, meta = load_weights(trained)
        assert meta["model_config"]["channels"] == 8
        assert any(k.startswith("lstm.") for k in weights)

    def test_empty_traj_dir_fails(self, tmp_path, map_path, capsys):
        rc = main(["train", "--map", str(map_path), "--traj-dir",
                   str(tmp_path), "--out", str(tmp_path / "w.lmw")])
        assert rc != 0
        assert "error:" in capsys.readouterr().err

    def test_weights_bytes_do_not_depend_on_map_path_spelling(
            self, tmp_path, map_path, sim_dir, monkeypatch):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"channels": 4, "unet_depth": 2,
                                   "base_width": 2, "crop_size": 8,
                                   "epochs": 1, "augment_copies": 1}))
        monkeypatch.chdir(map_path.parent)
        outs = []
        for name, spelling in (("rel.lmw", map_path.name), ("abs.lmw", map_path)):
            rc = main(["train", "--map", str(spelling), "--traj-dir", str(sim_dir),
                       "--config", str(cfg), "--seed", "1", "--stride", "4",
                       "--out", str(tmp_path / name)])
            assert rc == 0
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1]


class TestLocalize:
    def test_odom_method_reproduces_integration(self, tmp_path, map_path, sim_dir):
        est_path = tmp_path / "est.csv"
        rc = main(["localize", "--map", str(map_path),
                   "--odom", str(sim_dir / "odom_000.csv"), "--method", "odom",
                   "--gt", str(sim_dir / "gt_000.csv"),
                   "--out", str(est_path)])
        assert rc == 0
        est = read_trajectory_csv(est_path)
        odom = read_odometry_csv(sim_dir / "odom_000.csv")
        gt = read_trajectory_csv(sim_dir / "gt_000.csv")
        expected = integrate_odometry(odom, gt.xy[0])
        assert np.allclose(est.xy, expected)

    def test_ours_requires_weights(self, tmp_path, map_path, sim_dir, capsys):
        rc = main(["localize", "--map", str(map_path),
                   "--odom", str(sim_dir / "odom_000.csv"), "--method", "ours",
                   "--gt", str(sim_dir / "gt_000.csv"),
                   "--out", str(tmp_path / "e.csv")])
        assert rc != 0
        assert "weights" in capsys.readouterr().err

    def test_heuristic_deterministic_across_runs(self, tmp_path, map_path, sim_dir):
        paths = []
        for name in ("e1.csv", "e2.csv"):
            p = tmp_path / name
            rc = main(["localize", "--map", str(map_path),
                       "--odom", str(sim_dir / "odom_000.csv"),
                       "--method", "heuristic", "--seed", "11",
                       "--gt", str(sim_dir / "gt_000.csv"), "--out", str(p)])
            assert rc == 0
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_ours_runs_with_trained_weights(self, tmp_path, map_path, sim_dir, trained):
        est_path = tmp_path / "ours.csv"
        rc = main(["localize", "--map", str(map_path),
                   "--odom", str(sim_dir / "odom_000.csv"), "--method", "ours",
                   "--weights", str(trained), "--seed", "2",
                   "--gt", str(sim_dir / "gt_000.csv"), "--out", str(est_path)])
        assert rc == 0
        manifest = json.loads((tmp_path / "ours.csv.manifest.json").read_text())
        assert "per_step_ms_mean" in manifest["timings"]
        est = read_trajectory_csv(est_path)
        gt = read_trajectory_csv(sim_dir / "gt_000.csv")
        assert len(est) == len(gt)

    def test_pdr_needs_gt(self, tmp_path, map_path, sim_dir, capsys):
        rc = main(["localize", "--map", str(map_path),
                   "--odom", str(sim_dir / "odom_000.csv"), "--method", "pdr",
                   "--start", "1,1,0", "--out", str(tmp_path / "p.csv")])
        assert rc != 0
        assert "gt" in capsys.readouterr().err

    def test_pdr_and_crf_produce_trajectories(self, tmp_path, map_path, sim_dir):
        for method in ("pdr", "crf"):
            p = tmp_path / f"{method}.csv"
            rc = main(["localize", "--map", str(map_path),
                       "--odom", str(sim_dir / "odom_000.csv"),
                       "--method", method, "--seed", "1",
                       "--gt", str(sim_dir / "gt_000.csv"), "--out", str(p)])
            assert rc == 0, method
            est = read_trajectory_csv(p)
            assert len(est) >= 2

    def test_start_flag_parsing(self, tmp_path, map_path, sim_dir):
        p = tmp_path / "s.csv"
        rc = main(["localize", "--map", str(map_path),
                   "--odom", str(sim_dir / "odom_000.csv"), "--method", "odom",
                   "--start", "2.5,3.5", "--out", str(p)])
        assert rc == 0
        est = read_trajectory_csv(p)
        assert tuple(est.xy[0]) == (2.5, 3.5)

    @pytest.mark.parametrize("method", ["odom", "heuristic"])
    def test_start_wins_over_gt(self, tmp_path, map_path, sim_dir, method):
        p = tmp_path / "s.csv"
        rc = main(["localize", "--map", str(map_path),
                   "--odom", str(sim_dir / "odom_000.csv"), "--method", method,
                   "--gt", str(sim_dir / "gt_000.csv"), "--start", "2.5,3.5,0.5",
                   "--out", str(p)])
        assert rc == 0
        est = read_trajectory_csv(p)
        assert tuple(est.xy[0]) == (2.5, 3.5)
        assert est.theta[0] == pytest.approx(0.5, abs=1e-12)

    @staticmethod
    def crf_params_used(tmp_path, map_path, sim_dir, *extra) -> dict:
        p = tmp_path / "crf.csv"
        rc = main(["localize", "--map", str(map_path),
                   "--odom", str(sim_dir / "odom_000.csv"), "--method", "crf",
                   "--gt", str(sim_dir / "gt_000.csv"), "--out", str(p),
                   *extra])
        assert rc == 0
        manifest = json.loads((tmp_path / "crf.csv.manifest.json").read_text())
        return manifest["timings"]["crf_params"]

    def test_crf_gt_alone_grid_searches(self, tmp_path, map_path, sim_dir):
        occ = load_map(map_path)
        gt = read_trajectory_csv(sim_dir / "gt_000.csv")
        want = crf_grid_search(occ, read_odometry_csv(sim_dir / "odom_000.csv"),
                               gt, gt.xy[0])
        assert self.crf_params_used(tmp_path, map_path, sim_dir) == asdict(want)

    def test_crf_values_given_win_over_gt_search(self, tmp_path, map_path,
                                                 sim_dir):
        used = self.crf_params_used(tmp_path, map_path, sim_dir,
                                    "--crf-unary", "3", "--crf-pairwise", "0.5",
                                    "--crf-edge", "1.5")
        assert used == {"unary_weight": 3.0, "pairwise_weight": 0.5,
                        "edge_length": 1.5}

    def test_crf_value_given_pins_its_grid_axis(self, tmp_path, map_path,
                                                sim_dir):
        used = self.crf_params_used(tmp_path, map_path, sim_dir,
                                    "--crf-unary", "3")
        assert used["unary_weight"] == 3.0
        assert used["pairwise_weight"] in (0.1, 1.0, 10.0)
        assert used["edge_length"] in (0.5, 1.0, 2.0)


def test_outputs_get_the_umask_mode(tmp_path, map_path):
    old = os.umask(0o022)
    try:
        sim, est, ev = tmp_path / "sim", tmp_path / "est", tmp_path / "ev"
        assert main(["simulate", "--map", str(map_path), "--n-trajs", "1",
                     "--duration", "5", "--out", str(sim)]) == 0
        est.mkdir()
        (est / "gt_000.csv").write_bytes((sim / "gt_000.csv").read_bytes())
        assert main(["eval", "--est-dir", str(est), "--gt-dir", str(sim),
                     "--out", str(ev)]) == 0
    finally:
        os.umask(old)
    paths = [*sim.iterdir(), *ev.iterdir()]
    assert {p.name for p in paths} >= {"gt_000.csv", "odom_000.csv",
                                       "manifest.json", "metrics.json"}
    for p in paths:
        assert stat.S_IMODE(p.stat().st_mode) == 0o644, p.name


def cli_error(capsys, *argv) -> str:
    """Run the CLI expecting a failure; returns its one stderr line."""
    rc = main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and err.count("\n") == 1
    return err


DEEP_JSON = "[" * 100_000  # past the json module's recursion limit


def as_json(value) -> str:
    """A string is written as it is, so a case can give text that is not JSON."""
    return value if isinstance(value, str) else json.dumps(value)


def localize_error(tmp_path, map_path, odom_path, capsys, *extra) -> str:
    """Run localize expecting a failure; returns its one stderr line."""
    err = cli_error(capsys, "localize", "--map", map_path, "--odom", odom_path,
                    "--start", "1,1", "--out", tmp_path / "e.csv", *extra)
    assert not (tmp_path / "e.csv").exists()
    return err


class TestMalformedInputs:
    @pytest.mark.parametrize("rows, message", [
        ("1,0.5,0,0\n2,0.5,0\n", "line 3: 3 fields"),
        ("1,0.5,0,0\n2,nan,0,0\n", "non-finite"),
        ("1,0.5,0,0\n3,0.5,0,0\n2,0.5,0,0\n", "strictly increasing"),
    ])
    def test_bad_odometry_csv_exits_2(self, tmp_path, map_path, capsys, rows,
                                      message):
        odom = tmp_path / "odom.csv"
        odom.write_text("t,dx,dy,dtheta\n" + rows)
        err = localize_error(tmp_path, map_path, odom, capsys,
                             "--method", "heuristic")
        assert "odom.csv" in err and message in err

    def test_odometry_csv_not_utf8_names_file(self, tmp_path, map_path, capsys):
        odom = tmp_path / "bin.csv"
        odom.write_bytes(b"t,dx,dy,dtheta\n\xff\xfe1,0.5,0,0\n")
        err = localize_error(tmp_path, map_path, odom, capsys,
                             "--method", "heuristic")
        assert "bin.csv: 'utf-8' codec can't decode byte 0xff" in err

    def test_odometry_rate_other_than_filter_rate_exits_2(self, tmp_path,
                                                          map_path, capsys):
        odom = tmp_path / "odom.csv"
        odom.write_text("t,dx,dy,dtheta\n0.5,0.1,0,0\n1,0.1,0,0\n1.5,0.1,0,0\n")
        err = localize_error(tmp_path, map_path, odom, capsys,
                             "--method", "heuristic")
        assert "odom.csv: sampled every 0.5 s, not at 1 Hz" in err

    def test_short_weights_file_exits_2(self, tmp_path, map_path, sim_dir,
                                        capsys):
        weights = tmp_path / "w.lmw"
        weights.write_bytes(b"LMPW0001\x00")
        err = localize_error(tmp_path, map_path, sim_dir / "odom_000.csv",
                             capsys, "--method", "ours", "--weights", str(weights))
        assert "truncated header" in err

    def test_weights_not_matching_their_config_exit_2(self, tmp_path, map_path,
                                                      sim_dir, trained, capsys):
        weights, meta = load_weights(trained)
        missing = {k: v for k, v in weights.items() if k != "unet.enc1.c1.w"}
        save_weights(tmp_path / "missing.lmw", missing, meta)
        wide = {**meta, "model_config": {**meta["model_config"], "base_width": 8}}
        save_weights(tmp_path / "wide.lmw", weights, wide)
        bogus = {**meta, "model_config": {**meta["model_config"], "bogus": 1}}
        save_weights(tmp_path / "bogus.lmw", weights, bogus)
        for name, detail in (("missing.lmw", "unet.enc1.c1.w is missing"),
                             ("wide.lmw", "unet.dec0.c1.b is (4,) in the weights but (8,)"),
                             ("bogus.lmw", "bogus.lmw: unknown config keys: ['bogus']")):
            err = localize_error(tmp_path, map_path, sim_dir / "odom_000.csv",
                                 capsys, "--method", "ours",
                                 "--weights", str(tmp_path / name))
            assert name in err and detail in err

    def test_non_finite_weights_exit_2(self, tmp_path, map_path, sim_dir,
                                       trained, capsys):
        weights, meta = load_weights(trained)
        weights["unet.out.b"] = np.full_like(weights["unet.out.b"], np.nan)
        save_weights(tmp_path / "nan.lmw", weights, meta)
        err = localize_error(tmp_path, map_path, sim_dir / "odom_000.csv",
                             capsys, "--method", "ours",
                             "--weights", tmp_path / "nan.lmw")
        assert "nan.lmw: layer unet.out.b has non-finite values" in err

    @pytest.mark.parametrize("header", [
        [],
        {"format_version": 1},
        {"format_version": 1, "layers": [{"shape": [1]}], "meta": {}},
        {"format_version": 1, "layers": [{"name": "b", "shape": [-1]}]},
        {"format_version": 1, "layers": [], "meta": "model_config"},
    ])
    def test_malformed_weights_header_exits_2(self, tmp_path, map_path,
                                              sim_dir, capsys, header):
        raw = json.dumps(header).encode()
        weights = tmp_path / "w.lmw"
        weights.write_bytes(MAGIC + struct.pack("<I", len(raw)) + raw)
        err = localize_error(tmp_path, map_path, sim_dir / "odom_000.csv",
                             capsys, "--method", "ours", "--weights", weights)
        assert "w.lmw: header" in err

    def test_deeply_nested_weights_header_exits_2(self, tmp_path, map_path,
                                                  sim_dir, capsys):
        raw = DEEP_JSON.encode()
        weights = tmp_path / "w.lmw"
        weights.write_bytes(MAGIC + struct.pack("<I", len(raw)) + raw)
        err = localize_error(tmp_path, map_path, sim_dir / "odom_000.csv",
                             capsys, "--method", "ours", "--weights", weights)
        assert "w.lmw: unreadable header: maximum recursion depth" in err

    @pytest.mark.parametrize("sidecar, message", [
        ([], "sidecar is not a JSON object"),
        ({"resolution_m_per_px": None, "origin_x_m": 0.0, "origin_y_m": 0.0},
         "sidecar resolution_m_per_px is not a number"),
        ("{oops", "sidecar is not valid JSON"),
        pytest.param(DEEP_JSON, "sidecar is not valid JSON (maximum recursion",
                     id="deeply-nested"),
        ('{"resolution_m_per_px": 1e400, "origin_x_m": 0, "origin_y_m": 0}',
         "sidecar resolution_m_per_px is not a finite number"),
        ('{"resolution_m_per_px": 0.5, "origin_x_m": NaN, "origin_y_m": 0}',
         "sidecar origin_x_m is not a finite number"),
    ])
    def test_malformed_map_sidecar_exits_2(self, tmp_path, map_path, capsys,
                                           sidecar, message):
        meta = tmp_path / "meta.json"
        meta.write_text(as_json(sidecar))
        err = cli_error(capsys, "simulate", "--map", map_path, "--map-meta",
                        meta, "--out", tmp_path / "sim")
        assert f"meta.json: {message}" in err

    @pytest.mark.parametrize("config, message", [
        ([], "model config is not a JSON object"),
        ({"crop_size": "32"}, "config crop_size must be int, not '32'"),
        ("{oops", "config.json: model config is not valid JSON"),
        ({"bogus": 1}, "config.json: unknown config keys: ['bogus']"),
        ({"batch_size": -1}, "config.json: config batch_size must be >= 1, not -1"),
        ({"batch_size": 0}, "config.json: config batch_size must be >= 1, not 0"),
        ({"epochs": -3}, "config.json: config epochs must be >= 0, not -3"),
        ({"base_width": 0}, "config.json: config base_width must be >= 1, not 0"),
        ({"learning_rate": -0.5},
         "config.json: config learning_rate must be finite and > 0, not -0.5"),
        ({"augment_copies": 0},
         "config.json: config augment_copies must be >= 1, not 0"),
        ({"val_fraction": -1},
         "config.json: config val_fraction must be in [0, 1), not -1"),
        ({"crop_size": 0}, "config.json: config crop_size must be >= 1, not 0"),
        pytest.param(DEEP_JSON, "config.json: model config is not valid JSON "
                     "(maximum recursion", id="deeply-nested"),
        ('{"max_grad_norm": NaN}',
         "config.json: config max_grad_norm must not be nan"),
        ({"warmup_epochs": -4},
         "config.json: config warmup_epochs must be >= 0, not -4"),
        pytest.param('{"learning_rate": 1' + 400 * "0" + "}",
                     "config.json: config learning_rate must be finite and > 0, "
                     "not 1" + 400 * "0", id="learning_rate-beyond-float"),
        pytest.param('{"max_grad_norm": 1' + 400 * "0" + "}",
                     "config.json: config max_grad_norm must be float, not an int "
                     "beyond its range", id="max_grad_norm-beyond-float"),
    ])
    def test_malformed_config_exits_2(self, tmp_path, map_path, sim_dir,
                                      capsys, config, message):
        cfg = tmp_path / "config.json"
        cfg.write_text(as_json(config))
        err = cli_error(capsys, "train", "--map", map_path, "--traj-dir",
                        sim_dir, "--config", cfg, "--out", tmp_path / "w.lmw")
        assert message in err
        assert not (tmp_path / "w.lmw").exists()

    @pytest.mark.parametrize("manifest, message", [
        ([], "manifest is not a JSON object"),
        ({"args": []}, "manifest args is not a JSON object"),
        ("{oops", "manifest is not valid JSON"),
        pytest.param(DEEP_JSON, "manifest is not valid JSON (maximum recursion",
                     id="deeply-nested"),
    ])
    def test_malformed_estimate_manifest_exits_2(self, tmp_path, sim_dir,
                                                 capsys, manifest, message):
        est = tmp_path / "est"
        est.mkdir()
        (est / "est_000.csv").write_bytes((sim_dir / "gt_000.csv").read_bytes())
        (est / "est_000.csv.manifest.json").write_text(as_json(manifest))
        err = cli_error(capsys, "eval", "--est-dir", est, "--gt-dir", sim_dir,
                        "--out", tmp_path / "ev")
        assert f"est_000.csv.manifest.json: {message}" in err
        assert not (tmp_path / "ev" / "metrics.json").exists()

    @pytest.mark.parametrize("stride", ["-1", "0"])
    def test_stride_below_1_exits_2(self, tmp_path, map_path, sim_dir, capsys,
                                    stride):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"channels": 4, "unet_depth": 2,
                                   "base_width": 2, "crop_size": 8,
                                   "epochs": 1}))
        err = cli_error(capsys, "train", "--map", map_path, "--traj-dir",
                        sim_dir, "--config", cfg, "--stride", stride,
                        "--out", tmp_path / "w.lmw")
        assert f"stride must be >= 1, not {stride}" in err
        assert not (tmp_path / "w.lmw").exists()

    @pytest.mark.parametrize("option, value, message", [
        ("--n-trajs", "0", "--n-trajs must be >= 1, not 0"),
        ("--n-trajs", "-1", "--n-trajs must be >= 1, not -1"),
        ("--duration", "nan", "duration nan s"),
        ("--duration", "inf", "duration inf s"),
        ("--duration", "0.5", "duration 0.5 s"),
    ])
    def test_bad_simulate_numbers_exit_2(self, tmp_path, map_path, capsys,
                                         option, value, message):
        out = tmp_path / "sim"
        err = cli_error(capsys, "simulate", "--map", map_path, option, value,
                        "--out", out)
        assert message in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("extra, message", [
        (["--method", "crf", "--crf-unary", "nan"],
         "CRF unary_weight must be finite and >= 0, not nan"),
        (["--method", "crf", "--crf-pairwise", "-1"],
         "CRF pairwise_weight must be finite and >= 0, not -1.0"),
        (["--method", "crf", "--crf-edge", "nan"],
         "CRF edge_length must be finite and > 0, not nan"),
        (["--method", "crf", "--crf-edge", "0"],
         "CRF edge_length must be finite and > 0, not 0.0"),
    ])
    def test_bad_crf_and_pdr_options_exit_2(self, tmp_path, map_path, sim_dir,
                                            capsys, extra, message):
        err = localize_error(tmp_path, map_path, sim_dir / "odom_000.csv",
                             capsys, *extra)
        assert message in err

    def test_bad_crf_option_with_gt_exits_2(self, tmp_path, map_path, sim_dir,
                                            capsys):
        err = localize_error(tmp_path, map_path, sim_dir / "odom_000.csv",
                             capsys, "--method", "crf", "--crf-unary", "nan",
                             "--crf-edge", "-3", "--gt", sim_dir / "gt_000.csv")
        assert "CRF unary_weight must be finite and >= 0, not nan" in err

    @pytest.mark.parametrize("start", ["nan,5", "1,inf", "a,5", "1,2,-inf"])
    def test_start_not_finite_numbers_exits_2(self, tmp_path, map_path,
                                               sim_dir, capsys, start):
        err = cli_error(capsys, "localize", "--map", map_path, "--odom",
                        sim_dir / "odom_000.csv", "--method", "odom",
                        "--start", start, "--out", tmp_path / "e.csv")
        assert "--start must be" in err and repr(start) in err
        assert not (tmp_path / "e.csv").exists()

    def test_training_walk_not_at_1_hz_exits_2(self, tmp_path, map_path,
                                               sim_dir, capsys):
        gt = read_trajectory_csv(sim_dir / "gt_000.csv")
        walks = tmp_path / "walks"
        walks.mkdir()
        write_trajectory_csv(Trajectory(t=0.5 * gt.t, xy=gt.xy, theta=gt.theta),
                             walks / "gt_000.csv")
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"channels": 8, "unet_depth": 2,
                                   "base_width": 4, "crop_size": 24,
                                   "epochs": 1}))
        err = cli_error(capsys, "train", "--map", map_path, "--traj-dir",
                        walks, "--config", cfg, "--out", tmp_path / "w.lmw")
        assert "gt_000.csv: sampled every 0.5 s, not at 1 Hz" in err
        assert not (tmp_path / "w.lmw").exists()

    def test_training_walk_with_uneven_period_names_its_file(self, tmp_path,
                                                             map_path, sim_dir,
                                                             capsys):
        gt = read_trajectory_csv(sim_dir / "gt_000.csv")
        walks = tmp_path / "walks"
        walks.mkdir()
        write_trajectory_csv(gt, walks / "gt_000.csv")
        t = gt.t.copy()
        t[7:] += 0.5
        write_trajectory_csv(Trajectory(t=t, xy=gt.xy, theta=gt.theta),
                             walks / "gt_001.csv")
        err = cli_error(capsys, "train", "--map", map_path, "--traj-dir",
                        walks, "--out", tmp_path / "w.lmw")
        assert "gt_001.csv: sampled every 1 to 1.5 s, not at 1 Hz" in err
        assert "gt_000.csv" not in err
        assert not (tmp_path / "w.lmw").exists()

    def test_training_walk_shorter_than_window_exits_2(self, tmp_path, map_path,
                                                       sim_dir, capsys):
        gt = read_trajectory_csv(sim_dir / "gt_000.csv")
        walks = tmp_path / "walks"
        walks.mkdir()
        write_trajectory_csv(Trajectory(t=gt.t[:4], xy=gt.xy[:4],
                                        theta=gt.theta[:4]), walks / "gt_000.csv")
        err = cli_error(capsys, "train", "--map", map_path, "--traj-dir",
                        walks, "--out", tmp_path / "w.lmw")
        assert "gt_000.csv: 4 samples" in err and "window_len (5)" in err
        assert not (tmp_path / "w.lmw").exists()

    def test_diverging_training_exits_2(self, tmp_path, map_path, sim_dir,
                                        capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"channels": 4, "unet_depth": 2,
                                   "base_width": 2, "crop_size": 8,
                                   "epochs": 1, "learning_rate": 1e30,
                                   "max_grad_norm": 0}))
        with pytest.warns(RuntimeWarning):
            err = cli_error(capsys, "train", "--map", map_path, "--traj-dir",
                            sim_dir, "--config", cfg, "--out", tmp_path / "w.lmw")
        assert err == ("error: loss became non-finite at epoch 1 "
                       "(lr=1e+30, batch=32)\n")
        assert not (tmp_path / "w.lmw").exists()

    @pytest.mark.parametrize("command, extra", [
        ("simulate", []),
        ("train", ["--traj-dir", "."]),
        ("localize", ["--odom", "o.csv", "--method", "odom", "--start", "1,1"]),
    ])
    def test_negative_seed_exits_2(self, tmp_path, map_path, capsys, command,
                                   extra):
        err = cli_error(capsys, command, "--map", map_path, "--seed", "-1",
                        "--out", tmp_path / "out", *extra)
        assert "--seed must be >= 0, not -1" in err
        assert not (tmp_path / "out").exists()


class TestManifest:
    # The fewest arguments each command parses with.
    REQUIRED = {
        "simulate": ["--map", "m", "--out", "o"],
        "train": ["--map", "m", "--traj-dir", "d", "--out", "o"],
        "localize": ["--map", "m", "--odom", "c", "--method", "odom",
                     "--out", "o"],
        "eval": ["--est-dir", "e", "--gt-dir", "g", "--out", "o"],
    }

    def test_args_are_every_parsed_argument(self, tmp_path, map_path, sim_dir,
                                            trained):
        est = tmp_path / "est"
        assert main(["localize", "--map", str(map_path), "--odom",
                     str(sim_dir / "odom_000.csv"), "--method", "odom",
                     "--start", "1,1", "--out", str(est / "est_000.csv")]) == 0
        assert main(["eval", "--est-dir", str(est), "--gt-dir", str(sim_dir),
                     "--out", str(tmp_path / "ev")]) == 0
        paths = {"simulate": sim_dir / "manifest.json",
                 "train": trained.parent / (trained.name + ".manifest.json"),
                 "localize": est / "est_000.csv.manifest.json",
                 "eval": tmp_path / "ev" / "manifest.json"}
        parser = build_parser()
        for command, path in paths.items():
            manifest = json.loads(path.read_text())
            dests = vars(parser.parse_args([command, *self.REQUIRED[command]]))
            assert manifest["command"] == command
            assert set(manifest["args"]) == set(dests) - {"fn"}, command
        train = json.loads(paths["train"].read_text())
        assert train["args"]["stride"] == 2
        assert train["model_config"]["channels"] == 8


class TestEval:
    @pytest.fixture(scope="class")
    def est_dir(self, tmp_path_factory, map_path, sim_dir):
        d = tmp_path_factory.mktemp("est")
        for k in range(2):
            rc = main(["localize", "--map", str(map_path),
                       "--odom", str(sim_dir / f"odom_{k:03d}.csv"),
                       "--method", "odom",
                       "--gt", str(sim_dir / f"gt_{k:03d}.csv"),
                       "--out", str(d / f"est_{k:03d}.csv")])
            assert rc == 0
        return d

    def test_identical_dirs_give_zero_metrics(self, tmp_path, map_path, sim_dir):
        out = tmp_path / "ev0"
        rc = main(["eval", "--est-dir", str(sim_dir), "--gt-dir", str(sim_dir),
                   "--out", str(out)])
        # gt files pair with themselves by identical names; odom csvs have no
        # partner so this must fail listing them.
        assert rc != 0

    def test_metrics_schema_and_mean(self, tmp_path, est_dir, sim_dir):
        out = tmp_path / "ev"
        rc = main(["eval", "--est-dir", str(est_dir), "--gt-dir", str(sim_dir),
                   "--out", str(out)])
        assert rc == 0
        metrics = json.loads((out / "metrics.json").read_text())
        rows = metrics["per_trajectory"]
        assert len(rows) == 2
        for row in rows:
            assert {"method", "seed", "ate_m", "ee_m", "n_steps"} <= set(row)
            assert row["method"] == "odom"
        assert metrics["mean"]["ate_m"] == pytest.approx(
            np.mean([r["ate_m"] for r in rows]))
        cdf_lines = (out / "cdf.csv").read_text().strip().splitlines()
        assert cdf_lines[0] == "error_m,fraction"
        last = cdf_lines[-1].split(",")
        assert float(last[1]) == 1.0

    def test_self_eval_is_zero(self, tmp_path, sim_dir, map_path):
        d = tmp_path / "self"
        d.mkdir()
        (d / "gt_000.csv").write_bytes((sim_dir / "gt_000.csv").read_bytes())
        out = tmp_path / "ev_self"
        rc = main(["eval", "--est-dir", str(d), "--gt-dir", str(sim_dir),
                   "--out", str(out)])
        assert rc == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["mean"]["ate_m"] == 0.0
        assert metrics["mean"]["ee_m"] == 0.0

    def test_unmatched_files_listed(self, tmp_path, map_path, capsys):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        d1.mkdir(), d2.mkdir()
        (d1 / "est_777.csv").write_text("t,x,y,theta\n0,0,0,0\n1,1,1,0\n")
        out = tmp_path / "ev2"
        rc = main(["eval", "--est-dir", str(d1), "--gt-dir", str(d2),
                   "--out", str(out)])
        assert rc != 0
        assert "est_777" in capsys.readouterr().err

    def test_no_overlapping_timestamps_names_files(self, tmp_path, sim_dir,
                                                   capsys):
        est = tmp_path / "est"
        est.mkdir()
        gt = read_trajectory_csv(sim_dir / "gt_000.csv")
        write_trajectory_csv(Trajectory(t=gt.t + 1000.0, xy=gt.xy, theta=gt.theta),
                             est / "est_000.csv")
        err = cli_error(capsys, "eval", "--est-dir", est, "--gt-dir", sim_dir,
                        "--out", tmp_path / "ev")
        assert (f"{est / 'est_000.csv'} vs {sim_dir / 'gt_000.csv'}: "
                "no overlapping timestamps") in err
        assert not (tmp_path / "ev").exists()
