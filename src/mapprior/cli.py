"""Command-line pipeline: simulate data, train the prior, localize, evaluate.

Every command writes its data outputs atomically plus one manifest recording
the arguments, seed, and wall-clock timings needed to reproduce or audit the
run.  Errors come back as a single machine-parseable line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import baselines, metrics
from .model import ModelConfig, build_training_set, init_weights, train
from .nn import load_weights, save_weights
from .occupancy import MapError, OccupancyMap, load_map
from .particle_filter import FilterConfig, run_filter
from .simulate import (NoiseProfile, Pose, generate_trajectory,
                       corrupt_to_odometry, dead_reckoning, read_odometry_csv,
                       read_trajectory_csv, write_odometry_csv,
                       write_trajectory_csv)

MANIFEST_VERSION = 1


class CliError(ValueError):
    pass


def _atomic_file(path: Path, writer) -> None:
    """Run writer(tmp_path) then atomically rename tmp_path into place."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_manifest(path: Path, command: str, args: dict, outputs: list[str],
                    timings: dict) -> None:
    manifest = {
        "format_version": MANIFEST_VERSION,
        "command": command,
        "args": args,
        "outputs": outputs,
        "timings": timings,
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    _atomic_file(path, lambda p: Path(p).write_text(text))


def _load_map(args) -> OccupancyMap:
    return load_map(args.map, getattr(args, "map_meta", None))


def _model_config(args) -> ModelConfig:
    if getattr(args, "config", None):
        return ModelConfig.from_dict(json.loads(Path(args.config).read_text()))
    return ModelConfig()


def _parse_start(args) -> Pose:
    if getattr(args, "gt", None):
        gt = read_trajectory_csv(args.gt)
        return gt.pose(0)
    if getattr(args, "start", None):
        parts = [float(v) for v in args.start.split(",")]
        if len(parts) == 2:
            parts.append(0.0)
        if len(parts) != 3:
            raise CliError("--start must be 'x,y' or 'x,y,theta'")
        return Pose(0.0, parts[0], parts[1], parts[2])
    raise CliError("provide --start x,y[,theta] or --gt trajectory for the start pose")


def _load_model(path) -> tuple[dict, ModelConfig]:
    """Weights and their model config; every layer name and shape must be
    the ones the config builds."""
    weights, meta = load_weights(path)
    if "model_config" not in meta:
        raise CliError(f"{path}: no model_config in the weights metadata")
    config = ModelConfig.from_dict(meta["model_config"])
    want = {k: v.data.shape for k, v in init_weights(config, 0).items()}
    have = {k: v.shape for k, v in weights.items()}
    if have != want:
        k = min(k for k in want.keys() | have.keys() if want.get(k) != have.get(k))
        raise CliError(f"{path}: layer {k} is {have.get(k, 'missing')} in the file "
                       f"but {want.get(k, 'absent')} in its model_config")
    return weights, config


# --- commands -------------------------------------------------------------------

def cmd_simulate(args) -> int:
    if args.duration <= 0:
        raise CliError("duration must be > 0")
    occ = _load_map(args)
    out_dir = Path(args.out)
    t0 = time.perf_counter()
    noise = getattr(NoiseProfile, args.profile)()
    seeds = np.random.SeedSequence(args.seed).generate_state(2 * args.n_trajs)
    outputs = []
    for k in range(args.n_trajs):
        traj = generate_trajectory(occ, int(seeds[2 * k]), args.duration,
                                   profile=args.profile)
        odom = corrupt_to_odometry(traj, noise, int(seeds[2 * k + 1]),
                                   resolution=occ.resolution)
        gt_path = out_dir / f"gt_{k:03d}.csv"
        odom_path = out_dir / f"odom_{k:03d}.csv"
        _atomic_file(gt_path, lambda p, tr=traj: write_trajectory_csv(tr, p))
        _atomic_file(odom_path, lambda p, od=odom: write_odometry_csv(od, p))
        outputs += [gt_path.name, odom_path.name]
    _write_manifest(out_dir / "manifest.json", "simulate", {
        "map": str(args.map), "profile": args.profile, "n_trajs": args.n_trajs,
        "duration": args.duration, "seed": args.seed, "out": str(out_dir),
    }, outputs, {"wall_s": time.perf_counter() - t0})
    return 0


def cmd_train(args) -> int:
    occ = _load_map(args)
    config = _model_config(args)
    traj_dir = Path(args.traj_dir)
    gt_files = sorted(traj_dir.glob("gt_*.csv"))
    if not gt_files:
        raise CliError(f"no gt_*.csv files in {traj_dir}")
    trajectories = [read_trajectory_csv(f) for f in gt_files]
    t0 = time.perf_counter()
    noise = getattr(NoiseProfile, args.profile)()
    dataset = build_training_set(occ, trajectories, config, noise,
                                 seed=args.seed, stride=args.stride)
    weights, history = train(dataset, config, seed=args.seed)
    out = Path(args.out)
    meta = {
        "model_config": asdict(config),
        "map": str(args.map),
        "seed": args.seed,
    }
    _atomic_file(out, lambda p: save_weights(p, weights, meta))
    log_path = Path(args.log) if args.log else out.with_suffix(out.suffix + ".log.csv")
    log_lines = ["epoch,train_loss,val_loss"]
    log_lines += [f"{e},{tr:.9g},{vl:.9g}" for e, tr, vl in history]
    _atomic_file(log_path, lambda p: Path(p).write_text("\n".join(log_lines) + "\n"))
    _write_manifest(out.parent / (out.name + ".manifest.json"), "train", {
        "map": str(args.map), "traj_dir": str(traj_dir), "seed": args.seed,
        "stride": args.stride, "profile": args.profile,
        "config": asdict(config), "out": str(out),
    }, [out.name, log_path.name], {"wall_s": time.perf_counter() - t0})
    return 0


def cmd_localize(args) -> int:
    occ = _load_map(args)
    odom = read_odometry_csv(args.odom)
    start = _parse_start(args)
    t0 = time.perf_counter()
    timings: dict = {}

    if args.method == "odom":
        est = dead_reckoning(odom, start)
    elif args.method == "pdr":
        if not args.gt:
            raise CliError("method pdr needs --gt to synthesize step events")
        gt = read_trajectory_csv(args.gt)
        times, headings = baselines.synthesize_steps(
            gt, heading_bias_per_step=args.pdr_heading_bias,
            heading_noise_sigma=args.pdr_heading_noise, seed=args.seed)
        est = baselines.pdr(times, headings, start_xy=(start.x, start.y),
                            start_t=start.t)
    elif args.method == "crf":
        if args.gt:
            gt = read_trajectory_csv(args.gt)
            params = baselines.crf_grid_search(occ, odom, gt, (start.x, start.y))
        else:
            params = baselines.CrfParams(unary_weight=args.crf_unary,
                                         pairwise_weight=args.crf_pairwise,
                                         edge_length=args.crf_edge)
        graph = baselines.build_graph(occ, params.edge_length)
        est = baselines.crf_match(graph, odom, params, (start.x, start.y))
        timings["crf_params"] = asdict(params)
    else:  # ours / heuristic
        fc = getattr(FilterConfig, args.mode)()
        if args.method == "ours":
            if not args.weights:
                raise CliError("method ours needs --weights")
            weights, mcfg = _load_model(args.weights)
            run = run_filter(odom, occ, "learned", fc, args.seed, start,
                             weights=weights, model_config=mcfg)
        else:
            run = run_filter(odom, occ, "heuristic", fc, args.seed, start)
        est = run.estimates
        steps = np.asarray(run.step_seconds)
        timings.update({
            "per_step_ms_mean": float(steps.mean() * 1e3),
            "per_step_ms_max": float(steps.max() * 1e3),
            "realtime_factor": float(len(steps) / max(steps.sum(), 1e-12)
                                     / fc.rate_hz),
            "reinit_count": run.reinit_count,
            "degenerate_count": run.degenerate_count,
        })

    out = Path(args.out)
    _atomic_file(out, lambda p: write_trajectory_csv(est, p))
    timings["wall_s"] = time.perf_counter() - t0
    arg_snapshot = {
        "map": str(args.map), "odom": str(args.odom), "method": args.method,
        "seed": args.seed, "mode": args.mode, "weights": args.weights,
        "gt": args.gt, "start": args.start, "out": str(out),
    }
    _write_manifest(out.parent / (out.name + ".manifest.json"), "localize",
                    arg_snapshot, [out.name], timings)
    return 0


def cmd_eval(args) -> int:
    est_dir, gt_dir = Path(args.est_dir), Path(args.gt_dir)
    out_dir = Path(args.out)
    t0 = time.perf_counter()
    est_files = sorted(est_dir.glob("*.csv"))
    est_files = [f for f in est_files if not f.name.endswith(".log.csv")]
    if not est_files:
        raise CliError(f"no estimate CSVs in {est_dir}")
    pairs = []
    unmatched = []
    for f in est_files:
        candidates = [gt_dir / f.name]
        stem = f.stem
        if "_" in stem:
            candidates.append(gt_dir / f"gt_{stem.rsplit('_', 1)[1]}.csv")
        gt_path = next((c for c in candidates if c.exists()), None)
        if gt_path is None:
            unmatched.append(f.name)
        else:
            pairs.append((f, gt_path))
    if unmatched:
        raise CliError(f"no ground-truth match for: {', '.join(unmatched)}")

    per_traj = []
    all_errors = []
    for est_path, gt_path in pairs:
        est = read_trajectory_csv(est_path)
        gt = read_trajectory_csv(gt_path)
        err = metrics.trajectory_error(est, gt)
        manifest_path = est_path.parent / (est_path.name + ".manifest.json")
        method, seed = None, None
        if manifest_path.exists():
            m = json.loads(manifest_path.read_text())
            if not isinstance(m, dict):
                raise CliError(f"{manifest_path}: manifest is not a JSON object")
            run_args = m.get("args", {})
            if not isinstance(run_args, dict):
                raise CliError(f"{manifest_path}: manifest args is not a JSON object")
            method, seed = run_args.get("method"), run_args.get("seed")
        per_traj.append({
            "method": method, "map": str(args.map) if args.map else None,
            "seed": seed, "ate_m": err.ate, "ee_m": err.ee,
            "n_steps": err.n_total, "est": est_path.name, "gt": gt_path.name,
        })
        all_errors.extend(err.per_step_errors.tolist())

    summary = {
        "format_version": MANIFEST_VERSION,
        "per_trajectory": per_traj,
        "mean": {
            "ate_m": float(np.mean([r["ate_m"] for r in per_traj])),
            "ee_m": float(np.mean([r["ee_m"] for r in per_traj])),
        },
    }
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    _atomic_file(out_dir / "metrics.json", lambda p: Path(p).write_text(text))
    cdf = metrics.cdf_points(all_errors)
    cdf_lines = ["error_m,fraction"]
    cdf_lines += [f"{e:.9g},{fr:.9g}" for e, fr in cdf]
    _atomic_file(out_dir / "cdf.csv",
                 lambda p: Path(p).write_text("\n".join(cdf_lines) + "\n"))
    _write_manifest(out_dir / "manifest.json", "eval", {
        "est_dir": str(est_dir), "gt_dir": str(gt_dir), "out": str(out_dir),
        "map": str(args.map) if args.map else None,
    }, ["metrics.json", "cdf.csv"], {"wall_s": time.perf_counter() - t0})
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="mapprior",
                                  description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="cmd", required=True)

    sim = sub.add_parser("simulate", help="generate ground truth + noisy odometry")
    sim.add_argument("--map", required=True)
    sim.add_argument("--map-meta", default=None)
    sim.add_argument("--profile", choices=["pedestrian", "wheeled"],
                     default="pedestrian")
    sim.add_argument("--n-trajs", type=int, default=4)
    sim.add_argument("--duration", type=float, default=120.0)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True)
    sim.set_defaults(fn=cmd_simulate)

    tr = sub.add_parser("train", help="build targets and fit the prior model")
    tr.add_argument("--map", required=True)
    tr.add_argument("--map-meta", default=None)
    tr.add_argument("--traj-dir", required=True)
    tr.add_argument("--config", default=None, help="model config JSON file")
    tr.add_argument("--profile", choices=["pedestrian", "wheeled"],
                    default="pedestrian",
                    help="augmentation noise profile for training windows")
    tr.add_argument("--stride", type=int, default=1,
                    help="keep every n-th training window")
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--log", default=None, help="loss curve CSV path")
    tr.add_argument("--out", required=True)
    tr.set_defaults(fn=cmd_train)

    loc = sub.add_parser("localize", help="estimate a trajectory from odometry")
    loc.add_argument("--map", required=True)
    loc.add_argument("--map-meta", default=None)
    loc.add_argument("--odom", required=True)
    loc.add_argument("--method", required=True,
                     choices=["ours", "heuristic", "crf", "pdr", "odom"])
    loc.add_argument("--weights", default=None)
    loc.add_argument("--mode", choices=["pedestrian", "wheeled"],
                     default="pedestrian")
    loc.add_argument("--start", default=None, help="x,y[,theta] start pose")
    loc.add_argument("--gt", default=None,
                     help="ground truth CSV (start pose, pdr steps, crf search)")
    loc.add_argument("--pdr-heading-bias", type=float, default=0.005)
    loc.add_argument("--pdr-heading-noise", type=float, default=0.01)
    loc.add_argument("--crf-unary", type=float, default=1.0)
    loc.add_argument("--crf-pairwise", type=float, default=1.0)
    loc.add_argument("--crf-edge", type=float, default=1.0)
    loc.add_argument("--seed", type=int, default=0)
    loc.add_argument("--out", required=True)
    loc.set_defaults(fn=cmd_localize)

    ev = sub.add_parser("eval", help="ATE/EE metrics and CDF data")
    ev.add_argument("--est-dir", required=True)
    ev.add_argument("--gt-dir", required=True)
    ev.add_argument("--map", default=None)
    ev.add_argument("--out", required=True)
    ev.set_defaults(fn=cmd_eval)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, MapError, ValueError, OSError, KeyError) as exc:
        msg = str(exc).replace("\n", " ")
        print(f"error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
