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
from .model import (ModelConfig, TrainingDiverged, build_training_set,
                    check_weights, train)
from .nn import load_weights, save_weights
from .occupancy import load_map
from .particle_filter import FilterConfig, run_filter
from .simulate import (NoiseProfile, Pose, generate_trajectory,
                       corrupt_to_odometry, dead_reckoning, read_odometry_csv,
                       read_trajectory_csv, require_1hz, write_odometry_csv,
                       write_trajectory_csv)

MANIFEST_VERSION = 1


def _atomic_file(path: Path, writer) -> None:
    """Run writer(tmp_path) then atomically rename tmp_path into place.  The
    file gets the mode open() would give it, not mkstemp's 0600."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    umask = os.umask(0)
    os.umask(umask)
    os.fchmod(fd, 0o666 & ~umask)
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_text(path: Path, text: str) -> None:
    _atomic_file(path, lambda p: Path(p).write_text(text))


def _write_manifest(path: Path, args: argparse.Namespace, outputs: list[str],
                    timings: dict, **extra) -> None:
    """Manifest recording every parsed argument of the command; extra entries
    are added at the top level."""
    manifest = {
        "format_version": MANIFEST_VERSION,
        "command": args.cmd,
        "args": {k: v for k, v in vars(args).items() if k != "fn"},
        "outputs": outputs,
        "timings": timings,
        **extra,
    }
    _write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _read_json_object(path: Path, what: str) -> dict:
    try:
        obj = json.loads(path.read_text())
    except (ValueError, RecursionError) as exc:  # RecursionError: deep nesting
        raise ValueError(f"{path}: {what} is not valid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: {what} is not a JSON object")
    return obj


def _prefixed(where, fn, *args):
    """fn(*args), with where put in front of a ValueError's line."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _parse_start(start: str | None, gt) -> Pose:
    """The --start pose if given, else the first pose of the ground truth."""
    if start is None:
        if gt is None:
            raise ValueError("provide --start x,y[,theta] or --gt trajectory "
                             "for the start pose")
        return gt.pose(0)
    try:
        parts = [float(v) for v in start.split(",")]
    except ValueError:
        parts = []
    if len(parts) == 2:
        parts.append(0.0)
    if len(parts) != 3 or not np.all(np.isfinite(parts)):
        raise ValueError(f"--start must be 'x,y' or 'x,y,theta' with finite "
                         f"numbers, not {start!r}")
    return Pose(0.0, parts[0], parts[1], parts[2])


# --crf-* option, CrfParams field, crf_grid_search grid argument.
_CRF_OPTIONS = (("crf_unary", "unary_weight", "unary_grid"),
                ("crf_pairwise", "pairwise_weight", "pairwise_grid"),
                ("crf_edge", "edge_length", "edge_grid"))


def _crf_params(args, occ, odom, gt, start_xy) -> baselines.CrfParams:
    """The --crf-* values given, checked through CrfParams; with --gt, the
    ones not given are grid-searched, else they take CrfParams' defaults."""
    given = [(field, grid, getattr(args, opt))
             for opt, field, grid in _CRF_OPTIONS if getattr(args, opt) is not None]
    params = baselines.CrfParams(**{field: v for field, _, v in given})
    if gt is None or len(given) == len(_CRF_OPTIONS):
        return params
    return baselines.crf_grid_search(occ, odom, gt, start_xy,
                                     **{grid: (v,) for _, grid, v in given})


def _load_model(path) -> tuple[dict, ModelConfig]:
    """Weights and their model config, checked against each other by
    `model.check_weights`."""
    weights, meta = load_weights(path)
    if "model_config" not in meta:
        raise ValueError(f"{path}: no model_config in the weights metadata")
    config = _prefixed(path, ModelConfig.from_dict, meta["model_config"])
    _prefixed(path, check_weights, weights, config)
    return weights, config


# --- commands -------------------------------------------------------------------

def cmd_simulate(args) -> int:
    if args.n_trajs < 1:
        raise ValueError(f"--n-trajs must be >= 1, not {args.n_trajs}")
    occ = load_map(args.map, args.map_meta)
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
    _write_manifest(out_dir / "manifest.json", args, outputs,
                    {"wall_s": time.perf_counter() - t0})
    return 0


def cmd_train(args) -> int:
    occ = load_map(args.map, args.map_meta)
    config = ModelConfig()
    if args.config:
        path = Path(args.config)
        config = _prefixed(path, ModelConfig.from_dict,
                        _read_json_object(path, "model config"))
    traj_dir = Path(args.traj_dir)
    gt_files = sorted(traj_dir.glob("gt_*.csv"))
    if not gt_files:
        raise ValueError(f"no gt_*.csv files in {traj_dir}")
    trajectories = [read_trajectory_csv(f) for f in gt_files]
    for f, traj in zip(gt_files, trajectories):
        if len(traj) < config.window_len:
            raise ValueError(f"{f}: {len(traj)} samples, fewer than the config's "
                             f"window_len ({config.window_len})")
        _prefixed(f, require_1hz, traj)
    t0 = time.perf_counter()
    dataset = build_training_set(occ, trajectories, config,
                                 NoiseProfile.pedestrian(), seed=args.seed,
                                 stride=args.stride)
    weights, history = train(dataset, config, seed=args.seed)
    out = Path(args.out)
    meta = {
        "model_config": asdict(config),
        "map": Path(args.map).name,
        "seed": args.seed,
    }
    _atomic_file(out, lambda p: save_weights(p, weights, meta))
    log_path = Path(args.log) if args.log else out.with_suffix(out.suffix + ".log.csv")
    log_lines = ["epoch,train_loss,val_loss"]
    log_lines += [f"{e},{tr:.9g},{vl:.9g}" for e, tr, vl in history]
    _write_text(log_path, "\n".join(log_lines) + "\n")
    _write_manifest(out.parent / (out.name + ".manifest.json"), args,
                    [out.name, log_path.name],
                    {"wall_s": time.perf_counter() - t0},
                    model_config=asdict(config))
    return 0


def cmd_localize(args) -> int:
    occ = load_map(args.map, args.map_meta)
    odom = read_odometry_csv(args.odom)
    gt = read_trajectory_csv(args.gt) if args.gt else None
    start = _parse_start(args.start, gt)
    t0 = time.perf_counter()
    timings: dict = {}

    if args.method == "odom":
        est = dead_reckoning(odom, start)
    elif args.method == "pdr":
        if gt is None:
            raise ValueError("method pdr needs --gt to synthesize step events")
        times, headings = baselines.synthesize_steps(
            gt, heading_bias_per_step=baselines.PDR_HEADING_BIAS,
            heading_noise_sigma=baselines.PDR_HEADING_NOISE, seed=args.seed)
        est = baselines.pdr(times, headings, start_xy=(start.x, start.y),
                            start_t=start.t)
    elif args.method == "crf":
        params = _crf_params(args, occ, odom, gt, (start.x, start.y))
        graph = baselines.build_graph(occ, params.edge_length)
        est = baselines.crf_match(graph, odom, params, (start.x, start.y))
        timings["crf_params"] = asdict(params)
    else:  # ours / heuristic
        fc = getattr(FilterConfig, args.mode)()
        prior, weights, mcfg = "heuristic", None, None
        if args.method == "ours":
            if not args.weights:
                raise ValueError("method ours needs --weights")
            prior, (weights, mcfg) = "learned", _load_model(args.weights)
        _prefixed(args.odom, require_1hz, odom)
        run = run_filter(odom, occ, prior, fc, args.seed, start,
                         weights=weights, model_config=mcfg)
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
    _write_manifest(out.parent / (out.name + ".manifest.json"), args,
                    [out.name], timings)
    return 0


def cmd_eval(args) -> int:
    est_dir, gt_dir = Path(args.est_dir), Path(args.gt_dir)
    out_dir = Path(args.out)
    t0 = time.perf_counter()
    est_files = sorted(est_dir.glob("*.csv"))
    est_files = [f for f in est_files if not f.name.endswith(".log.csv")]
    if not est_files:
        raise ValueError(f"no estimate CSVs in {est_dir}")
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
        raise ValueError(f"no ground-truth match for: {', '.join(unmatched)}")

    per_traj = []
    all_errors = []
    for est_path, gt_path in pairs:
        est = read_trajectory_csv(est_path)
        gt = read_trajectory_csv(gt_path)
        err = _prefixed(f"{est_path} vs {gt_path}", metrics.trajectory_error, est, gt)
        manifest_path = est_path.parent / (est_path.name + ".manifest.json")
        method, seed = None, None
        if manifest_path.exists():
            m = _read_json_object(manifest_path, "manifest")
            run_args = m.get("args", {})
            if not isinstance(run_args, dict):
                raise ValueError(f"{manifest_path}: manifest args is not a JSON object")
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
    _write_text(out_dir / "metrics.json",
                json.dumps(summary, indent=2, sort_keys=True) + "\n")
    cdf_lines = ["error_m,fraction"]
    cdf_lines += [f"{e:.9g},{fr:.9g}" for e, fr in metrics.cdf_points(all_errors)]
    _write_text(out_dir / "cdf.csv", "\n".join(cdf_lines) + "\n")
    _write_manifest(out_dir / "manifest.json", args, ["metrics.json", "cdf.csv"],
                    {"wall_s": time.perf_counter() - t0})
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="mapprior",
                                  description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="cmd", required=True)
    # Options of every command that reads a map and writes a seeded result.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--map", required=True)
    common.add_argument("--map-meta", default=None)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", required=True)

    sim = sub.add_parser("simulate", parents=[common],
                         help="generate ground truth + noisy odometry")
    sim.add_argument("--profile", choices=["pedestrian", "wheeled"],
                     default="pedestrian")
    sim.add_argument("--n-trajs", type=int, default=4)
    sim.add_argument("--duration", type=float, default=120.0)
    sim.set_defaults(fn=cmd_simulate)

    tr = sub.add_parser("train", parents=[common],
                        help="build targets and fit the prior model")
    tr.add_argument("--traj-dir", required=True)
    tr.add_argument("--config", default=None, help="model config JSON file")
    tr.add_argument("--stride", type=int, default=1,
                    help="keep every n-th training window")
    tr.add_argument("--log", default=None, help="loss curve CSV path")
    tr.set_defaults(fn=cmd_train)

    loc = sub.add_parser("localize", parents=[common],
                         help="estimate a trajectory from odometry")
    loc.add_argument("--odom", required=True)
    loc.add_argument("--method", required=True,
                     choices=["ours", "heuristic", "crf", "pdr", "odom"])
    loc.add_argument("--weights", default=None)
    loc.add_argument("--mode", choices=["pedestrian", "wheeled"],
                     default="pedestrian")
    loc.add_argument("--start", default=None,
                     help="x,y[,theta] start pose; default: the first pose of --gt")
    loc.add_argument("--gt", default=None,
                     help="ground truth CSV (start pose unless --start is given, "
                          "pdr steps, crf search)")
    crf_help = " (default 1.0; grid-searched with --gt unless given)"
    loc.add_argument("--crf-unary", type=float, help="CRF unary weight" + crf_help)
    loc.add_argument("--crf-pairwise", type=float,
                     help="CRF pairwise weight" + crf_help)
    loc.add_argument("--crf-edge", type=float, help="CRF node spacing, m" + crf_help)
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
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be >= 0, not {args.seed}")
        return args.fn(args)
    # Bad input raises ValueError (MapError and WeightsFormatError are ones)
    # or OSError; TrainingDiverged means the config trains to a non-finite loss.
    except (ValueError, OSError, TrainingDiverged) as exc:
        msg = str(exc).replace("\n", " ")
        print(f"error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
