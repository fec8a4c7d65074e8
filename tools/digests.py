"""Fixed-seed digests of mapprior's outputs, for bit-identity checks.

Prints one JSON object mapping each output to the sha256 of its dtype, shape
and bytes.  Run it on two source trees (copy this file into the other one)
and compare the JSON:

    python3 tools/digests.py > parent.json          # in the other tree
    python3 tools/digests.py --against parent.json  # in this one

With `--against`, it prints each key whose digest differs or that only one
side has, and exits 1 if there is any; otherwise it says how many match.

The package is imported from the `src/` next to this file, and BLAS is pinned
to one thread so that every reduction runs in a fixed order.  Only names that
older trees also have are used.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mapprior import (baselines, cli, model, nn, occupancy,  # noqa: E402
                      particle_filter, simulate, synthmaps, targets)

SMALL_MODEL = model.ModelConfig(channels=8, unet_depth=2, base_width=4,
                                window_len=5, crop_size=24, epochs=2,
                                batch_size=16)
# The acceptance shapes: depth 3, crop 32, batch 32.
ACCEPT_MODEL = model.ModelConfig(window_len=5, crop_size=32, batch_size=32)


def _feed(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(f"{type(obj).__name__}{len(obj)}[".encode())
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(obj, dict):
        h.update(f"dict{len(obj)}{{".encode())
        for key in sorted(obj):
            _feed(h, key)
            _feed(h, obj[key])
        h.update(b"}")
    elif dataclasses.is_dataclass(obj):
        _feed(h, {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)})
    else:  # Python scalar: its type matters as much as its value
        h.update(f"{type(obj).__name__}:{obj!r};".encode())


def digest(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def layouts(out: dict) -> None:
    for name in ("open_box", "corridor_rooms", "office_floor", "hallway_with_rooms"):
        out[f"synthmaps.{name}"] = digest(getattr(synthmaps, name)())
    variants = {
        "corridor_rooms": [dict(width_cells=w, n_rooms=n, door_cells=d,
                                corridor_cells=c)
                           for w in (20, 33, 48, 71) for n in (1, 2, 3, 5)
                           for d in (1, 3) for c in (2, 5)],
        "office_floor": [dict(width_cells=w, height_cells=h, door_cells=d,
                              corridor_cells=c)
                         for w in (30, 57, 96) for h in (30, 64)
                         for d in (1, 3) for c in (4, 7)],
        "hallway_with_rooms": [dict(length_cells=n, room_depth_cells=r,
                                    door_cells=d, hallway_cells=w)
                               for n in (12, 37, 64) for r in (3, 10)
                               for d in (1, 2, 4) for w in (2, 4)],
    }
    for name, kwargs in variants.items():
        maps = [getattr(synthmaps, name)(**kw) for kw in kwargs]
        out[f"synthmaps.{name}.variants"] = digest(maps)


def walks(out: dict) -> None:
    """120 s walks of both profiles on every layout, which run A* and the
    one-segment obstacle walk on each map's planning copy and raw grid."""
    found = []
    for name in ("open_box", "corridor_rooms", "office_floor", "hallway_with_rooms"):
        occ = getattr(synthmaps, name)()
        for profile in ("pedestrian", "wheeled"):
            for seed in range(5):
                found.append(simulate.generate_trajectory(occ, seed, 120.0,
                                                          profile=profile))
    out["simulate.generate_trajectory"] = digest(found)


def streams(occ) -> dict:
    """Trajectories and odometry of both profiles on one map."""
    found = {}
    for profile in ("pedestrian", "wheeled"):
        noise = getattr(simulate.NoiseProfile, profile)()
        for seed in (0, 1):
            traj = simulate.generate_trajectory(occ, seed, 60.0, profile=profile)
            odom = simulate.corrupt_to_odometry(traj, noise, seed + 10,
                                                resolution=occ.resolution)
            found[profile, seed] = traj, odom
    return found


def kernels(out: dict, occ, found: dict) -> None:
    rng = np.random.default_rng(3)
    wins = [rng.normal(0, s, (n, 2)).cumsum(axis=0)
            for n in (1, 2, 5, 20) for s in (0.0, 0.1, 0.6, 2.0)
            for _ in range(8)]
    ks = [targets.rasterize_kernel(w, occ.resolution) for w in wins]
    out["targets.rasterize_kernel"] = digest(ks)
    wins = [w for _, odom in found.values()
            for w in simulate.window(simulate.integrate_odometry(odom), 5)[::7]]
    out["baselines.heuristic_prior"] = digest(
        [baselines.heuristic_prior(occ, w) for w in wins])
    out["targets.make_target"] = digest(targets.make_target(occ, wins[3]))
    # The benchmark's query walks on its 256-cell map, and one kernel of
    # 300 cells, past the 255 that a uint8 count holds.
    big = synthmaps.office_floor(256, 256)
    rng = np.random.default_rng(4)
    wins = [np.vstack([[0.0, 0.0], rng.normal(0, 1.0, (4, 2)).cumsum(axis=0)])
            for _ in range(100)]
    ks = [targets.rasterize_kernel(w, big.resolution) for w in wins]
    rows, cols = np.divmod(np.arange(300), 16)
    cols = np.where(rows % 2 == 1, 15 - cols, cols)
    ks.append(targets.rasterize_kernel(np.stack([cols, rows], axis=1) + 0.5, 1.0))
    assert np.count_nonzero(ks[-1].grid) == 300
    out["targets.cross_correlate"] = digest(
        [targets.cross_correlate(big, k) for k in ks])


def batch_loss(out: dict, tag: str, config, data: list) -> None:
    """Loss and parameter gradients of one batch of data."""
    params = model.init_weights(config, 9)
    loss = model._batch_loss(params, config,
                             *model._stack(data[: config.batch_size]))
    nn.backward(loss)
    out[f"model._batch_loss{tag}"] = digest(loss.data)
    out[f"model._batch_loss{tag}.grads"] = digest(
        {k: p.grad for k, p in params.items()})


def training(out: dict, occ, found: dict) -> dict:
    trajs = [found["pedestrian", 0][0], found["pedestrian", 1][0]]
    noise = simulate.NoiseProfile.pedestrian()
    data = model.build_training_set(occ, trajs, SMALL_MODEL, noise, seed=5)
    out["model.build_training_set"] = digest(data)
    batch_loss(out, "", SMALL_MODEL, data)
    batch_loss(out, ".accept", ACCEPT_MODEL,
               model.build_training_set(occ, trajs, ACCEPT_MODEL, noise, seed=5))
    weights, history = model.train(data, SMALL_MODEL, seed=2)
    out["model.train.weights"] = digest(weights)
    out["model.train.history"] = digest(history)
    return weights


def filters(out: dict, occ, found: dict, weights: dict) -> None:
    for mode in ("pedestrian", "wheeled"):
        traj, odom = found[mode, 0]
        fc = getattr(particle_filter.FilterConfig, mode)(particle_count=300)
        for prior in ("none", "heuristic", "learned"):
            run = particle_filter.run_filter(
                odom, occ, prior, fc, 4, traj.pose(0),
                weights=weights if prior == "learned" else None,
                model_config=SMALL_MODEL if prior == "learned" else None)
            out[f"particle_filter.run_filter.{mode}.{prior}"] = digest(
                [run.estimates, run.reinit_count, run.degenerate_count,
                 run.skipped_steps])


def comparisons(out: dict, occ, found: dict) -> None:
    graphs = []
    for layout in (occ, synthmaps.office_floor(), synthmaps.hallway_with_rooms()):
        for edge in (0.25, 0.5, 0.75, 1.0, 2.0):
            g = baselines.build_graph(layout, edge)
            graphs.append([g.nodes, g.neighbors, g.edge_length])
    out["baselines.build_graph"] = digest(graphs)
    traj, odom = found["pedestrian", 0]
    start = tuple(traj.xy[0])
    graph = baselines.build_graph(occ, 0.5)
    out["baselines.crf_match"] = digest(
        baselines.crf_match(graph, odom, baselines.CrfParams(edge_length=0.5), start))
    params = baselines.crf_grid_search(occ, odom, traj, start,
                                       unary_grid=(0.1, 1.0),
                                       pairwise_grid=(1.0,),
                                       edge_grid=(0.5, 1.0))
    out["baselines.crf_grid_search"] = digest(params)
    times, headings = baselines.synthesize_steps(
        traj, heading_bias_per_step=0.005, heading_noise_sigma=0.01, seed=6)
    out["baselines.synthesize_steps"] = digest([times, headings])
    out["baselines.pdr"] = digest(baselines.pdr(times, headings, start))


def files(out: dict, occ, tmp: Path) -> None:
    """Map and CSV writers, then a criterion-10-style CLI run."""
    map_path = tmp / "m.pgm"
    occupancy.save_map(occ, map_path)
    out["file:m.pgm"] = digest(map_path.read_bytes())
    out["file:m.json"] = digest(map_path.with_suffix(".json").read_bytes())
    rng = np.random.default_rng(8)
    vals = rng.normal(0, 10.0 ** rng.integers(-300, 300, (50, 3)), (50, 3))
    vals[:3] = [[-0.0, 1e300, -1e-300], [0.0, 5e-324, 1 / 3], [1e16, -2.5, 0.1]]
    odom = simulate.Odometry(t=np.arange(50.0), dxy=vals[:, :2], dtheta=vals[:, 2])
    simulate.write_odometry_csv(odom, tmp / "special.csv")
    out["file:special.csv"] = digest((tmp / "special.csv").read_bytes())

    def run(*argv):
        if cli.main([str(a) for a in argv]) != 0:
            raise SystemExit(f"mapprior {' '.join(map(str, argv))} failed")

    sim, wsim = tmp / "sim", tmp / "wsim"
    run("simulate", "--map", map_path, "--n-trajs", 2, "--duration", 40,
        "--seed", 4, "--out", sim)
    run("simulate", "--map", map_path, "--n-trajs", 2, "--duration", 40,
        "--seed", 5, "--profile", "wheeled", "--out", wsim)
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps(dataclasses.asdict(SMALL_MODEL)))
    weights = tmp / "w.lmw"
    run("train", "--map", map_path, "--traj-dir", sim, "--config", cfg,
        "--seed", 2, "--stride", 2, "--out", weights)
    est = tmp / "est"
    for method in ("odom", "heuristic", "pdr", "crf", "ours"):
        run("localize", "--map", map_path, "--odom", sim / "odom_000.csv",
            "--method", method, "--gt", sim / "gt_000.csv", "--seed", 6,
            "--weights", weights, "--out", est / f"est_{method}.csv")
    for method in ("heuristic", "ours"):
        run("localize", "--map", map_path, "--odom", wsim / "odom_001.csv",
            "--method", method, "--mode", "wheeled", "--gt", wsim / "gt_001.csv",
            "--seed", 7, "--weights", weights,
            "--out", est / f"est_wheeled_{method}.csv")
    evdir = tmp / "evdir"
    evdir.mkdir()
    (evdir / "est_000.csv").write_bytes((est / "est_heuristic.csv").read_bytes())
    run("eval", "--est-dir", evdir, "--gt-dir", sim, "--out", tmp / "ev")
    for path in sorted(tmp.rglob("*")):
        if path.is_file() and not path.name.endswith("manifest.json"):
            rel = path.relative_to(tmp).as_posix()
            out.setdefault(f"file:{rel}", digest(path.read_bytes()))


def map_headers(out: dict) -> None:
    r"""load_map over fixed P5 header spellings: comments between every token,
    CRLF, tabs, \x0b and \x0c, maxvals other than 255, a comment where the
    pixels start (read as pixels) and truncation.  An error counts as its
    message."""
    spellings = [
        b"P5\n3 2\n255\n",
        b"P5 #a\n3 #b\r2 #c\r\n#d\n255\n",
        b"P5\n# 1 2 3\n3\n#\n2 # 4\r\n#5\r200\r",
        b"P5\r\n3\r\n2\r\n255\r\n",
        b"P5\t3\t2\t201\t",
        b"P5\x0b3\x0c2\x0b\x0c255\x0c",
        b"P5 3 2 255 #c\n",
        b"P5 3 2 #c 255\n201\n",
        b"P5 3 2",
        b"P5 3 2 #c 255",
    ]
    pixels = bytes([200, 0, 101, 100, 1, 150])
    found = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.pgm"
        path.with_suffix(".json").write_text(json.dumps(
            {"resolution_m_per_px": 0.5, "origin_x_m": -1.0, "origin_y_m": 2.0}))
        for header in spellings:
            path.write_bytes(header + pixels)
            try:
                occ = occupancy.load_map(path)
                found.append([occ.free, occ.resolution, occ.origin])
            except occupancy.MapError as exc:
                found.append(str(exc).replace(str(path), "m.pgm"))
    out["occupancy.load_map"] = digest(found)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, metavar="PARENT.json",
                        help="compare with this JSON instead of printing")
    args = parser.parse_args()
    out: dict = {}
    occ = synthmaps.corridor_rooms()
    layouts(out)
    walks(out)
    found = streams(occ)
    out["simulate.streams"] = digest(list(found.values()))
    kernels(out, occ, found)
    weights = training(out, occ, found)
    filters(out, occ, found, weights)
    comparisons(out, occ, found)
    with tempfile.TemporaryDirectory() as tmp:
        files(out, occ, Path(tmp))
    map_headers(out)
    if args.against is None:
        json.dump(out, sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
        return 0
    theirs = json.loads(args.against.read_text())
    differ = sorted(k for k in out.keys() | theirs.keys()
                    if out.get(k) != theirs.get(k))
    for key in differ:
        print(key)
    if not differ:
        print(f"all {len(out)} entries match {args.against}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
