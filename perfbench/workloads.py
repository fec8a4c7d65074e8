"""The four benchmark workloads: localize, train, simulate, query.

Each workload has a set-up (timed by the harness, repeated to take a median)
and a measured phase.  The measured phase always runs a fixed core of
operations, whose data outputs feed the quality metrics and the bit-identity
check, then repeats core-sized units until the deadline.  All calls go
through module attributes (`model.train`, not a local alias), so the tracer's
wrappers see them.

Every workload is closed loop with one caller: an operation starts only after
the previous one returned.

Timings (filter steps, prior queries, encode_map, simulate and train calls,
set-ups) are reported at the reference machine speed ("ref_" units; set-up
keeps the unit "s").  On a shared host the speed of this process switches
between regimes every few hundred milliseconds, by up to 40 %, and drifts
by up to 2x between runs.  Fixed calibration kernels are timed between
operations, and each operation's time is scaled by the median of (reference
kernel time / kernel time) over the bursts just before and after it, using
the kernel that tracks that kind of work (see KERNELS).  That cut the spread
of 2-second medians by a factor of 1.6-3, and the spread of set-up medians
by about 1.5.  For calls of several seconds the kernel times at their ends
say less about the speed in between: scaling six-second training calls
raised their spread from 0.08 to 0.14 over six runs, but it cut that of
one-second smoke-size calls from 0.20 to 0.11 over ten.  Both sizes are
scaled, which keeps the worse of the two lower.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import shutil
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from mapprior import (baselines, cli, metrics, model, occupancy,
                      particle_filter, simulate, synthmaps)
from mapprior.model import ModelConfig, TrainingDiverged
from mapprior.simulate import NoiseProfile

# Acceptance-test shapes (tests/test_acceptance.py MODEL_CONFIG); epochs vary.
ACCEPT_CONFIG = ModelConfig(window_len=5, crop_size=32, batch_size=32,
                            augment_copies=3, target_dilate=1)
# Seeds of the acceptance protocol: training walks 0.., held-out streams 500..
TRAIN_TRAJ_SEED = 0
HELD_OUT_SEED = 500

CALIBRATION_INTERVAL_S = 0.025
CALIBRATION_BURST = 2

_CAL = {}


def numeric_kernel() -> None:
    """Fixed in-cache work: an interpreter loop and small GEMMs.  It reads
    no large array, so its time does not depend on what the last operation
    left in the caches."""
    if "a" not in _CAL:
        rng = np.random.default_rng(0)
        _CAL["a"] = rng.random((64, 64)).astype(np.float32)
        _CAL["b"] = rng.random((64, 256)).astype(np.float32)
    x = 0
    for i in range(3000):
        x += i * i
    for _ in range(20):
        _CAL["a"] @ _CAL["b"]


def interpreter_kernel() -> None:
    """Fixed interpreter-bound work shaped like a grid traversal: float
    maths, numpy scalar reads, and tuple and list churn."""
    if "grid" not in _CAL:
        rng = np.random.default_rng(1)
        _CAL["grid"] = rng.random((64, 64)) > 0.3
        _CAL["pts"] = rng.random((40, 2)) * 60.0
    grid, pts = _CAL["grid"], _CAL["pts"]
    for k in range(len(pts)):
        x, y = float(pts[k, 0]), float(pts[k, 1])
        ix, iy = int(np.floor(x)), int(np.floor(y))
        cells = [(ix, iy)]
        tx, ty = 0.37, 0.61
        for _ in range(12):
            if tx < ty:
                ix, tx = (ix + 1) % 64, tx + 0.37
            else:
                iy, ty = (iy + 1) % 64, ty + 0.61
            cells.append((ix, iy))
        for cx, cy in cells:
            if not grid[cy, cx]:
                break


# Each kernel with its median time on the machine the benchmark was defined
# on (2-core Xeon VM at 2.1 GHz) in its fast regime.  Which kernel tracks an
# operation's slowdowns depends on the operation: over 3 s blocks of a 60 s
# run, obstacle traversal divided by the interpreter kernel spread 0.01-0.02
# and by the numeric kernel 0.04-0.10; a 64-cell encode_map divided by the
# numeric kernel spread 0.02-0.05 and by the interpreter kernel 0.04-0.09.
KERNELS = {"numeric": (numeric_kernel, 0.6e-3),
           "interp": (interpreter_kernel, 0.14e-3)}


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, samples) at the highest percentile that has at
    least ten samples beyond it; the maximum when there are ten or fewer."""
    xs = np.sort(np.asarray(values, dtype=np.float64))
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    k = n - 11 if n > 10 else n - 1
    return float(xs[k]), 100.0 * (k + 1) / n, n


@dataclass
class Outcome:
    """What a measured phase did: op counts, metrics, failed checks, and
    the calibration kernels timed between its operations."""

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    digest: "hashlib._Hash | None" = None
    cal_t: dict = field(default_factory=lambda: {k: [] for k in KERNELS})
    cal_s: dict = field(default_factory=lambda: {k: [] for k in KERNELS})

    def tick(self) -> None:
        """Between operations: time a burst of every calibration kernel,
        unless one ran within the last CALIBRATION_INTERVAL_S."""
        now = time.perf_counter()
        done = self.cal_t["numeric"]
        if done and now - done[-1] < CALIBRATION_INTERVAL_S:
            return
        if not done:
            for kernel, _ in KERNELS.values():
                kernel()  # untimed: the first call allocates
        for _ in range(CALIBRATION_BURST):
            for kind, (kernel, _) in KERNELS.items():
                t0 = time.perf_counter()
                kernel()
                self.cal_t[kind].append(t0)
                self.cal_s[kind].append(time.perf_counter() - t0)

    def speed(self, t0: float, t1: float, kinds) -> float:
        """Reference-speed seconds per measured second during [t0, t1]: the
        median of reference time / kernel time over the bursts of the
        `kinds` kernels right before and right after it.  Slow spells can be
        shorter than 0.1 s; a wider window dilutes them."""
        ratios = []
        for kind in kinds:
            times, secs = self.cal_t[kind], self.cal_s[kind]
            lo = bisect.bisect_left(times, t0)
            hi = bisect.bisect_right(times, t1)
            ref = KERNELS[kind][1]
            ratios += [ref / x for x in
                       secs[max(lo - CALIBRATION_BURST, 0):lo]
                       + secs[hi:hi + CALIBRATION_BURST]]
        if not ratios:
            raise RuntimeError("no calibration samples")
        return float(np.median(ratios))

    def ref_seconds(self, t0: float, t1: float, kinds) -> float:
        return (t1 - t0) * self.speed(t0, t1, kinds)

    def record(self, *arrays) -> None:
        """Feed data outputs into the digest (when one is kept)."""
        if self.digest is not None:
            for a in arrays:
                self.digest.update(a if isinstance(a, bytes)
                                   else np.ascontiguousarray(a).tobytes())

    def check(self, ok: bool, message: str) -> bool:
        if not ok and len(self.problems) < 20:
            self.problems.append(message)
        return ok

    def latency(self, name: str, ref_s, raw_s, gate_tail: bool = True) -> None:
        """`name`_p50 and `name`_tail in reference ms, raw p50 in details.
        A tail that is not an end-to-end metric goes to details only."""
        ms = np.asarray(ref_s) * 1e3
        self.metrics[f"{name}_p50"] = float(np.median(ms))
        self.details[f"{name}_p50"] = {
            "samples": len(ms), "raw": float(np.median(raw_s) * 1e3)}
        value, pct, n = tail(ms)
        self.details[f"{name}_tail"] = {"percentile": round(pct, 3),
                                         "samples": n}
        if gate_tail:
            self.metrics[f"{name}_tail"] = value
        else:
            self.details[f"{name}_tail"]["value"] = value


def _scratch_dir(root: Path) -> Path:
    base = root / ".perfbench" / "tmp"
    base.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(dir=base))


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class Workload:
    name = ""
    owns: tuple[str, ...] = ()
    sizes: dict = {}

    def __init__(self, size: str, root: Path):
        self.p = self.sizes[size]
        self.root = root

    def setup(self, seed: int, out: Outcome):
        raise NotImplementedError

    def state_digest(self, state) -> str:
        """Hash of the set-up's data outputs (for determinism checks)."""
        raise NotImplementedError

    def run(self, state, seed: int, deadline: float | None,
            out: Outcome) -> None:
        raise NotImplementedError

    def close(self, state) -> None:
        pass


class Localize(Workload):
    """Particle filter on the acceptance map at p = 1000, learned and
    heuristic priors interleaved stream by stream.

    The training walks and held-out streams are the acceptance protocol's
    (fixed seeds), so ATE is comparable between runs; --seed drives the
    filter's random draws.  With seed-drawn streams the median ATE over five
    streams spread by about 25 % between seeds.

    The measured phase replays the streams `replays` times with the same
    filter seeds, so every replay does the same work step for step (the
    check: bit-identical estimates), and keeps going by whole replays until
    the deadline.  Each step's time is its fastest replay.  A slow spell of
    the host lasts 0.1-0.3 s, a few dozen steps; it rarely hits the same step
    twice, so the per-step minimum keeps the costly steps (reinits, heavy
    priors) in the tail and drops the host's.  With one replay and ten
    samples beyond the tail, a single spell doubled the tail in two of five
    runs.
    """

    name = "localize"
    owns = ("learned.step_ms_p50", "learned.step_ms_tail",
            "heuristic.step_ms_p50", "heuristic.step_ms_tail",
            "learned.ate_m", "heuristic.ate_m")
    sizes = {
        "full": dict(train_trajs=1, train_s=120.0, stride=4, epochs=2,
                     streams=4, stream_s=120.0, replays=2),
        # The smoke model is trained like the full one: a weaker model
        # reinits on one step in eight, and the tail then falls on the edge
        # of the reinit steps.
        "smoke": dict(train_trajs=1, train_s=120.0, stride=4, epochs=2,
                      streams=4, stream_s=30.0, replays=2),
    }
    PRIORS = ("learned", "heuristic")

    def setup(self, seed, out):
        p = self.p
        occ = synthmaps.office_floor()
        trajs = [simulate.generate_trajectory(occ, seed=TRAIN_TRAJ_SEED + k,
                                              duration_s=p["train_s"])
                 for k in range(p["train_trajs"])]
        config = replace(ACCEPT_CONFIG, epochs=p["epochs"])
        noise = NoiseProfile.pedestrian()
        data = model.build_training_set(occ, trajs, config, noise, seed=0,
                                        stride=p["stride"])
        weights, _ = model.train(data, config, seed=0)
        streams = []
        for k in range(p["streams"]):
            s = HELD_OUT_SEED + k
            gt = simulate.generate_trajectory(occ, seed=s,
                                              duration_s=p["stream_s"])
            odom = simulate.corrupt_to_odometry(gt, noise, seed=s + 1,
                                                resolution=occ.resolution)
            streams.append((gt, odom))
        return {"occ": occ, "weights": weights, "config": config,
                "streams": streams}

    def state_digest(self, state):
        w = state["weights"]
        return _digest(*(w[k] for k in sorted(w)),
                       *(a for gt, od in state["streams"]
                         for a in (gt.xy, od.dxy)))

    def _one(self, state, prior, k, filter_seed, out):
        """One held-out stream through run_filter; returns (estimates, ATE,
        step seconds, start, end) or None when the stream raised."""
        occ = state["occ"]
        gt, odom = state["streams"][k]
        fc = particle_filter.FilterConfig.pedestrian()
        n = len(odom)
        out.attempted += n
        t0 = time.perf_counter()
        try:
            run = particle_filter.run_filter(
                odom, occ, prior, fc, filter_seed, gt.pose(0),
                weights=state["weights"] if prior == "learned" else None,
                model_config=state["config"] if prior == "learned" else None)
        except Exception as exc:  # a stream that raises fails all its steps
            out.failed += n
            out.check(False, f"{prior} stream {k}: {type(exc).__name__}: {exc}")
            return None
        t1 = time.perf_counter()
        est = run.estimates
        finite = np.isfinite(est.xy).all(axis=1)[1:]
        late = np.asarray(run.step_seconds) > 1.0 / fc.rate_hz
        out.failed += int(np.count_nonzero(~finite | late))
        out.check(est.xy.shape == (n + 1, 2),
                  f"{prior} stream {k}: estimate shape {est.xy.shape}")
        out.record(est.xy, est.theta)
        return est, metrics.ate(est, gt), np.asarray(run.step_seconds), t0, t1

    def run(self, state, seed, deadline, out):
        n = len(state["streams"])
        # (prior, stream) -> the first replay's estimates, and per replay
        # the step times at reference speed and raw.
        first, ref, raw = {}, defaultdict(list), defaultdict(list)
        replays = 0
        while True:
            for k in range(n):
                for prior in self.PRIORS:
                    one = self._one(state, prior, k, seed * 100003 + k, out)
                    out.tick()
                    if one is None:
                        continue
                    est, ate, step_s, t0, t1 = one
                    key = prior, k
                    if key not in first:
                        first[key] = est, ate
                    else:
                        out.check(np.array_equal(est.xy, first[key][0].xy)
                                  and np.array_equal(est.theta,
                                                     first[key][0].theta),
                                  f"{prior} stream {k}: a replay gave "
                                  f"different estimates")
                    ref[key].append(step_s * out.speed(t0, t1, ("interp",)))
                    raw[key].append(step_s)
            replays += 1
            if replays < self.p["replays"]:
                continue
            if deadline is None or time.perf_counter() >= deadline:
                break
        for prior in self.PRIORS:
            keys = [(prior, k) for k in range(n) if (prior, k) in first]
            if not keys:
                continue
            out.latency(f"{prior}.step_ms",
                        *(np.concatenate([np.min(times[key], axis=0)
                                          for key in keys])
                          for times in (ref, raw)))
            out.details[f"{prior}.step_ms_p50"]["replays"] = replays
            value = float(np.median([first[key][1] for key in keys]))
            out.check(math.isfinite(value), f"{prior} ATE is not finite")
            out.metrics[f"{prior}.ate_m"] = value
            out.details[f"{prior}.ate_m"] = {"streams": len(keys)}


class Train(Workload):
    """`model.train` at the acceptance shapes for a fixed number of epochs.

    The walks are the acceptance training walks (fixed seeds); --seed drives
    the crop jitter and window noise of `build_training_set` and the
    initialisation and batch order of `train`.  The reported loss is the
    validation loss of the weights `train` returns (its best epoch); after
    a few epochs the last-epoch loss still swings by tens of percent.

    An op is one epoch of a `train` call, one row of the history it returns:
    it fails when that row's loss is not finite, and every epoch of a call
    that raises TrainingDiverged fails.  Throughput counts the whole data set
    per epoch, so the benchmark does not repeat `train`'s split policy.
    """

    name = "train"
    owns = ("train.samples_per_s", "train.val_loss")
    sizes = {
        "full": dict(trajs=2, traj_s=120.0, stride=4, epochs=2, calls=1),
        "smoke": dict(trajs=1, traj_s=60.0, stride=4, epochs=1, calls=4),
    }

    def setup(self, seed, out):
        p = self.p
        occ = synthmaps.office_floor()
        trajs = [simulate.generate_trajectory(occ, seed=TRAIN_TRAJ_SEED + k,
                                              duration_s=p["traj_s"])
                 for k in range(p["trajs"])]
        config = replace(ACCEPT_CONFIG, epochs=p["epochs"])
        data = model.build_training_set(occ, trajs, config,
                                        NoiseProfile.pedestrian(), seed=seed,
                                        stride=p["stride"])
        return {"data": data, "config": config}

    def state_digest(self, state):
        return _digest(*(a for s in state["data"] for a in
                         (s.crop_free, s.window_cells, s.target_values,
                          s.loss_weights)))

    def run(self, state, seed, deadline, out):
        data, config = state["data"], state["config"]
        calls, first = [], None
        while True:
            out.attempted += config.epochs
            t0 = time.perf_counter()
            try:
                weights, history = model.train(data, config, seed=seed)
            except TrainingDiverged as exc:
                out.failed += config.epochs
                out.check(False, f"training diverged: {exc}")
                break
            calls.append((t0, time.perf_counter()))
            out.tick()
            losses = np.array([h[1:] for h in history[1:]])
            out.failed += int(np.count_nonzero(~np.isfinite(losses).all(axis=1)))
            if first is None:
                first = history
                out.record(np.asarray(history),
                           *(weights[k] for k in sorted(weights)))
            else:
                out.check(history == first,
                          "repeated train() call gave a different history")
            if len(calls) < self.p["calls"]:
                continue
            if deadline is None or time.perf_counter() >= deadline:
                break
        if calls:
            samples = config.epochs * len(data)
            out.metrics["train.samples_per_s"] = float(np.median(
                [samples / out.ref_seconds(t0, t1, ("numeric",))
                 for t0, t1 in calls]))
            out.details["train.samples_per_s"] = {
                "calls": len(calls), "samples": len(data),
                "epochs": config.epochs,
                "raw": float(np.median([samples / (t1 - t0)
                                        for t0, t1 in calls]))}
        if first is not None:
            val = float(min(h[2] for h in first))
            out.check(math.isfinite(val), "validation loss is not finite")
            out.metrics["train.val_loss"] = val
            out.details["train.val_loss"] = {"epochs": config.epochs}


class Simulate(Workload):
    """`mapprior simulate` through `cli.main`, pedestrian and wheeled calls
    alternating, one trajectory per call, CSVs read back and checked.

    Set-up writes the map files and makes one short call, so one-time costs
    (lazy imports, first allocations) are not charged to the first measured
    call."""

    name = "simulate"
    owns = ("simulate.sim_s_per_s",)
    sizes = {
        "full": dict(calls=40, duration=120.0),
        "smoke": dict(calls=64, duration=30.0),
    }

    def setup(self, seed, out):
        tmp = _scratch_dir(self.root)
        map_path = tmp / "office.pgm"
        occupancy.save_map(synthmaps.office_floor(), map_path)
        rc = cli.main(["simulate", "--map", str(map_path), "--n-trajs", "1",
                       "--duration", "10", "--seed", "0",
                       "--out", str(tmp / "warmup")])
        out.check(rc == 0, f"warm-up simulate call exited {rc}")
        return {"tmp": tmp, "map": map_path}

    def state_digest(self, state):
        return hashlib.sha256(state["map"].read_bytes()).hexdigest()

    def close(self, state):
        shutil.rmtree(state["tmp"], ignore_errors=True)

    def _call(self, state, seed, i, out):
        """One CLI call; returns (profile, start, end), or None when it
        failed."""
        profile = ("pedestrian", "wheeled")[i % 2]
        duration = self.p["duration"]
        dest = state["tmp"] / f"call{i}"
        out.attempted += 1
        t0 = time.perf_counter()
        rc = cli.main(["simulate", "--map", str(state["map"]), "--profile",
                       profile, "--n-trajs", "1", "--duration", str(duration),
                       "--seed", str(seed * 100003 + i), "--out", str(dest)])
        t1 = time.perf_counter()
        ok = out.check(rc == 0, f"simulate call {i} exited {rc}")
        if ok:
            try:
                gt_bytes = (dest / "gt_000.csv").read_bytes()
                odom_bytes = (dest / "odom_000.csv").read_bytes()
                gt = simulate.read_trajectory_csv(dest / "gt_000.csv")
                odom = simulate.read_odometry_csv(dest / "odom_000.csv")
            except (OSError, ValueError) as exc:
                ok = out.check(False, f"simulate call {i} readback: {exc}")
            else:
                rows = int(round(duration))  # 1 Hz default rate
                ok = out.check(len(gt) == rows + 1 and len(odom) == rows,
                               f"simulate call {i}: {len(gt)} gt rows, "
                               f"{len(odom)} odom rows for {duration} s")
                out.record(gt_bytes, odom_bytes)
        shutil.rmtree(dest, ignore_errors=True)
        if not ok:
            out.failed += 1
            return None
        return profile, t0, t1

    def run(self, state, seed, deadline, out):
        calls = []
        i = 0
        while True:
            call = self._call(state, seed, i, out)
            out.tick()
            if call is not None:
                calls.append(call)
            i += 1
            if i < self.p["calls"] or i % 2:
                continue
            if deadline is None or time.perf_counter() >= deadline:
                break
        # A typical call of each profile: the median call time per profile,
        # so one slow call (a disk stall, a slow spell) does not move it.
        ref = {p: [out.ref_seconds(t0, t1, ("interp",))
                   for q, t0, t1 in calls if q == p]
               for p in ("pedestrian", "wheeled")}
        raw = {p: [t1 - t0 for q, t0, t1 in calls if q == p] for p in ref}
        if all(ref.values()):
            sim_s = len(ref) * self.p["duration"]
            out.metrics["simulate.sim_s_per_s"] = sim_s / sum(
                float(np.median(v)) for v in ref.values())
            out.details["simulate.sim_s_per_s"] = {
                "calls": len(calls),
                "raw": sim_s / sum(float(np.median(v)) for v in raw.values())}


class Query(Workload):
    """Compute once, query many: repeated `encode_map` on a large map, then
    cached learned queries (`encode_odometry` + `score`) alternating with
    `heuristic_prior` queries on random relative windows.  Weights come
    from `init_weights(seed)`; the cost does not depend on their values.

    The windows are drawn once and replayed, like the localize streams: at
    least `replays` times, then by whole replays until the deadline, and
    each query's time is its fastest replay.  Without replays a single slow
    spell of the host, which covers a hundred queries, moved the learned
    query tail by up to 3x between runs.
    """

    name = "query"
    owns = ("encode_map_ms", "learned.query_ms_p50", "learned.query_ms_tail",
            "heuristic.query_ms_p50")
    sizes = {
        "full": dict(side=256, encodes=9, queries=600, replays=2),
        "smoke": dict(side=128, encodes=10, queries=500, replays=2),
    }
    SPOT_CHECK_EVERY = 50

    def setup(self, seed, out):
        side = self.p["side"]
        occ = synthmaps.office_floor(side, side)
        config = ACCEPT_CONFIG
        weights = {k: t.data for k, t in model.init_weights(config, seed).items()}
        tensor = model.encode_map(occ, weights, config)
        return {"occ": occ, "weights": weights, "config": config,
                "tensor": tensor}

    def state_digest(self, state):
        return _digest(state["tensor"])

    def _query(self, state, q, win, spot_check, out):
        """One learned and one heuristic query on window `win`; returns
        their (start, end) intervals, None for a failed query."""
        occ, weights, config = state["occ"], state["weights"], state["config"]
        tensor, shape = state["tensor"], occ.free.shape
        out.attempted += 2
        learned = heuristic = None
        try:
            t0 = time.perf_counter()
            vec = model.encode_odometry(win / occ.resolution, weights, config)
            heat = model.score(tensor, vec)
            t1 = time.perf_counter()
            if heat.shape == shape and bool(np.isfinite(heat).all()):
                learned = t0, t1
            if learned and spot_check:
                ref = (tensor * vec[:, None, None]).sum(0)
                out.check(np.allclose(heat, ref, rtol=1e-4, atol=1e-4 * float(
                    np.abs(ref).max())),
                    f"query {q}: score differs from the numpy reference")
            out.record(heat)
        except ValueError:
            pass
        try:
            t0 = time.perf_counter()
            heat = baselines.heuristic_prior(occ, win)
            t1 = time.perf_counter()
            if heat.shape == shape and bool(np.isfinite(heat).all()):
                heuristic = t0, t1
            out.record(heat)
        except ValueError:
            pass
        out.failed += (learned is None) + (heuristic is None)
        return learned, heuristic

    def run(self, state, seed, deadline, out):
        occ, weights, config = state["occ"], state["weights"], state["config"]
        encodes = []
        for _ in range(self.p["encodes"]):
            t0 = time.perf_counter()
            again = model.encode_map(occ, weights, config)
            encodes.append((t0, time.perf_counter()))
            out.tick()
            out.check(np.array_equal(again, state["tensor"]),
                      "encode_map is not deterministic")

        # Walks of window_len positions, ~1.4 m steps, re-zeroed.
        rng = np.random.default_rng(seed)
        wins = [np.vstack([[0.0, 0.0], np.cumsum(
                    rng.normal(0.0, 1.0, (config.window_len - 1, 2)), axis=0)])
                for _ in range(self.p["queries"])]
        # Per query, the (start, end) of each replay, learned and heuristic.
        spans = [([], []) for _ in wins]
        replays = 0
        while True:
            for q, win in enumerate(wins):
                got = self._query(state, q, win, replays == 0
                                  and q % self.SPOT_CHECK_EVERY == 0, out)
                for mine, span in zip(spans[q], got):
                    if span is not None:
                        mine.append(span)
                out.tick()
            replays += 1
            if replays < self.p["replays"]:
                continue
            if deadline is None or time.perf_counter() >= deadline:
                break

        numeric = ("numeric",)
        ref = [out.ref_seconds(t0, t1, numeric) for t0, t1 in encodes]
        out.metrics["encode_map_ms"] = float(np.median(ref) * 1e3)
        out.details["encode_map_ms"] = {
            "repeats": len(ref), "side_px": self.p["side"],
            "raw": float(np.median([t1 - t0 for t0, t1 in encodes]) * 1e3)}
        for i, prior in enumerate(("learned", "heuristic")):
            done = [s[i] for s in spans if s[i]]
            if not done:
                continue
            out.latency(f"{prior}.query_ms",
                        [min(out.ref_seconds(t0, t1, numeric) for t0, t1 in d)
                         for d in done],
                        [min(t1 - t0 for t0, t1 in d) for d in done],
                        gate_tail=prior == "learned")
            out.details[f"{prior}.query_ms_p50"]["replays"] = replays


WORKLOADS = {w.name: w for w in (Localize, Train, Simulate, Query)}
