"""Runs one workload, measures it, checks it, and assembles the result.

An untraced run measures the named workload at full size, then the other
three at smoke size on fixed inputs (seed 0): every run reports every
end-to-end metric, each taken from the workload that owns it.  A traced run
measures the named workload's fixed core twice, untraced and traced, checks
that the data outputs are bit-identical, and reports the per-layer metrics
and the tracing overhead.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import json
import math
import os
import resource
import time
from pathlib import Path

import numpy as np

import mapprior
import layers
from tracer import Tracer
from workloads import KERNELS, WORKLOADS, Outcome

# name, unit, better, bound (share of the parent's median it may worsen by).
# "ref_" units are times at the reference machine speed (see workloads.py).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("ok_frac", "frac", "higher", 0.01),
    ("learned.step_ms_p50", "ref_ms", "lower", 0.25),
    ("learned.step_ms_tail", "ref_ms", "lower", 0.25),
    ("heuristic.step_ms_p50", "ref_ms", "lower", 0.25),
    ("heuristic.step_ms_tail", "ref_ms", "lower", 0.25),
    ("learned.ate_m", "m", "lower", 0.25),
    ("heuristic.ate_m", "m", "lower", 0.25),
    ("train.samples_per_s", "samples/ref_s", "higher", 0.25),
    ("train.val_loss", "loss", "lower", 0.25),
    ("simulate.sim_s_per_s", "s/ref_s", "higher", 0.25),
    ("encode_map_ms", "ref_ms", "lower", 0.25),
    ("learned.query_ms_p50", "ref_ms", "lower", 0.25),
    ("learned.query_ms_tail", "ref_ms", "lower", 0.25),
    ("heuristic.query_ms_p50", "ref_ms", "lower", 0.25),
]
E2E_UNITS = {name: unit for name, unit, _, _ in END_TO_END}
# Set up at least SETUP_REPS times, and keep going (up to SETUP_REPS_MAX
# times on each side of the measured phase) until SETUP_MIN_S has passed, so
# millisecond set-ups get a steady median.
SETUP_REPS, SETUP_REPS_MAX, SETUP_MIN_S = 3, 50, 2.0
SMOKE_SEED = 0
# The benchmark's own single-threaded process adds up to 1.0 to the 1-minute
# load average when runs follow each other; 0.5 more is the idle allowance.
LOAD_THRESHOLD = 1.5


def _openblas_threads():
    """Thread count OpenBLAS reports, from the library numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh
                     if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                           "openblas configuration")},
        "openblas_threads": _openblas_threads(),
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "load_threshold": LOAD_THRESHOLD,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _measure(workload, seed: int, seconds: float | None, out: Outcome,
             reps: int, min_s: float = 0.0) -> tuple[list[float], list[float]]:
    """Set up, run the measured phase, and set up again after it: half of
    the `reps` repeats (and of `min_s` seconds) before, half after, so the
    set-up median spans the run's speed regimes.  Every set-up must give the
    same data.  Returns the set-up times at reference speed, and raw."""
    spans, first = [], []

    def set_up(n, want_s):
        state, start = None, len(spans)
        while len(spans) - start < n or (
                sum(t1 - t0 for t0, t1 in spans[start:]) < want_s
                and len(spans) - start < SETUP_REPS_MAX):
            if state is not None:
                workload.close(state)
            out.tick()
            t0 = time.perf_counter()
            state = workload.setup(seed, out)
            spans.append((t0, time.perf_counter()))
            out.tick()
            digest = workload.state_digest(state)
            if not first:
                first.append(digest)
                out.record(digest.encode())
            out.check(digest == first[0],
                      f"{workload.name} set-up is not deterministic")
        return state

    before = (reps + 1) // 2
    state = set_up(before, min_s / 2)
    # Start from a collected heap, so garbage-collector pauses in the
    # measured phase do not depend on what ran before it.
    gc.collect()
    deadline = None if seconds is None else time.perf_counter() + seconds
    out.tick()
    try:
        workload.run(state, seed, deadline, out)
    finally:
        workload.close(state)
    if reps > before:
        workload.close(set_up(reps - before, min_s / 2))
    # A set-up mixes interpreted and numeric work; both kernels speak.
    return ([out.ref_seconds(t0, t1, KERNELS) for t0, t1 in spans],
            [t1 - t0 for t0, t1 in spans])


def _e2e(workload, setup: tuple[list, list], out: Outcome) -> dict:
    """End-to-end metrics of a measured phase; `setup` holds the set-up
    times (reference speed, raw) whose medians count."""
    ref, raw = setup
    m = {"setup_s": float(np.median(ref)), "peak_rss_mb": _peak_rss_mb(),
         "ok_frac": 1.0 - out.failed / max(out.attempted, 1)}
    m.update({k: out.metrics[k] for k in workload.owns if k in out.metrics})
    out.details["setup_s"] = {"repeats": len(ref), "raw": float(np.median(raw))}
    return m


def run(name: str, seed: int, seconds: float, trace: bool, root: Path,
        size: str = "full") -> dict:
    """One benchmark run; returns the full result record."""
    load_start = os.getloadavg()[0]
    home = WORKLOADS[name](size, root)
    problems: list[str] = []
    details: dict = {}
    if not trace:
        out = Outcome()
        setup = _measure(home, seed, seconds, out, SETUP_REPS, SETUP_MIN_S)
        metrics = _e2e(home, setup, out)
        details.update(out.details)
        problems += out.problems
        attempted, failed = out.attempted, out.failed
        for other in WORKLOADS.values():
            if other is type(home):
                continue
            companion = other("smoke", root)
            o = Outcome()
            _measure(companion, SMOKE_SEED, None, o, 1)
            metrics.update({k: o.metrics[k] for k in other.owns
                            if k in o.metrics})
            details.update({k: {**v, "from": f"{other.name} smoke"}
                            for k, v in o.details.items()})
            problems += [f"{other.name} smoke: {p}" for p in o.problems]
        missing = [n for n, *_ in END_TO_END if n not in metrics]
        problems += [f"metric {n} was not measured" for n in missing]
        metrics = {n: metrics[n] for n, *_ in END_TO_END if n in metrics}
        units = E2E_UNITS
    else:
        # The first set-up in a process pays one-time costs; compare the
        # traced set-up with the warm untraced one made after the run.
        base = Outcome(digest=hashlib.sha256())
        base_m = _e2e(home, [t[-1:] for t in _measure(home, seed, None, base, 2)],
                      base)
        tracer = Tracer()
        health = layers.install(tracer, mapprior)
        try:
            traced = Outcome(digest=hashlib.sha256())
            traced_setup = _measure(home, seed, None, traced, 1)
        finally:
            tracer.restore()
        traced_m = _e2e(home, traced_setup, traced)
        problems += base.problems + traced.problems
        if base.digest.hexdigest() != traced.digest.hexdigest():
            problems.append("traced data outputs differ from the untraced run")
        attempted, failed = traced.attempted, traced.failed
        metrics = layers.layer_metrics(tracer, health)
        if health.steps:
            problems += layers.breakdown_problems(tracer, health)
        # Overhead has a cost sign: positive when tracing makes the metric
        # worse, whichever its direction.
        for n, _, better, _ in END_TO_END:
            t, b = traced_m.get(n, 0.0), base_m.get(n, 0.0)
            metrics[f"trace.overhead.{n}"] = t - b if better == "lower" else b - t
        units = {s["name"]: s["unit"] for s in
                 layers.metric_specs(E2E_UNITS.items())}
        details["untraced"] = base_m
        details["traced"] = traced_m
        details["traced_filter_steps"] = health.steps
        trace_dir = root / ".perfbench" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        spans_path = trace_dir / f"{name}-seed{seed}.json"
        tracer.dump(spans_path)
        details["spans"] = str(spans_path.relative_to(root))

    bad = [k for k, v in metrics.items() if not math.isfinite(v)]
    problems += [f"metric {k} is not finite" for k in bad]
    env = environment()
    env["load1_start"] = load_start
    env["load1_end"] = os.getloadavg()[0]
    env["valid"] = max(load_start, env["load1_end"]) <= LOAD_THRESHOLD
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "details": details, "problems": problems, "env": env,
    }


def check_spec(spec: dict) -> list[str]:
    """Differences between BENCHMARK.json and the metrics this code emits."""
    want_e2e = [{"name": n, "unit": u, "better": b, "bound": x}
                for n, u, b, x in END_TO_END]
    want_layer = layers.metric_specs(E2E_UNITS.items())
    errors = []
    if spec.get("end_to_end") != want_e2e:
        errors.append("BENCHMARK.json end_to_end does not match harness.END_TO_END")
    if spec.get("per_layer") != want_layer:
        errors.append("BENCHMARK.json per_layer does not match layers.metric_specs")
    if sorted(w["name"] for w in spec.get("workloads", [])) != sorted(WORKLOADS):
        errors.append("BENCHMARK.json workloads do not match workloads.WORKLOADS")
    return errors


def write_result(result: dict, root: Path) -> Path:
    out_dir = root / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / (f"{result['workload']}-seed{result['seed']}"
                      f"-trace{int(result['trace'])}.json")
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return path
