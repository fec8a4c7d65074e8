"""Which mapprior functions the traced run wraps, and the per-layer metrics
derived from the spans.

Every function is wrapped in the namespace its caller reads it from: an
imported name (`from .occupancy import segment_hits_obstacle`) is a separate
attribute of each importing module, so each such module is patched.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from tracer import Tracer
from workloads import ACCEPT_CONFIG

# Map sides each workload feeds the U-Net: training crops, the 96-cell
# acceptance map (localize), the 256-cell query map.  Backward passes run
# only at the training crop size.
CONV_SIDES = {"fwd": (32, 96, 256), "bwd": (32,)}
# The spans inside one step of the run_filter loop, by the stage they time.
LOOP_STAGES = {
    "particle_filter.propagate": "propagate",
    "model.encode_odometry": "prior_query",
    "model.score": "prior_query",
    "baselines.heuristic_prior": "prior_query",
    "particle_filter.reweight": "reweight",
    "particle_filter.resample_low_variance": "resample_low_variance",
    "particle_filter.estimate": "estimate",
    "particle_filter.maybe_reinit": "maybe_reinit",
}
FILTER_STAGES = tuple(dict.fromkeys(LOOP_STAGES.values()))
# How far the stages plus loop self time (the tracer's clock) may differ
# from the filter's own FilterRun.step_seconds, as a share of the latter.
# The two differ only by the few microseconds between one step's end and the
# next step's start, and by the first step's lead-in before propagate.
BREAKDOWN_TOLERANCE = 0.01


def conv_shapes(side: int) -> list[tuple[int, int, int]]:
    """Distinct (c_in, c_out, side) of the U-Net's convolutions at the
    acceptance shapes for an input of side x side cells, in forward order."""
    config = ACCEPT_CONFIG
    widths = config.widths()
    shapes, c_in = [], 1
    for i, w in enumerate(widths):
        s = side >> i
        shapes += [(c_in, w, s), (w, w, s)]
        c_in = w
    for i in range(config.unet_depth - 2, -1, -1):
        s = side >> i
        shapes += [(widths[i + 1], widths[i], s), (2 * widths[i], widths[i], s),
                   (widths[i], widths[i], s)]
    shapes.append((widths[0], config.channels, side))
    return list(dict.fromkeys(shapes))


def conv_name(c_in: int, c_out: int, side: int) -> str:
    return f"nn.conv2d.{c_in}-{c_out}.{side}px"


def metric_specs(e2e_units) -> list[dict]:
    """Per-layer metrics, in report order: name, unit, better."""
    specs = []

    def add(name, unit, better="lower"):
        specs.append({"name": name, "unit": unit, "better": better})

    add("occupancy.segment_hits_obstacle.calls", "count")
    add("occupancy.segment_hits_obstacle.us_per_call", "us")
    add("occupancy.segment_hits_obstacle.hit_ratio", "frac")
    for stage in FILTER_STAGES:
        add(f"particle_filter.{stage}.ms_per_step", "ms")
    add("particle_filter.self_ms_per_step", "ms")
    add("particle_filter.traced_step_ms", "ms")
    add("particle_filter.encode_map.ms_per_stream", "ms")
    add("particle_filter.outside_loop.ms_per_stream", "ms")
    add("particle_filter.ess_frac_mean", "frac", "higher")
    add("particle_filter.hit_frac_mean", "frac")
    add("particle_filter.reinit_count", "count")
    add("particle_filter.degenerate_count", "count")
    add("particle_filter.skipped_steps", "count")
    add("model.encode_odometry.ms_per_call", "ms")
    add("model.score.ms_per_call", "ms")
    add("model.encode_map.ms", "ms")
    add("baselines.heuristic_prior.ms_per_call", "ms")
    add("targets.cross_correlate.ms_per_call", "ms")
    for kind, sides in CONV_SIDES.items():
        for side in sides:
            for shape in conv_shapes(side):
                add(f"{conv_name(*shape)}.{kind}_ms", "ms")
    add("nn.backward.ms_per_batch", "ms")
    add("nn.adam_step.ms_per_batch", "ms")
    add("nn.lstm_forward.ms_per_call", "ms")
    add("model.clip_gradients.grad_norm_max", "norm")
    add("model.clip_gradients.clipped_frac", "frac")
    add("model.build_training_set.s", "s")
    add("targets.make_target.ms_per_call", "ms")
    add("simulate.generate_trajectory.ms_per_call", "ms")
    add("simulate._astar.calls", "count")
    add("simulate._astar.ms_per_call", "ms")
    add("simulate.corrupt_to_odometry.ms", "ms")
    add("cli.simulate.self_s", "s")
    for name, unit in e2e_units:
        add(f"trace.overhead.{name}", unit)
    return specs


@dataclass
class Health:
    """Filter and training health read from the wrappers' return values."""

    ess_frac: list = field(default_factory=list)
    hit_frac: list = field(default_factory=list)
    reinits: int = 0
    degenerates: int = 0
    skipped: int = 0
    steps: int = 0
    step_s: float = 0.0  # sum of FilterRun.step_seconds
    grad_norms: list = field(default_factory=list)
    clipped: int = 0


def install(tracer: Tracer, mp) -> Health:
    """Wrap the traced functions of package `mp`; tracer.restore() undoes it."""
    health = Health()
    pf, model, sim, cli = mp.particle_filter, mp.model, mp.simulate, mp.cli

    def on_propagate(particles, args):
        health.hit_frac.append(float(particles.hit_obstacle.mean()))

    def on_reweight(result, args):
        particles, degenerate = result
        w = particles.weights
        health.ess_frac.append(float(1.0 / np.sum(w * w) / len(w)))
        health.degenerates += bool(degenerate)

    def on_reinit(result, args):
        health.reinits += bool(result[1])

    def on_prior_error(exc):
        health.skipped += isinstance(exc, ValueError)

    def on_run(run, args):
        health.steps += len(run.step_seconds)
        health.step_s += sum(run.step_seconds)

    def on_clip(norm, args):
        health.grad_norms.append(float(norm))
        health.clipped += bool(args[1] > 0 and norm > args[1])

    def conv_span(args, kwargs):
        x, w = args[0], args[1]
        return conv_name(x.shape[1], w.shape[0], x.shape[2])

    def on_conv(out, args):
        if out._backward is not None:
            out._backward = tracer.timed(conv_span(args, None) + ".bwd",
                                         out._backward)

    for owner in (pf, sim, mp.baselines):
        tracer.count(owner, "segment_hits_obstacle",
                     "occupancy.segment_hits_obstacle")
    tracer.wrap(pf, "run_filter", "particle_filter.run_filter", on_run)
    tracer.wrap(pf, "propagate", "particle_filter.propagate", on_propagate)
    tracer.wrap(pf, "reweight", "particle_filter.reweight", on_reweight)
    tracer.wrap(pf, "resample_low_variance",
                "particle_filter.resample_low_variance")
    tracer.wrap(pf, "estimate", "particle_filter.estimate")
    tracer.wrap(pf, "maybe_reinit", "particle_filter.maybe_reinit", on_reinit)
    tracer.wrap(pf, "heuristic_prior", "baselines.heuristic_prior",
                on_error=on_prior_error)
    tracer.wrap(mp.baselines, "heuristic_prior", "baselines.heuristic_prior")
    tracer.wrap(mp.baselines, "cross_correlate", "targets.cross_correlate")
    tracer.wrap(mp.targets, "cross_correlate", "targets.cross_correlate")
    tracer.wrap(model, "encode_map", "model.encode_map")
    tracer.wrap(model, "encode_odometry", "model.encode_odometry")
    tracer.wrap(model, "score", "model.score")
    tracer.wrap(model, "train", "model.train")
    tracer.wrap(model, "build_training_set", "model.build_training_set")
    tracer.wrap(model, "make_target", "targets.make_target")
    tracer.wrap(model, "backward", "nn.backward")
    tracer.wrap(model, "clip_gradients", "model.clip_gradients", on_clip)
    tracer.wrap(mp.nn, "conv2d", conv_span, on_conv)
    tracer.wrap(mp.nn, "adam_step", "nn.adam_step")
    tracer.wrap(mp.nn, "lstm_forward", "nn.lstm_forward")
    for owner in (sim, cli):
        tracer.wrap(owner, "generate_trajectory",
                    "simulate.generate_trajectory")
        tracer.wrap(owner, "corrupt_to_odometry",
                    "simulate.corrupt_to_odometry")
    tracer.wrap(sim, "_astar", "simulate._astar")
    tracer.wrap(cli, "cmd_simulate", "cli.simulate")
    return health


def layer_metrics(tracer: Tracer, health: Health) -> dict[str, float]:
    """Per-layer values; a layer the workload never called reads 0."""
    totals = tracer.totals()

    def total(name):
        return totals.get(name, (0, 0.0, 0.0))

    def per(name, scale=1e3, count=None):
        n, t, _ = total(name)
        n = n if count is None else count
        return t / n * scale if n else 0.0

    m = {}
    seg = tracer.counters.get("occupancy.segment_hits_obstacle")
    calls = seg.calls if seg else 0
    m["occupancy.segment_hits_obstacle.calls"] = float(calls)
    m["occupancy.segment_hits_obstacle.us_per_call"] = (
        seg.total_s / calls * 1e6 if calls else 0.0)
    m["occupancy.segment_hits_obstacle.hit_ratio"] = (
        seg.hits / calls if calls else 0.0)

    steps = health.steps
    pf = filter_breakdown(tracer)
    for stage in FILTER_STAGES:
        m[f"particle_filter.{stage}.ms_per_step"] = (
            pf[stage] / steps * 1e3 if steps else 0.0)
    m["particle_filter.self_ms_per_step"] = pf["self"] / steps * 1e3 if steps else 0.0
    m["particle_filter.traced_step_ms"] = health.step_s / steps * 1e3 if steps else 0.0
    streams = pf["streams"]
    for part in ("encode_map", "outside_loop"):
        m[f"particle_filter.{part}.ms_per_stream"] = (
            pf[part] / streams * 1e3 if streams else 0.0)
    m["particle_filter.ess_frac_mean"] = float(np.mean(health.ess_frac)) if health.ess_frac else 0.0
    m["particle_filter.hit_frac_mean"] = float(np.mean(health.hit_frac)) if health.hit_frac else 0.0
    m["particle_filter.reinit_count"] = float(health.reinits)
    m["particle_filter.degenerate_count"] = float(health.degenerates)
    m["particle_filter.skipped_steps"] = float(health.skipped)

    m["model.encode_odometry.ms_per_call"] = per("model.encode_odometry")
    m["model.score.ms_per_call"] = per("model.score")
    m["model.encode_map.ms"] = per("model.encode_map")
    m["baselines.heuristic_prior.ms_per_call"] = per("baselines.heuristic_prior")
    m["targets.cross_correlate.ms_per_call"] = per("targets.cross_correlate")
    for kind, sides in CONV_SIDES.items():
        suffix = "" if kind == "fwd" else ".bwd"
        for side in sides:
            for shape in conv_shapes(side):
                m[f"{conv_name(*shape)}.{kind}_ms"] = per(conv_name(*shape) + suffix)
    batches = total("nn.adam_step")[0]
    m["nn.backward.ms_per_batch"] = per("nn.backward", count=batches)
    m["nn.adam_step.ms_per_batch"] = per("nn.adam_step")
    m["nn.lstm_forward.ms_per_call"] = per("nn.lstm_forward")
    norms = health.grad_norms
    m["model.clip_gradients.grad_norm_max"] = max(norms) if norms else 0.0
    m["model.clip_gradients.clipped_frac"] = health.clipped / len(norms) if norms else 0.0
    m["model.build_training_set.s"] = per("model.build_training_set", scale=1.0)
    m["targets.make_target.ms_per_call"] = per("targets.make_target")
    m["simulate.generate_trajectory.ms_per_call"] = per("simulate.generate_trajectory")
    m["simulate._astar.calls"] = float(total("simulate._astar")[0])
    m["simulate._astar.ms_per_call"] = per("simulate._astar")
    m["simulate.corrupt_to_odometry.ms"] = per("simulate.corrupt_to_odometry")
    n, _, self_s = total("cli.simulate")
    m["cli.simulate.self_s"] = self_s / n if n else 0.0
    return m


def filter_breakdown(tracer: Tracer) -> dict:
    """Seconds of run_filter, summed over its spans: each in-loop stage, the
    loop's self time, encode_map, and the rest of run_filter outside the
    loop; "loop" is the traced loop time and "unknown" the names of child
    spans that are no stage.

    The loop of one run_filter span runs from the start of its first
    propagate to the end of its last maybe_reinit; its self time is that
    interval minus the stage spans inside it.
    """
    kids: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(tracer.parent):
        if p >= 0 and tracer.names[p] == "particle_filter.run_filter":
            kids[p].append(i)
    out = defaultdict(float, streams=len(kids), unknown=set())
    dur = tracer.durations()
    for p, children in kids.items():
        encode = [i for i in children if tracer.names[i] == "model.encode_map"]
        loop = [i for i in children if i not in encode]
        out["encode_map"] += sum(dur[i] for i in encode)
        loop_s = tracer.end[loop[-1]] - tracer.start[loop[0]] if loop else 0.0
        out["loop"] += loop_s
        out["outside_loop"] += dur[p] - loop_s - sum(dur[i] for i in encode)
        for i in loop:
            stage = LOOP_STAGES.get(tracer.names[i])
            if stage is None:
                out["unknown"].add(tracer.names[i])
            else:
                out[stage] += dur[i]
    out["self"] = out["loop"] - sum(out[s] for s in FILTER_STAGES)
    return out


def breakdown_problems(tracer: Tracer, health: Health) -> list[str]:
    """Check the traced filter loop against the filter's own step times:
    stages plus loop self time must add up to sum(FilterRun.step_seconds)
    within BREAKDOWN_TOLERANCE, and no other span may sit in the loop."""
    pf = filter_breakdown(tracer)
    problems = [f"span {n} inside the run_filter loop is no filter stage"
                for n in sorted(pf["unknown"])]
    parts = sum(pf[s] for s in FILTER_STAGES) + pf["self"]
    if abs(parts - health.step_s) > BREAKDOWN_TOLERANCE * health.step_s:
        problems.append(f"filter stages plus self time ({parts:.6f} s) differ "
                        f"from the traced step time ({health.step_s:.6f} s) "
                        f"by more than {BREAKDOWN_TOLERANCE:.0%}")
    return problems
