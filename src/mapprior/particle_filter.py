"""Particle filter fusing relative odometry with a location-prior heatmap.

Each 1 Hz step propagates particles by the odometry (with motion noise),
reweights them by the prior score at their cell, low-variance resamples,
reports the particle nearest the component-wise median, and re-initializes
the cloud when most particles have just crossed an obstacle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import model as prior_model
from .baselines import heuristic_prior
from .metrics import PRIOR_FLOOR
from .occupancy import OccupancyMap, segments_hit_obstacles
# Unused here; kept because the benchmark's tracer patches it by this name.
from .occupancy import segment_hits_obstacle  # noqa: F401
from .simulate import (SAMPLE_PERIOD_S, Odometry, Pose, Trajectory, check_fields,
                       integrate_heading, integrate_odometry, require_1hz,
                       window, wrap_angle)


@dataclass
class ParticleSet:
    """Columnar particle storage: positions, headings, weights, obstacle flags."""

    xy: np.ndarray            # (p, 2) meters
    theta: np.ndarray         # (p,) radians
    weights: np.ndarray       # (p,) nonnegative, normalized
    hit_obstacle: np.ndarray  # (p,) bool, current step

    def __len__(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class FilterConfig:
    particle_count: int = 1000
    init_sigma: float = 0.01          # m, spread around the true start
    motion_sigma_xy: float = 0.1      # m per axis per step
    motion_sigma_theta: float = 0.0   # rad per step (wheeled only)
    r_reinit: float = 5.0             # m
    s_reinit: float = 0.90            # fraction of flagged particles
    mode: str = "pedestrian"
    window_len: int = 5               # odometry samples per prior query
    rate_hz = 1.0 / SAMPLE_PERIOD_S   # steps per second; not a field

    def __post_init__(self):
        check_fields(self, "", {"particle_count": 1, "window_len": 1, "init_sigma": 0,
                                "motion_sigma_xy": 0, "motion_sigma_theta": 0,
                                "r_reinit": 0}, above=("r_reinit",))
        if not 0 < self.s_reinit <= 1:
            raise ValueError("s_reinit must be in (0, 1]")
        if self.mode not in ("pedestrian", "wheeled"):
            raise ValueError(f"unknown mode {self.mode!r}")

    @classmethod
    def pedestrian(cls, **kw) -> "FilterConfig":
        return cls(mode="pedestrian", **kw)

    @classmethod
    def wheeled(cls, **kw) -> "FilterConfig":
        kw.setdefault("motion_sigma_xy", 0.01)
        kw.setdefault("motion_sigma_theta", 0.01)
        kw.setdefault("window_len", 20)
        return cls(mode="wheeled", **kw)


def init_particles(start: Pose, config: FilterConfig,
                   rng: np.random.Generator) -> ParticleSet:
    p = config.particle_count
    xy = np.array([start.x, start.y]) + rng.normal(0.0, config.init_sigma, (p, 2))
    return ParticleSet(xy=xy, theta=np.full(p, start.theta),
                       weights=np.full(p, 1.0 / p),
                       hit_obstacle=np.zeros(p, dtype=bool))


def propagate(particles: ParticleSet, dxy, dtheta: float, config: FilterConfig,
              occ: OccupancyMap, rng: np.random.Generator) -> ParticleSet:
    """Motion update; flags particles whose step segment crossed an obstacle.

    Pedestrian mode translates by the odometry displacement directly; wheeled
    mode advances the displacement magnitude along each particle's own heading
    and integrates the heading delta.
    """
    p = len(particles)
    dxy = np.asarray(dxy, dtype=np.float64)
    noise_xy = rng.normal(0.0, config.motion_sigma_xy, (p, 2))
    if config.mode == "pedestrian":
        new_xy = particles.xy + dxy + noise_xy
        new_theta = particles.theta
    else:
        s = float(np.hypot(dxy[0], dxy[1]))
        heading = particles.theta
        step = s * np.stack([np.cos(heading), np.sin(heading)], axis=1)
        new_xy = particles.xy + step + noise_xy
        new_theta = wrap_angle(particles.theta + dtheta
                               + rng.normal(0.0, config.motion_sigma_theta, p))
    return ParticleSet(xy=new_xy, theta=new_theta, weights=particles.weights,
                       hit_obstacle=segments_hit_obstacles(occ, particles.xy, new_xy))


def reweight(particles: ParticleSet, heatmap: np.ndarray,
             occ: OccupancyMap) -> tuple[ParticleSet, bool]:
    """Weights from the heatmap value at each particle's cell, floor-clamped
    and normalized.  Returns (particles, degenerate) where degenerate means
    every particle sat at the floor and weights fell back to uniform."""
    p = len(particles)
    ix, iy, inside = occ.world_to_cells(particles.xy)
    raw = np.full(p, PRIOR_FLOOR)
    raw[inside] = np.maximum(
        heatmap[iy[inside], ix[inside]].astype(np.float64), PRIOR_FLOOR)
    degenerate = bool(np.all(raw <= PRIOR_FLOOR))
    w = np.full(p, 1.0 / p) if degenerate else raw / raw.sum()
    return ParticleSet(xy=particles.xy, theta=particles.theta, weights=w,
                       hit_obstacle=particles.hit_obstacle), degenerate


def resample_low_variance(particles: ParticleSet,
                          rng: np.random.Generator) -> ParticleSet:
    """Systematic resampling with a single random offset; uniform output weights."""
    p = len(particles)
    total = particles.weights.sum()
    if not total > 0:  # a nan total would put every copy on particle 0
        raise ValueError(f"cannot resample: total particle weight is {total}, "
                         "not above zero")
    cum = np.cumsum(particles.weights / total)
    cum[-1] = 1.0
    positions = (rng.uniform(0.0, 1.0) + np.arange(p)) / p
    idx = np.searchsorted(cum, positions, side="left")
    return ParticleSet(xy=particles.xy[idx], theta=particles.theta[idx],
                       weights=np.full(p, 1.0 / p),
                       hit_obstacle=particles.hit_obstacle[idx])


def estimate(particles: ParticleSet, t: float = 0.0) -> Pose:
    """Particle nearest the component-wise median position (ties: lowest index)."""
    if len(particles) == 0:
        raise ValueError("empty particle set")
    med = np.median(particles.xy, axis=0)
    d2 = ((particles.xy - med) ** 2).sum(axis=1)
    i = int(np.argmin(d2))
    return Pose(t, float(particles.xy[i, 0]), float(particles.xy[i, 1]),
                float(particles.theta[i]))


def maybe_reinit(particles: ParticleSet, last_estimate: Pose,
                 config: FilterConfig, occ: OccupancyMap,
                 rng: np.random.Generator) -> tuple[ParticleSet, bool]:
    """Re-seed all particles near the last estimate when more than s_reinit of
    them crossed an obstacle this step; otherwise return the set untouched."""
    if not particles.hit_obstacle.mean() > config.s_reinit:
        return particles, False

    center = np.array([last_estimate.x, last_estimate.y])
    diag = float(np.hypot(*occ.extent_m))
    radius = config.r_reinit
    p = config.particle_count
    xy = np.empty((0, 2))
    empty_rounds = 0
    while len(xy) < p:
        need = p - len(xy)
        r = radius * np.sqrt(rng.uniform(0.0, 1.0, 4 * need))
        phi = rng.uniform(-np.pi, np.pi, 4 * need)
        cand = center + np.stack([r * np.cos(phi), r * np.sin(phi)], axis=1)
        ix, iy, inside = occ.world_to_cells(cand)
        ok = cand[inside][occ.free[iy[inside], ix[inside]]]
        xy = np.concatenate([xy, ok[:need]])
        if len(ok):
            empty_rounds = 0
        else:
            empty_rounds += 1
            if radius < diag:
                radius = min(2.0 * radius, diag)
            elif empty_rounds > 50:
                raise ValueError(
                    f"no free space within {radius:.1f} m of the last estimate")
    if config.mode == "wheeled":
        theta = wrap_angle(rng.uniform(-np.pi, np.pi, p))
    else:
        theta = np.zeros(p)
    return ParticleSet(xy=xy, theta=theta, weights=np.full(p, 1.0 / p),
                       hit_obstacle=np.zeros(p, dtype=bool)), True


@dataclass
class FilterRun:
    estimates: Trajectory
    reinit_count: int = 0
    degenerate_count: int = 0
    skipped_steps: int = 0
    step_seconds: list[float] = field(default_factory=list)


def run_filter(odom: Odometry, occ: OccupancyMap, prior: str,
               config: FilterConfig, seed: int, start: Pose,
               weights: dict | None = None,
               model_config: "prior_model.ModelConfig | None" = None) -> FilterRun:
    """Full localization run over an odometry stream.

    prior: "learned" (requires weights + model_config; the map is encoded once
    and reused), "heuristic" (overlap cross-correlation of the noisy window),
    or "none" (no reweighting; dead-reckoning with motion noise).
    """
    require_1hz(odom)
    if prior == "learned":
        if weights is None or model_config is None:
            raise ValueError("learned prior requires weights and model_config")
        map_tensor = prior_model.encode_map(occ, weights, model_config)

        def heatmap_of(rel):
            return prior_model.score(map_tensor, prior_model.encode_odometry(
                rel / occ.resolution, weights, model_config))
    elif prior == "heuristic":
        def heatmap_of(rel):
            try:
                return heuristic_prior(occ, rel)
            except ValueError:
                # Degenerate noisy window larger than the map: no usable
                # evidence this step, keep the motion-only update.
                run.skipped_steps += 1
                return None
    elif prior == "none":
        heatmap_of = None
    else:
        raise ValueError(f"unknown prior {prior!r}")

    rng = np.random.default_rng(seed)
    particles = init_particles(start, config, rng)
    positions = integrate_odometry(odom, (start.x, start.y))
    headings = integrate_heading(odom, start.theta)
    window_len = config.window_len
    if len(positions) >= window_len:  # else k < 0 at every step below
        wins = window(positions, window_len)

    est = start
    poses = [start]
    run = FilterRun(estimates=None)  # type: ignore[arg-type]

    for i in range(len(odom)):
        t_start = time.perf_counter()
        particles = propagate(particles, odom.dxy[i], float(odom.dtheta[i]),
                              config, occ, rng)
        k = i + 2 - window_len  # wins[k] ends at positions[i + 1]
        if heatmap_of is not None and k >= 0:
            rel = wins[k]
            if config.mode == "wheeled":
                # est is the pose at positions[i]; rotate the odometry frame
                # into its heading frame at that same instant.
                rot = est.theta - float(headings[i])
                cr, sr = np.cos(rot), np.sin(rot)
                rel = rel @ np.array([[cr, sr], [-sr, cr]])
            heatmap = heatmap_of(rel)
            if heatmap is not None:
                particles, degen = reweight(particles, heatmap, occ)
                run.degenerate_count += int(degen)
                particles = resample_low_variance(particles, rng)
        est = estimate(particles, float(odom.t[i]))
        particles, fired = maybe_reinit(particles, est, config, occ, rng)
        run.reinit_count += int(fired)
        poses.append(est)
        run.step_seconds.append(time.perf_counter() - t_start)

    run.estimates = Trajectory(t=[q.t for q in poses],
                               xy=[(q.x, q.y) for q in poses],
                               theta=[q.theta for q in poses])
    return run
