"""Synthetic ground-truth trajectories and their corruption into drifting odometry.

Trajectories are generated by sampling waypoints in free space, planning with
A* on the grid, smoothing, and walking or driving the path.  Corruption adds a
per-block multiplicative velocity bias, per-step additive noise, and (for the
wheeled profile) integrated heading drift.
"""

from __future__ import annotations

import csv
import heapq
from dataclasses import dataclass, fields

import numpy as np

from .occupancy import OccupancyMap, segment_hits_obstacle

PEDESTRIAN_SPEED = 1.3   # m/s
WHEELED_SPEED = 0.2      # m/s
WHEEL_RADIUS = 0.033     # m
SIM_DT = 0.1             # internal integration step, s
PERIOD_ATOL = 1e-9       # s, tolerance on a uniform sample period


def wrap_angle(theta):
    """Wrap angle(s) to (-pi, pi]."""
    return np.pi - (np.pi - theta) % (2.0 * np.pi)


@dataclass(frozen=True)
class Pose:
    t: float
    x: float
    y: float
    theta: float


def _freeze_stream(stream, min_len: int) -> None:
    """Check a Trajectory's or Odometry's three arrays (timestamps, 2-vectors,
    angles) and store them as read-only float64: at least min_len samples,
    matching shapes, finite values, strictly increasing timestamps."""
    kind = type(stream).__name__.lower()
    names = [f.name for f in fields(stream)]
    t, vec, ang = (np.asarray(getattr(stream, n), dtype=np.float64) for n in names)
    if t.ndim != 1 or len(t) < min_len:
        raise ValueError(f"{kind} needs at least {min_len} samples")
    if vec.shape != (len(t), 2) or ang.shape != (len(t),):
        raise ValueError(f"inconsistent {kind} array shapes")
    if not all(np.isfinite(a).all() for a in (t, vec, ang)):
        raise ValueError(f"{kind} has non-finite values")
    if np.any(np.diff(t) <= 0):
        raise ValueError(f"{kind} timestamps must be strictly increasing")
    for name, arr in zip(names, (t, vec, ang)):
        arr.flags.writeable = False
        object.__setattr__(stream, name, arr)


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled poses in the world frame."""

    t: np.ndarray       # (n,) seconds
    xy: np.ndarray      # (n, 2) meters
    theta: np.ndarray   # (n,) radians, wrapped

    def __post_init__(self):
        _freeze_stream(self, min_len=2)

    def __len__(self) -> int:
        return len(self.t)

    def pose(self, i: int) -> Pose:
        return Pose(float(self.t[i]), float(self.xy[i, 0]), float(self.xy[i, 1]),
                    float(self.theta[i]))

    @property
    def period(self) -> float:
        return float(self.t[1] - self.t[0])


@dataclass(frozen=True)
class Odometry:
    """Per-step relative displacements; sample i covers (t[i] - period, t[i]]."""

    t: np.ndarray        # (n,)
    dxy: np.ndarray      # (n, 2) meters
    dtheta: np.ndarray   # (n,)

    def __post_init__(self):
        _freeze_stream(self, min_len=1)

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True)
class NoiseProfile:
    """Odometry corruption parameters.

    velocity_bias_sigma: std of the multiplicative bias N(1, sigma), redrawn
        every bias_window_s seconds.
    additive_sigma: per-step white noise, in cells (scaled by map resolution).
    heading_drift_sigma: per-step heading noise in rad; its integral rotates
        the reported displacement frame (wheel profile; 0 for pedestrian).
    fixed_bias: test hook; when set, the bias is this constant.
    """

    velocity_bias_sigma: float = 0.5
    additive_sigma: float = 0.25
    heading_drift_sigma: float = 0.0
    bias_window_s: float = 5.0
    fixed_bias: float | None = None

    def __post_init__(self):
        if min(self.velocity_bias_sigma, self.additive_sigma,
               self.heading_drift_sigma) < 0:
            raise ValueError("noise sigmas must be >= 0")

    @classmethod
    def pedestrian(cls, **kw) -> "NoiseProfile":
        return cls(**kw)

    @classmethod
    def wheeled(cls, **kw) -> "NoiseProfile":
        kw.setdefault("heading_drift_sigma", 0.005)
        kw.setdefault("bias_window_s", 20.0)
        return cls(**kw)

    @classmethod
    def noiseless(cls) -> "NoiseProfile":
        return cls(velocity_bias_sigma=0.0, additive_sigma=0.0,
                   heading_drift_sigma=0.0)


def diff_drive_step(x: float, y: float, theta: float, n_left: float,
                    n_right: float, dtheta: float):
    """One differential-drive update from wheel revolution counts.

    The arc length is pi * WHEEL_RADIUS * (n_left + n_right); the translation
    is applied along theta + dtheta and the heading advances by dtheta.
    """
    ds = np.pi * WHEEL_RADIUS * (n_left + n_right)
    head = theta + dtheta
    return (x + ds * np.cos(head), y + ds * np.sin(head),
            float(wrap_angle(theta + dtheta)))


# --- grid planning -----------------------------------------------------------

_SQRT2 = float(np.sqrt(2.0))


def _astar(occ: OccupancyMap, start: tuple[int, int], goal: tuple[int, int]):
    """Octile-heuristic A* over free cells, no diagonal corner cutting."""
    if start == goal:
        return [start]
    w, h = occ.width, occ.height
    free = occ.free

    def heuristic(c):
        dx, dy = abs(c[0] - goal[0]), abs(c[1] - goal[1])
        return (dx + dy) + (_SQRT2 - 2.0) * min(dx, dy)

    open_heap = [(heuristic(start), 0.0, start)]
    g_cost = {start: 0.0}
    came: dict[tuple[int, int], tuple[int, int]] = {}
    closed = set()
    while open_heap:
        _, g, cur = heapq.heappop(open_heap)
        if cur == goal:
            path = [cur]
            while cur in came:
                cur = came[cur]
                path.append(cur)
            return path[::-1]
        if cur in closed:
            continue
        closed.add(cur)
        cx, cy = cur
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                nx, ny = cx + dx, cy + dy
                if not (0 <= nx < w and 0 <= ny < h) or not free[ny, nx]:
                    continue
                if dx != 0 and dy != 0 and not (free[cy, nx] and free[ny, cx]):
                    continue  # would cut a corner
                step = _SQRT2 if dx != 0 and dy != 0 else 1.0
                ng = g + step
                nxt = (nx, ny)
                if ng < g_cost.get(nxt, np.inf):
                    g_cost[nxt] = ng
                    came[nxt] = cur
                    heapq.heappush(open_heap, (ng + heuristic(nxt), ng, nxt))
    return None


def _shortcut(occ: OccupancyMap, pts: list[tuple[float, float]]):
    """Greedy line-of-sight shortcutting of a polyline."""
    if len(pts) <= 2:
        return pts
    out = [pts[0]]
    i = 0
    while i < len(pts) - 1:
        j = len(pts) - 1
        while j > i + 1 and segment_hits_obstacle(occ, pts[i], pts[j]):
            j -= 1
        out.append(pts[j])
        i = j
    return out


def _chaikin(occ: OccupancyMap, pts: list[tuple[float, float]]):
    """One Chaikin corner-cutting pass; falls back to the input if smoothing
    would clip an obstacle."""
    if len(pts) < 3:
        return pts
    out = [pts[0]]
    for i in range(len(pts) - 1):
        p, q = np.array(pts[i]), np.array(pts[i + 1])
        out.append(tuple(0.75 * p + 0.25 * q))
        out.append(tuple(0.25 * p + 0.75 * q))
    out.append(pts[-1])
    for a, b in zip(out, out[1:]):
        if segment_hits_obstacle(occ, a, b):
            return pts
    return out


def _plan_path(occ: OccupancyMap, start_cell, goal_cell):
    cells = _astar(occ, tuple(start_cell), tuple(goal_cell))
    if cells is None:
        return None
    pts = [occ.cell_center(ix, iy) for ix, iy in cells]
    pts = _shortcut(occ, pts)
    pts = _chaikin(occ, pts)
    return pts


def _sample_free_cell(occ: OccupancyMap, rng: np.random.Generator):
    cells = occ.free_cells()
    if len(cells) == 0:
        raise ValueError("map has no free space")
    return tuple(int(v) for v in cells[rng.integers(len(cells))])


def _planning_map(occ: OccupancyMap) -> OccupancyMap:
    """Copy of the map with free space eroded one cell, so planned paths keep
    clearance from walls; falls back to the raw map when erosion leaves
    nothing."""
    from scipy import ndimage

    eroded = ndimage.binary_erosion(occ.free, structure=np.ones((3, 3)),
                                    border_value=0)
    if not eroded.any():
        return occ
    return OccupancyMap(eroded, occ.resolution, occ.origin)


def generate_trajectory(occ: OccupancyMap, seed: int, duration_s: float,
                        profile: str = "pedestrian") -> Trajectory:
    """Deterministic feasible trajectory of the given duration on the map,
    sampled at 1 Hz.

    pedestrian: waypoint following at ~1.3 m/s with smoothed turns.
    wheeled: differential-drive integration along planned paths at ~0.2 m/s.
    """
    if profile not in ("pedestrian", "wheeled"):
        raise ValueError(f"unknown profile {profile!r}")
    if duration_s <= 0:
        raise ValueError("duration must be > 0")
    rng = np.random.default_rng(seed)
    speed = PEDESTRIAN_SPEED if profile == "pedestrian" else WHEELED_SPEED
    plan_map = _planning_map(occ)

    start_cell = _sample_free_cell(plan_map, rng)
    pos = np.array(occ.cell_center(*start_cell))
    theta = float(rng.uniform(-np.pi, np.pi))
    t = 0.0
    states = [(t, pos[0], pos[1], theta)]

    path: list[np.ndarray] = []
    retries = 0
    lookahead = max(2.5 * speed * SIM_DT, occ.resolution)
    n_steps = int(round(duration_s / SIM_DT))
    for _ in range(n_steps):
        # Acquire the current target waypoint, replanning when the path runs out.
        while True:
            while not path:
                # Prefer planning with wall clearance; if the eroded map is
                # too fragmented, fall back to the raw grid.
                use_raw = retries >= 12
                base = occ if use_raw else plan_map
                goal_cell = _sample_free_cell(base, rng)
                here = occ.world_to_cell(pos)
                if not use_raw and not base.is_free_cell(*here):
                    base = occ
                planned = _plan_path(base, here, goal_cell)
                if planned is None or len(planned) < 2:
                    retries += 1
                    if retries > 50:
                        raise ValueError("no reachable waypoint after 50 retries")
                    continue
                retries = 0
                path = [np.asarray(p) for p in planned[1:]]
            target = path[0]
            to_target = target - pos
            dist = float(np.hypot(*to_target))
            # Intermediate waypoints are passed through a lookahead circle;
            # only the final goal needs to be approached closely.
            if dist < (lookahead if len(path) > 1 else 0.6 * speed * SIM_DT):
                path.pop(0)
                continue
            break
        desired = float(np.arctan2(to_target[1], to_target[0]))
        err = float(wrap_angle(desired - theta))
        if profile == "pedestrian":
            max_turn = 8.0 * SIM_DT  # humans reorient quickly
            dth = float(np.clip(err, -max_turn, max_turn))
            theta = float(wrap_angle(theta + dth))
            step_v = speed * float(np.clip(np.cos(err), 0.15, 1.0))
            step_v = min(step_v, dist / SIM_DT)
            step = np.array([np.cos(theta), np.sin(theta)]) * step_v * SIM_DT
            new_pos = pos + step
            if segment_hits_obstacle(occ, pos, new_pos):
                new_pos = pos  # rotate in place and replan from here
                path = []
        else:
            max_turn = 1.5 * SIM_DT
            dth = float(np.clip(err, -max_turn, max_turn))
            slow = float(np.clip(np.cos(err), 0.0, 1.0))
            ds = min(speed * slow * SIM_DT, dist)
            n_total = ds / (np.pi * WHEEL_RADIUS)
            nx, ny, ntheta = diff_drive_step(pos[0], pos[1], theta,
                                             n_total / 2, n_total / 2, dth)
            new_pos = np.array([nx, ny])
            if segment_hits_obstacle(occ, pos, new_pos):
                new_pos = pos
                ntheta = float(wrap_angle(theta + dth))
                path = []
            theta = ntheta
        pos = new_pos
        t += SIM_DT
        states.append((t, pos[0], pos[1], theta))

    arr = np.asarray(states)[:: int(round(1.0 / SIM_DT))]
    t = np.arange(len(arr), dtype=np.float64)  # exact nominal timestamps
    return Trajectory(t=t, xy=arr[:, 1:3], theta=arr[:, 3])


def corrupt_to_odometry(traj: Trajectory, noise: NoiseProfile,
                        seed: int, resolution: float = 1.0) -> Odometry:
    """Turn a ground-truth trajectory into noisy relative odometry.

    Per-step displacement: bias * R(accumulated heading error) @ true_delta
    plus additive white noise of std additive_sigma * resolution meters per
    component.  Heading deltas get per-step noise that also accumulates into
    the displacement frame (wheel-style drift).
    """
    periods = np.diff(traj.t)
    if not np.allclose(periods, periods[0], rtol=0, atol=PERIOD_ATOL):
        raise ValueError("trajectory must be uniformly sampled")
    rng = np.random.default_rng(seed)
    n = len(traj) - 1
    d_true = np.diff(traj.xy, axis=0)
    dth_true = wrap_angle(np.diff(traj.theta))

    period = float(periods[0])
    block = max(1, int(round(noise.bias_window_s / period)))
    n_blocks = -(-n // block)
    if noise.fixed_bias is not None:
        biases = np.full(n_blocks, float(noise.fixed_bias))
    else:
        biases = rng.normal(1.0, noise.velocity_bias_sigma, n_blocks)
    bias_per_step = np.repeat(biases, block)[:n]

    eta_theta = rng.normal(0.0, noise.heading_drift_sigma, n)
    heading_err = np.cumsum(eta_theta)
    additive = rng.normal(0.0, noise.additive_sigma * resolution, (n, 2))

    cos_e, sin_e = np.cos(heading_err), np.sin(heading_err)
    dx = cos_e * d_true[:, 0] - sin_e * d_true[:, 1]
    dy = sin_e * d_true[:, 0] + cos_e * d_true[:, 1]
    dxy = bias_per_step[:, None] * np.stack([dx, dy], axis=1) + additive
    dtheta = dth_true + eta_theta
    return Odometry(t=traj.t[1:].copy(), dxy=dxy, dtheta=dtheta)


def integrate_odometry(odom: Odometry, start_xy=(0.0, 0.0)) -> np.ndarray:
    """Cumulative positions from relative steps, start included: (n+1, 2)."""
    start = np.asarray(start_xy, dtype=np.float64)
    return np.vstack([start, start + np.cumsum(odom.dxy, axis=0)])


def integrate_heading(odom: Odometry, start_theta: float = 0.0) -> np.ndarray:
    """Cumulative odometry-frame heading, start included: (n+1,)."""
    return np.concatenate([[start_theta], start_theta + np.cumsum(odom.dtheta)])


def dead_reckoning(odom: Odometry, start: Pose) -> Trajectory:
    """Odometry integrated from the start pose, start included: n+1 poses."""
    return Trajectory(t=np.concatenate([[start.t], odom.t]),
                      xy=integrate_odometry(odom, (start.x, start.y)),
                      theta=wrap_angle(integrate_heading(odom, start.theta)))


def window(positions: np.ndarray, n_seconds: float, rate_hz: float) -> np.ndarray:
    """All length-L windows of positions, re-zeroed at each window start.

    L = n_seconds * rate_hz.  Returns (n - L + 1, L, 2); every window's first
    entry is the zero vector and windows slide by one sample.
    """
    positions = np.asarray(positions, dtype=np.float64)
    n_len = int(round(n_seconds * rate_hz))
    if n_len < 1:
        raise ValueError("window length must be >= 1 sample")
    if len(positions) < n_len:
        raise ValueError(
            f"stream of {len(positions)} samples is shorter than window ({n_len})"
        )
    idx = np.arange(n_len)[None, :] + np.arange(len(positions) - n_len + 1)[:, None]
    wins = positions[idx]
    return wins - wins[:, :1, :]


# --- CSV I/O ------------------------------------------------------------------

def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def write_trajectory_csv(traj: Trajectory, path) -> None:
    _write_csv(path, ["t", "x", "y", "theta"], traj.t, traj.xy, traj.theta)


def read_trajectory_csv(path) -> Trajectory:
    return _read_csv(path, Trajectory, ["t", "x", "y", "theta"])


def write_odometry_csv(odom: Odometry, path) -> None:
    _write_csv(path, ["t", "dx", "dy", "dtheta"], odom.t, odom.dxy, odom.dtheta)


def read_odometry_csv(path) -> Odometry:
    return _read_csv(path, Odometry, ["t", "dx", "dy", "dtheta"])


def _write_csv(path, header: list[str], t, vec, ang) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(header)
        for row in np.column_stack([t, vec, ang]):
            out.writerow([_fmt(v) for v in row])


def _read_csv(path, cls, expected_header: list[str]):
    """A Trajectory or Odometry from a CSV of the given header; malformed rows
    and arrays the class rejects raise ValueError naming the file."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != expected_header:
            raise ValueError(f"{path}: expected header {expected_header}, got {header}")
        rows = []
        for row in filter(None, reader):
            try:
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} fields, header has {len(header)}")
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    rows = np.asarray(rows, dtype=np.float64)
    try:
        return cls(rows[:, 0], rows[:, 1:3], rows[:, 3])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
