"""Synthetic ground-truth trajectories and their corruption into drifting odometry.

Trajectories are generated by sampling waypoints in free space, planning with
A* on the grid, smoothing, and walking or driving the path.  Corruption adds a
per-block multiplicative velocity bias, per-step additive noise, and (for the
wheeled profile) integrated heading drift.
"""

from __future__ import annotations

import csv
import heapq
import sys
from dataclasses import dataclass, fields

import numpy as np

from .occupancy import OccupancyMap, segment_hits_obstacle

PEDESTRIAN_SPEED = 1.3   # m/s
WHEELED_SPEED = 0.2      # m/s
WHEEL_RADIUS = 0.033     # m
SIM_DT = 0.1             # internal integration step, s
SAMPLE_PERIOD_S = 1.0    # s between stream samples; windows are sample counts
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


def require_1hz(stream) -> None:
    """Raise unless a Trajectory or Odometry is sampled every SAMPLE_PERIOD_S:
    windows are sample counts, so a model holds only at the rate it was
    trained at."""
    periods = np.diff(stream.t)
    if not np.allclose(periods, SAMPLE_PERIOD_S, rtol=0, atol=PERIOD_ATOL):
        lo, hi = float(periods.min()), float(periods.max())
        every = f"{lo:g}" if hi - lo <= PERIOD_ATOL else f"{lo:g} to {hi:g}"
        raise ValueError(f"sampled every {every} s, not at {1 / SAMPLE_PERIOD_S:g} Hz")


def check_fields(config, where: str, low: dict, above=()) -> None:
    """Check each field's declared type (a float also takes an int; a bool never
    passes), then that each field in `low` is finite and >= its bound (> if in
    `above`).  An int in a float field must fit in a float."""
    for f in fields(config):
        name, value = f.name, getattr(config, f.name)
        kind = {"int": int, "float": (int, float), "str": str}[f.type]
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ValueError(f"{where}{name} must be {f.type}, not {value!r}")
        finite = f.type != "float" or abs(value) <= sys.float_info.max
        if name in low:
            bound, op = low[name], ">" if name in above else ">="
            if not (finite and (value > bound if op == ">" else value >= bound)):
                what = "" if f.type == "int" else "finite and "
                raise ValueError(f"{where}{name} must be {what}{op} {bound}, not {value}")
        elif not (finite or isinstance(value, float)):
            raise ValueError(f"{where}{name} must be float, not an int beyond its range")


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
    """

    velocity_bias_sigma: float = 0.5
    additive_sigma: float = 0.25
    heading_drift_sigma: float = 0.0
    bias_window_s: float = 5.0

    def __post_init__(self):
        check_fields(self, "noise ", {f.name: 0 for f in fields(self)})

    @classmethod
    def pedestrian(cls) -> "NoiseProfile":
        return cls()

    @classmethod
    def wheeled(cls) -> "NoiseProfile":
        return cls(heading_drift_sigma=0.005, bias_window_s=20.0)

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
    """Octile-heuristic A* over free cells, no diagonal corner cutting.

    Cells are flat ints k = (x+1)*(h+2) + (y+1) on the grid with a one-cell
    occupied border, so a neighbour needs no bounds test.  k orders cells as
    (x, y) tuples do, so heap ties on (f, g, cell) break as on tuples.  A
    start or goal outside the grid has no path (unless they are equal).
    """
    if start == goal:
        return [start]
    w, h = occ.width, occ.height
    if not (0 <= start[0] < w and 0 <= start[1] < h
            and 0 <= goal[0] < w and 0 <= goal[1] < h):
        return None
    rows = h + 2
    free = np.pad(occ.free.T, 1).ravel().tolist()
    dx = np.abs(np.arange(-1, w + 1) - goal[0])[:, None]
    dy = np.abs(np.arange(-1, h + 1) - goal[1])[None, :]
    heuristic = ((dx + dy) + (_SQRT2 - 2.0) * np.minimum(dx, dy)).ravel().tolist()
    # (offset, step cost, offsets of the two cells a diagonal passes between);
    # a straight move names its own cell twice, which is free when it is tried.
    moves = [(mx * rows + my, _SQRT2, mx * rows, my) if mx and my else
             (mx * rows + my, 1.0, mx * rows + my, mx * rows + my)
             for mx in (-1, 0, 1) for my in (-1, 0, 1) if mx or my]
    src = (start[0] + 1) * rows + start[1] + 1
    dst = (goal[0] + 1) * rows + goal[1] + 1
    open_heap = [(heuristic[src], 0.0, src)]
    g_cost = [np.inf] * len(free)
    g_cost[src] = 0.0
    came = {}
    closed = bytearray(len(free))
    while open_heap:
        _, g, cur = heapq.heappop(open_heap)
        if cur == dst:
            path = [cur]
            while cur in came:
                cur = came[cur]
                path.append(cur)
            return [(k // rows - 1, k % rows - 1) for k in reversed(path)]
        if closed[cur]:
            continue
        closed[cur] = 1
        for off, step, side_a, side_b in moves:
            nxt = cur + off
            if free[nxt] and free[cur + side_a] and free[cur + side_b]:
                ng = g + step
                if ng < g_cost[nxt]:
                    g_cost[nxt] = ng
                    came[nxt] = cur
                    heapq.heappush(open_heap, (ng + heuristic[nxt], ng, nxt))
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
    nothing.  Erosion by a 3x3 square is the AND of the nine shifted copies
    of the map, padded with occupied cells."""
    h, w = occ.free.shape
    padded = np.pad(occ.free, 1)
    eroded = np.logical_and.reduce([padded[dy:dy + h, dx:dx + w]
                                    for dy in range(3) for dx in range(3)])
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
    per_sample = int(round(SAMPLE_PERIOD_S / SIM_DT))  # SIM_DT steps per sample
    n_steps = int(round(duration_s / SIM_DT)) if np.isfinite(duration_s) else 0
    if n_steps < per_sample:
        raise ValueError(f"duration {duration_s} s is not finite or too short "
                         f"for 2 samples at 1 Hz")
    rng = np.random.default_rng(seed)
    speed = PEDESTRIAN_SPEED if profile == "pedestrian" else WHEELED_SPEED
    plan_map = _planning_map(occ)

    start_cell = _sample_free_cell(plan_map, rng)
    pos = np.array(occ.cell_center(*start_cell))
    theta = float(rng.uniform(-np.pi, np.pi))
    states = [(pos[0], pos[1], theta)]

    path: list[np.ndarray] = []
    retries = 0
    lookahead = max(2.5 * speed * SIM_DT, occ.resolution)
    for _ in range(n_steps):
        # Acquire the current target waypoint, replanning when the path runs out.
        while True:
            while not path:
                # Prefer planning with wall clearance; if the eroded map is
                # too fragmented, fall back to the raw grid.
                base = plan_map if retries < 12 else occ
                goal_cell = _sample_free_cell(base, rng)
                here = occ.world_to_cell(pos)
                if not base.is_free_cell(*here):
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
        # Humans reorient quickly; a wheeled base turns slowly.
        max_turn = (8.0 if profile == "pedestrian" else 1.5) * SIM_DT
        dth = min(max(err, -max_turn), max_turn)
        if profile == "pedestrian":
            theta = float(wrap_angle(theta + dth))
            step_v = speed * float(min(max(np.cos(err), 0.15), 1.0))
            step_v = min(step_v, dist / SIM_DT)
            step = np.array([np.cos(theta), np.sin(theta)]) * step_v * SIM_DT
            new_pos = pos + step
        else:
            slow = float(min(max(np.cos(err), 0.0), 1.0))
            ds = min(speed * slow * SIM_DT, dist)
            n_total = ds / (np.pi * WHEEL_RADIUS)
            nx, ny, theta = diff_drive_step(pos[0], pos[1], theta,
                                            n_total / 2, n_total / 2, dth)
            new_pos = np.array([nx, ny])
        if segment_hits_obstacle(occ, pos, new_pos):
            new_pos = pos  # rotate in place and replan from here
            path = []
        pos = new_pos
        states.append((pos[0], pos[1], theta))

    arr = np.asarray(states)[::per_sample]
    t = SAMPLE_PERIOD_S * np.arange(len(arr), dtype=np.float64)  # exact nominal times
    return Trajectory(t=t, xy=arr[:, :2], theta=arr[:, 2])


def corrupt_to_odometry(traj: Trajectory, noise: NoiseProfile,
                        seed: int, resolution: float = 1.0) -> Odometry:
    """Turn a ground-truth trajectory into noisy relative odometry.

    Per-step displacement: bias * R(accumulated heading error) @ true_delta
    plus additive white noise of std additive_sigma * resolution meters per
    component.  Heading deltas get per-step noise that also accumulates into
    the displacement frame (wheel-style drift).
    """
    require_1hz(traj)
    rng = np.random.default_rng(seed)
    n = len(traj) - 1
    d_true = np.diff(traj.xy, axis=0)
    dth_true = wrap_angle(np.diff(traj.theta))

    block = max(1, int(round(noise.bias_window_s / SAMPLE_PERIOD_S)))
    n_blocks = -(-n // block)
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


def window(positions: np.ndarray, n: int) -> np.ndarray:
    """All windows of n samples of positions, re-zeroed at each window start.

    Returns (len(positions) - n + 1, n, 2); every window's first entry is the
    zero vector and windows slide by one sample.
    """
    positions = np.asarray(positions, dtype=np.float64)
    if n < 1:
        raise ValueError("window length must be >= 1 sample")
    if len(positions) < n:
        raise ValueError(
            f"stream of {len(positions)} samples is shorter than window ({n})")
    idx = np.arange(n)[None, :] + np.arange(len(positions) - n + 1)[:, None]
    wins = positions[idx]
    return wins - wins[:, :1, :]


# --- CSV I/O ------------------------------------------------------------------

def write_trajectory_csv(traj: Trajectory, path) -> None:
    _write_csv(path, ["t", "x", "y", "theta"], traj.t, traj.xy, traj.theta)


def read_trajectory_csv(path) -> Trajectory:
    return _read_csv(path, Trajectory, ["t", "x", "y", "theta"])


def write_odometry_csv(odom: Odometry, path) -> None:
    _write_csv(path, ["t", "dx", "dy", "dtheta"], odom.t, odom.dxy, odom.dtheta)


def read_odometry_csv(path) -> Odometry:
    return _read_csv(path, Odometry, ["t", "dx", "dy", "dtheta"])


def _write_csv(path, header: list[str], t, vec, ang) -> None:
    """17 significant digits (an exact round trip), csv.writer's CRLF line ends."""
    np.savetxt(path, np.column_stack([t, vec, ang]), fmt="%.17g", delimiter=",",
               header=",".join(header), comments="", newline="\r\n")


def _read_csv(path, cls, expected_header: list[str]):
    """A Trajectory or Odometry from a CSV of the given header; malformed rows
    and arrays the class rejects raise ValueError naming the file."""
    try:
        with open(path, newline="") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    reader = csv.reader(lines)
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
