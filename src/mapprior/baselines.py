"""Comparison methods: overlap-heuristic prior, dead reckoning, CRF matching."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .occupancy import OccupancyMap, segment_hits_obstacle
from .simulate import Odometry, Trajectory, integrate_odometry, wrap_angle
from .targets import cross_correlate, rasterize_kernel

PDR_STRIDE = 0.67  # m per step


def heuristic_prior(occ: OccupancyMap, window_xy: np.ndarray) -> np.ndarray:
    """Raw free-space overlap heatmap for a noisy odometry window.

    The window is rasterized into a kernel and cross-correlated with the map;
    no exponential reweighting is applied, so near-misses of obstacles only
    reduce the score slightly.  That mild discrimination is the point of this
    baseline.
    """
    kernel = rasterize_kernel(window_xy, occ.resolution)
    return cross_correlate(occ, kernel)


def pdr(step_times: np.ndarray, headings: np.ndarray, start_xy=(0.0, 0.0),
        start_t: float | None = None) -> Trajectory:
    """Dead reckoning: a fixed stride along the heading at each step event."""
    step_times = np.asarray(step_times, dtype=np.float64)
    headings = np.asarray(headings, dtype=np.float64)
    if step_times.shape != headings.shape:
        raise ValueError(
            f"{len(step_times)} step times vs {len(headings)} headings")
    if len(step_times) < 1:
        raise ValueError("need at least one step event")
    if start_t is None:
        start_t = step_times[0] - 1.0
    xy = np.zeros((len(step_times) + 1, 2))
    xy[0] = start_xy
    steps = PDR_STRIDE * np.stack([np.cos(headings), np.sin(headings)], axis=1)
    xy[1:] = np.asarray(start_xy) + np.cumsum(steps, axis=0)
    t = np.concatenate([[start_t], step_times])
    theta = np.concatenate([[headings[0]], headings])
    return Trajectory(t=t, xy=xy, theta=wrap_angle(theta))


def synthesize_steps(traj: Trajectory, heading_bias_per_step: float = 0.0,
                     heading_noise_sigma: float = 0.0,
                     seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Step events and drifting headings derived from a ground-truth walk.

    A step fires each time cumulative walked distance crosses a stride
    multiple; its heading is the local direction of motion plus accumulated
    per-step bias and white noise.
    """
    rng = np.random.default_rng(seed)
    seg = np.diff(traj.xy, axis=0)
    seg_len = np.hypot(seg[:, 0], seg[:, 1])
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    total = cum[-1]
    n_steps = int(total / PDR_STRIDE)
    if n_steps < 1:
        raise ValueError("trajectory too short for a single stride")
    times = np.empty(n_steps)
    headings = np.empty(n_steps)
    for k in range(n_steps):
        s = (k + 1) * PDR_STRIDE
        i = int(np.searchsorted(cum, s, side="right")) - 1
        i = min(i, len(seg) - 1)
        frac = (s - cum[i]) / seg_len[i] if seg_len[i] > 0 else 0.0
        times[k] = traj.t[i] + frac * (traj.t[i + 1] - traj.t[i])
        headings[k] = np.arctan2(seg[i, 1], seg[i, 0])
    drift = heading_bias_per_step * np.arange(1, n_steps + 1)
    drift += np.cumsum(rng.normal(0.0, heading_noise_sigma, n_steps))
    return times, wrap_angle(headings + drift)


# --- CRF map matching ----------------------------------------------------------

@dataclass(frozen=True)
class LocationGraph:
    """Free-space lattice of candidate positions with obstacle-free transitions."""

    nodes: np.ndarray              # (m, 2) world coords
    edges: list[tuple[int, int]]   # undirected, a < b
    neighbors: list[list[int]]     # adjacency, self not included
    edge_length: float

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class CrfParams:
    unary_weight: float = 1.0
    pairwise_weight: float = 1.0
    edge_length: float = 1.0


def build_graph(occ: OccupancyMap, edge_length: float) -> LocationGraph:
    """Grid-sample free cells every edge_length; connect 8-neighbors whose
    straight segment stays in free space."""
    if edge_length < occ.resolution:
        raise ValueError(
            f"edge_length {edge_length} below map resolution {occ.resolution}")
    spacing = max(1, int(round(edge_length / occ.resolution)))
    coords = []
    index: dict[tuple[int, int], int] = {}
    for gy, iy in enumerate(range(spacing // 2, occ.height, spacing)):
        for gx, ix in enumerate(range(spacing // 2, occ.width, spacing)):
            if occ.free[iy, ix]:
                index[(gx, gy)] = len(coords)
                coords.append(occ.cell_center(ix, iy))
    if not coords:
        raise ValueError("no free nodes at this spacing")
    nodes = np.asarray(coords)
    max_dist = 1.5 * edge_length
    edges: list[tuple[int, int]] = []
    neighbors: list[list[int]] = [[] for _ in coords]
    for (gx, gy), a in index.items():
        for dgx, dgy in ((1, 0), (0, 1), (1, 1), (1, -1)):
            b = index.get((gx + dgx, gy + dgy))
            if b is None:
                continue
            if np.hypot(*(nodes[b] - nodes[a])) > max_dist:
                continue
            if segment_hits_obstacle(occ, nodes[a], nodes[b]):
                continue
            edges.append((min(a, b), max(a, b)))
            neighbors[a].append(b)
            neighbors[b].append(a)
    return LocationGraph(nodes=nodes, edges=edges, neighbors=neighbors,
                         edge_length=edge_length)


def crf_match(graph: LocationGraph, odom: Odometry, params: CrfParams,
              start_xy=(0.0, 0.0)) -> Trajectory:
    """Exact MAP node sequence of a linear-chain CRF over graph positions.

    Unary potential: -unary_weight * squared distance between a node and the
    dead-reckoned position.  Pairwise potential (graph edges plus staying
    put): -pairwise_weight * squared mismatch between the node displacement
    and the odometry displacement.  Decoded with Viterbi.
    """
    dr = integrate_odometry(odom, start_xy)
    nodes = graph.nodes
    m = len(nodes)
    # Fixed-width neighbor table (self transition in column 0).
    deg = max(len(nb) for nb in graph.neighbors) + 1
    nbr = np.zeros((m, deg), dtype=int)
    mask = np.zeros((m, deg), dtype=bool)
    for v, nb in enumerate(graph.neighbors):
        row = [v] + nb
        nbr[v, : len(row)] = row
        mask[v, : len(row)] = True
    disp = nodes[:, None, :] - nodes[nbr]          # (m, deg, 2) from nbr -> v
    start_node = int(np.argmin(((nodes - dr[0]) ** 2).sum(axis=1)))
    if not graph.neighbors[start_node]:
        raise ValueError("start node has no transitions")

    def unary(t):
        return -params.unary_weight * ((nodes - dr[t]) ** 2).sum(axis=1)

    delta = unary(0)
    back = np.zeros((len(odom), m), dtype=int)
    for t in range(len(odom)):
        mismatch = disp - odom.dxy[t]
        pair = -params.pairwise_weight * (mismatch ** 2).sum(axis=2)
        scores = np.where(mask, delta[nbr] + pair, -np.inf)
        choice = scores.argmax(axis=1)
        back[t] = nbr[np.arange(m), choice]
        delta = scores[np.arange(m), choice] + unary(t + 1)

    path = [int(delta.argmax())]
    for t in range(len(odom) - 1, -1, -1):
        path.append(int(back[t, path[-1]]))
    path.reverse()
    xy = nodes[path]
    seg = np.diff(xy, axis=0)
    theta = np.zeros(len(xy))
    nz = np.hypot(seg[:, 0], seg[:, 1]) > 0
    theta[1:][nz] = np.arctan2(seg[nz, 1], seg[nz, 0])
    t_axis = np.concatenate([[odom.t[0] - (odom.t[1] - odom.t[0])], odom.t]) \
        if len(odom) > 1 else np.array([odom.t[0] - 1.0, odom.t[0]])
    return Trajectory(t=t_axis, xy=xy, theta=theta)


def crf_grid_search(occ: OccupancyMap, odom: Odometry, gt: Trajectory,
                    start_xy,
                    unary_grid=(0.1, 1.0, 10.0),
                    pairwise_grid=(0.1, 1.0, 10.0),
                    edge_grid=(0.5, 1.0, 2.0)) -> CrfParams:
    """Pick CRF weights and node spacing minimizing ATE on one validation run."""
    from .metrics import ate

    best = None
    best_err = np.inf
    for edge in edge_grid:
        try:
            graph = build_graph(occ, edge)
        except ValueError:
            continue
        for u in unary_grid:
            for p in pairwise_grid:
                params = CrfParams(unary_weight=u, pairwise_weight=p,
                                   edge_length=edge)
                try:
                    est = crf_match(graph, odom, params, start_xy)
                except ValueError:
                    continue
                err = ate(est, gt)
                if err < best_err:
                    best_err = err
                    best = params
    if best is None:
        raise ValueError("grid search found no feasible configuration")
    return best
