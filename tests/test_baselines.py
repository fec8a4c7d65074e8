import itertools

import numpy as np
import pytest

from mapprior import synthmaps
from mapprior.baselines import (CrfParams, LocationGraph, build_graph,
                                crf_grid_search, crf_match, heuristic_prior,
                                pdr, synthesize_steps)
from mapprior.occupancy import OccupancyMap, segment_hits_obstacle
from mapprior.simulate import (NoiseProfile, Odometry, Trajectory,
                               corrupt_to_odometry, generate_trajectory,
                               integrate_odometry, wrap_angle)
from mapprior.targets import cross_correlate, rasterize_kernel

from conftest import random_map


def viterbi_oracle(graph: LocationGraph, odom: Odometry, params: CrfParams,
                   start_xy) -> list[int]:
    """Exhaustive MAP path over all neighbor-or-stay sequences."""
    dr = integrate_odometry(odom, start_xy)
    nodes = graph.nodes

    def unary(t, v):
        return -params.unary_weight * float(((nodes[v] - dr[t]) ** 2).sum())

    def pairwise(t, a, b):
        d = (nodes[b] - nodes[a]) - odom.dxy[t]
        return -params.pairwise_weight * float((d ** 2).sum())

    best_score, best_path = -np.inf, None
    frontier = [([v], unary(0, v)) for v in range(len(nodes))]
    for t in range(len(odom)):
        nxt = []
        for path, score in frontier:
            a = path[-1]
            for b in [a] + graph.neighbors[a]:
                s = score + pairwise(t, a, b) + unary(t + 1, b)
                nxt.append((path + [b], s))
        frontier = nxt
    for path, score in frontier:
        if score > best_score:
            best_score, best_path = score, path
    return best_path


def tiny_graph(rng: np.random.Generator, n_nodes: int) -> LocationGraph:
    nodes = rng.uniform(0, 4, (n_nodes, 2))
    neighbors = [[] for _ in range(n_nodes)]

    def connect(a, b):
        neighbors[a].append(b)
        neighbors[b].append(a)

    for a in range(n_nodes):
        for b in range(a + 1, n_nodes):
            if rng.random() < 0.6:
                connect(a, b)
    for a in range(n_nodes):  # no isolated nodes: crf_match rejects them
        if not neighbors[a] and n_nodes > 1:
            connect(a, int((a + 1) % n_nodes))
    return LocationGraph(nodes=nodes, neighbors=neighbors, edge_length=1.0)


def build_graph_loop(occ: OccupancyMap, edge_length: float):
    """Nodes and adjacency of `build_graph`, found by a scalar scan of the
    lattice: the straightforward version that build_graph must equal."""
    spacing = max(1, int(round(edge_length / occ.resolution)))
    coords = []
    index: dict[tuple[int, int], int] = {}
    for gy, iy in enumerate(range(spacing // 2, occ.height, spacing)):
        for gx, ix in enumerate(range(spacing // 2, occ.width, spacing)):
            if occ.free[iy, ix]:
                index[(gx, gy)] = len(coords)
                coords.append(occ.cell_center(ix, iy))
    nodes = np.asarray(coords)
    neighbors: list[list[int]] = [[] for _ in coords]
    for (gx, gy), a in index.items():
        for dgx, dgy in ((1, 0), (0, 1), (1, 1), (1, -1)):
            b = index.get((gx + dgx, gy + dgy))
            if b is None or np.hypot(*(nodes[b] - nodes[a])) > 1.5 * edge_length:
                continue
            if not segment_hits_obstacle(occ, nodes[a], nodes[b]):
                neighbors[a].append(b)
                neighbors[b].append(a)
    return nodes, neighbors


class TestHeuristicPrior:
    def test_noise_free_window_peaks_at_true_end(self):
        occ = synthmaps.open_box(30, 30)
        win = np.array([[0.0, 0.0], [1.0, 0.5], [2.0, 1.0]])
        heat = heuristic_prior(occ, win)
        assert heat.max() == pytest.approx(1.0)
        # The true end cell (relative window, so any interior placement) is 1.
        interior = heat[10:20, 10:20]
        assert np.allclose(interior, 1.0)

    def test_wall_crossing_path_scores_below_one_near_wall(self):
        free = np.ones((20, 20), dtype=bool)
        free[:, 10] = False
        occ = OccupancyMap(free, resolution=0.25)
        win = np.array([[0.0, 0.0], [1.0, 0.0]])  # 4 cells long, crosses wall
        heat = heuristic_prior(occ, win)
        # Placements whose kernel straddles the wall lose exactly the blocked
        # cells' weight.
        assert heat[5, 12] < 1.0
        assert heat[5, 5] == pytest.approx(1.0)

    def test_matches_raw_cross_correlation(self):
        rng = np.random.default_rng(0)
        occ = OccupancyMap(rng.random((15, 15)) < 0.7, resolution=0.25)
        win = np.cumsum(rng.normal(0, 0.3, (5, 2)), axis=0)
        heat = heuristic_prior(occ, win)
        kernel = rasterize_kernel(win, occ.resolution)
        assert np.array_equal(heat, cross_correlate(occ, kernel))

    def test_hallway_adjacent_rooms_score_similarly(self, hallway_map):
        # A straight hallway walk barely overlaps the thin wall, so rooms
        # right above the hallway keep near-hallway scores.
        occ = hallway_map
        win = np.stack([np.linspace(0, 4.0, 6), np.zeros(6)], axis=1)
        heat = heuristic_prior(occ, win)
        hall_row = occ.height - 3
        room_row = occ.height - 8
        hall_score = heat[hall_row, 20:40].max()
        room_score = heat[room_row, 20:40].max()
        assert hall_score == pytest.approx(1.0)
        assert room_score > 0.9 * hall_score


class TestPdr:
    def test_single_step_heading_zero(self):
        traj = pdr(np.array([1.0]), np.array([0.0]))
        assert np.allclose(traj.xy[-1], [0.67, 0.0])

    def test_square_walk_returns_to_origin(self):
        headings = np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
        traj = pdr(np.arange(1.0, 5.0), headings)
        assert np.allclose(traj.xy[-1], [0.0, 0.0], atol=1e-12)

    def test_step_length_is_exactly_stride(self):
        rng = np.random.default_rng(1)
        headings = rng.uniform(-np.pi, np.pi, 30)
        traj = pdr(np.arange(1.0, 31.0), headings)
        steps = np.hypot(*np.diff(traj.xy, axis=0).T)
        assert np.allclose(steps, 0.67, rtol=1e-12)

    def test_constant_heading_bias_curves_path(self, rooms_map):
        gt = generate_trajectory(rooms_map, seed=9, duration_s=90.0)
        times, head_clean = synthesize_steps(gt, seed=0)
        _, head_biased = synthesize_steps(gt, heading_bias_per_step=0.01, seed=0)
        clean = pdr(times, head_clean, start_xy=gt.xy[0])
        biased = pdr(times, head_biased, start_xy=gt.xy[0])
        gap = np.hypot(*(clean.xy[-1] - biased.xy[-1]))
        assert gap > 0.5

    def test_mismatched_streams_raise(self):
        with pytest.raises(ValueError, match="step times"):
            pdr(np.array([1.0, 2.0]), np.array([0.0]))


class TestSynthesizeSteps:
    def test_step_spacing_follows_stride(self, rooms_map):
        gt = generate_trajectory(rooms_map, seed=4, duration_s=60.0)
        times, headings = synthesize_steps(gt, seed=0)
        walked = np.hypot(*np.diff(gt.xy, axis=0).T).sum()
        assert len(times) == int(walked / 0.67)
        assert np.all(np.diff(times) > 0)
        assert np.all(headings > -np.pi) and np.all(headings <= np.pi)

    @staticmethod
    def steps_oracle(traj, n_steps):
        """Step times and raw headings, one stride mark at a time."""
        seg = np.diff(traj.xy, axis=0)
        seg_len = np.hypot(seg[:, 0], seg[:, 1])
        cum = np.concatenate([[0.0], np.cumsum(seg_len)])
        times, headings = np.empty(n_steps), np.empty(n_steps)
        for k in range(n_steps):
            s = (k + 1) * 0.67
            i = min(int(np.searchsorted(cum, s, side="right")) - 1, len(seg) - 1)
            frac = (s - cum[i]) / seg_len[i] if seg_len[i] > 0 else 0.0
            times[k] = traj.t[i] + frac * (traj.t[i + 1] - traj.t[i])
            headings[k] = np.arctan2(seg[i, 1], seg[i, 0])
        return times, headings

    def test_matches_per_step_oracle(self, rooms_map):
        # A walk with stationary samples, one that ends on a stride mark
        # inside a zero-length segment, and a simulated walk.
        walks = [
            [[0, 0], [0.5, 0], [0.5, 0], [1.0, 0.2], [1.0, 0.2], [2.0, 1.0]],
            [[0, 0], [0.67, 0], [1.34, 0], [1.34, 0]],
            generate_trajectory(rooms_map, seed=4, duration_s=60.0).xy,
        ]
        for xy in walks:
            xy = np.asarray(xy, dtype=np.float64)
            traj = Trajectory(t=np.arange(float(len(xy))), xy=xy,
                              theta=np.zeros(len(xy)))
            times, headings = synthesize_steps(traj)
            want_t, want_h = self.steps_oracle(traj, len(times))
            assert np.array_equal(times, want_t)
            assert np.array_equal(headings, wrap_angle(want_h))

    @pytest.mark.parametrize("kwargs, message", [
        ({"heading_bias_per_step": np.nan}, "heading bias must be finite"),
        ({"heading_bias_per_step": -np.inf}, "heading bias must be finite"),
        ({"heading_noise_sigma": -0.1}, "heading noise sigma must be finite and >= 0"),
        ({"heading_noise_sigma": np.nan}, "heading noise sigma must be finite and >= 0"),
    ])
    def test_bad_heading_parameters_rejected(self, rooms_map, kwargs, message):
        gt = generate_trajectory(rooms_map, seed=4, duration_s=10.0)
        with pytest.raises(ValueError, match=message):
            synthesize_steps(gt, **kwargs)


class TestCrfParams:
    @pytest.mark.parametrize("kwargs, message", [
        ({"unary_weight": np.nan}, "unary_weight must be finite and >= 0"),
        ({"pairwise_weight": -1.0}, "pairwise_weight must be finite and >= 0"),
        ({"pairwise_weight": np.inf}, "pairwise_weight must be finite and >= 0"),
        ({"edge_length": 0.0}, "edge_length must be finite and > 0"),
        ({"edge_length": np.nan}, "edge_length must be finite and > 0"),
        ({"edge_length": True}, "^CRF edge_length must be float, not True$"),
        ({"unary_weight": "1.0"}, "^CRF unary_weight must be float, not '1.0'$"),
    ])
    def test_bad_values_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            CrfParams(**kwargs)

    def test_zero_weights_allowed(self):
        assert CrfParams(unary_weight=0.0, pairwise_weight=0.0).unary_weight == 0.0


class TestBuildGraph:
    def test_open_map_node_count_and_degree(self):
        occ = synthmaps.open_box(42, 42, resolution=0.25)  # 10x10 m interior
        graph = build_graph(occ, edge_length=1.0)
        assert 80 <= len(graph) <= 120
        degrees = np.array([len(nb) for nb in graph.neighbors])
        assert degrees.max() == 8
        assert (degrees == 8).sum() > len(graph) / 3

    def test_halving_spacing_quadruples_nodes(self):
        occ = synthmaps.open_box(42, 42, resolution=0.25)
        n1 = len(build_graph(occ, edge_length=1.0))
        n2 = len(build_graph(occ, edge_length=0.5))
        assert 3.0 < n2 / n1 < 5.0

    def test_no_edge_crosses_obstacles(self, rooms_map):
        graph = build_graph(rooms_map, edge_length=0.5)
        for a, nb in enumerate(graph.neighbors):
            for b in nb:
                assert not segment_hits_obstacle(rooms_map, graph.nodes[a],
                                                 graph.nodes[b])

    def test_matches_scalar_scan(self):
        rng = np.random.default_rng(11)
        maps = [synthmaps.corridor_rooms(), synthmaps.office_floor(),
                synthmaps.hallway_with_rooms(), synthmaps.open_box(17, 23),
                OccupancyMap(np.ones((1, 1), dtype=bool), 0.25, (-3.0, 2.5)),
                OccupancyMap(rng.random((30, 20)) < 0.6, 0.25, (1.5, -2.25))]
        maps += [random_map(rng, int(rng.integers(5, 40)), int(rng.integers(5, 40)),
                            float(rng.uniform(0.1, 0.7))) for _ in range(40)]
        for occ in maps:
            for edge in (0.25, 0.3, 0.5, 0.75, 1.0, 1.6, 3.0):
                nodes, neighbors = build_graph_loop(occ, edge)
                if not len(nodes):
                    with pytest.raises(ValueError, match="no free nodes"):
                        build_graph(occ, edge)
                    continue
                graph = build_graph(occ, edge)
                assert graph.nodes.dtype == nodes.dtype
                assert np.array_equal(graph.nodes, nodes)
                assert graph.neighbors == neighbors

    def test_all_nodes_in_free_space(self, rooms_map):
        graph = build_graph(rooms_map, edge_length=0.75)
        assert all(rooms_map.is_free(p) for p in graph.nodes)

    def test_too_fine_spacing_rejected(self, rooms_map):
        with pytest.raises(ValueError, match="resolution"):
            build_graph(rooms_map, edge_length=0.1)


class TestCrfMatch:
    def test_zero_noise_on_graph_recovers_path(self):
        occ = synthmaps.open_box(30, 30, resolution=0.25)
        graph = build_graph(occ, edge_length=1.0)
        rng = np.random.default_rng(2)
        node_path = [0]  # open_box's graph is connected
        for _ in range(6):
            node_path.append(int(rng.choice(graph.neighbors[node_path[-1]])))
        moves = np.diff(graph.nodes[node_path], axis=0)
        odom = Odometry(t=np.arange(1.0, 7.0), dxy=moves, dtheta=np.zeros(6))
        est = crf_match(graph, odom, CrfParams(), graph.nodes[node_path[0]])
        assert np.allclose(est.xy, graph.nodes[node_path])

    def test_viterbi_equals_brute_force(self):
        rng = np.random.default_rng(3)
        for trial in range(15):
            n_nodes = int(rng.integers(3, 7))
            graph = tiny_graph(rng, n_nodes)
            if not any(graph.neighbors):
                continue
            t_len = int(rng.integers(1, 6))
            odom = Odometry(t=np.arange(1.0, t_len + 1),
                            dxy=rng.normal(0, 1.0, (t_len, 2)),
                            dtheta=np.zeros(t_len))
            start = rng.uniform(0, 4, 2)
            want = viterbi_oracle(graph, odom, CrfParams(), start)
            got = crf_match(graph, odom, CrfParams(), start)
            assert np.allclose(got.xy, graph.nodes[want]), f"trial {trial}"

    def test_output_positions_are_graph_nodes(self, rooms_map):
        graph = build_graph(rooms_map, edge_length=1.0)
        gt = generate_trajectory(rooms_map, seed=6, duration_s=30.0)
        odom = corrupt_to_odometry(gt, NoiseProfile.pedestrian(), seed=1,
                                   resolution=rooms_map.resolution)
        est = crf_match(graph, odom, CrfParams(), gt.xy[0])
        node_set = {tuple(p) for p in np.round(graph.nodes, 9)}
        assert all(tuple(p) in node_set for p in np.round(est.xy, 9))

    def test_grid_search_returns_feasible_params(self, rooms_map):
        gt = generate_trajectory(rooms_map, seed=8, duration_s=40.0)
        odom = corrupt_to_odometry(gt, NoiseProfile.pedestrian(), seed=2,
                                   resolution=rooms_map.resolution)
        params = crf_grid_search(rooms_map, odom, gt, gt.xy[0],
                                 unary_grid=(1.0,), pairwise_grid=(0.1, 1.0),
                                 edge_grid=(1.0, 2.0))
        assert params.edge_length in (1.0, 2.0)
        assert params.pairwise_weight in (0.1, 1.0)
