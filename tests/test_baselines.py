import itertools

import numpy as np
import pytest

from mapprior import synthmaps
from mapprior.baselines import (CrfParams, LocationGraph, build_graph,
                                crf_grid_search, crf_match, heuristic_prior,
                                pdr, synthesize_steps)
from mapprior.occupancy import OccupancyMap
from mapprior.simulate import (NoiseProfile, Odometry, corrupt_to_odometry,
                               generate_trajectory, integrate_odometry)
from mapprior.targets import cross_correlate, rasterize_kernel


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
    edges = []

    def connect(a, b):
        edges.append((min(a, b), max(a, b)))
        neighbors[a].append(b)
        neighbors[b].append(a)

    for a in range(n_nodes):
        for b in range(a + 1, n_nodes):
            if rng.random() < 0.6:
                connect(a, b)
    for a in range(n_nodes):  # no isolated nodes: crf_match rejects them
        if not neighbors[a] and n_nodes > 1:
            connect(a, int((a + 1) % n_nodes))
    return LocationGraph(nodes=nodes, edges=edges, neighbors=neighbors,
                         edge_length=1.0)


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
        from mapprior.occupancy import segment_hits_obstacle
        for a, b in graph.edges:
            assert not segment_hits_obstacle(rooms_map, graph.nodes[a],
                                             graph.nodes[b])

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
