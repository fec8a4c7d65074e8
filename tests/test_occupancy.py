import json
import random
import re

import numpy as np
import pytest

from mapprior import occupancy, synthmaps
from mapprior.occupancy import (MapError, OccupancyMap, crop, load_map,
                                save_map, segment_hits_obstacle,
                                segments_hit_obstacles)


def write_pgm(path, width, height, pixels, maxval=255, meta=None):
    header = f"P5\n{width} {height}\n{maxval}\n".encode()
    path.write_bytes(header + bytes(pixels))
    meta = meta or {"resolution_m_per_px": 0.25, "origin_x_m": 0.0, "origin_y_m": 0.0}
    path.with_suffix(".json").write_text(json.dumps(meta))


class TestLoadMap:
    def test_threshold_splits_free_and_occupied(self, tmp_path):
        p = tmp_path / "m.pgm"
        write_pgm(p, 2, 2, [255, 255, 0, 255])
        occ = load_map(p)
        assert occ.free.sum() == 3
        assert not occ.free[1, 0]
        assert occ.resolution == 0.25

    def test_threshold_is_half_of_maxval(self, tmp_path):
        p = tmp_path / "m.pgm"
        write_pgm(p, 2, 2, [1, 1, 0, 1], maxval=1)
        assert load_map(p).free.tolist() == [[True, True], [False, True]]
        write_pgm(p, 4, 1, [127, 128, 0, 255])
        assert load_map(p).free.tolist() == [[False, True, False, True]]
        write_pgm(p, 3, 1, [50, 51, 100], maxval=100)
        assert load_map(p).free.tolist() == [[False, True, True]]

    def test_pixel_above_maxval_rejected(self, tmp_path):
        p = tmp_path / "m.pgm"
        write_pgm(p, 2, 1, [100, 200], maxval=100)
        with pytest.raises(MapError, match="pixel value 200 exceeds maxval 100"):
            load_map(p)

    def test_all_white_is_all_free(self, tmp_path):
        p = tmp_path / "m.pgm"
        write_pgm(p, 3, 2, [255] * 6)
        assert load_map(p).free.all()

    def test_payload_length_mismatch(self, tmp_path):
        p = tmp_path / "m.pgm"
        write_pgm(p, 3, 3, [255] * 8)  # one byte short
        with pytest.raises(MapError, match="payload"):
            load_map(p)

    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "m.pgm"
        p.write_bytes(b"P2\n2 2\n255\n....")
        p.with_suffix(".json").write_text(json.dumps(
            {"resolution_m_per_px": 1, "origin_x_m": 0, "origin_y_m": 0}))
        with pytest.raises(MapError, match="P5"):
            load_map(p)

    def test_nonpositive_resolution(self, tmp_path):
        p = tmp_path / "m.pgm"
        write_pgm(p, 2, 2, [255] * 4,
                  meta={"resolution_m_per_px": 0.0, "origin_x_m": 0, "origin_y_m": 0})
        with pytest.raises(MapError, match="resolution"):
            load_map(p)

    @pytest.mark.parametrize("key", ["resolution_m_per_px", "origin_x_m",
                                     "origin_y_m"])
    @pytest.mark.parametrize("value", ["1e400", "-1e400", "NaN", "Infinity",
                                       "-Infinity", "1" + "0" * 400],
                             ids=["1e400", "-1e400", "NaN", "Infinity",
                                  "-Infinity", "int-1e400"])
    def test_non_finite_sidecar_number_rejected(self, tmp_path, key, value):
        p = tmp_path / "m.pgm"
        write_pgm(p, 2, 2, [255] * 4)
        meta = {"resolution_m_per_px": "0.5", "origin_x_m": "0", "origin_y_m": "0"}
        meta[key] = value
        p.with_suffix(".json").write_text(
            "{" + ", ".join(f'"{k}": {v}' for k, v in meta.items()) + "}")
        with pytest.raises(MapError, match=rf"m\.json: sidecar {key} is not a finite"):
            load_map(p)

    def test_header_comments_ok(self, tmp_path):
        p = tmp_path / "m.pgm"
        p.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([255, 0, 255, 0]))
        p.with_suffix(".json").write_text(json.dumps(
            {"resolution_m_per_px": 0.5, "origin_x_m": 1.0, "origin_y_m": 2.0}))
        occ = load_map(p)
        assert occ.free.sum() == 2
        assert occ.origin == (1.0, 2.0)

    def test_save_load_round_trip(self, tmp_path, rooms_map):
        p = tmp_path / "m.pgm"
        save_map(rooms_map, p)
        loaded = load_map(p)
        assert np.array_equal(loaded.free, rooms_map.free)
        assert loaded.resolution == rooms_map.resolution

    @pytest.mark.parametrize("header", [
        b"P5#c\n2 2 255\n",  # the magic may run on; this '#' is not a comment
        b"P5\n#c 2 2 255\n2\r\n#c\r2\t#c\n#c\n255\x0b",
        b"P5\x0c2\x0b\x0b2 #c\r\n\t255\r",
    ])
    def test_header_whitespace_and_comment_spellings(self, tmp_path, header):
        p = tmp_path / "m.pgm"
        write_pgm(p, 2, 2, [])
        p.write_bytes(header + bytes([255, 0, 0, 255]))
        assert load_map(p).free.tolist() == [[True, False], [False, True]]

    @pytest.mark.parametrize("raw, message", [
        (b"P5", "truncated PGM header"),
        (b"P5 2 2", "truncated PGM header"),
        (b"P5 2 2 #255\n", "truncated PGM header"),
        (b"P5 2 2\n#c 255", "truncated PGM header"),
        (b"P5\n\n2\n\n2\n\n", "truncated PGM header"),
        (b"P5 1_2 2 255\n", "non-numeric PGM header fields"),
        (b"P5 +12 2 255\n", "non-numeric PGM header fields"),
        (b"P5 12 2 2_55\n", "non-numeric PGM header fields"),
        (b"P5 12 -2 255\n", "non-numeric PGM header fields"),
        (b"P5 12 2 0x9\n", "non-numeric PGM header fields"),
        (b"P5 12#c 2 255\n", "non-numeric PGM header fields"),
        ("P5 12 2 ２５５\n".encode(), "non-numeric PGM header fields"),
        # One whitespace byte ends the header, so this comment is pixels.
        (b"P5 2 2 255 #c\n" + bytes(4), "payload has 7 bytes, header implies 4"),
    ])
    def test_malformed_header_rejected(self, tmp_path, raw, message):
        p = tmp_path / "m.pgm"
        p.write_bytes(raw)
        with pytest.raises(MapError, match=message):
            load_map(p)


def read_pgm_tokens(raw: bytes, count: int) -> tuple[list[bytes], int]:
    """First `count` whitespace-separated header tokens, skipping # comments.

    A byte-by-byte tokenizer, the oracle of `occupancy._PGM_HEADER`.  Returns the tokens and the offset just past the single
    whitespace byte that terminates the last token; raises MapError when the
    header ends before `count` tokens.
    """
    tokens: list[bytes] = []
    i = 0
    n = len(raw)
    while len(tokens) < count:
        while i < n and raw[i : i + 1].isspace():
            i += 1
        if i < n and raw[i : i + 1] == b"#":
            while i < n and raw[i : i + 1] not in (b"\n", b"\r"):
                i += 1
            continue
        start = i
        while i < n and not raw[i : i + 1].isspace():
            i += 1
        if start == i:
            raise MapError("truncated PGM header")
        tokens.append(raw[start:i])
        i += 1  # consume exactly one whitespace byte after the token
    return tokens, i


def random_headers(seed: int, count: int):
    r"""Seeded P5 headers mixing the six whitespace bytes, comments (ended by
    \n, \r or the end of the file, holding spaces, '#' and would-be tokens),
    '#' inside tokens, \x00 and \xff, signs and underscores, missing
    separators, and truncation at any byte."""
    rng = random.Random(seed)
    spaces = b" \t\n\r\x0b\x0c"
    token_bytes = b"0123456789" * 3 + b"#_+-aP\x00\xff"
    comment_bytes = token_bytes + b" \t\x0b\x0c#"

    def pick(pool, lo, hi):
        return bytes(rng.choices(pool, k=rng.randint(lo, hi)))

    def separator():
        parts = [b"#" + pick(comment_bytes, 0, 5) + pick(b"\n\r", 1, 1)
                 if rng.random() < 0.4 else pick(spaces, 1, 2)
                 for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.05:
            parts.append(b"#" + pick(comment_bytes, 0, 5))  # runs to the end
        return b"".join(parts)

    for _ in range(count):
        raw = b"P5" + (pick(token_bytes, 1, 2) if rng.random() < 0.1 else b"")
        for _ in range(3):
            raw += separator() + pick(token_bytes, 1, 4)
        raw += separator() + pick(spaces + token_bytes, 0, 3)
        if rng.random() < 0.3:
            raw = raw[: rng.randint(2, len(raw))]
        yield raw


def test_pgm_header_pattern_matches_tokenizer_oracle():
    seen = {"truncated": 0, "parsed": 0, "at_eof": 0}
    for raw in random_headers(seed=15, count=100_000):
        match = occupancy._PGM_HEADER.match(raw)
        try:
            tokens, offset = read_pgm_tokens(raw, 4)
        except MapError:
            assert match is None, raw
            seen["truncated"] += 1
            continue
        assert match is not None, raw
        assert list(match.groups()) == tokens[1:], raw
        # At the end of the file the tokenizer steps one byte past it; both
        # leave an empty payload.
        assert match.end() == min(offset, len(raw)), raw
        seen["parsed"] += 1
        seen["at_eof"] += offset > len(raw)
    assert min(seen.values()) > 1000, seen


class TestIsFree:
    def test_center_of_free_cell(self, small_map):
        assert small_map.is_free(small_map.cell_center(3, 3))

    def test_out_of_bounds_is_occupied(self, small_map):
        assert not small_map.is_free((-1.0, 0.5))
        assert not small_map.is_free((1e6, 1e6))

    def test_shared_edge_uses_floor(self):
        occ = OccupancyMap(np.array([[True, False]]), resolution=1.0)
        # x = 1.0 is the shared edge between cells 0 and 1; floor puts it in 1.
        assert not occ.is_free((1.0, 0.5))
        assert occ.is_free((1.0 - 1e-9, 0.5))

    def test_matches_stored_cells_exhaustively(self, rooms_map):
        for iy in range(rooms_map.height):
            for ix in range(rooms_map.width):
                point = rooms_map.cell_center(ix, iy)
                assert rooms_map.is_free(point) == rooms_map.free[iy, ix]

    def test_vectorised_cells_match_scalar_on_edges_and_outside(self):
        occ = OccupancyMap(np.random.default_rng(1).random((7, 9)) < 0.6,
                           resolution=0.1, origin=(-0.3, 0.2))
        rng = np.random.default_rng(2)
        edges = occ.origin + 0.1 * rng.integers(-3, 12, (200, 2))
        pts = np.vstack([edges, rng.uniform(-1.0, 2.0, (200, 2))])
        ix, iy, inside = occ.world_to_cells(pts)
        for k, (x, y) in enumerate(pts):
            want = (int(np.floor((x - occ.origin[0]) / occ.resolution)),
                    int(np.floor((y - occ.origin[1]) / occ.resolution)))
            assert (ix[k], iy[k]) == want == occ.world_to_cell((x, y))
            assert inside[k] == (0 <= want[0] < occ.width and 0 <= want[1] < occ.height)
        assert inside.any() and not inside.all()

    def test_world_cell_round_trip(self, rooms_map):
        rng = np.random.default_rng(0)
        for _ in range(200):
            ix = int(rng.integers(rooms_map.width))
            iy = int(rng.integers(rooms_map.height))
            assert rooms_map.world_to_cell(rooms_map.cell_center(ix, iy)) == (ix, iy)


class TestCrop:
    @staticmethod
    def corner(parent, ix, iy):
        """World origin of a crop whose corner is parent cell (ix, iy)."""
        return (parent.origin[0] + ix * parent.resolution,
                parent.origin[1] + iy * parent.resolution)

    def test_interior_crop(self, rooms_map):
        c = crop(rooms_map, (24, 24), 16)
        assert c.free.shape == (16, 16)
        assert c.origin == self.corner(rooms_map, 16, 16)
        assert c.resolution == rooms_map.resolution

    def test_corner_crop_is_clamped(self, rooms_map):
        c = crop(rooms_map, (0, 0), 16)
        assert c.origin == self.corner(rooms_map, 0, 0)
        assert np.array_equal(c.free, rooms_map.free[:16, :16])
        c2 = crop(rooms_map, (47, 47), 16)
        assert c2.origin == self.corner(rooms_map, 48 - 16, 48 - 16)
        assert np.array_equal(c2.free, rooms_map.free[-16:, -16:])

    def test_full_size_is_identity(self, rooms_map):
        c = crop(rooms_map, (10, 3), 48)
        assert c.origin == rooms_map.origin
        assert np.array_equal(c.free, rooms_map.free)

    def test_oversize_raises(self, rooms_map):
        with pytest.raises(MapError, match="exceeds"):
            crop(rooms_map, (5, 5), 49)

    def test_crop_cells_match_parent(self, rooms_map):
        rng = np.random.default_rng(1)
        for _ in range(20):
            center = (int(rng.integers(48)), int(rng.integers(48)))
            c = crop(rooms_map, center, 8)
            ox, oy = rooms_map.world_to_cell(c.cell_center(0, 0))
            assert c.origin == self.corner(rooms_map, ox, oy)
            for iy in range(8):
                for ix in range(8):
                    assert c.free[iy, ix] == rooms_map.free[oy + iy, ox + ix]

    def test_crop_world_frame_consistent(self, rooms_map):
        c = crop(rooms_map, (20, 11), 12)
        point = c.cell_center(3, 4)
        assert c.is_free(point) == rooms_map.is_free(point)


def traverse_cells(occ: OccupancyMap, p0, p1):
    """Grid cells crossed by the segment p0 -> p1 (world coords), in order.

    The cell-list form of the Amanatides-Woo walk, kept as the oracle for
    both traversals in `mapprior.occupancy`.  Includes the cells containing
    both endpoints; cells outside the grid are reported as (ix, iy) anyway.
    """
    x0 = (float(p0[0]) - occ.origin[0]) / occ.resolution
    y0 = (float(p0[1]) - occ.origin[1]) / occ.resolution
    x1 = (float(p1[0]) - occ.origin[0]) / occ.resolution
    y1 = (float(p1[1]) - occ.origin[1]) / occ.resolution
    ix, iy = int(np.floor(x0)), int(np.floor(y0))
    ix1, iy1 = int(np.floor(x1)), int(np.floor(y1))
    cells = [(ix, iy)]
    dx, dy = x1 - x0, y1 - y0
    step_x = 1 if dx > 0 else -1
    step_y = 1 if dy > 0 else -1
    t_max_x = ((ix + (step_x > 0)) - x0) / dx if dx != 0 else np.inf
    t_max_y = ((iy + (step_y > 0)) - y0) / dy if dy != 0 else np.inf
    t_delta_x = abs(1.0 / dx) if dx != 0 else np.inf
    t_delta_y = abs(1.0 / dy) if dy != 0 else np.inf
    for _ in range(abs(ix1 - ix) + abs(iy1 - iy)):
        if abs(t_max_x - t_max_y) < 1e-12:
            cells.append((ix + step_x, iy))
            cells.append((ix, iy + step_y))
            ix += step_x
            iy += step_y
            t_max_x += t_delta_x
            t_max_y += t_delta_y
        elif t_max_x < t_max_y:
            ix += step_x
            t_max_x += t_delta_x
        else:
            iy += step_y
            t_max_y += t_delta_y
        cells.append((ix, iy))
        if ix == ix1 and iy == iy1:
            break
    return cells


def oracle_hits(occ: OccupancyMap, p0, p1) -> np.ndarray:
    return np.array([any(not occ.is_free_cell(ix, iy)
                         for ix, iy in traverse_cells(occ, a, b))
                     for a, b in zip(p0, p1)], dtype=bool)


def random_segments(occ: OccupancyMap, rng, n: int):
    """n segments over and around the map, a sixth of each kind: free,
    grid-aligned endpoints (exact corners), zero-length, horizontal,
    vertical and exactly diagonal through cell corners."""
    res = occ.resolution
    origin = np.asarray(occ.origin)
    size = np.array([occ.width, occ.height]) * res
    kind = np.arange(n) % 6
    p0 = origin + rng.uniform(-0.05, 1.05, (n, 2)) * size
    p1 = p0 + rng.normal(0.0, 6 * res, (n, 2))
    grid = origin + res * rng.integers(-3, max(occ.width, occ.height) + 3, (n, 2))
    m = kind == 1
    p0[m] = grid[m]
    p1[m] = grid[m] + res * rng.integers(-6, 7, (m.sum(), 2))
    p1[kind == 2] = p0[kind == 2]
    p1[kind == 3, 1] = p0[kind == 3, 1]
    p1[kind == 4, 0] = p0[kind == 4, 0]
    m = kind == 5
    p0[m] = grid[m] + res * rng.choice([0.0, 0.5], (m.sum(), 1))
    p1[m] = p0[m] + res * rng.integers(-6, 7, (m.sum(), 1)) * rng.choice([-1, 1], (m.sum(), 2))
    return p0, p1


class TestTraversal:
    def test_straight_segment_cells(self, small_map):
        cells = traverse_cells(small_map, (0.5, 0.5), (3.5, 0.5))
        assert cells[0] == (2, 2) and cells[-1] == (14, 2)
        xs = [c[0] for c in cells]
        assert xs == sorted(xs)

    def test_wall_is_detected(self):
        free = np.ones((5, 5), dtype=bool)
        free[:, 2] = False
        occ = OccupancyMap(free, resolution=1.0)
        assert segment_hits_obstacle(occ, (0.5, 2.5), (4.5, 2.5))
        assert not segment_hits_obstacle(occ, (0.5, 0.5), (1.5, 4.5))

    def test_leaving_map_counts_as_hit(self, small_map):
        assert segment_hits_obstacle(small_map, (1.5, 1.5), (-2.0, 1.5))

    def test_exact_corner_checks_both_side_cells(self):
        # Free diagonal, occupied off-diagonal: the diagonal crosses the
        # shared corner exactly and counts as a hit in either direction.
        occ = OccupancyMap(np.eye(2, dtype=bool), resolution=1.0)
        for p0, p1 in (((0.5, 0.5), (1.5, 1.5)), ((1.5, 1.5), (0.5, 0.5))):
            assert segment_hits_obstacle(occ, p0, p1)
            assert segments_hit_obstacles(occ, [p0], [p1]).tolist() == [True]
        assert not segment_hits_obstacle(OccupancyMap(np.ones((2, 2), bool), 1.0),
                                         (0.5, 0.5), (1.5, 1.5))


ORACLE_MAPS = {
    "office_floor": synthmaps.office_floor(),
    "offset": OccupancyMap(np.random.default_rng(7).random((13, 17)) < 0.92,
                           resolution=0.3, origin=(-1.1, 2.7)),
}


class TestTraversalOracle:
    @pytest.mark.parametrize("name", sorted(ORACLE_MAPS))
    def test_batched_and_scalar_match_cell_list(self, name):
        occ = ORACLE_MAPS[name]
        p0, p1 = random_segments(occ, np.random.default_rng(11), 60_000)
        want = oracle_hits(occ, p0, p1)
        assert np.array_equal(segments_hit_obstacles(occ, p0, p1), want)
        scalar = np.array([segment_hits_obstacle(occ, a, b) for a, b in zip(p0, p1)])
        assert np.array_equal(scalar, want)
        assert 0.2 < want.mean() < 0.9

    @pytest.mark.parametrize("name", sorted(ORACLE_MAPS))
    def test_random_segments_cross_exact_corners(self, name):
        # A corner step lists two diagonal neighbours one after the other.
        occ = ORACLE_MAPS[name]
        p0, p1 = random_segments(occ, np.random.default_rng(11), 600)
        corners = [any(abs(a[0] - b[0]) + abs(a[1] - b[1]) == 2
                       for a, b in zip(cells, cells[1:]))
                   for cells in (traverse_cells(occ, a, b) for a, b in zip(p0, p1))]
        assert sum(corners) > 50

    @pytest.mark.parametrize("p0, p1", [
        (np.zeros((3, 2)), np.zeros((2, 2))),
        (np.zeros((3, 2)), np.zeros((3, 3))),
        (np.zeros(2), np.zeros(2)),
    ])
    def test_mismatched_shapes_raise(self, small_map, p0, p1):
        with pytest.raises(ValueError, match="must both be"):
            segments_hit_obstacles(small_map, p0, p1)

    def test_non_finite_endpoint_raises(self, small_map):
        with pytest.raises(ValueError, match="finite"):
            segments_hit_obstacles(small_map, [[0.5, 0.5]], [[np.nan, 0.5]])


class TestInvariants:
    def test_grid_is_immutable(self, small_map):
        with pytest.raises(ValueError):
            small_map.free[0, 0] = True

    def test_invalid_geometry_rejected(self):
        with pytest.raises(MapError):
            OccupancyMap(np.ones((0, 3), dtype=bool), 0.25)
        with pytest.raises(MapError):
            OccupancyMap(np.ones((3, 3), dtype=bool), -1.0)

    @pytest.mark.parametrize("resolution, origin, message", [
        (float("inf"), (0.0, 0.0), "resolution must be finite and > 0, not inf"),
        (True, (0.0, 0.0), "resolution must be finite and > 0, not True"),
        ("0.25", (0.0, 0.0), "resolution must be finite and > 0, not '0.25'"),
        (0.25, (float("nan"), 0.0), "origin must be two finite numbers, not (nan, 0.0)"),
        (0.25, (1.0,), "origin must be two finite numbers, not (1.0,)"),
        (0.25, "ab", "origin must be two finite numbers, not 'ab'"),
    ])
    def test_bad_resolution_or_origin_rejected(self, resolution, origin, message):
        with pytest.raises(MapError, match=f"^{re.escape(message)}$"):
            OccupancyMap(np.ones((3, 3), dtype=bool), resolution, origin)
