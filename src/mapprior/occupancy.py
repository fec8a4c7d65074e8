"""2D occupancy grids: PGM loading, world/cell conversion, feasibility queries, crops."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class MapError(ValueError):
    """Malformed map file or invalid map geometry."""


@dataclass(frozen=True)
class OccupancyMap:
    """Binary occupancy grid.

    free[iy, ix] is True where the cell is free space.  Row iy=0 corresponds
    to the first PGM row.  The world position of the corner of cell (0, 0) is
    `origin`, and cell (ix, iy) covers the square
    [origin_x + ix*res, origin_x + (ix+1)*res) x [origin_y + iy*res, ...).
    """

    free: np.ndarray
    resolution: float
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        free = np.asarray(self.free, dtype=bool)
        if free.ndim != 2 or free.shape[0] < 1 or free.shape[1] < 1:
            raise MapError(f"grid must be 2D and nonempty, got shape {free.shape}")
        if not self.resolution > 0:
            raise MapError(f"resolution must be > 0, got {self.resolution}")
        free.flags.writeable = False
        object.__setattr__(self, "free", free)

    @property
    def height(self) -> int:
        return self.free.shape[0]

    @property
    def width(self) -> int:
        return self.free.shape[1]

    def world_to_cells(self, xy) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cells (ix, iy) containing (n, 2) world points, floor convention on
        edges, plus the (n,) mask of cells inside the grid."""
        xy = np.asarray(xy, dtype=np.float64)
        ix = np.floor((xy[:, 0] - self.origin[0]) / self.resolution).astype(int)
        iy = np.floor((xy[:, 1] - self.origin[1]) / self.resolution).astype(int)
        inside = (ix >= 0) & (ix < self.width) & (iy >= 0) & (iy < self.height)
        return ix, iy, inside

    def world_to_cell(self, point) -> tuple[int, int]:
        """Cell (ix, iy) containing a world point; floor convention on edges."""
        ix, iy, _ = self.world_to_cells(np.reshape(point, (1, 2)))
        return int(ix[0]), int(iy[0])

    def cell_center(self, ix, iy) -> tuple:
        """World center of cell (ix, iy); elementwise on index arrays."""
        return (
            self.origin[0] + (ix + 0.5) * self.resolution,
            self.origin[1] + (iy + 0.5) * self.resolution,
        )

    def is_free(self, point) -> bool:
        """Free/occupied state of the containing cell; out-of-bounds counts as occupied."""
        return self.is_free_cell(*self.world_to_cell(point))

    def is_free_cell(self, ix: int, iy: int) -> bool:
        """Free/occupied state of a cell; out-of-bounds counts as occupied."""
        return (0 <= ix < self.width and 0 <= iy < self.height
                and bool(self.free[iy, ix]))

    def free_cells(self) -> np.ndarray:
        """(n, 2) array of (ix, iy) indices of free cells."""
        ys, xs = np.nonzero(self.free)
        return np.stack([xs, ys], axis=1)

    @property
    def extent_m(self) -> tuple[float, float]:
        return self.width * self.resolution, self.height * self.resolution


@dataclass(frozen=True)
class MapCrop:
    """A square window of a parent map; `offset` is the (ix, iy) of its corner cell."""

    offset: tuple[int, int]
    map: OccupancyMap


def crop(parent: OccupancyMap, center_cell, size_cells: int) -> MapCrop:
    """Size x size crop centered near center_cell, clamped to stay inside the parent.

    The crop's origin is shifted so world coordinates agree with the parent.
    """
    size = int(size_cells)
    if size < 1:
        raise MapError(f"crop size must be >= 1, got {size}")
    if size > parent.width or size > parent.height:
        raise MapError(
            f"crop size {size} exceeds map dimensions {parent.width}x{parent.height}"
        )
    cx, cy = int(center_cell[0]), int(center_cell[1])
    x0 = min(max(cx - size // 2, 0), parent.width - size)
    y0 = min(max(cy - size // 2, 0), parent.height - size)
    sub = parent.free[y0 : y0 + size, x0 : x0 + size].copy()
    origin = (
        parent.origin[0] + x0 * parent.resolution,
        parent.origin[1] + y0 * parent.resolution,
    )
    return MapCrop(offset=(x0, y0), map=OccupancyMap(sub, parent.resolution, origin))


def _read_pgm_tokens(raw: bytes, count: int) -> tuple[list[bytes], int]:
    """First `count` whitespace-separated header tokens, skipping # comments.

    Returns the tokens and the offset just past the single whitespace byte
    that terminates the last token.
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


def load_map(pgm_path, meta_path=None) -> OccupancyMap:
    """Load a binary P5 PGM plus its JSON sidecar into an OccupancyMap.

    A pixel brighter than half of maxval (2 * pixel > maxval, i.e. pixel >= 128
    at maxval 255) is free, the rest occupied; a pixel above maxval is an
    error.  The sidecar is a JSON object giving resolution_m_per_px and the
    world origin of pixel (0, 0) as numbers.
    """
    pgm_path = Path(pgm_path)
    if meta_path is None:
        meta_path = pgm_path.with_suffix(".json")
    raw = pgm_path.read_bytes()
    if not raw.startswith(b"P5"):
        raise MapError(f"{pgm_path}: not a binary (P5) PGM")
    try:
        tokens, offset = _read_pgm_tokens(raw, 4)
    except MapError as exc:
        raise MapError(f"{pgm_path}: {exc}") from None
    try:
        width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError:
        raise MapError(f"{pgm_path}: non-numeric PGM header fields") from None
    if width < 1 or height < 1:
        raise MapError(f"{pgm_path}: invalid dimensions {width}x{height}")
    if not 0 < maxval <= 255:
        raise MapError(f"{pgm_path}: unsupported maxval {maxval} (need 1..255)")
    payload = raw[offset:]
    if len(payload) != width * height:
        raise MapError(
            f"{pgm_path}: payload has {len(payload)} bytes, header implies {width * height}"
        )
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    if pixels.max() > maxval:
        raise MapError(f"{pgm_path}: pixel value {pixels.max()} exceeds maxval {maxval}")

    meta = json.loads(Path(meta_path).read_text())
    if not isinstance(meta, dict):
        raise MapError(f"{meta_path}: sidecar is not a JSON object")
    keys = ("resolution_m_per_px", "origin_x_m", "origin_y_m")
    for key in keys:
        if key not in meta:
            raise MapError(f"{meta_path}: missing sidecar key '{key}'")
        if isinstance(meta[key], bool) or not isinstance(meta[key], (int, float)):
            raise MapError(f"{meta_path}: sidecar {key} is not a number")
    resolution, ox, oy = (float(meta[k]) for k in keys)
    if not resolution > 0:
        raise MapError(f"{meta_path}: nonpositive resolution {resolution}")
    return OccupancyMap(2 * pixels.astype(int) > maxval, resolution, (ox, oy))


def save_map(occ: OccupancyMap, pgm_path, meta_path=None) -> None:
    """Write an OccupancyMap as P5 PGM (free=255, occupied=0) + JSON sidecar."""
    pgm_path = Path(pgm_path)
    if meta_path is None:
        meta_path = pgm_path.with_suffix(".json")
    header = f"P5\n{occ.width} {occ.height}\n255\n".encode()
    pixels = np.where(occ.free, 255, 0).astype(np.uint8)
    pgm_path.write_bytes(header + pixels.tobytes())
    meta = {
        "resolution_m_per_px": occ.resolution,
        "origin_x_m": occ.origin[0],
        "origin_y_m": occ.origin[1],
    }
    Path(meta_path).write_text(json.dumps(meta, indent=2) + "\n")


def segment_hits_obstacle(occ: OccupancyMap, p0, p1) -> bool:
    """True if the straight segment from p0 to p1 (world coords) crosses any
    occupied cell, the cells of both endpoints included.

    Amanatides-Woo voxel traversal that stops at the first occupied cell;
    cells outside the grid count as occupied.  For callers that test one
    segment at a time; `segments_hit_obstacles` is the batched form.
    """
    x0 = (float(p0[0]) - occ.origin[0]) / occ.resolution
    y0 = (float(p0[1]) - occ.origin[1]) / occ.resolution
    x1 = (float(p1[0]) - occ.origin[0]) / occ.resolution
    y1 = (float(p1[1]) - occ.origin[1]) / occ.resolution
    ix, iy = int(np.floor(x0)), int(np.floor(y0))
    ix1, iy1 = int(np.floor(x1)), int(np.floor(y1))
    if not occ.is_free_cell(ix, iy):
        return True
    dx, dy = x1 - x0, y1 - y0
    step_x = 1 if dx > 0 else -1
    step_y = 1 if dy > 0 else -1
    t_max_x = ((ix + (step_x > 0)) - x0) / dx if dx != 0 else np.inf
    t_max_y = ((iy + (step_y > 0)) - y0) / dy if dy != 0 else np.inf
    t_delta_x = abs(1.0 / dx) if dx != 0 else np.inf
    t_delta_y = abs(1.0 / dy) if dy != 0 else np.inf
    # Bounded by the Manhattan cell distance; guards against float stalls.
    for _ in range(abs(ix1 - ix) + abs(iy1 - iy)):
        if abs(t_max_x - t_max_y) < 1e-12:
            # Exact corner crossing: conservatively check both side cells so
            # the result is independent of traversal direction.
            if not (occ.is_free_cell(ix + step_x, iy)
                    and occ.is_free_cell(ix, iy + step_y)):
                return True
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
        if not occ.is_free_cell(ix, iy):
            return True
        if ix == ix1 and iy == iy1:
            break
    return False


def segments_hit_obstacles(occ: OccupancyMap, p0, p1) -> np.ndarray:
    """(n,) flags: does the segment p0[k] -> p1[k] cross an occupied cell.

    `segment_hits_obstacle` over (n, 2) arrays of world points, with the same
    arithmetic lane by lane, so the flags are identical.  Each iteration
    advances every live lane by one step of its walk; a lane leaves once it
    hits, reaches its end cell or has taken its Manhattan cell distance.
    """
    p0 = np.asarray(p0, dtype=np.float64)
    p1 = np.asarray(p1, dtype=np.float64)
    if p0.ndim != 2 or p0.shape[1:] != (2,) or p1.shape != p0.shape:
        raise ValueError(f"p0 and p1 must both be (n, 2), got {p0.shape} and {p1.shape}")
    if not (np.isfinite(p0).all() and np.isfinite(p1).all()):
        raise ValueError("segment endpoints must be finite")
    # The grid with a one-cell occupied border.  A live lane's cell is inside
    # the grid, so every cell the walk looks at next is inside the border.
    occupied = np.ones((occ.height + 2, occ.width + 2), dtype=bool)
    occupied[1:-1, 1:-1] = ~occ.free
    row, occupied = occupied.shape[1], occupied.ravel()

    def occupied_at(ix, iy):
        return occupied[iy * row + ix + (row + 1)]

    a = (p0 - occ.origin) / occ.resolution  # grid coordinates, x and y
    b = (p1 - occ.origin) / occ.resolution
    cell, end = np.floor(a).astype(np.int64), np.floor(b).astype(np.int64)
    hit = occupied_at(*np.clip(cell, -1, (occ.width, occ.height)).T)
    left = np.abs(end - cell).sum(axis=1)
    d = b - a
    step = np.where(d > 0, 1, -1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_max = np.where(d != 0, ((cell + (step > 0)) - a) / d, np.inf)
        t_delta = np.where(d != 0, np.abs(1.0 / d), np.inf)
    # Live lanes' state, one row per variable, so that dropping the lanes
    # that finished takes two calls.
    live = ~hit & (left > 0)
    lane = np.flatnonzero(live)
    ints = np.compress(live, np.vstack([cell.T, end.T, step.T, left]), axis=1)
    floats = np.compress(live, np.vstack([t_max.T, t_delta.T]), axis=1)
    while lane.size:
        ix, iy, ix1, iy1, step_x, step_y, left = ints
        t_max_x, t_max_y, t_delta_x, t_delta_y = floats
        corner = np.abs(t_max_x - t_max_y) < 1e-12
        # An exact corner crossing also checks both side cells.
        side = corner.any() and (
            corner & (occupied_at(ix + step_x, iy) | occupied_at(ix, iy + step_y)))
        go_x = corner | (t_max_x < t_max_y)
        go_y = corner | ~go_x
        ix += go_x * step_x
        iy += go_y * step_y
        t_max_x[:] = np.where(go_x, t_max_x + t_delta_x, t_max_x)
        t_max_y[:] = np.where(go_y, t_max_y + t_delta_y, t_max_y)
        left -= 1
        now = occupied_at(ix, iy) | side
        hit[lane[now]] = True
        keep = ~now & (left > 0) & ((ix != ix1) | (iy != iy1))
        lane = lane[keep]
        ints = np.compress(keep, ints, axis=1)
        floats = np.compress(keep, floats, axis=1)
    return hit
