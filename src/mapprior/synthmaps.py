"""Programmatic indoor test maps (all cells, 0.25 m/cell by default)."""

from __future__ import annotations

import numpy as np

from .occupancy import OccupancyMap

DEFAULT_RESOLUTION = 0.25


def _rooms(free: np.ndarray, rows: slice, x0: int, x1: int, n_rooms: int,
           door_row: int, door_cells: int) -> None:
    """Wall `rows` between columns x0 and x1 into n_rooms equal rooms, then
    open a door_cells-wide door on door_row in the middle of each room."""
    room_w = (x1 - x0) // n_rooms
    for k in range(1, n_rooms):
        free[rows, x0 + k * room_w] = False
    for k in range(n_rooms):
        cx = x0 + k * room_w + room_w // 2
        free[door_row, cx : cx + door_cells] = True


def open_box(width_cells: int = 40, height_cells: int = 40,
             resolution: float = DEFAULT_RESOLUTION) -> OccupancyMap:
    """Open rectangular room with a 1-cell wall border."""
    free = np.zeros((height_cells, width_cells), dtype=bool)
    free[1:-1, 1:-1] = True
    return OccupancyMap(free, resolution)


def corridor_rooms(width_cells: int = 48, height_cells: int = 48,
                   corridor_cells: int = 6, door_cells: int = 2,
                   n_rooms: int = 3,
                   resolution: float = DEFAULT_RESOLUTION) -> OccupancyMap:
    """Central horizontal hallway with rooms above and below, joined by doors.

    The layout reproduces the classic failure case for overlap heuristics:
    rooms sit directly alongside the hallway, separated by a 1-cell wall with
    narrow door gaps.
    """
    free = np.zeros((height_cells, width_cells), dtype=bool)
    free[1:-1, 1:-1] = True

    mid = height_cells // 2
    half = corridor_cells // 2
    top_wall = mid - half - 1
    bot_wall = mid + (corridor_cells - half)
    free[top_wall, 1:-1] = False
    free[bot_wall, 1:-1] = False

    # Rooms above and below the hallway, each with a door into it.
    _rooms(free, slice(1, top_wall), 1, width_cells - 1, n_rooms, top_wall,
           door_cells)
    _rooms(free, slice(bot_wall, -1), 1, width_cells - 1, n_rooms, bot_wall,
           door_cells)
    return OccupancyMap(free, resolution)


def office_floor(width_cells: int = 96, height_cells: int = 96,
                 corridor_cells: int = 6, door_cells: int = 3,
                 resolution: float = DEFAULT_RESOLUTION) -> OccupancyMap:
    """Two crossing hallways with four quadrants of rooms.

    Larger layout whose hallways and room sizes are big relative to a few
    seconds of walking, closer to a real building floor.
    """
    free = np.zeros((height_cells, width_cells), dtype=bool)
    free[1:-1, 1:-1] = True
    mid_y = height_cells // 2
    mid_x = width_cells // 2
    half = corridor_cells // 2

    walls_y = (mid_y - half - 1, mid_y + (corridor_cells - half))
    walls_x = (mid_x - half - 1, mid_x + (corridor_cells - half))
    for wy in walls_y:
        free[wy, 1:-1] = False
    for wx in walls_x:
        free[1:-1, wx] = False
    # Reopen the hallway crossing.
    free[walls_y[0] + 1 : walls_y[1], walls_x[0] : walls_x[1] + 1] = True
    free[walls_y[0] : walls_y[1] + 1, walls_x[0] + 1 : walls_x[1]] = True

    # Each quadrant: a row of rooms with doors into the horizontal hallway.
    for rows, hall_wall in ((slice(1, walls_y[0]), walls_y[0]),
                            (slice(walls_y[1] + 1, -1), walls_y[1])):
        for x0, x1 in ((1, walls_x[0]), (walls_x[1] + 1, width_cells - 1)):
            _rooms(free, rows, x0, x1, max(1, (x1 - x0) // 14), hall_wall, door_cells)
    return OccupancyMap(free, resolution)


def hallway_with_rooms(length_cells: int = 64, hallway_cells: int = 4,
                       room_depth_cells: int = 10, door_cells: int = 2,
                       resolution: float = DEFAULT_RESOLUTION) -> OccupancyMap:
    """Long narrow hallway with a row of rooms directly above it."""
    h = room_depth_cells + hallway_cells + 3
    free = np.zeros((h, length_cells), dtype=bool)
    wall_row = 1 + room_depth_cells
    free[1:wall_row, 1:-1] = True          # rooms strip
    free[wall_row + 1 : -1, 1:-1] = True   # hallway
    _rooms(free, slice(1, wall_row), 1, length_cells - 1, 4, wall_row,
           door_cells)
    return OccupancyMap(free, resolution)
