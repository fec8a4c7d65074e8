"""Programmatic indoor test maps (all cells, 0.25 m/cell by default)."""

from __future__ import annotations

import numpy as np

from .occupancy import OccupancyMap

DEFAULT_RESOLUTION = 0.25


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

    # Interior walls splitting each side strip into rooms.
    room_w = (width_cells - 2) // n_rooms
    for k in range(1, n_rooms):
        x = 1 + k * room_w
        free[1:top_wall, x] = False
        free[bot_wall:-1, x] = False

    # One door per room into the hallway.
    for k in range(n_rooms):
        cx = 1 + k * room_w + room_w // 2
        free[top_wall, cx : cx + door_cells] = True
        free[bot_wall, cx : cx + door_cells] = True
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

    # Each quadrant: split into rooms along both axes, with doors into the
    # nearest hallway.
    quads = [
        (1, walls_y[0], 1, walls_x[0]),
        (1, walls_y[0], walls_x[1] + 1, width_cells - 1),
        (walls_y[1] + 1, height_cells - 1, 1, walls_x[0]),
        (walls_y[1] + 1, height_cells - 1, walls_x[1] + 1, width_cells - 1),
    ]
    for y0, y1, x0, x1 in quads:
        w = x1 - x0
        n_rooms = max(1, w // 14)
        room_w = w // n_rooms
        for k in range(1, n_rooms):
            free[y0:y1, x0 + k * room_w] = False
        hall_wall = y1 if y1 <= walls_y[0] else y0 - 1
        for k in range(n_rooms):
            cx = x0 + k * room_w + room_w // 2
            free[hall_wall, cx : cx + door_cells] = True
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
    n_rooms = 4
    room_w = (length_cells - 2) // n_rooms
    for k in range(1, n_rooms):
        free[1:wall_row, 1 + k * room_w] = False
    for k in range(n_rooms):
        cx = 1 + k * room_w + room_w // 2
        free[wall_row, cx : cx + door_cells] = True
    return OccupancyMap(free, resolution)
