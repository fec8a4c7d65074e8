import itertools

import numpy as np
from scipy import ndimage

from mapprior import synthmaps


def connected_free_fraction(occ) -> float:
    labels, n = ndimage.label(occ.free, structure=np.ones((3, 3), dtype=int))
    if n == 0:
        return 0.0
    counts = np.bincount(labels.ravel())
    counts[0] = 0
    return counts.max() / occ.free.sum()


def corridor_rooms_loops(width_cells, height_cells, corridor_cells, door_cells,
                         n_rooms):
    """`corridor_rooms`' grid with every wall and door written out in loops."""
    free = np.zeros((height_cells, width_cells), dtype=bool)
    free[1:-1, 1:-1] = True
    mid, half = height_cells // 2, corridor_cells // 2
    top_wall = mid - half - 1
    bot_wall = mid + (corridor_cells - half)
    free[top_wall, 1:-1] = False
    free[bot_wall, 1:-1] = False
    room_w = (width_cells - 2) // n_rooms
    for k in range(1, n_rooms):
        x = 1 + k * room_w
        free[1:top_wall, x] = False
        free[bot_wall:-1, x] = False
    for k in range(n_rooms):
        cx = 1 + k * room_w + room_w // 2
        free[top_wall, cx : cx + door_cells] = True
        free[bot_wall, cx : cx + door_cells] = True
    return free


def office_floor_loops(width_cells, height_cells, corridor_cells, door_cells):
    """`office_floor`'s grid with every wall and door written out in loops."""
    free = np.zeros((height_cells, width_cells), dtype=bool)
    free[1:-1, 1:-1] = True
    mid_y, mid_x, half = height_cells // 2, width_cells // 2, corridor_cells // 2
    walls_y = (mid_y - half - 1, mid_y + (corridor_cells - half))
    walls_x = (mid_x - half - 1, mid_x + (corridor_cells - half))
    for wy in walls_y:
        free[wy, 1:-1] = False
    for wx in walls_x:
        free[1:-1, wx] = False
    free[walls_y[0] + 1 : walls_y[1], walls_x[0] : walls_x[1] + 1] = True
    free[walls_y[0] : walls_y[1] + 1, walls_x[0] + 1 : walls_x[1]] = True
    quads = [
        (1, walls_y[0], 1, walls_x[0]),
        (1, walls_y[0], walls_x[1] + 1, width_cells - 1),
        (walls_y[1] + 1, height_cells - 1, 1, walls_x[0]),
        (walls_y[1] + 1, height_cells - 1, walls_x[1] + 1, width_cells - 1),
    ]
    for y0, y1, x0, x1 in quads:
        n_rooms = max(1, (x1 - x0) // 14)
        room_w = (x1 - x0) // n_rooms
        for k in range(1, n_rooms):
            free[y0:y1, x0 + k * room_w] = False
        hall_wall = y1 if y1 <= walls_y[0] else y0 - 1
        for k in range(n_rooms):
            cx = x0 + k * room_w + room_w // 2
            free[hall_wall, cx : cx + door_cells] = True
    return free


def hallway_with_rooms_loops(length_cells, hallway_cells, room_depth_cells,
                             door_cells):
    """`hallway_with_rooms`' grid with every wall and door written out in loops."""
    free = np.zeros((room_depth_cells + hallway_cells + 3, length_cells), dtype=bool)
    wall_row = 1 + room_depth_cells
    free[1:wall_row, 1:-1] = True
    free[wall_row + 1 : -1, 1:-1] = True
    room_w = (length_cells - 2) // 4
    for k in range(1, 4):
        free[1:wall_row, 1 + k * room_w] = False
    for k in range(4):
        cx = 1 + k * room_w + room_w // 2
        free[wall_row, cx : cx + door_cells] = True
    return free


class TestGenerators:
    def test_match_loop_oracles(self):
        cases = [
            (synthmaps.corridor_rooms, corridor_rooms_loops,
             itertools.product((12, 25, 48, 61), (10, 48, 53), (1, 4, 6),
                               (1, 2, 5), (1, 2, 3, 7))),
            (synthmaps.office_floor, office_floor_loops,
             itertools.product((20, 45, 96, 130), (22, 60, 96), (2, 5, 6),
                               (1, 3, 4))),
            (synthmaps.hallway_with_rooms, hallway_with_rooms_loops,
             itertools.product((10, 33, 64, 101), (1, 4), (2, 10, 15),
                               (1, 2, 6))),
        ]
        n = 0
        for build, oracle, params in cases:
            for args in params:
                occ = build(*args)
                assert np.array_equal(occ.free, oracle(*args)), (build, args)
                n += 1
        assert n == 432 + 108 + 72

    def test_all_layouts_have_walled_borders(self):
        for occ in (synthmaps.open_box(), synthmaps.corridor_rooms(),
                    synthmaps.office_floor(), synthmaps.hallway_with_rooms()):
            assert not occ.free[0].any() and not occ.free[-1].any()
            assert not occ.free[:, 0].any() and not occ.free[:, -1].any()

    def test_free_space_is_connected(self):
        for occ in (synthmaps.corridor_rooms(), synthmaps.office_floor()):
            assert connected_free_fraction(occ) == 1.0

    def test_resolution_propagates(self):
        occ = synthmaps.corridor_rooms(resolution=0.5)
        assert occ.resolution == 0.5
