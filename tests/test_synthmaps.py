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


class TestGenerators:
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
