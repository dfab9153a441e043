"""Seeded generator of tiny oracle instances on the 10 m lattice.

Every instance has one UAV and one charging station at the origin, one to
four IoTs on lattice points, a 7- or 8-slot horizon and no hover action.
The search work of an instance depends on its geometry (4k to 16k
expanded states for random 4-IoT, 8-slot layouts), so random layouts
would make the solve rate depend on the seed.  Instead each seed maps a fixed family of
layouts through a symmetry of the lattice (rotation or reflection) and
shuffles the IoT order.  The eight compass moves are closed under those
symmetries, so every seed expands the same number of states (to within a
few, from search order) while the inputs themselves differ.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from aoi_uav import oracle
from aoi_uav.config import ScenarioConfig

LATTICE_M = 10.0

# (horizon, IoT lattice cells).  One layout per IoT count, growing in cost;
# the last is the 4-IoT, 8-slot size the oracle guard allows.
FAMILY = (
    (7, ((2, 1),)),
    (7, ((1, 2), (-2, 0))),
    (7, ((2, 1), (-1, -1), (0, 2))),
    (8, ((2, 1), (-1, 2), (-2, -1), (1, -3))),
)

# The dihedral group of the square lattice, as (x, y) -> (x', y') maps.
SYMMETRIES = (
    lambda x, y: (x, y), lambda x, y: (-y, x),
    lambda x, y: (-x, -y), lambda x, y: (y, -x),
    lambda x, y: (-x, y), lambda x, y: (x, -y),
    lambda x, y: (y, x), lambda x, y: (-y, -x),
)


def generate(seed: int) -> list[oracle.TinyInstance]:
    """One instance per family layout, transformed by the seed.

    ``oracle.make_instance`` validates each instance against the oracle's
    guard, so only instances inside ``TinyInstance.validate`` are returned.
    """
    rng = np.random.default_rng(seed)
    base = ScenarioConfig()
    out = []
    for horizon, cells in FAMILY:
        sym = SYMMETRIES[int(rng.integers(len(SYMMETRIES)))]
        order = rng.permutation(len(cells))
        iots = [tuple(LATTICE_M * c for c in sym(*cells[i])) for i in order]
        cfg = replace(base, horizon=horizon, speed=LATTICE_M, slot_dt=1.0,
                      comm_radius=LATTICE_M / 2, include_hover_action=False)
        out.append(oracle.make_instance(cfg, iots, [(0.0, 0.0)], [(0.0, 0.0, 0.0)]))
    return out
