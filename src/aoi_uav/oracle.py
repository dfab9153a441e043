"""Exact minimum-peak-AoI search on tiny instances.

A level-synchronous search through the real environment step: slot t's
frontier of distinct states is stepped under every joint action as the rows
of `WorldBatch` chunks, one `world.step` call per chunk, which builds no
events.  States are merged on (slot, quantized positions, pending mask,
quantized energies), keeping the first seen.  Data is one-shot here, so an
episode's peak AoI is exactly the largest of each IoT's collection slot (or
the horizon for IoTs never collected), which gives the search optimal
substructure: a backward pass over the levels scores each state by its
best joint action, the first in `product` order on ties.  A step collected
when the running collection tally grew.

The search is a branch and bound, deepened pass by pass.  A state's tour
bound (`_tour_bound`) is the least slot by which its last pending IoT can
be collected, so no completion of the state scores less.  The pass with
bound k scores every child whose tour bound exceeds k as horizon + 1 and
neither keeps nor expands it.  Its root value is exact when it is at most
k, with the unpruned search's witness: every state on that witness path
has a value, hence a bound, of at most k, and every pruned sibling's value
is above k.  Passes run k = root bound, ..., horizon - 1, and the first
exact one is returned.  When none is, the optimum is the horizon; every
joint action then scores the horizon, so the witness is joint 0 throughout.
The pass at k = horizon prunes nothing: it is the exhaustive search.  The
guard, `MAX_STATES`, caps the states of all passes together.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from . import config_io, world
from .config import ConfigError, ScenarioConfig, read_text
from .world import ACTION_NAMES, WorldBatch, WorldState

MAX_UAVS = 2
MAX_IOTS = 4
MAX_HORIZON = 8

# States a solve may reach, summed over its passes.  A pruned pass steps
# almost every state it reaches under all joint actions, so a hard two-UAV
# solve takes about 0.1 ms per state on a 2-CPU VM; at this cap it stops
# within about 6 s and 70 MB there.  The cap still admits the exhaustive
# pass (k = horizon) on the bundled two-UAV instance, 52,566 states.
MAX_STATES = 60_000

# Energy merge resolution (J).  Per-slot drain is tens of joules, so at <= 8
# slots two states whose energies agree to 0.1 J cannot diverge in liveness.
ENERGY_QUANTUM = 0.1

# Rows per `world.step` call in the search.  A chunk holds whole nodes, every
# joint action of each, so it is never a batch of one, which `step_batch`
# would step through `step` and its events.
MAX_CHUNK_ROWS = 1024


class OracleGuardExceeded(ValueError):
    """Instance too large for exact search."""


@dataclass(frozen=True)
class TinyInstance:
    """A grid-aligned scenario restriction small enough to enumerate."""

    config: ScenarioConfig
    iots: tuple[tuple[float, float], ...]
    uavs: tuple[tuple[float, float], ...]
    lbds: tuple[tuple[float, float, float], ...]

    def validate(self) -> None:
        cfg = self.config
        if cfg.n_uavs > MAX_UAVS:
            raise OracleGuardExceeded(f"instance has {cfg.n_uavs} UAVs; max {MAX_UAVS}")
        if cfg.n_iots > MAX_IOTS:
            raise OracleGuardExceeded(f"instance has {cfg.n_iots} IoTs; max {MAX_IOTS}")
        if cfg.horizon > MAX_HORIZON:
            raise OracleGuardExceeded(
                f"instance horizon {cfg.horizon} exceeds max {MAX_HORIZON}")
        cfg.validate()

    def initial_state(self) -> WorldState:
        return world.reset(self.config, self.config.rng_seed,
                           layout=(list(self.iots), list(self.lbds), list(self.uavs)))


def make_instance(config: ScenarioConfig, iots, uavs, lbds) -> TinyInstance:
    cfg = replace(config,
                  n_uavs=len(uavs), n_iots=len(iots), n_lbds=len(lbds),
                  regenerate_on_collect=False)
    inst = TinyInstance(config=cfg,
                        iots=tuple(tuple(p) for p in iots),
                        uavs=tuple(tuple(p) for p in uavs),
                        lbds=tuple(tuple(p) for p in lbds))
    inst.validate()
    return inst


# ---------------------------------------------------------------------------
# Instance files: layout records plus `CFG key value` scenario overrides.
# ---------------------------------------------------------------------------

# Scenario keys that an instance's records and `make_instance` decide: the
# counts, the layout and one-shot collection.  A `CFG` line setting one
# would be ignored, so it is an error.
_RECORD_KEYS = ("n_uavs", "n_iots", "n_lbds", "layout_file", "lbd_layout",
                "regenerate_on_collect")


def parse_instance(text: str) -> TinyInstance:
    """Parse an instance file: CFG overrides plus IOT/UAV/LBD layout records.
    `parse_layout` reads every line but the CFG ones, which it sees blank,
    so its errors name the file's own line numbers."""
    kinds = config_io._field_types(ScenarioConfig)
    overrides: dict = {}
    layout_lines = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = raw.split("#", 1)[0].split()
        if parts and parts[0].upper() == "CFG":
            layout_lines.append("")
            if len(parts) != 3:
                raise ConfigError(f"instance line {lineno}: expected 'CFG key value'")
            key, raw_value = parts[1], parts[2]
            if key not in kinds:
                raise ConfigError(f"instance line {lineno}: unknown instance "
                                  f"config key {key!r}")
            if key in _RECORD_KEYS:
                raise ConfigError(f"instance line {lineno}: CFG {key} cannot be "
                                  f"set; the records place every entity and "
                                  f"collection is one-shot")
            if key in overrides:
                raise ConfigError(f"instance line {lineno}: CFG {key} repeated")
            overrides[key] = config_io._coerce(f"[scenario] {key}", raw_value, kinds[key])
        else:
            layout_lines.append(raw)
    iots, lbds, uavs = world.parse_layout("\n".join(layout_lines))
    if not iots or not uavs or not lbds:
        raise ConfigError("instance needs at least one IOT, UAV and LBD record")
    base = replace(ScenarioConfig(), **overrides)
    return make_instance(base, iots, uavs, lbds)


def load_instance(path: str) -> TinyInstance:
    return parse_instance(read_text(path, "instance"))


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------

@dataclass
class OracleResult:
    optimum: int
    witness: list[tuple[int, ...]]          # joint action per slot, length = horizon
    states_expanded: int = 0

    def witness_text(self) -> str:
        return ",".join("+".join(ACTION_NAMES[a] for a in joint)
                        for joint in self.witness)


def _keys(batch: WorldBatch) -> list[bytes]:
    """The key on which the search merges states, one per episode:
    positions to 1e-6 m (``+ 0.0`` merges -0.0 with 0.0), energies in quanta
    and the pending mask.  Every episode of a level is at the level's slot,
    so the slot is left out."""
    n = len(batch.uav_energy)
    cols = np.concatenate([np.round(batch.uav_pos, 6).reshape(n, -1) + 0.0,
                           np.rint(batch.uav_energy / ENERGY_QUANTUM),
                           batch.has_data], axis=1)
    return cols.view(np.dtype((np.void, cols.shape[1] * cols.itemsize))).ravel().tolist()


def _slots(distance: np.ndarray, step: float) -> np.ndarray:
    """Whole slots of moves of ``step`` metres to close ``distance``, none
    for a distance at or below zero.  The count leans 1e-9 slot toward
    fewer: the world's reach test is a float `<=`, so a distance a hair
    above a whole number of moves must not cost one more slot."""
    return np.ceil(np.maximum(distance, 0.0) / step - 1e-9)


def _tour_bound(instance: TinyInstance):
    """The tour bound as a function ``bound(t, uav_pos, has_data)`` of rows
    at slot t: (n, U, 2) positions and (n, I) pending masks give (n,) slots.

    A UAV collects an IoT within ``comm_radius`` r of it at the end of a
    slot and moves at most step = ``speed * slot_dt`` per slot.  So a UAV's
    first IoT f of its share costs `_slots` of d(uav, f) - r, and each later
    leg a -> b of d(a, b) - 2r (it can be zero: one slot may collect several
    IoTs); a non-empty share costs at least one slot.  The bound is t plus
    the least, over splits of the pending IoTs among the UAVs and orders of
    each share, of the slowest UAV's slots, clamped to the horizon.  Every
    UAV of a state the search reaches is alive (a death ends the episode),
    and the rate gate only delays collection, so no UAV's share is barred.

    The order part depends only on the IoT layout: ``after[s, f]`` is the
    least sum of later legs over orders of subset s (a bit mask) that start
    at f in s, built once per solve over subsets in increasing order.
    """
    cfg = instance.config
    step, r, horizon = cfg.speed * cfg.slot_dt, cfg.comm_radius, cfg.horizon
    half, limit = cfg.area_half_side, cfg.flight_limit
    iots = np.array(instance.iots)
    n_iots = len(iots)
    gap = iots[:, None] - iots
    leg = _slots(np.hypot(gap[..., 0], gap[..., 1]) - 2 * r, step).tolist()
    after = np.full((1 << n_iots, n_iots), np.inf)
    for s in range(1, 1 << n_iots):
        for f in range(n_iots):
            rest = s & ~(1 << f)
            if rest != s:
                after[s, f] = min((leg[f][g] + after[rest, g]
                                   for g in range(n_iots) if rest >> g & 1),
                                  default=0.0)
    # Rows run along the last axis, so numpy's inner loops are long.
    after = after.T[:, None, :, None]                               # (I, 1, S, 1)
    ix, iy = iots[:, 0, None, None], iots[:, 1, None, None]
    bits = 1 << np.arange(n_iots)
    subsets = np.arange(1 << n_iots)[:, None]

    def bound(t: int, uav_pos: np.ndarray, has_data: np.ndarray) -> np.ndarray:
        n = len(uav_pos)
        # A UAV placed outside the flight area starts where the world's
        # clipping puts it, which its first move is within a step of.
        x, y = np.clip(uav_pos, -half, half).T                      # (U, n)
        scale = limit / np.maximum(np.sqrt(x * x + y * y), limit)
        x, y = x * scale - ix, y * scale - iy                       # (I, U, n)
        first = _slots(np.sqrt(x * x + y * y) - r, step)[:, :, None]
        cost = first[0] + after[0]                                  # (U, S, n)
        for f in range(1, n_iots):
            np.minimum(cost, first[f] + after[f], out=cost)
        np.maximum(cost, 1.0, out=cost)
        cost[:, 0] = 0.0
        # cost[u, s, b] is cost[u].ravel()[s * n + b]; a flat `take` gathers
        # twice as fast as fancy indexing.
        pending = bits @ has_data.T
        rows = np.arange(n)
        if len(cost) == 1:
            tour = cost[0].ravel().take(pending * n + rows)
        else:  # the first UAV takes `mine`, the second the rest
            mine = subsets & pending                                # (S, n)
            tour = np.maximum(cost[0].ravel().take(mine * n + rows),
                              cost[1].ravel().take((mine ^ pending) * n + rows)
                              ).min(axis=0)
        return np.minimum(t + tour, horizon)

    return bound


def _expand(frontier: WorldBatch, joints: np.ndarray, cfg: ScenarioConfig,
            k: int, tour, room: int
            ) -> tuple[np.ndarray, np.ndarray, WorldBatch | None, int]:
    """Step every node of ``frontier`` under every joint action, at most
    `MAX_CHUNK_ROWS` rows per `world.step` call, pruning by bound ``k``.

    Returns (floor, child, next level, its size), floor and child (nodes,
    joints).  The value of joint j at node b is the larger of
    ``floor[b, j]`` and the value of next-level node ``child[b, j]``; a
    child of -1 adds nothing.  An open child whose ``tour`` bound exceeds
    k has floor horizon + 1 and child -1; at k = horizon nothing is pruned
    and ``tour`` is not called.  The next level holds the distinct kept
    children in first-occurrence order.  It is None if there are none, and
    also at slot horizon - 1: that level is never stepped, so only its size
    is kept.  Raises `OracleGuardExceeded` once the level passes ``room``
    states.
    """
    horizon = cfg.horizon
    t = frontier.slot + 1
    build = t < horizon - 1
    n_nodes, n_joints = len(frontier.uav_energy), len(joints)
    per_chunk = max(1, MAX_CHUNK_ROWS // n_joints)
    floor = np.empty((n_nodes, n_joints), np.int32)
    child = np.empty((n_nodes, n_joints), np.int32)
    seen: dict[bytes, int] = {}
    parts = []
    for lo in range(0, n_nodes, per_chunk):
        nodes = np.arange(lo, min(lo + per_chunk, n_nodes))
        rows = frontier.take(np.repeat(nodes, n_joints))
        nxt, _, _ = world.step(rows, np.tile(joints, (len(nodes), 1)), cfg)
        shape = (len(nodes), n_joints)
        collected = (nxt.collections > rows.collections).reshape(shape)
        pending = world._rowwise(np.logical_or, nxt.has_data).reshape(shape)
        alive = world._rowwise(np.logical_and, nxt.uav_alive).reshape(shape)
        live = pending & alive
        # A child with nothing pending scores its collection slot t; a
        # pending child that lost a UAV scores the horizon.  (A stepped
        # level is before slot horizon - 1, so no child reaches the horizon.)
        block = np.where(collected, t, 0)
        block[pending & ~live] = horizon
        # A child that collects the last pending IoT scores t, the least any
        # joint can, so its node needs no other child.
        solved = ~world._rowwise(np.logical_and, pending)
        block[solved] = np.where(pending[solved], horizon + 1, t)
        open_rows = np.flatnonzero(live & ~solved[:, None])
        if k < horizon:
            over = tour(t, nxt.uav_pos.take(open_rows, axis=0),
                        nxt.has_data.take(open_rows, axis=0)) > k
            block.flat[open_rows[over]] = horizon + 1
            open_rows = open_rows[~over]
        floor[nodes] = block
        # Number the open children by key; a row is the first of its key
        # when its id is above every id before it.
        keys = _keys(nxt)
        base = len(seen)
        ids = np.array([seen.setdefault(keys[r], len(seen))
                        for r in open_rows.tolist()], np.int32)
        if len(seen) > room:
            raise OracleGuardExceeded(f"search passed {MAX_STATES:,} states")
        links = np.full(len(keys), -1, np.int32)
        links[open_rows] = ids
        child[nodes] = links.reshape(shape)
        if build and len(seen) > base:
            before = np.maximum.accumulate(np.append(np.int32(base - 1), ids[:-1]))
            parts.append(nxt.take(open_rows[ids > before]))
    return floor, child, (WorldBatch.join(parts) if parts else None), len(seen)


def _solve(instance: TinyInstance, k: int, tour=None, spent: int = 0
           ) -> OracleResult:
    """One pass of the search with bound ``k``, after ``spent`` states of
    earlier passes, which its ``states_expanded`` includes.  ``tour`` is
    `_tour_bound`'s function, needed when k < horizon.  The optimum is
    exact when it is at most k, and above k otherwise."""
    cfg = instance.config
    horizon = cfg.horizon
    joints = np.array(list(product(range(cfg.n_actions), repeat=cfg.n_uavs)))

    # Forward: one level per slot, until no live state is left.  A node at
    # slot horizon - 1 scores the horizon whatever it does, so that level is
    # only counted, not built or stepped, and its nodes take joint 0.
    levels = []
    frontier = WorldBatch.of([instance.initial_state()])
    expanded, size = spent + 1, 1
    for _ in range(horizon - 1):
        floor, child, frontier, size = _expand(frontier, joints, cfg, k, tour,
                                               MAX_STATES - expanded)
        levels.append((floor, child))
        expanded += size
        if frontier is None:
            break
    value = np.full(size, horizon, np.int32)

    # Backward: each node takes its first joint of least value.
    choices = [(np.zeros(len(value), np.intp), np.full(len(value), -1, np.int32))]
    for floor, child in reversed(levels):
        score = np.maximum(floor, np.append(value, np.int32(0))[child])
        best = score.argmin(axis=1)
        rows = np.arange(len(best))
        value = score[rows, best]
        choices.append((best, child[rows, best]))
    choices.reverse()

    # The witness follows the chosen children from the root and idles once
    # the episode has ended or nothing is pending.
    idle = tuple(0 for _ in range(cfg.n_uavs))
    witness: list[tuple[int, ...]] = []
    node = 0
    for best, nxt in choices:
        witness.append(tuple(joints[best[node]].tolist()))
        node = int(nxt[node])
        if node < 0:
            break
    witness += [idle] * (horizon - len(witness))
    return OracleResult(optimum=int(value[0]), witness=witness,
                        states_expanded=expanded)


def exact_min_peak_aoi(instance: TinyInstance) -> OracleResult:
    """Minimum achievable episode peak AoI and one witness sequence, by
    passes of bound k from the root's tour bound up."""
    instance.validate()
    cfg = instance.config
    tour = _tour_bound(instance)
    root = instance.initial_state()
    lowest = int(tour(0, root.uav_pos[None], root.has_data[None])[0])
    spent = 0
    for k in range(lowest, cfg.horizon):
        result = _solve(instance, k, tour, spent)
        if result.optimum <= k:
            return result
        spent = result.states_expanded
    idle = tuple(0 for _ in range(cfg.n_uavs))
    return OracleResult(optimum=cfg.horizon, witness=[idle] * cfg.horizon,
                        states_expanded=spent)


def replay_verify(instance: TinyInstance,
                  actions: list[tuple[int, ...]]) -> int:
    """Replay a joint action sequence and return the realized peak AoI.

    Data is one-shot and generated at slot 0, so each recorded age is the
    slot of its collection, and an IoT still pending scores the horizon.
    """
    cfg = instance.config
    if len(actions) != cfg.horizon:
        raise ValueError(f"sequence length {len(actions)} != horizon {cfg.horizon}")
    state = instance.initial_state()
    for joint in actions:
        if world.is_done(state, cfg):
            break
        state, _, _ = world.step(state, list(joint), cfg)
    pending = cfg.horizon if state.has_data.any() else 0
    return max(state.peak_recorded_aoi, pending)
