"""Discrete-time multi-UAV data collection environment.

`WorldState` holds UAV and IoT state as numpy columns, one row per entity.
One `step` advances all UAVs by one slot in a fixed order, each phase acting
on every UAV at once: movement with boundary clipping, collision detection,
charging assignment, propulsion drain, data collection, AoI bookkeeping, and
reward computation.  A slot's rewards are one `RewardBreakdown`: the
shared AoI term, then one entry per agent.  `observe` builds every agent's
observation in one call.  `step_batch` advances B episodes of one scenario
in lock step: a `WorldBatch` is a `WorldState` whose columns and tallies
have a leading episode axis, and so do the fields of its `RewardBreakdown`.
Each row of its result equals `step` on that episode bit for bit, events
aside.  Training collection and the oracle's frontier search use it;
evaluation, witness replays, the replays that rebuild a training episode's
events and direct callers use `step`, the only builder of events.  Both
keep running tallies, from which `episode_counts` reads an episode's
constraint counts, so no caller scans events.
Everything is deterministic given (config, seed, actions); randomness enters
only through IoT placement at reset.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .config import ConfigError, ScenarioConfig, read_text
from .physics import laser_power_received, propulsion_power, transmission_rate

# Compass actions in index order; diagonals are unit-normalized so every move
# covers exactly speed*dt meters.
ACTION_NAMES = ("N", "NE", "E", "SE", "S", "SW", "W", "NW", "H")
_SQ2 = math.sqrt(2.0) / 2.0
_ACTION_UNIT = np.array([
    (0.0, 1.0), (_SQ2, _SQ2), (1.0, 0.0), (_SQ2, -_SQ2),
    (0.0, -1.0), (-_SQ2, -_SQ2), (-1.0, 0.0), (-_SQ2, _SQ2),
    (0.0, 0.0),
])

EVENT_KINDS = ("move", "clip", "collide", "charge", "drain", "collect", "die")


# Per-scenario constants of a slot, kept for the last few distinct
# arguments.  The arrays are shared, so they are read-only.

@functools.lru_cache(maxsize=8)
def _action_moves(step_length: float) -> np.ndarray:
    """Each action's displacement in one slot, (n_actions, 2)."""
    moves = _ACTION_UNIT * step_length
    moves.flags.writeable = False
    return moves


@functools.lru_cache(maxsize=8)
def _action_drains(propulsion, speed: float, slot_dt: float) -> np.ndarray:
    """Each action's propulsion energy over one slot, (n_actions,): hovering
    for the hover action (index 8), flying at ``speed`` for the others."""
    fly = propulsion_power(propulsion, speed) * slot_dt
    drains = np.array([fly] * 8 + [propulsion_power(propulsion, 0.0) * slot_dt])
    drains.flags.writeable = False
    return drains


@functools.lru_cache(maxsize=8)
def _pair_mask(n: int) -> np.ndarray:
    """(n, n), True where j < k: each UAV pair once."""
    upper = np.less.outer(np.arange(n), np.arange(n))
    upper.flags.writeable = False
    return upper


class EpisodeOver(RuntimeError):
    """step() called on a finished episode."""


class Event(NamedTuple):
    slot: int
    entity_kind: str  # uav | iot
    entity_id: int
    event: str
    value: float


class UavSnapshot(NamedTuple):
    pos: np.ndarray               # (2,) horizontal position, m
    energy: float
    alive: bool
    charging_lbd: int | None


@dataclass
class WorldState:
    """One slot of the world, held column-wise: one row per UAV and one
    entry per IoT.  ``lbds`` and ``iot_pos`` are never written after
    ``reset``, so every state that `step` builds shares them.  Where a
    field has two shapes, the (B, …) one is a `WorldBatch`'s."""

    slot: int
    lbds: np.ndarray              # (L, 3) positions, m
    uav_pos: np.ndarray           # (U, 2) or (B, U, 2): horizontal positions, m
    uav_energy: np.ndarray        # (U,) or (B, U): J
    uav_alive: np.ndarray         # (U,) or (B, U): bool
    charging_lbd: np.ndarray      # (U,) or (B, U): int64 LBD charging it now, -1 none
    iot_pos: np.ndarray           # (I, 2) ground positions, m
    gen_time: np.ndarray          # (I,) or (B, I): int64 slot its data was generated
    has_data: np.ndarray          # (I,) or (B, I): bool
    recorded_aoi: np.ndarray      # (I,) or (B, I): int64 age at its last collection
    iot_energy: np.ndarray        # (I,) or (B, I): J
    peak_recorded_aoi: int = 0    # or (B,) int64: max age over all collections so far
    collections: int = 0          # or (B,) int64: collections so far
    collisions: int = 0           # or (B,) int64: UAV pairs too close, summed over slots
    clips: int = 0                # or (B,) int64: boundary clips so far
    events: list[Event] = field(default_factory=list)  # this slot only; empty on a batch

    @property
    def uavs(self) -> list[UavSnapshot]:
        """A read-only per-UAV snapshot of the UAV columns, kept for
        acceptance criterion 4, which reads ``state.uavs[j].energy``.
        Library code reads the columns."""
        return [UavSnapshot(pos.copy(), energy, alive, None if k < 0 else k)
                for pos, energy, alive, k in zip(
                    self.uav_pos, self.uav_energy.tolist(),
                    self.uav_alive.tolist(), self.charging_lbd.tolist())]

    def iot_ages(self) -> np.ndarray:
        """Per-IoT age: slots since generation if pending, else the age
        recorded at its last collection."""
        return np.where(self.has_data, self.slot - self.gen_time, self.recorded_aoi)


# `WorldState`'s per-episode columns and tallies, each the name of a field;
# a `WorldBatch` gives both a leading episode axis.  The other fields, the
# slot and the shared ``lbds`` and ``iot_pos``, are one per batch.
_COLUMNS = ("uav_pos", "uav_energy", "uav_alive", "charging_lbd", "gen_time",
            "has_data", "recorded_aoi", "iot_energy")
_TALLIES = ("peak_recorded_aoi", "collections", "collisions", "clips")


@dataclass(frozen=True)
class RewardBreakdown:
    """A slot's rewards: ``r_a``, a float shared by the agents, and one
    float64 per agent in each other field, (U,).  `step_batch` gives every
    field a leading episode axis: ``r_a`` (B,), the others (B, U)."""

    r_a: float | np.ndarray   # AoI term
    r_p: np.ndarray           # energy term, with event and death penalties
    r_s: np.ndarray           # collections
    total: np.ndarray         # alpha_a·r_a + beta_p·r_p + gamma_s·r_s


@dataclass(frozen=True)
class EpisodeCounts:
    """Tallies of one completed episode.  Every field but ``collections``
    counts violations of one feasibility constraint; 0 means it held."""

    collections: int      # data collections
    uncollected: int      # IoTs never collected
    low_energy_iots: int  # final IoT energies below the floor
    deaths: int           # UAV batteries that hit zero
    collisions: int       # UAV pairs closer than the collision distance
    clips: int            # boundary clips (flight area)


# ---------------------------------------------------------------------------
# Layout and reset
# ---------------------------------------------------------------------------

_CANONICAL_UAV_OFFSETS = ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0))


def parse_layout(text: str) -> tuple[list, list, list]:
    """Parse a scenario layout file: `IOT x y`, `LBD x y z`, `UAV x y` records."""
    iots, lbds, uavs = [], [], []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0].upper()
        try:
            if kind == "IOT" and len(parts) == 3:
                iots.append((float(parts[1]), float(parts[2])))
            elif kind == "LBD" and len(parts) == 4:
                lbds.append((float(parts[1]), float(parts[2]), float(parts[3])))
            elif kind == "UAV" and len(parts) == 3:
                uavs.append((float(parts[1]), float(parts[2])))
            else:
                raise ValueError
        except ValueError:
            raise ConfigError(f"layout line {lineno}: expected "
                              f"'IOT x y', 'LBD x y z' or 'UAV x y', got {raw!r}")
    return iots, lbds, uavs


def default_lbd_positions(config: ScenarioConfig) -> np.ndarray:
    if config.lbd_layout == "ring" and config.n_lbds > 1:
        angles = 2.0 * math.pi * np.arange(config.n_lbds) / config.n_lbds
        radius = config.charge_radius
        return np.stack([radius * np.cos(angles), radius * np.sin(angles),
                         np.zeros(config.n_lbds)], axis=1)
    out = np.zeros((config.n_lbds, 3))
    return out


def default_uav_positions(config: ScenarioConfig) -> np.ndarray:
    n = config.n_uavs
    if n <= len(_CANONICAL_UAV_OFFSETS):
        return np.array(_CANONICAL_UAV_OFFSETS[:n])
    angles = 2.0 * math.pi * np.arange(n) / n
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def reset(config: ScenarioConfig, seed: int,
          layout: tuple[list, list, list] | None = None) -> WorldState:
    """Build the initial world: fixed UAV spawn ring, seeded IoT placement.

    ``layout`` is an optional (iots, lbds, uavs) position override; when
    absent the config's layout file applies, then the defaults.
    """
    config.validate()
    layout_iots = layout_lbds = layout_uavs = None
    if layout is not None:
        layout_iots, layout_lbds, layout_uavs = layout
    elif config.layout_file:
        layout_iots, layout_lbds, layout_uavs = parse_layout(
            read_text(config.layout_file, "layout"))

    if layout_uavs:
        if len(layout_uavs) != config.n_uavs:
            raise ConfigError(f"layout has {len(layout_uavs)} UAV records, "
                              f"config expects n_uavs={config.n_uavs}")
        uav_pos = np.array(layout_uavs)
    else:
        uav_pos = default_uav_positions(config)

    if layout_lbds:
        if len(layout_lbds) != config.n_lbds:
            raise ConfigError(f"layout has {len(layout_lbds)} LBD records, "
                              f"config expects n_lbds={config.n_lbds}")
        lbds = np.array(layout_lbds)
    else:
        lbds = default_lbd_positions(config)
    for k, (x, y, z) in enumerate(lbds):
        if z >= config.altitude:
            raise ConfigError(f"LBD record {k + 1} ({x:g} {y:g} {z:g}): height "
                              f"must be below altitude {config.altitude:g}")

    if layout_iots:
        if len(layout_iots) != config.n_iots:
            raise ConfigError(f"layout has {len(layout_iots)} IOT records, "
                              f"config expects n_iots={config.n_iots}")
        iot_pos = np.array(layout_iots)
    else:
        rng = np.random.default_rng(seed)
        h = config.area_half_side
        iot_pos = rng.uniform(-h, h, size=(config.n_iots, 2))

    u, n = config.n_uavs, config.n_iots
    return WorldState(slot=0, lbds=lbds,
                      uav_pos=np.array(uav_pos, dtype=float),
                      uav_energy=np.full(u, config.e_init_frac * config.e_full),
                      uav_alive=np.ones(u, dtype=bool),
                      charging_lbd=np.full(u, -1, dtype=np.int64),
                      iot_pos=np.array(iot_pos, dtype=float),
                      gen_time=np.zeros(n, dtype=np.int64),
                      has_data=np.ones(n, dtype=bool),
                      recorded_aoi=np.zeros(n, dtype=np.int64),
                      iot_energy=np.full(n, config.e_iot_init, dtype=float))


# ---------------------------------------------------------------------------
# Dynamics
# ---------------------------------------------------------------------------

def is_done(state: WorldState, config: ScenarioConfig) -> bool:
    return state.slot >= config.horizon or not all(state.uav_alive)


def step(state: WorldState, joint_action: list[int],
         config: ScenarioConfig) -> tuple[WorldState, RewardBreakdown, bool]:
    """Advance one slot; returns (next state, rewards, done).

    A `WorldBatch` with (B, U) actions goes to `step_batch`, so one entry
    point, the one the benchmark's span tracer times, steps an episode or a
    lock-step batch of them.
    """
    if isinstance(state, WorldBatch):
        return step_batch(state, joint_action, config)
    if is_done(state, config):
        raise EpisodeOver(f"episode finished at slot {state.slot}")
    if len(joint_action) != config.n_uavs:
        raise ValueError(f"expected {config.n_uavs} actions, got {len(joint_action)}")
    for a in joint_action:
        if not 0 <= a < config.n_actions:
            raise ValueError(f"action index {a} outside 0..{config.n_actions - 1}")

    # A death ends the episode, so every UAV enters the slot alive.  Each
    # phase works on all UAVs at once and then appends its events UAV by
    # UAV; values that reach events and rewards are Python scalars.
    t = state.slot + 1
    events: list[Event] = []
    n = config.n_uavs
    half = config.area_half_side

    # 1. Movement with square and flight-disc clipping.
    delta = _action_moves(config.speed * config.slot_dt).take(joint_action, axis=0)
    target = state.uav_pos + delta
    pos = np.minimum(np.maximum(target, -half), half)
    radius = np.hypot(pos[:, 0], pos[:, 1]).tolist()
    for j in range(n):
        if radius[j] > config.flight_limit:
            pos[j] *= config.flight_limit / radius[j]
    moved = np.hypot(delta[:, 0], delta[:, 1]).tolist()
    fix = pos - target
    corrections = np.hypot(fix[:, 0], fix[:, 1]).tolist()
    clip_counts = [0] * n
    for j in range(n):
        if moved[j] > 0.0:
            events.append(Event(t, "uav", j, "move", moved[j]))
        if corrections[j] > 1e-12:
            events.append(Event(t, "uav", j, "clip", corrections[j]))
            clip_counts[j] = 1

    # 2. Pairwise collision detection (soft constraint: logged and penalized).
    px, py = pos[:, 0], pos[:, 1]
    collide_counts = [0] * n
    if n > 1:
        gap = np.hypot(px[:, None] - px, py[:, None] - py).tolist()
        for j in range(n):
            for k in range(j + 1, n):
                d = gap[j][k]
                if d < config.collision_dist:
                    collide_counts[j] += 1
                    collide_counts[k] += 1
                    events.append(Event(t, "uav", j, "collide", d))
                    events.append(Event(t, "uav", k, "collide", d))

    # 3. Charging assignment: globally nearest-first, one UAV per LBD and one
    #    LBD per UAV; ties broken by lower UAV then LBD index.
    lbds = state.lbds
    lbd_dist = np.hypot(px[:, None] - lbds[:, 0], py[:, None] - lbds[:, 1]).tolist()
    candidates = sorted((dh, j, k) for j, row in enumerate(lbd_dist)
                        for k, dh in enumerate(row) if dh <= config.charge_radius)
    charge_gain = [0.0] * n
    charging = [-1] * n
    used_lbd: set[int] = set()
    for dh, j, k in candidates:
        if charging[j] >= 0 or k in used_lbd:
            continue
        charging[j] = k
        used_lbd.add(k)
        beam_height = config.altitude - float(lbds[k][2])
        power = laser_power_received(config.laser, dh, beam_height)
        charge_gain[j] = power * config.slot_dt
        events.append(Event(t, "uav", j, "charge", charge_gain[j]))

    # 4. Propulsion drain and the energy update; an empty battery kills the
    #    UAV and ends the episode.
    drains = _action_drains(config.propulsion, config.speed, config.slot_dt).tolist()
    energy = state.uav_energy.tolist()
    died = [False] * n
    for j in range(n):
        drain = drains[joint_action[j]]
        events.append(Event(t, "uav", j, "drain", drain))
        energy[j] = min(max(energy[j] + charge_gain[j] - drain, 0.0), config.e_full)
        if energy[j] <= 0.0:
            died[j] = True
            events.append(Event(t, "uav", j, "die", float(t)))

    nxt = WorldState(t, lbds, pos, np.array(energy), np.logical_not(died),
                     np.array(charging), state.iot_pos, state.gen_time.copy(),
                     state.has_data.copy(), state.recorded_aoi.copy(),
                     state.iot_energy.copy(), state.peak_recorded_aoi,
                     state.collections, state.collisions + sum(collide_counts) // 2,
                     state.clips + sum(clip_counts), events)

    # 5. Data collection: one collector per IoT (nearest alive UAV in range,
    #    lower UAV index on ties), a UAV may collect several IoTs in the same
    #    slot.  A dead UAV's distances are infinite.
    collect_counts = [0] * n
    offset = state.iot_pos[:, None] - pos
    dist = np.hypot(offset[..., 0], offset[..., 1])                # (I, U)
    if any(died):
        dist[:, died] = np.inf
    in_range = np.flatnonzero(
        nxt.has_data & (dist.min(axis=1) <= config.comm_radius)).tolist()
    for i, row in zip(in_range, dist[in_range].tolist()):
        d = min(row)
        j = row.index(d)  # the lower UAV index on ties
        if config.rate_gated_collection:
            rate = transmission_rate(config.channel, d, config.altitude)
            if rate * config.slot_dt < config.data_volume:
                continue
        age = t - int(nxt.gen_time[i])
        nxt.recorded_aoi[i] = age
        nxt.iot_energy[i] = max(
            nxt.iot_energy[i] - config.channel.tx_power_w * config.slot_dt, 0.0)
        if config.regenerate_on_collect:
            nxt.gen_time[i] = t
        else:
            nxt.has_data[i] = False
        collect_counts[j] += 1
        nxt.collections += 1
        events.append(Event(t, "iot", i, "collect", float(j)))
        nxt.peak_recorded_aoi = max(nxt.peak_recorded_aoi, age)

    done = t >= config.horizon or any(died)

    # 6/7. Rewards from the updated state and this slot's event tallies; the
    #      nearest-LBD distance is the row minimum of the charging matrix.
    r_a = -peak_aoi(nxt) / config.aoi_norm
    r_p, r_s, total = np.array([
        _reward(min(lbd_dist[j]), energy[j], collect_counts[j],
                collide_counts[j] + clip_counts[j], died[j], r_a, config)
        for j in range(n)]).T
    return nxt, RewardBreakdown(r_a, r_p, r_s, total), done


def _reward(d_lbd: float, energy: float, collected: int, penal_events: int,
            died: bool, r_a: float, config: ScenarioConfig
            ) -> tuple[float, float, float]:
    """One agent's ``(r_p, r_s, total)`` for one slot, in Python floats."""
    rw = config.reward
    d_c = max(0.0, d_lbd - config.charge_radius)
    if energy <= config.e_charge_threshold:
        r_p = -d_c * rw.r_pen1
    elif abs(energy - config.e_full) <= config.epsilon_energy:
        r_p = -d_c * rw.r_pen2
    else:
        r_p = rw.r_0
    r_p -= rw.event_penalty * penal_events
    if died:
        r_p -= rw.death_penalty
    r_s = float(collected)
    total = rw.alpha_a * r_a + rw.beta_p * r_p + rw.gamma_s * r_s
    return r_p, r_s, total


def peak_aoi(state: WorldState) -> int:
    """Network peak AoI including ages of still-pending data."""
    oldest = min(state.gen_time[state.has_data].tolist(), default=state.slot)
    return max(state.peak_recorded_aoi, state.slot - oldest)


# ---------------------------------------------------------------------------
# Lock-step batches
# ---------------------------------------------------------------------------

class WorldBatch(WorldState):
    """B running episodes of one scenario at the same slot: `WorldState`
    whose columns and tallies have a leading episode axis.  ``lbds`` and
    ``iot_pos`` are shared by every episode.  Its ``events`` stay empty."""

    @classmethod
    def of(cls, states: list[WorldState]) -> "WorldBatch":
        """The episodes ``states``, all at one slot, as a batch; a batch of
        one shares the state's columns."""
        def rows(name):
            if name in _TALLIES:
                return np.array([getattr(st, name) for st in states], dtype=np.int64)
            if len(states) == 1:
                return getattr(states[0], name)[None]
            return np.stack([getattr(st, name) for st in states])

        return _like(cls, states[0], rows)

    @classmethod
    def join(cls, parts: list["WorldBatch"]) -> "WorldBatch":
        """The episodes of ``parts``, all at one slot, as one batch in
        order."""
        return _like(cls, parts[0],
                     lambda name: np.concatenate([getattr(p, name) for p in parts]))

    def take(self, keep: np.ndarray | list[int]) -> "WorldBatch":
        """The episodes that ``keep`` selects: a mask, or indices in order.
        Rows are gathered with ``ndarray.take``, a mask first becoming its
        indices: at oracle chunk sizes that is several times faster than
        indexing the (B, U, 2) and (B, I) columns with ``column[keep]``,
        and gives the same arrays."""
        index = np.asarray(keep)
        if index.dtype == bool or not index.size:  # [] reads as floats
            index = np.flatnonzero(index)
        return _like(WorldBatch, self,
                     lambda name: getattr(self, name).take(index, axis=0))

    def row(self, b: int) -> WorldState:
        """Episode ``b`` as a `WorldState` that shares the batch's columns,
        with no events; its tallies are Python ints."""
        def column(name):
            value = getattr(self, name)[b]
            return int(value) if name in _TALLIES else value

        return _like(WorldState, self, column)


def _like(cls, shared, per_episode):
    """A ``cls`` with ``shared``'s slot, ``lbds`` and ``iot_pos``, and
    ``per_episode(name)`` as each of its columns and tallies."""
    return cls(slot=shared.slot, lbds=shared.lbds, iot_pos=shared.iot_pos,
               **{name: per_episode(name) for name in (*_COLUMNS, *_TALLIES)})


def step_batch(batch: WorldBatch, actions: np.ndarray, config: ScenarioConfig
               ) -> tuple[WorldBatch, RewardBreakdown, np.ndarray]:
    """Advance every episode of ``batch`` one slot; ``actions`` is (B, U).
    Returns the next batch, the rewards as one `RewardBreakdown` of arrays
    and which episodes ended, (B,).

    Row b of the result equals `step` on episode b bit for bit: state,
    tallies, rewards and done; no events are built.  Every phase acts on
    all B·U UAVs at once.  Two loops remain, neither over rows: charging
    assignment runs once per round of min(U, L), and `_argmin_min` walks
    the short UAV or UAV·LBD axis one column at a time.  Reductions over
    such a short trailing axis go through `_rowwise`.  The scalar physics
    runs once per distinct distance (`_per_distinct`), so no Python runs
    per row.  A batch of one episode goes through `step` (`_step_rows`),
    which is faster on a single row even with the conversion to and from a
    batch.  Training collection steps its lock-step episodes here, and the
    oracle steps each slot's frontier times every joint action, in chunks.
    """
    n = config.n_uavs
    actions = np.asarray(actions)
    if actions.shape != batch.uav_energy.shape:
        raise ValueError(f"expected actions of shape {batch.uav_energy.shape}, "
                         f"got {actions.shape}")
    if len(actions) == 1:
        return _step_rows(batch, actions, config)
    if batch.slot >= config.horizon or not batch.uav_alive.all():
        raise EpisodeOver(f"batch holds a finished episode at slot {batch.slot}")
    if not 0 <= actions.min() <= actions.max() < config.n_actions:
        raise ValueError(f"action index outside 0..{config.n_actions - 1}")
    t = batch.slot + 1
    half = config.area_half_side
    B = len(actions)
    lbds = batch.lbds
    n_lbds = len(lbds)

    # 1. Movement with square and flight-disc clipping.
    delta = _action_moves(config.speed * config.slot_dt).take(actions, axis=0)
    target = batch.uav_pos + delta                                    # (B, U, 2)
    pos = np.minimum(np.maximum(target, -half), half)
    # Pulled back onto the flight disc: scaled by limit / radius outside it,
    # by exactly 1 inside.
    radius = np.hypot(pos[..., 0], pos[..., 1])
    pos *= (config.flight_limit / np.maximum(radius, config.flight_limit))[..., None]
    fix = pos - target
    clipped = np.hypot(fix[..., 0], fix[..., 1]) > 1e-12

    # Every UAV's distance to every LBD and IoT, (B, U, L + I), in one call
    # for charging, collection and rewards.
    off = pos[:, :, None, :] - np.concatenate((lbds[:, :2], batch.iot_pos))
    reach = np.hypot(off[..., 0], off[..., 1])
    lbd_dist = reach[..., :n_lbds]

    # 2. Pairwise collisions, pairs j < k; one UAV has none.
    penalized = clipped                  # per UAV: its clip and collisions
    collisions = batch.collisions
    if n > 1:
        apart = pos[:, :, None, :] - pos[:, None, :, :]
        gap = np.hypot(apart[..., 0], apart[..., 1])                  # (B, U, U)
        close = (gap < config.collision_dist) & _pair_mask(n)
        pairs = _rowwise(np.add, close)            # pairs (j, k) by their j
        penalized = clipped + pairs + close.sum(axis=1)
        collisions = collisions + _rowwise(np.add, pairs)

    # 3. Charging: each round gives every episode its nearest open
    #    (UAV, LBD) pair, lower UAV then LBD index on ties, which is the
    #    order in which `step` walks its sorted candidates.
    open_dist = np.where(lbd_dist <= config.charge_radius, lbd_dist, np.inf)
    charging = np.full((B, n), -1, dtype=np.int64)
    rounds = min(n, n_lbds)
    for r in range(rounds):
        best, nearest = _argmin_min(open_dist.reshape(B, -1))
        rows = np.flatnonzero(np.isfinite(nearest))
        if not rows.size:
            break
        uav, lbd = np.divmod(best[rows], n_lbds)
        charging[rows, uav] = lbd
        if r + 1 < rounds:  # no round after the last reads its writes
            open_dist[rows, uav, :] = np.inf
            open_dist[rows, :, lbd] = np.inf
    # Laser power for every charging UAV at once, one call per distinct
    # (beam height, distance).  The beam heights are those of the L LBDs.
    charge_gain = np.zeros((B, n))
    b, j = np.nonzero(charging >= 0)
    if b.size:
        k = charging[b, j]
        charge_dist = lbd_dist[b, j, k]
        beam = config.altitude - lbds[:, 2]                           # (L,)
        charge_beam = beam.take(k)
        power = np.empty(len(b))
        for height in set(beam.tolist()):
            group = charge_beam == height
            power[group] = _per_distinct(
                lambda d: laser_power_received(config.laser, d, height),
                charge_dist[group])
        charge_gain[b, j] = power * config.slot_dt

    # 4. Propulsion drain and the energy update.
    drain = _action_drains(config.propulsion, config.speed, config.slot_dt).take(actions)
    energy = np.minimum(np.maximum(batch.uav_energy + charge_gain - drain, 0.0),
                        config.e_full)
    died = energy <= 0.0
    any_died = died.any()

    # 5. Data collection: the nearest alive UAV in range collects.
    dist = np.swapaxes(reach[..., n_lbds:], 1, 2)                    # (B, I, U)
    if any_died:
        dist[np.broadcast_to(died[:, None, :], dist.shape)] = np.inf
    collector, collector_dist = _argmin_min(dist)   # lower UAV on ties
    hit = batch.has_data & (collector_dist <= config.comm_radius)
    if config.rate_gated_collection and hit.any():
        sent = np.nonzero(hit)
        rate = _per_distinct(
            lambda d: transmission_rate(config.channel, d, config.altitude),
            collector_dist[sent])
        hit[sent] = ~(rate * config.slot_dt < config.data_volume)
    age = t - batch.gen_time
    recorded_aoi = np.where(hit, age, batch.recorded_aoi)
    tx_energy = config.channel.tx_power_w * config.slot_dt
    iot_energy = np.where(hit, np.maximum(batch.iot_energy - tx_energy, 0.0),
                          batch.iot_energy)
    if config.regenerate_on_collect:
        gen_time, has_data = np.where(hit, t, batch.gen_time), batch.has_data
    else:
        gen_time, has_data = batch.gen_time, batch.has_data & ~hit
    collector_of_hit = (np.arange(0, B * n, n)[:, None] + collector)[hit]  # b·U + j
    collect_counts = np.bincount(collector_of_hit, minlength=B * n).reshape(B, n)
    peak_recorded = np.maximum(batch.peak_recorded_aoi,
                               _rowwise(np.maximum, np.where(hit, age, 0)))

    nxt = WorldBatch(t, lbds, pos, energy, ~died, charging, batch.iot_pos,
                     gen_time, has_data, recorded_aoi, iot_energy, peak_recorded,
                     batch.collections + _rowwise(np.add, hit), collisions,
                     batch.clips + _rowwise(np.add, clipped))

    # 6/7. Rewards, as `_reward` computes them.
    oldest = _rowwise(np.minimum, np.where(has_data, gen_time, t))
    r_a = -np.maximum(peak_recorded, t - oldest) / config.aoi_norm
    rw = config.reward
    away = -np.maximum(0.0, _rowwise(np.minimum, lbd_dist) - config.charge_radius)
    r_p = np.where(energy <= config.e_charge_threshold, away * rw.r_pen1,
                   np.where(np.abs(energy - config.e_full) <= config.epsilon_energy,
                            away * rw.r_pen2, rw.r_0))
    r_p = r_p - rw.event_penalty * penalized
    if any_died:
        r_p = np.where(died, r_p - rw.death_penalty, r_p)
    r_s = collect_counts.astype(float)
    total = rw.alpha_a * r_a[:, None] + rw.beta_p * r_p + rw.gamma_s * r_s
    return (nxt, RewardBreakdown(r_a, r_p, r_s, total),
            _rowwise(np.logical_or, died) | (t >= config.horizon))


def _rowwise(ufunc: np.ufunc, x: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(x, axis=-1)`` on a column-major copy of an ``x``
    whose last axis is short (U, I or U·L).  With `np.add`, `np.maximum`,
    `np.minimum`, `np.logical_or` or `np.logical_and` it gives the value
    and dtype of `np.sum`, `max`, `min`, `any` or `all` over that axis.
    numpy reduces a short trailing axis of a C-ordered array a few elements
    at a time, and the copy a whole column at a time: at about a thousand
    rows, several times faster."""
    return ufunc.reduce(np.asfortranarray(x), axis=-1)


def _argmin_min(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(x.argmin(axis=-1), x.min(axis=-1))`` for a float ``x`` whose last
    axis is short, walking that axis one column at a time.  A later column
    wins only when strictly less, so ties go to the lower index, as with
    `argmin`."""
    low = x[..., 0].copy()
    index = np.zeros(low.shape, np.intp)
    for k in range(1, x.shape[-1]):
        column = x[..., k]
        lower = column < low
        np.copyto(index, k, where=lower)
        np.copyto(low, column, where=lower)
    return index, low


def _per_distinct(f, x: np.ndarray) -> np.ndarray:
    """``[f(v) for v in x]`` as an array, calling ``f`` once per distinct
    value of the 1-D float array ``x``, so each entry is f's result bit for
    bit.  Values that compare equal share one call, so -0.0 and 0.0 do too;
    distances from `np.hypot` are never -0.0."""
    xs = x.copy()
    xs.sort()
    first = np.empty(len(xs), bool)
    first[:1] = True
    np.not_equal(xs[1:], xs[:-1], out=first[1:])
    distinct = xs[first]
    values = np.array([f(v) for v in distinct.tolist()], dtype=float)
    return values[distinct.searchsorted(x)]


def _step_rows(batch: WorldBatch, actions: np.ndarray, config: ScenarioConfig
               ) -> tuple[WorldBatch, RewardBreakdown, np.ndarray]:
    """`step_batch` of a one-episode batch, through `step`, lifted to a
    leading episode axis of one."""
    state, r, done = step(batch.row(0), actions[0].tolist(), config)
    return (WorldBatch.of([state]),
            RewardBreakdown(np.array([r.r_a]), r.r_p[None], r.r_s[None],
                            r.total[None]),
            np.array([done]))


# ---------------------------------------------------------------------------
# Observations and global state
# ---------------------------------------------------------------------------

def observe(state: WorldState | WorldBatch, agent: int | None,
            config: ScenarioConfig) -> np.ndarray:
    """Fixed-width local observation: own pose and energy, the K nearest
    IoTs (relative position, age, data flag), and the nearest LBD offset.

    ``agent`` None observes every agent at once, one row each, (U, obs_dim);
    an agent index gives that agent's row alone, (obs_dim,).  A `WorldBatch`
    gives the same with a leading episode axis.
    """
    agents = slice(None) if agent is None else [agent]
    alive = state.uav_alive[..., agents]
    if not alive.all():
        dead = np.arange(config.n_uavs)[agents][
            ~alive.reshape(-1, alive.shape[-1]).all(axis=0)]
        raise ValueError(f"agent {int(dead[0])} is not alive")
    half = config.area_half_side
    span = 2.0 * half
    pos = state.uav_pos[..., agents, :]                           # (…, N, 2)
    out = np.zeros(pos.shape[:-1] + (config.obs_dim,))
    out[..., :2] = pos / half
    out[..., 2] = state.uav_energy[..., agents] / config.e_full

    offset = state.iot_pos - pos[..., None, :]                    # (…, N, I, 2)
    # A stable sort keeps the lower IoT index first among equal distances.
    near = np.argsort(np.hypot(offset[..., 0], offset[..., 1]), axis=-1,
                      kind="stable")[..., :config.obs_k_nearest]   # (…, N, K)
    rows = np.empty(near.shape + (4,))
    rows[..., :2] = (state.iot_pos[near] - pos[..., None, :]) / span
    rows[..., 2] = _per_episode(state.iot_ages(), near) / config.aoi_norm
    rows[..., 3] = _per_episode(state.has_data, near)
    out[..., 3:3 + 4 * near.shape[-1]] = rows.reshape(near.shape[:-1] + (-1,))

    lbd_x, lbd_y = state.lbds[:, 0], state.lbds[:, 1]
    k = np.argmin(np.hypot(lbd_x - pos[..., :1], lbd_y - pos[..., 1:]), axis=-1)
    out[..., -2:] = (state.lbds[k, :2] - pos) / span
    return out if agent is None else out[..., 0, :]


def _per_episode(column: np.ndarray, near: np.ndarray) -> np.ndarray:
    """``column[near]`` for one episode's IoT column (I,), or row by row for
    a batch's (B, I) column and (B, N, K) indices."""
    if column.ndim == 1:
        return column[near]
    return column[np.arange(len(column))[:, None, None], near]


def global_state_vector(state: WorldState | WorldBatch,
                        config: ScenarioConfig) -> np.ndarray:
    """Centralized-training state: all UAV poses/energies, all IoT ages/flags;
    (global_state_dim,), or one row per episode of a `WorldBatch`."""
    half = config.area_half_side
    out = np.zeros(state.uav_energy.shape[:-1] + (config.global_state_dim,))
    base = 3 * config.n_uavs
    out[..., 0:base:3] = state.uav_pos[..., 0] / half
    out[..., 1:base:3] = state.uav_pos[..., 1] / half
    out[..., 2:base:3] = state.uav_energy / config.e_full
    out[..., base::2] = state.iot_ages() / config.aoi_norm
    out[..., base + 1::2] = state.has_data
    return out


# ---------------------------------------------------------------------------
# Episode counts and event serialization
# ---------------------------------------------------------------------------

def episode_counts(state: WorldState, config: ScenarioConfig) -> EpisodeCounts:
    """The counts of the episode that ended in ``state``, from its tallies
    and final columns.  Every collection records an age of at least 1, so an
    IoT with recorded age 0 was never collected; a death ends the episode,
    so its dead UAVs are its deaths."""
    return EpisodeCounts(
        collections=state.collections,
        uncollected=int(np.count_nonzero(state.recorded_aoi == 0)),
        low_energy_iots=int(np.count_nonzero(state.iot_energy < config.e_iot_floor)),
        deaths=int(np.count_nonzero(~state.uav_alive)),
        collisions=state.collisions,
        clips=state.clips)


EVENT_CSV_HEADER = "slot,entity_kind,entity_id,event,value"


def events_to_csv(events: list[Event]) -> str:
    lines = [EVENT_CSV_HEADER]
    for e in events:
        lines.append(f"{e.slot},{e.entity_kind},{e.entity_id},{e.event},{e.value!r}")
    return "\n".join(lines) + "\n"


def states_equal(a: WorldState, b: WorldState) -> bool:
    """Bitwise equality of two world states (for determinism checks)."""
    return (all(getattr(a, name) == getattr(b, name) for name in ("slot", *_TALLIES))
            and all(np.array_equal(getattr(a, name), getattr(b, name))
                    for name in ("lbds", "iot_pos", *_COLUMNS))
            and a.events == b.events)
