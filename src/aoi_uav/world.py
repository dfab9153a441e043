"""Discrete-time multi-UAV data collection environment.

`WorldState` holds UAV and IoT state as numpy columns, one row per entity.
One `step` advances all UAVs by one slot in a fixed order, each phase acting
on every UAV at once: movement with boundary clipping, collision detection,
charging assignment, propulsion drain, data collection, AoI bookkeeping, and
reward computation.  `observe` builds every agent's observation in one call.
`step_batch` advances B episodes of one scenario in lock step, with
`WorldState`'s columns given a leading episode axis (`WorldBatch`); each of
its rows equals `step` on that episode bit for bit.  Training collection
uses it; evaluation, the oracle and direct callers use `step`.
Everything is deterministic given (config, seed, actions); randomness enters
only through IoT placement at reset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .config import ConfigError, ScenarioConfig
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
    ``reset``, so every state that `step` builds shares them."""

    slot: int
    lbds: np.ndarray              # (L, 3) positions, m
    uav_pos: np.ndarray           # (U, 2) horizontal positions, m
    uav_energy: np.ndarray        # (U,) J
    uav_alive: np.ndarray         # (U,) bool
    charging_lbd: np.ndarray      # (U,) int64 LBD charging the UAV this slot, -1 none
    iot_pos: np.ndarray           # (I, 2) ground positions, m
    gen_time: np.ndarray          # (I,) int64 slot the buffered data was generated
    has_data: np.ndarray          # (I,) bool
    recorded_aoi: np.ndarray      # (I,) int64 age at the most recent collection
    iot_energy: np.ndarray        # (I,) J
    peak_recorded_aoi: int = 0    # max age over all collections so far
    events: list[Event] = field(default_factory=list)  # current slot only

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


@dataclass(frozen=True)
class RewardBreakdown:
    r_a: float
    r_p: float
    r_s: float
    total: float


@dataclass
class EpisodeLog:
    """Accumulated events plus the final state of one episode."""

    config: ScenarioConfig
    events: list[Event] = field(default_factory=list)
    final_state: WorldState | None = None

    def absorb(self, state: WorldState) -> None:
        self.events.extend(state.events)
        self.final_state = state


@dataclass(frozen=True)
class EpisodeCounts:
    """Tallies of one completed episode.  Every field but ``collections``
    counts violations of one feasibility constraint; 0 means it held."""

    collections: int      # collect events
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
        with open(config.layout_file, "r", encoding="utf-8") as fh:
            layout_iots, layout_lbds, layout_uavs = parse_layout(fh.read())

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


def _nearest_lbd_horizontal(pos: np.ndarray, lbds: np.ndarray) -> tuple[int, float]:
    d = np.hypot(lbds[:, 0] - pos[0], lbds[:, 1] - pos[1])
    k = int(np.argmin(d))
    return k, float(d[k])


def step(state: WorldState, joint_action: list[int],
         config: ScenarioConfig) -> tuple[WorldState, list[RewardBreakdown], bool]:
    """Advance one slot; returns (next state, per-agent rewards, done).

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
    delta = _ACTION_UNIT.take(joint_action, axis=0) * (config.speed * config.slot_dt)
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

    # 4. Propulsion drain, one power evaluation per distinct speed, and the
    #    energy update; an empty battery kills the UAV and ends the episode.
    speeds = [0.0 if a == 8 else config.speed for a in joint_action]
    drain_at = {v: propulsion_power(config.propulsion, v) * config.slot_dt
                for v in set(speeds)}
    energy = state.uav_energy.tolist()
    died = [False] * n
    for j in range(n):
        drain = drain_at[speeds[j]]
        events.append(Event(t, "uav", j, "drain", drain))
        energy[j] = min(max(energy[j] + charge_gain[j] - drain, 0.0), config.e_full)
        if energy[j] <= 0.0:
            died[j] = True
            events.append(Event(t, "uav", j, "die", float(t)))

    nxt = WorldState(t, lbds, pos, np.array(energy), np.logical_not(died),
                     np.array(charging), state.iot_pos, state.gen_time.copy(),
                     state.has_data.copy(), state.recorded_aoi.copy(),
                     state.iot_energy.copy(), state.peak_recorded_aoi, events)

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
        events.append(Event(t, "iot", i, "collect", float(j)))
        nxt.peak_recorded_aoi = max(nxt.peak_recorded_aoi, age)

    done = t >= config.horizon or any(died)

    # 6/7. Rewards from the updated state and this slot's event tallies; the
    #      nearest-LBD distance is the row minimum of the charging matrix.
    r_a = -peak_aoi(nxt) / config.aoi_norm
    rewards = [
        _reward(min(lbd_dist[j]), energy[j], collect_counts[j],
                collide_counts[j] + clip_counts[j], died[j], r_a, config)
        for j in range(n)
    ]
    return nxt, rewards, done


def _reward(d_lbd: float, energy: float, collected: int, penal_events: int,
            died: bool, r_a: float, config: ScenarioConfig) -> RewardBreakdown:
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
    return RewardBreakdown(r_a=r_a, r_p=r_p, r_s=r_s, total=total)


def peak_aoi(state: WorldState) -> int:
    """Network peak AoI including ages of still-pending data."""
    oldest = min(state.gen_time[state.has_data].tolist(), default=state.slot)
    return max(state.peak_recorded_aoi, state.slot - oldest)


# ---------------------------------------------------------------------------
# Lock-step batches
# ---------------------------------------------------------------------------

@dataclass
class WorldBatch:
    """B running episodes of one scenario at the same slot: `WorldState`'s
    columns with a leading episode axis, plus each episode's running counts
    of the events that `EpisodeCounts` tallies (a collision counts once for
    each UAV of the pair).  ``lbds`` and ``iot_pos`` are shared by every
    episode.  Events are built only for a batch made with
    ``record_events``; ``events`` then holds each episode's events of the
    current slot, and is empty otherwise."""

    slot: int
    lbds: np.ndarray              # (L, 3)
    uav_pos: np.ndarray           # (B, U, 2)
    uav_energy: np.ndarray        # (B, U)
    uav_alive: np.ndarray         # (B, U) bool
    charging_lbd: np.ndarray      # (B, U) int64, -1 none
    iot_pos: np.ndarray           # (I, 2)
    gen_time: np.ndarray          # (B, I) int64
    has_data: np.ndarray          # (B, I) bool
    recorded_aoi: np.ndarray      # (B, I) int64
    iot_energy: np.ndarray        # (B, I)
    peak_recorded_aoi: np.ndarray  # (B,) int64
    collects: np.ndarray          # (B, I) int64 collections of each IoT so far
    clips: np.ndarray             # (B, U) int64 boundary clips of each UAV
    collisions: np.ndarray        # (B, U) int64 collisions of each UAV
    record_events: bool = False
    events: list[list[Event]] = field(default_factory=list)

    iot_ages = WorldState.iot_ages

    @classmethod
    def repeat(cls, state: WorldState, episodes: int,
               record_events: bool = False) -> "WorldBatch":
        """``episodes`` copies of one episode's state, its tallies zero; a
        batch of one shares the state's columns."""
        def rows(column):
            if episodes == 1:
                return column[None]
            return np.repeat(column[None], episodes, axis=0)
        return cls(state.slot, state.lbds, rows(state.uav_pos),
                   rows(state.uav_energy), rows(state.uav_alive),
                   rows(state.charging_lbd), state.iot_pos,
                   rows(state.gen_time), rows(state.has_data),
                   rows(state.recorded_aoi), rows(state.iot_energy),
                   np.full(episodes, state.peak_recorded_aoi, dtype=np.int64),
                   np.zeros((episodes, len(state.gen_time)), dtype=np.int64),
                   np.zeros((episodes, len(state.uav_energy)), dtype=np.int64),
                   np.zeros((episodes, len(state.uav_energy)), dtype=np.int64),
                   record_events,
                   [[] for _ in range(episodes)] if record_events else [])

    def take(self, keep: np.ndarray) -> "WorldBatch":
        """The episodes where the mask ``keep`` is true."""
        return WorldBatch(self.slot, self.lbds, self.uav_pos[keep],
                          self.uav_energy[keep], self.uav_alive[keep],
                          self.charging_lbd[keep], self.iot_pos,
                          self.gen_time[keep], self.has_data[keep],
                          self.recorded_aoi[keep], self.iot_energy[keep],
                          self.peak_recorded_aoi[keep], self.collects[keep],
                          self.clips[keep], self.collisions[keep],
                          self.record_events,
                          [e for e, k in zip(self.events, keep.tolist()) if k])

    def row(self, b: int) -> WorldState:
        """Episode ``b`` as a `WorldState` that shares the batch's columns;
        its ``events`` are the slot's events if the batch records them."""
        return WorldState(self.slot, self.lbds, self.uav_pos[b],
                          self.uav_energy[b], self.uav_alive[b],
                          self.charging_lbd[b], self.iot_pos, self.gen_time[b],
                          self.has_data[b], self.recorded_aoi[b],
                          self.iot_energy[b], int(self.peak_recorded_aoi[b]),
                          self.events[b] if self.record_events else [])

    def episode_counts(self, b: int, config: ScenarioConfig) -> EpisodeCounts:
        """Episode ``b``'s `EpisodeCounts` from its running counts; equal to
        `episode_counts` of its event log once it has finished.  A death
        ends the episode, so its dead UAVs are its deaths."""
        return EpisodeCounts(
            collections=int(self.collects[b].sum()),
            uncollected=config.n_iots - int(np.count_nonzero(self.collects[b])),
            low_energy_iots=int(np.count_nonzero(
                self.iot_energy[b] < config.e_iot_floor)),
            deaths=int(np.count_nonzero(~self.uav_alive[b])),
            collisions=int(self.collisions[b].sum()) // 2,
            clips=int(self.clips[b].sum()))


@dataclass
class BatchRewards:
    """One lock-step slot's rewards: `RewardBreakdown`'s fields as arrays."""

    r_a: np.ndarray    # (B,) shared by the agents of an episode
    r_p: np.ndarray    # (B, U)
    r_s: np.ndarray    # (B, U)
    total: np.ndarray  # (B, U)


def step_batch(batch: WorldBatch, actions: np.ndarray, config: ScenarioConfig
               ) -> tuple[WorldBatch, BatchRewards, np.ndarray]:
    """Advance every episode of ``batch`` one slot; ``actions`` is (B, U).
    Returns the next batch, the rewards and which episodes ended, (B,).

    Row b of the result equals `step` on episode b bit for bit: state,
    rewards, done and, in a batch that records events, the event list; the
    running counts count the events either way.  Every phase acts on all B·U UAVs
    at once, and only charging assignment loops, once per round of
    min(U, L).  A batch of one episode goes through `step`, which is
    faster on a single row even with the conversion to and from a batch.
    """
    n = config.n_uavs
    actions = np.asarray(actions)
    if actions.shape != batch.uav_energy.shape:
        raise ValueError(f"expected actions of shape {batch.uav_energy.shape}, "
                         f"got {actions.shape}")
    if len(actions) == 1:
        return _step_one(batch, actions[0].tolist(), config)
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
    delta = _ACTION_UNIT[actions] * (config.speed * config.slot_dt)   # (B, U, 2)
    target = batch.uav_pos + delta
    pos = np.minimum(np.maximum(target, -half), half)
    radius = np.hypot(pos[..., 0], pos[..., 1])
    outside = radius > config.flight_limit
    if outside.any():
        pos[outside] *= (config.flight_limit / radius[outside])[:, None]
    moved = np.hypot(delta[..., 0], delta[..., 1])
    fix = pos - target
    corrections = np.hypot(fix[..., 0], fix[..., 1])
    clipped = corrections > 1e-12

    # 2. Pairwise collisions, pairs j < k.
    px, py = pos[..., 0], pos[..., 1]
    gap = np.hypot(px[..., :, None] - px[..., None, :],
                   py[..., :, None] - py[..., None, :])               # (B, U, U)
    upper = np.less.outer(np.arange(n), np.arange(n))                # j < k
    close = (gap < config.collision_dist) & upper
    collide_counts = close.sum(axis=2) + close.sum(axis=1)

    # 3. Charging: each round gives every episode its nearest open
    #    (UAV, LBD) pair, lower UAV then LBD index on ties, which is the
    #    order in which `step` walks its sorted candidates.
    lbd_dist = np.hypot(px[..., None] - lbds[:, 0], py[..., None] - lbds[:, 1])
    open_dist = np.where(lbd_dist <= config.charge_radius, lbd_dist, np.inf)
    charging = np.full((B, n), -1, dtype=np.int64)
    charge_gain = np.zeros((B, n))
    charges = []                                  # (episode, uav, gain) in order
    for _ in range(min(n, n_lbds)):
        flat = open_dist.reshape(B, -1)
        best = flat.argmin(axis=1)
        rows = np.flatnonzero(np.isfinite(flat[np.arange(B), best]))
        if not rows.size:
            break
        uav, lbd = np.divmod(best[rows], n_lbds)
        charging[rows, uav] = lbd
        open_dist[rows, uav, :] = np.inf
        open_dist[rows, :, lbd] = np.inf
        for b, j, k in zip(rows.tolist(), uav.tolist(), lbd.tolist()):
            beam_height = config.altitude - float(lbds[k][2])
            power = laser_power_received(config.laser, float(lbd_dist[b, j, k]),
                                         beam_height)
            gain = power * config.slot_dt
            charge_gain[b, j] = gain
            charges.append((b, j, gain))

    # 4. Propulsion drain and the energy update.
    drain = np.where(actions == 8,
                     propulsion_power(config.propulsion, 0.0) * config.slot_dt,
                     propulsion_power(config.propulsion, config.speed)
                     * config.slot_dt)
    energy = np.minimum(np.maximum(batch.uav_energy + charge_gain - drain, 0.0),
                        config.e_full)
    died = energy <= 0.0

    # 5. Data collection: the nearest alive UAV in range collects.
    offset = batch.iot_pos[:, None] - pos[:, None]                    # (B, I, U, 2)
    dist = np.hypot(offset[..., 0], offset[..., 1])
    if died.any():
        dist[np.broadcast_to(died[:, None, :], dist.shape)] = np.inf
    collector = dist.argmin(axis=2)                  # (B, I), lower UAV on ties
    collector_dist = dist.min(axis=2)
    hit = batch.has_data & (collector_dist <= config.comm_radius)
    if config.rate_gated_collection:
        for b, i in zip(*np.nonzero(hit)):
            rate = transmission_rate(config.channel, float(collector_dist[b, i]),
                                     config.altitude)
            if rate * config.slot_dt < config.data_volume:
                hit[b, i] = False
    age = t - batch.gen_time
    recorded_aoi = np.where(hit, age, batch.recorded_aoi)
    tx_energy = config.channel.tx_power_w * config.slot_dt
    iot_energy = np.where(hit, np.maximum(batch.iot_energy - tx_energy, 0.0),
                          batch.iot_energy)
    if config.regenerate_on_collect:
        gen_time, has_data = np.where(hit, t, batch.gen_time), batch.has_data
    else:
        gen_time, has_data = batch.gen_time, batch.has_data & ~hit
    collect_counts = (hit[..., None]
                      & (collector[..., None] == np.arange(n))).sum(axis=1)
    peak_recorded = np.maximum(batch.peak_recorded_aoi,
                               np.where(hit, age, 0).max(axis=1))

    nxt = WorldBatch(t, lbds, pos, energy, ~died, charging, batch.iot_pos,
                     gen_time, has_data, recorded_aoi, iot_energy, peak_recorded,
                     batch.collects + hit, batch.clips + clipped,
                     batch.collisions + collide_counts, batch.record_events)

    # 6/7. Rewards, as `_reward` computes them.
    oldest = np.where(has_data, gen_time, t).min(axis=1)
    r_a = -np.maximum(peak_recorded, t - oldest) / config.aoi_norm
    rw = config.reward
    d_c = np.maximum(0.0, lbd_dist.min(axis=2) - config.charge_radius)
    r_p = np.where(energy <= config.e_charge_threshold, -d_c * rw.r_pen1,
                   np.where(np.abs(energy - config.e_full) <= config.epsilon_energy,
                            -d_c * rw.r_pen2, rw.r_0))
    r_p = r_p - rw.event_penalty * (collide_counts + clipped)
    r_p = np.where(died, r_p - rw.death_penalty, r_p)
    r_s = collect_counts.astype(float)
    total = rw.alpha_a * r_a[:, None] + rw.beta_p * r_p + rw.gamma_s * r_s
    if batch.record_events:
        nxt.events = _batch_events(t, moved, corrections, close, gap, charges,
                                   drain, died, hit, collector)
    return (nxt, BatchRewards(r_a, r_p, r_s, total),
            died.any(axis=1) | (t >= config.horizon))


def _step_one(batch: WorldBatch, joint_action: list[int], config: ScenarioConfig
              ) -> tuple[WorldBatch, BatchRewards, np.ndarray]:
    """`step_batch` on a batch of one episode, through `step`."""
    state, rewards, done = step(batch.row(0), joint_action, config)
    nxt = WorldBatch.repeat(state, 1, batch.record_events)
    nxt.collects, nxt.clips, nxt.collisions = (
        batch.collects.copy(), batch.clips.copy(), batch.collisions.copy())
    count_of = {"collect": nxt.collects, "clip": nxt.clips,
                "collide": nxt.collisions}
    for e in state.events:
        if e.event in count_of:
            count_of[e.event][0, e.entity_id] += 1
    if batch.record_events:
        nxt.events = [state.events]
    return (nxt, BatchRewards(np.array([rewards[0].r_a]),
                              np.array([[r.r_p for r in rewards]]),
                              np.array([[r.r_s for r in rewards]]),
                              np.array([[r.total for r in rewards]])),
            np.array([done]))


def _batch_events(t, moved, corrections, close, gap, charges, drain, died, hit,
                  collector) -> list[list[Event]]:
    """Each episode's events of one `step_batch` slot, in `step`'s order."""
    B, n = moved.shape
    per_charge: list[list] = [[] for _ in range(B)]
    for b, j, gain in charges:
        per_charge[b].append(Event(t, "uav", j, "charge", gain))
    out = []
    for b, (mv, fix, gaps, drains, dead) in enumerate(zip(
            moved.tolist(), corrections.tolist(), gap.tolist(), drain.tolist(),
            died.tolist())):
        events = []
        for j in range(n):
            if mv[j] > 0.0:
                events.append(Event(t, "uav", j, "move", mv[j]))
            if fix[j] > 1e-12:
                events.append(Event(t, "uav", j, "clip", fix[j]))
        for j, k in np.argwhere(close[b]).tolist():
            events.append(Event(t, "uav", j, "collide", gaps[j][k]))
            events.append(Event(t, "uav", k, "collide", gaps[j][k]))
        events.extend(per_charge[b])
        for j in range(n):
            events.append(Event(t, "uav", j, "drain", drains[j]))
            if dead[j]:
                events.append(Event(t, "uav", j, "die", float(t)))
        for i in np.flatnonzero(hit[b]).tolist():
            events.append(Event(t, "iot", i, "collect", float(collector[b, i])))
        out.append(events)
    return out


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
    agents = np.arange(config.n_uavs) if agent is None else np.array([agent])
    alive = state.uav_alive[..., agents]
    if not alive.all():
        dead = agents[~alive.reshape(-1, len(agents)).all(axis=0)]
        raise ValueError(f"agent {int(dead[0])} is not alive")
    half = config.area_half_side
    span = 2.0 * half
    pos = state.uav_pos[..., agents, :]                           # (…, N, 2)
    out = np.zeros(pos.shape[:-1] + (config.obs_dim,))
    out[..., 0] = pos[..., 0] / half
    out[..., 1] = pos[..., 1] / half
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
    out[..., -2] = (lbd_x[k] - pos[..., 0]) / span
    out[..., -1] = (lbd_y[k] - pos[..., 1]) / span
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

def episode_counts(log: EpisodeLog) -> EpisodeCounts:
    """Count a completed episode in one pass over its events.

    A collision is logged once for each UAV of the pair, so the pair count
    is half the ``collide`` events; a ``collect`` event names the IoT.
    """
    if log.final_state is None:
        raise ValueError("episode log has no final state")
    config = log.config
    tally = dict.fromkeys(EVENT_KINDS, 0)
    collected = set()
    for e in log.events:
        tally[e.event] += 1
        if e.event == "collect":
            collected.add(e.entity_id)
    return EpisodeCounts(
        collections=tally["collect"],
        uncollected=config.n_iots - len(collected),
        low_energy_iots=int(np.count_nonzero(
            log.final_state.iot_energy < config.e_iot_floor)),
        deaths=tally["die"],
        collisions=tally["collide"] // 2,
        clips=tally["clip"],
    )


EVENT_CSV_HEADER = "slot,entity_kind,entity_id,event,value"


def events_to_csv(events: list[Event]) -> str:
    lines = [EVENT_CSV_HEADER]
    for e in events:
        lines.append(f"{e.slot},{e.entity_kind},{e.entity_id},{e.event},{e.value!r}")
    return "\n".join(lines) + "\n"


def states_equal(a: WorldState, b: WorldState) -> bool:
    """Bitwise equality of two world states (for determinism checks)."""
    if a.slot != b.slot or a.peak_recorded_aoi != b.peak_recorded_aoi:
        return False
    return (np.array_equal(a.lbds, b.lbds)
            and np.array_equal(a.uav_pos, b.uav_pos)
            and np.array_equal(a.uav_energy, b.uav_energy)
            and np.array_equal(a.uav_alive, b.uav_alive)
            and np.array_equal(a.charging_lbd, b.charging_lbd)
            and np.array_equal(a.iot_pos, b.iot_pos)
            and np.array_equal(a.gen_time, b.gen_time)
            and np.array_equal(a.has_data, b.has_data)
            and np.array_equal(a.recorded_aoi, b.recorded_aoi)
            and np.array_equal(a.iot_energy, b.iot_energy)
            and a.events == b.events)
