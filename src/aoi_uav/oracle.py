"""Exhaustive minimum-peak-AoI search on tiny instances.

Depth-first enumeration of joint action sequences through the real
environment step, memoized on (slot, quantized positions, pending mask,
quantized energies).  Data is one-shot here, so an episode's peak AoI is
exactly the largest of each IoT's collection slot (or the horizon for IoTs
never collected), which gives the search optimal substructure; a step
collected when the running collection tally grew.  This is a correctness
anchor, not a solver: no bounding tricks, hard branching guard.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product

from . import config_io, world
from .config import ConfigError, ScenarioConfig, read_text
from .world import ACTION_NAMES, WorldState

MAX_JOINT_BRANCHING = 10 ** 8
MAX_UAVS = 2
MAX_IOTS = 4
MAX_HORIZON = 8

# Energy memo resolution (J).  Per-slot drain is tens of joules, so at <= 8
# slots two states whose energies agree to 0.1 J cannot diverge in liveness.
ENERGY_QUANTUM = 0.1


class OracleGuardExceeded(ValueError):
    """Instance too large for exhaustive search."""


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
        branching = (cfg.n_actions ** cfg.n_uavs) ** cfg.horizon
        if branching > MAX_JOINT_BRANCHING:
            raise OracleGuardExceeded(
                f"joint branching {branching:.3g} exceeds {MAX_JOINT_BRANCHING:.0e}")
        if cfg.regenerate_on_collect:
            raise ConfigError("oracle instances require one-shot collection")
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

def parse_instance(text: str) -> TinyInstance:
    """Parse an instance file: CFG overrides plus IOT/UAV/LBD layout records."""
    kinds = config_io._field_types(ScenarioConfig)
    overrides: dict = {}
    layout_lines = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0].upper() == "CFG":
            if len(parts) != 3:
                raise ConfigError(f"instance line {lineno}: expected 'CFG key value'")
            key, raw_value = parts[1], parts[2]
            if key not in kinds:
                raise ConfigError(f"unknown instance config key {key!r}")
            if key in overrides:
                raise ConfigError(f"instance line {lineno}: CFG {key} repeated")
            overrides[key] = config_io._coerce("scenario", key, raw_value, kinds[key])
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


def witness_from_text(text: str, n_uavs: int) -> list[tuple[int, ...]]:
    name_to_idx = {name: i for i, name in enumerate(ACTION_NAMES)}
    out = []
    for slot_part in text.split(","):
        names = slot_part.split("+")
        if len(names) != n_uavs:
            raise ValueError(f"slot {slot_part!r} has {len(names)} actions, "
                             f"expected {n_uavs}")
        out.append(tuple(name_to_idx[n.strip().upper()] for n in names))
    return out


def _memo_key(state: WorldState) -> tuple:
    pos = tuple(round(x, 6) for x in state.uav_pos.ravel().tolist())
    mask = state.has_data.tobytes()
    energy = tuple(round(e / ENERGY_QUANTUM) for e in state.uav_energy.tolist())
    return (state.slot, pos, mask, energy)


def _search(state: WorldState, cfg: ScenarioConfig, joint_actions: list,
            memo: dict[tuple, tuple[int, tuple[int, ...] | None]]) -> int:
    """Best achievable peak AoI from ``state``; records each expanded
    state's (value, best joint action) in ``memo``.

    A module-level function rather than a closure: a nested function that
    calls itself is a reference cycle, which would keep every solve's memo
    alive until the cycle collector happened to run.
    """
    if not state.has_data.any():
        return 0
    if world.is_done(state, cfg):
        return cfg.horizon
    key = _memo_key(state)
    hit = memo.get(key)
    if hit is not None:
        return hit[0]
    best_val, best_joint = cfg.horizon + 1, None
    for joint in joint_actions:
        nxt, _, _ = world.step(state, list(joint), cfg)
        collected = nxt.collections > state.collections
        val = max(nxt.slot if collected else 0,
                  _search(nxt, cfg, joint_actions, memo))
        if val < best_val:
            best_val, best_joint = val, joint
            # A node with pending data can never score below slot+1, so
            # hitting that is already optimal here.
            if best_val == state.slot + 1:
                break
    memo[key] = (best_val, best_joint)
    return best_val


def exact_min_peak_aoi(instance: TinyInstance) -> OracleResult:
    """Minimum achievable episode peak AoI and one witness sequence."""
    instance.validate()
    cfg = instance.config
    horizon = cfg.horizon
    joint_actions = list(product(range(cfg.n_actions), repeat=cfg.n_uavs))
    memo: dict[tuple, tuple[int, tuple[int, ...] | None]] = {}

    start = instance.initial_state()
    optimum = _search(start, cfg, joint_actions, memo)

    witness: list[tuple[int, ...]] = []
    state = start
    idle = tuple(0 for _ in range(cfg.n_uavs))
    while len(witness) < horizon:
        if not state.has_data.any() or world.is_done(state, cfg):
            witness.append(idle)
            if not world.is_done(state, cfg):
                state, _, _ = world.step(state, list(idle), cfg)
            continue
        entry = memo.get(_memo_key(state))
        joint = entry[1] if entry and entry[1] is not None else idle
        witness.append(joint)
        state, _, _ = world.step(state, list(joint), cfg)
    # Every expanded state is memoized exactly once: its descendants lie at
    # later slots, so none can reach it before its entry is written.
    return OracleResult(optimum=optimum, witness=witness,
                        states_expanded=len(memo))


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
