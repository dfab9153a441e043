"""Exact-search oracle: hand-traced optima, witnesses, invariances, and the
pruned search against its exhaustive pass (k = horizon)."""

import gc
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from aoi_uav import oracle, world
from aoi_uav.config import ConfigError, ScenarioConfig
from aoi_uav.oracle import (
    MAX_CHUNK_ROWS,
    OracleGuardExceeded,
    _solve,
    _tour_bound,
    exact_min_peak_aoi,
    load_instance,
    make_instance,
    parse_instance,
    replay_verify,
)
from aoi_uav.trainer import GreedyPolicy
from aoi_uav.world import WorldBatch


def bundled(name):
    path = resources.files("aoi_uav").joinpath("instances", name)
    return parse_instance(path.read_text())


def toy_config(**kw):
    base = dict(horizon=3, speed=10.0, comm_radius=5.0)
    base.update(kw)
    return replace(ScenarioConfig(), **base)


def exhaustive(inst):
    """The pass that prunes nothing: the search without a bound."""
    return _solve(inst, inst.config.horizon)


def root_bound(inst):
    root = inst.initial_state()
    return int(_tour_bound(inst)(0, root.uav_pos[None], root.has_data[None])[0])


def lattice_instance(horizon, iots):
    """A layout of `bench/instances.py`: one UAV and one charging station at
    the origin, IoTs on the 10 m lattice, no hover."""
    cfg = replace(ScenarioConfig(), horizon=horizon, speed=10.0, slot_dt=1.0,
                  comm_radius=5.0, include_hover_action=False)
    return make_instance(cfg, iots, [(0.0, 0.0)], [(0.0, 0.0, 0.0)])


# The four layouts of `bench/instances.FAMILY`, each under the identity, a
# quarter turn, the reflection y -> -y and the reflection about y = x, with
# the optimum and witness the earlier depth-first search found for them.
LATTICE_PINS = [
    (7, [(20, 10)], 2, "NE,E,N,N,N,N,N"),
    (7, [(-10, 20)], 2, "N,NW,N,N,N,N,N"),
    (7, [(20, -10)], 2, "E,SE,N,N,N,N,N"),
    (7, [(10, 20)], 2, "N,NE,N,N,N,N,N"),
    (7, [(10, 20), (-20, 0)], 5, "N,NE,SW,SW,W,N,N"),
    (7, [(-20, 10), (0, -20)], 5, "W,NW,SE,SE,S,N,N"),
    (7, [(10, -20), (-20, 0)], 5, "SE,S,W,NW,NW,N,N"),
    (7, [(20, 10), (0, -20)], 5, "NE,E,S,SW,SW,N,N"),
    (7, [(20, 10), (-10, -10), (0, 20)], 6, "SW,N,N,NE,E,SE,N"),
    (7, [(-10, 20), (10, -10), (-20, 0)], 6, "SE,N,NW,NW,SW,SW,N"),
    (7, [(20, -10), (-10, 10), (0, -20)], 6, "NW,E,SE,SE,SW,SW,N"),
    (7, [(10, 20), (-10, -10), (20, 0)], 6, "SW,N,NE,NE,SE,SE,N"),
    (8, [(20, 10), (-10, 20), (-20, -10), (10, -30)], 8, "N,N,N,N,N,N,N,N"),
    (8, [(-10, 20), (-20, -10), (10, -20), (30, 10)], 8, "N,N,N,N,N,N,N,N"),
    (8, [(20, -10), (-10, -20), (-20, 10), (10, 30)], 8, "N,N,N,N,N,N,N,N"),
    (8, [(10, 20), (20, -10), (-10, -20), (-30, 10)], 8, "N,N,N,N,N,N,N,N"),
]


# States expanded for the identity layouts of LATTICE_PINS (rows 0, 4, 8
# and 12): by the exhaustive pass, as the frontier search first counted
# them, and by the pruned search over all its passes.
LATTICE_EXPANDED = [(0, 1558), (4, 2627), (8, 3814), (12, 7254)]
LATTICE_PRUNED = [(0, 3), (4, 11), (8, 17), (12, 0)]


class TestHandTracedOptima:
    def test_adjacent_iot_optimum_one(self):
        inst = bundled("adjacent_iot.txt")
        result = exact_min_peak_aoi(inst)
        assert result.optimum == 1
        assert len(result.witness) == inst.config.horizon
        assert replay_verify(inst, result.witness) == 1

    def test_two_iot_symmetric_optimum_three(self):
        inst = bundled("two_iot_symmetric.txt")
        result = exact_min_peak_aoi(inst)
        assert result.optimum == 3
        assert replay_verify(inst, result.witness) == 3

    @pytest.mark.parametrize("name, optimum, witness, expanded, pruned", [
        ("adjacent_iot.txt", 1, "N,N,N", 1, 1),
        ("two_iot_symmetric.txt", 3, "N,S,S,N", 238, 16),
    ])
    def test_bundled_solves_pinned(self, name, optimum, witness, expanded, pruned):
        inst = bundled(name)
        full = exhaustive(inst)
        assert (full.optimum, full.witness_text(),
                full.states_expanded) == (optimum, witness, expanded)
        result = exact_min_peak_aoi(inst)
        assert (result.optimum, result.witness_text(),
                result.states_expanded) == (optimum, witness, pruned)

    @pytest.mark.parametrize("horizon, iots, optimum, witness", LATTICE_PINS)
    def test_lattice_layouts_pinned(self, horizon, iots, optimum, witness):
        inst = lattice_instance(horizon, [(float(x), float(y)) for x, y in iots])
        result = exact_min_peak_aoi(inst)
        assert (result.optimum, result.witness_text()) == (optimum, witness)
        assert replay_verify(inst, result.witness) == optimum

    @pytest.mark.parametrize("pin, expanded", LATTICE_EXPANDED)
    def test_lattice_states_expanded_pinned(self, pin, expanded):
        horizon, iots, _, _ = LATTICE_PINS[pin]
        inst = lattice_instance(horizon, [(float(x), float(y)) for x, y in iots])
        assert exhaustive(inst).states_expanded == expanded

    @pytest.mark.parametrize("pin, expanded", LATTICE_PRUNED)
    def test_lattice_pruned_states_expanded_pinned(self, pin, expanded):
        horizon, iots, _, _ = LATTICE_PINS[pin]
        inst = lattice_instance(horizon, [(float(x), float(y)) for x, y in iots])
        assert exact_min_peak_aoi(inst).states_expanded == expanded

    def test_two_uav_split_needs_both_uavs(self):
        # UAVs at (-10, 0) and (10, 0), IoTs at (0, 20) and (0, -20), 10 m
        # hops, 5 m radius, horizon 4, nine actions (81 joints).
        # Optimum 2: every IoT is 22.4 m from both UAVs, so no collection
        # happens at slot 1.  To reach a source by slot 2 a UAV needs a hop
        # and a diagonal hop toward it (N then NE ends 4.14 m from (0, 20)).
        # The sources are 40 m apart, so one UAV cannot take both before the
        # horizon, and both are taken at slot 2 only if one UAV flies north
        # and the other south.
        # Witness: the first joint, in product order (first UAV's action
        # major), of least value.  At slot 0 that is N+S: after N the first
        # UAV can only take the north source, and every N+b with b before S
        # leaves the second UAV over 21 m from (0, -20), out of reach of one
        # more hop.  From (-10, 10) and (10, -10) the only hops that collect
        # at slot 2 are NE for the first UAV and SW for the second.  Nothing
        # is pending after that, so the witness idles (joint 0 is N+N).
        inst = bundled("two_uav_split.txt")
        assert inst.config.n_actions ** inst.config.n_uavs == 81
        result = exact_min_peak_aoi(inst)
        assert (result.optimum, result.witness_text(),
                result.states_expanded) == (2, "N+S,NE+SW,N+N,N+N", 9)
        assert replay_verify(inst, result.witness) == 2

    def test_two_uav_horizon_eight_solves(self):
        # UAVs at (-10, 0) and (10, 0), four IoTs on the 10 m lattice, nine
        # actions (81 joints), horizon 8.  81^8 joint sequences are far out
        # of reach of enumeration; the pruned search finds the optimum, 5,
        # below the horizon, and its pass with bound 4 finds no peak of 4.
        cfg = toy_config(horizon=8, include_hover_action=True)
        inst = make_instance(cfg, iots=[(-10.0, 0.0), (10.0, -20.0),
                                        (20.0, 30.0), (30.0, -30.0)],
                             uavs=[(-10.0, 0.0), (10.0, 0.0)],
                             lbds=[(0.0, 0.0, 0.0)])
        result = exact_min_peak_aoi(inst)
        assert (result.optimum, result.witness_text(), result.states_expanded) == (
            5, "H+E,NE+S,NE+SW,NE+SE,NE+SE,N+N,N+N,N+N", 49)
        assert replay_verify(inst, result.witness) == 5
        assert _solve(inst, 4, _tour_bound(inst)).optimum > 4

    def test_search_steps_event_free_chunks(self, monkeypatch):
        # Every `world.step` of a solve takes a batch of 2 to MAX_CHUNK_ROWS
        # rows, and no Event is ever built.
        calls, events = [], []
        real_step, real_event = world.step, world.Event

        def step(state, actions, cfg):
            calls.append((type(state), len(actions)))
            return real_step(state, actions, cfg)

        def event(*fields):
            events.append(fields)
            return real_event(*fields)

        monkeypatch.setattr(world, "step", step)
        monkeypatch.setattr(world, "Event", event)
        result = exact_min_peak_aoi(bundled("two_uav_split.txt"))
        assert result.optimum == 2
        assert len(calls) > 1
        assert all(kind is world.WorldBatch and 1 < rows <= MAX_CHUNK_ROWS
                   for kind, rows in calls)
        assert events == []

    def test_laser_power_once_per_distinct_distance(self, monkeypatch):
        # Every stepped row of a lattice instance charges, but the laser
        # power is computed once per distinct distance in a chunk.
        rows, powers = [], []
        real_step, real_power = world.step, world.laser_power_received

        def step(state, actions, cfg):
            rows.append(len(actions))
            return real_step(state, actions, cfg)

        def power(*args):
            powers.append(args)
            return real_power(*args)

        monkeypatch.setattr(world, "step", step)
        monkeypatch.setattr(world, "laser_power_received", power)
        horizon, iots, optimum, _ = LATTICE_PINS[12]
        inst = lattice_instance(horizon, [(float(x), float(y)) for x, y in iots])
        assert exhaustive(inst).optimum == optimum
        assert 0 < len(powers) < sum(rows) / 10

    def test_last_level_is_counted_not_built(self, monkeypatch):
        # The level at slot horizon - 1 is never stepped, so the search
        # takes no rows at that slot and joins no chunks of it.
        built = []
        real_take, real_join = WorldBatch.take, WorldBatch.join

        def take(self, keep):
            built.append(self.slot)
            return real_take(self, keep)

        def join(parts):
            built.append(parts[0].slot)
            return real_join(parts)

        monkeypatch.setattr(WorldBatch, "take", take)
        monkeypatch.setattr(WorldBatch, "join", join)
        inst = bundled("two_uav_split.txt")
        result = exhaustive(inst)
        assert result.states_expanded == 52566
        assert built and max(built) == inst.config.horizon - 2

    def test_solve_leaves_no_reference_cycles(self):
        # The levels must be freed when the solve returns, not whenever the
        # cycle collector next runs.
        inst = bundled("two_iot_symmetric.txt")
        gc.collect()
        gc.disable()
        try:
            exact_min_peak_aoi(inst)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_battery_death_scores_horizon(self):
        # Two hops reach the IoT at slot 2, but 60 J lasts one 40.6 J hop:
        # the UAV dies on the second hop, and a dead UAV collects nothing.
        lbd_far = [(400.0, 400.0, 0.0)]
        full = make_instance(toy_config(horizon=4, charge_radius=1.0),
                             iots=[(0.0, 20.0)], uavs=[(0.0, 0.0)], lbds=lbd_far)
        starved = make_instance(
            toy_config(horizon=4, charge_radius=1.0, e_init_frac=0.002),
            iots=[(0.0, 20.0)], uavs=[(0.0, 0.0)], lbds=lbd_far)
        assert exact_min_peak_aoi(full).optimum == 2
        result = exact_min_peak_aoi(starved)
        assert result.optimum == 4
        assert replay_verify(starved, result.witness) == 4
        assert result.witness == exhaustive(starved).witness

    def test_uav_placed_outside_the_area_starts_clipped(self):
        # The UAV starts at x = 1000, outside the 500 m square.  A first
        # move E (the first in action order that collects) is clipped to
        # (500, 0), 5 m from the IoT, which it collects at slot 1.  Measured
        # from x = 1000 the tour bound would be 50 slots, and the search
        # would stop at the horizon untried.
        inst = make_instance(toy_config(), iots=[(495.0, 0.0)],
                             uavs=[(1000.0, 0.0)], lbds=[(0.0, 0.0, 0.0)])
        result = exact_min_peak_aoi(inst)
        assert (result.optimum, result.witness_text()) == (1, "E,N,N")
        assert replay_verify(inst, result.witness) == 1

    def test_all_hover_scores_horizon(self):
        cfg = toy_config(include_hover_action=True, horizon=4)
        inst = make_instance(cfg, iots=[(0.0, 10.0)], uavs=[(0.0, 0.0)],
                             lbds=[(0.0, 0.0, 0.0)])
        hover = [(8,)] * cfg.horizon
        assert replay_verify(inst, hover) >= cfg.horizon


class TestInvariances:
    def test_iot_relabeling(self):
        cfg = toy_config(horizon=4)
        a = make_instance(cfg, iots=[(0.0, 10.0), (0.0, -10.0)],
                          uavs=[(0.0, 0.0)], lbds=[(0.0, 0.0, 0.0)])
        b = make_instance(cfg, iots=[(0.0, -10.0), (0.0, 10.0)],
                          uavs=[(0.0, 0.0)], lbds=[(0.0, 0.0, 0.0)])
        assert exact_min_peak_aoi(a).optimum == exact_min_peak_aoi(b).optimum

    def test_uav_relabeling(self):
        cfg = toy_config(horizon=2)
        a = make_instance(cfg, iots=[(0.0, 30.0), (0.0, -30.0)],
                          uavs=[(0.0, 20.0), (0.0, -20.0)],
                          lbds=[(0.0, 0.0, 0.0)])
        b = make_instance(cfg, iots=[(0.0, 30.0), (0.0, -30.0)],
                          uavs=[(0.0, -20.0), (0.0, 20.0)],
                          lbds=[(0.0, 0.0, 0.0)])
        res_a, res_b = exact_min_peak_aoi(a), exact_min_peak_aoi(b)
        assert res_a.optimum == res_b.optimum == 1

    def test_flat_beyond_feasible_horizon(self):
        # Once every IoT is collectible, extra horizon cannot help: the value
        # stays put (non-increasing).
        optima = []
        for horizon in (3, 4, 5, 6):
            cfg = toy_config(horizon=horizon)
            inst = make_instance(cfg, iots=[(0.0, 10.0), (0.0, -10.0)],
                                 uavs=[(0.0, 0.0)], lbds=[(0.0, 0.0, 0.0)])
            optima.append(exact_min_peak_aoi(inst).optimum)
        assert all(a >= b for a, b in zip(optima, optima[1:]))
        assert optima[0] == 3


class TestPrunedEqualsExhaustive:
    """The pruned search returns the exhaustive pass's optimum and witness,
    and the root's tour bound never exceeds the optimum."""

    @staticmethod
    def check(inst):
        full = exhaustive(inst)
        result = exact_min_peak_aoi(inst)
        assert (result.optimum, result.witness) == (full.optimum, full.witness)
        assert root_bound(inst) <= full.optimum

    @pytest.mark.parametrize("horizon, iots", [row[:2] for row in LATTICE_PINS])
    def test_lattice_pins(self, horizon, iots):
        self.check(lattice_instance(horizon, [(float(x), float(y)) for x, y in iots]))

    @pytest.mark.parametrize("name", ["adjacent_iot.txt", "two_iot_symmetric.txt",
                                      "two_uav_split.txt"])
    def test_bundled(self, name):
        self.check(bundled(name))

    @pytest.mark.parametrize("seed", range(12))
    def test_random_lattice_layouts(self, seed, monkeypatch):
        # One UAV at horizon 6 (even seeds) or two at horizon 4 (odd), with
        # hover on every other pair of seeds.  Seeds 10 and 11 start with
        # 90 J, two hops, and their station out of reach, so a UAV dies on
        # its third hop; at seed 11 that raises the optimum from 3 to the
        # horizon.  The exhaustive pass on two UAVs can pass the state cap,
        # which guards solves, not this reference.
        monkeypatch.setattr(oracle, "MAX_STATES", 10 ** 6)
        rng = np.random.default_rng(seed)
        two_uavs, starved = seed % 2 == 1, seed >= 10
        cells = {tuple(rng.integers(-3, 4, size=2).tolist())
                 for _ in range(int(rng.integers(1, 5)))}
        cfg = toy_config(horizon=4 if two_uavs else 6,
                         include_hover_action=seed % 4 < 2,
                         **(dict(e_init_frac=0.003, charge_radius=1.0)
                            if starved else {}))
        inst = make_instance(
            cfg, iots=[(10.0 * x, 10.0 * y) for x, y in sorted(cells)],
            uavs=[(-10.0, 0.0), (10.0, 0.0)] if two_uavs else [(0.0, 0.0)],
            lbds=[(400.0, 400.0, 0.0)] if starved else [(0.0, 0.0, 0.0)])
        self.check(inst)


class TestPolicyBound:
    def test_greedy_never_beats_oracle(self):
        inst = bundled("two_iot_symmetric.txt")
        optimum = exact_min_peak_aoi(inst).optimum
        cfg = inst.config
        policy = GreedyPolicy(cfg)
        policy.begin_episode()
        state = inst.initial_state()
        rng = np.random.default_rng(0)
        collected = {}
        done = False
        while not done:
            joint = [policy.act(state, j, rng, True) for j in range(cfg.n_uavs)]
            state, _, done = world.step(state, joint, cfg)
            for e in state.events:
                if e.event == "collect":
                    collected[e.entity_id] = state.slot
        realized = max(collected.get(i, cfg.horizon) for i in range(cfg.n_iots))
        assert realized >= optimum


class TestGuardsAndParsing:
    def test_horizon_guard(self):
        cfg = toy_config(horizon=9)
        with pytest.raises(OracleGuardExceeded):
            make_instance(cfg, iots=[(0.0, 10.0)], uavs=[(0.0, 0.0)],
                          lbds=[(0.0, 0.0, 0.0)])

    def test_uav_count_guard(self):
        cfg = toy_config()
        with pytest.raises(OracleGuardExceeded):
            make_instance(cfg, iots=[(0.0, 10.0)],
                          uavs=[(0.0, 0.0), (5.0, 0.0), (10.0, 0.0)],
                          lbds=[(0.0, 0.0, 0.0)])

    def test_state_cap_counts_every_pass(self, monkeypatch):
        # two_iot_symmetric's pruned search reaches 16 states over its two
        # passes (bounds 2 and 3).
        inst = bundled("two_iot_symmetric.txt")
        monkeypatch.setattr(oracle, "MAX_STATES", 16)
        assert exact_min_peak_aoi(inst).states_expanded == 16
        monkeypatch.setattr(oracle, "MAX_STATES", 15)
        with pytest.raises(OracleGuardExceeded, match="15 states"):
            exact_min_peak_aoi(inst)

    def test_state_cap_stops_a_level_midway(self, monkeypatch):
        # The exhaustive pass on two_uav_split steps its 81 states at slot 1
        # in 7 chunks of up to 12 nodes, whose children pass 200 states in
        # the first chunk; the cap stops the level there.
        calls = []
        real_step = world.step

        def step(state, actions, cfg):
            calls.append(state.slot)
            return real_step(state, actions, cfg)

        monkeypatch.setattr(world, "step", step)
        monkeypatch.setattr(oracle, "MAX_STATES", 200)
        with pytest.raises(OracleGuardExceeded):
            exhaustive(bundled("two_uav_split.txt"))
        assert calls == [0, 1]

    def test_replay_length_mismatch(self):
        inst = bundled("adjacent_iot.txt")
        with pytest.raises(ValueError):
            replay_verify(inst, [(0,)])

    def test_unknown_cfg_key_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_instance("CFG warp_drive 9\nUAV 0 0\nIOT 0 10\nLBD 0 0 0\n")

    @pytest.mark.parametrize("key,raw", [("horizon", "abc"), ("speed", "fast"),
                                         ("speed", "nan"), ("speed", "-inf")])
    def test_unparsable_cfg_value_rejected(self, key, raw):
        with pytest.raises(ConfigError, match=key):
            parse_instance(f"CFG {key} {raw}\nUAV 0 0\nIOT 0 10\nLBD 0 0 0\n")

    def test_repeated_cfg_key_rejected(self):
        with pytest.raises(ConfigError, match="line 2: CFG horizon"):
            parse_instance("CFG horizon 3\nCFG horizon 4\n"
                           "UAV 0 0\nIOT 0 10\nLBD 0 0 0\n")

    def test_instance_requires_records(self):
        with pytest.raises(ConfigError):
            parse_instance("CFG horizon 3\n")

    def test_load_from_path(self, tmp_path):
        p = tmp_path / "inst.txt"
        p.write_text("CFG horizon 3\nCFG speed 10\nCFG comm_radius 5\n"
                     "UAV 0 0\nIOT 0 10\nLBD 0 0 0\n")
        inst = load_instance(str(p))
        assert exact_min_peak_aoi(inst).optimum == 1
