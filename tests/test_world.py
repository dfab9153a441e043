"""Environment dynamics: reset, movement, charging, collection, rewards."""

import copy
import itertools
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from aoi_uav import trainer, world
from aoi_uav.config import (
    ConfigError, RewardParams, ScenarioConfig, TrainConfig, tiny_scenario)
from aoi_uav.physics import LaserParams, propulsion_power
from aoi_uav.world import (
    EpisodeCounts,
    EpisodeOver,
    RewardBreakdown,
    WorldBatch,
    episode_counts,
    events_to_csv,
    global_state_vector,
    observe,
    parse_layout,
    peak_aoi,
    reset,
    states_equal,
    step,
    step_batch,
)

CANON = ScenarioConfig()

# Frozen: Eq-2 charge minus hover drain for one slot directly above the LBD.
HOVER_CHARGE_DELTA = 93.6954004799872
# Frozen: propulsion power at the canonical cruise speed of 5 m/s.
DRAIN_PER_SLOT_V5 = 48.317043489296964


def open_field(n_uavs=1, n_iots=1, iot_at=((0.0, 400.0),), horizon=10, **kw):
    """Scenario with IoTs pinned via recorded layout-free positions."""
    cfg = replace(CANON, n_uavs=n_uavs, n_iots=n_iots, horizon=horizon, **kw)
    state = reset(cfg, seed=1)
    state.iot_pos[:len(iot_at)] = iot_at
    return cfg, state


class TestReset:
    def test_deterministic(self):
        a = reset(CANON, seed=42)
        b = reset(CANON, seed=42)
        assert states_equal(a, b)

    def test_initial_energy(self):
        state = reset(CANON, seed=0)
        for uav in state.uavs:
            assert uav.energy == 0.6 * 30000.0

    def test_iot_count_and_flags(self):
        state = reset(CANON, seed=0)
        assert state.iot_pos.shape == (50, 2)
        assert state.has_data.all()
        assert (state.gen_time == 0).all()

    def test_canonical_uav_spawn(self):
        state = reset(CANON, seed=0)
        np.testing.assert_array_equal(
            np.array([u.pos for u in state.uavs]),
            np.array([(1, 0), (-1, 0), (0, 1), (0, -1)], dtype=float))

    def test_seed_changes_iot_layout(self):
        a, b = reset(CANON, seed=1), reset(CANON, seed=2)
        assert not states_equal(a, b)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            reset(replace(CANON, charge_radius=600.0), seed=0)


class TestMovement:
    def test_north_displacement(self):
        cfg, state = open_field()
        nxt, _, _ = step(state, [0], cfg)
        np.testing.assert_allclose(nxt.uavs[0].pos, [1.0, 5.0], atol=1e-12)

    def test_all_displacements_have_commanded_length(self):
        cfg, state = open_field(horizon=20)
        for a in range(8):
            nxt, _, _ = step(state, [a], cfg)
            moved = nxt.uavs[0].pos - state.uavs[0].pos
            assert math.hypot(*moved) == pytest.approx(5.0, abs=1e-9)

    def test_hover_keeps_position(self):
        cfg, state = open_field(include_hover_action=True)
        nxt, _, _ = step(state, [8], cfg)
        np.testing.assert_array_equal(nxt.uavs[0].pos, state.uavs[0].pos)

    def test_flight_disc_clip_logged(self):
        cfg, state = open_field(horizon=300)
        state.uav_pos[0] = np.array([499.0, 0.0])
        nxt, _, _ = step(state, [2], cfg)  # east, through the boundary
        assert math.hypot(*nxt.uavs[0].pos) <= cfg.flight_limit + 1e-9
        assert any(e.event == "clip" for e in nxt.events)

    def test_wrong_action_count(self):
        cfg, state = open_field(n_uavs=1)
        with pytest.raises(ValueError):
            step(state, [0, 0], cfg)

    def test_step_after_done_rejected(self):
        cfg, state = open_field(horizon=1)
        nxt, _, done = step(state, [0], cfg)
        assert done
        with pytest.raises(EpisodeOver):
            step(nxt, [0], cfg)


class TestChargingAndEnergy:
    def test_hover_above_lbd_net_gain(self):
        cfg, state = open_field(include_hover_action=True)
        state.uav_pos[0] = np.array([0.0, 0.0])
        before = state.uavs[0].energy
        nxt, _, _ = step(state, [8], cfg)
        assert nxt.uavs[0].energy - before == pytest.approx(HOVER_CHARGE_DELTA, abs=1e-9)

    def test_one_uav_per_lbd(self):
        cfg, state = open_field(n_uavs=2, include_hover_action=True)
        state.uav_pos[0] = np.array([10.0, 0.0])
        state.uav_pos[1] = np.array([0.0, 20.0])
        nxt, _, _ = step(state, [8, 8], cfg)
        charging = [u.charging_lbd for u in nxt.uavs]
        assert charging.count(0) == 1
        assert charging[0] == 0  # nearest wins

    def test_charging_tie_breaks_by_lower_index(self):
        cfg, state = open_field(n_uavs=2, include_hover_action=True)
        state.uav_pos[0] = np.array([15.0, 0.0])
        state.uav_pos[1] = np.array([-15.0, 0.0])
        nxt, _, _ = step(state, [8, 8], cfg)
        assert nxt.uavs[0].charging_lbd == 0
        assert nxt.uavs[1].charging_lbd is None

    def test_ring_layout_charges_from_nearest_station(self):
        cfg = replace(CANON, n_uavs=1, n_lbds=10, lbd_layout="ring",
                      horizon=5, include_hover_action=True)
        state = reset(cfg, seed=2)
        # Ring stations sit on the charging-radius circle; park on one.
        state.uav_pos[0] = state.lbds[3][:2].copy()
        nxt, _, _ = step(state, [8], cfg)
        assert nxt.uavs[0].charging_lbd == 3

    def test_two_lbds_charge_two_uavs(self, tmp_path):
        layout = tmp_path / "two_lbd.txt"
        layout.write_text("UAV -100 0\nUAV 100 0\n"
                          "LBD -100 0 0\nLBD 100 0 0\nIOT 400 400\n")
        cfg = replace(CANON, n_uavs=2, n_lbds=2, n_iots=1, horizon=5,
                      include_hover_action=True, layout_file=str(layout))
        state = reset(cfg, seed=0)
        nxt, _, _ = step(state, [8, 8], cfg)
        assert nxt.uavs[0].charging_lbd == 0
        assert nxt.uavs[1].charging_lbd == 1

    def test_energy_ledger_balances(self):
        cfg = replace(tiny_scenario(), horizon=40)
        state = reset(cfg, seed=5)
        rng = np.random.default_rng(5)
        done = False
        while not done:
            before = {j: u.energy for j, u in enumerate(state.uavs)}
            actions = list(rng.integers(0, cfg.n_actions, size=cfg.n_uavs))
            state, _, done = step(state, actions, cfg)
            for j, uav in enumerate(state.uavs):
                charge = sum(e.value for e in state.events
                             if e.entity_kind == "uav" and e.entity_id == j
                             and e.event == "charge")
                drain = sum(e.value for e in state.events
                            if e.entity_kind == "uav" and e.entity_id == j
                            and e.event == "drain")
                expected = min(max(before[j] + charge - drain, 0.0), cfg.e_full)
                assert uav.energy == expected

    def test_death_without_charging(self):
        # Charging disabled and constant motion: the battery empties at the
        # slot where cumulative drain crosses the initial 18000 J.
        cfg = replace(CANON, n_uavs=1, horizon=400,
                      laser=LaserParams(conversion_eff=0.0))
        state = reset(cfg, seed=0)
        slot, done = 0, False
        actions = [2, 6]  # shuttle east/west to stay in bounds
        while not done:
            state, rewards, done = step(state, [actions[slot % 2]], cfg)
            slot += 1
        assert not state.uavs[0].alive
        assert slot == math.floor(18000.0 / DRAIN_PER_SLOT_V5) + 1 == 373
        assert any(e.event == "die" for e in state.events)
        # Dying agent receives the terminal penalty through r_p.
        assert rewards.r_p[0] <= -cfg.reward.death_penalty


class TestCollection:
    def test_collect_within_comm_radius(self):
        cfg, state = open_field(iot_at=((1.0, 50.0),))
        nxt, rewards, _ = step(state, [0], cfg)  # north: (1,5), dist 45 < 60
        assert any(e.event == "collect" for e in nxt.events)
        assert rewards.r_s.tolist() == [1.0]
        assert nxt.recorded_aoi[0] == 1

    def test_regenerate_keeps_data_flag(self):
        cfg, state = open_field(iot_at=((1.0, 10.0),))
        nxt, _, _ = step(state, [0], cfg)
        assert nxt.has_data[0]
        assert nxt.gen_time[0] == 1

    def test_one_shot_clears_flag(self):
        cfg, state = open_field(iot_at=((1.0, 10.0),), regenerate_on_collect=False)
        nxt, _, _ = step(state, [0], cfg)
        assert not nxt.has_data[0]

    def test_single_collector_per_iot(self):
        cfg, state = open_field(n_uavs=2, iot_at=((0.0, 0.0),),
                                include_hover_action=True)
        state.uav_pos[0] = np.array([5.0, 0.0])
        state.uav_pos[1] = np.array([9.0, 0.0])
        nxt, rewards, _ = step(state, [8, 8], cfg)
        assert rewards.r_s.tolist() == [1.0, 0.0]

    def test_agent_can_collect_two(self):
        cfg, state = open_field(n_iots=2, iot_at=((1.0, 20.0), (1.0, -10.0)),
                                include_hover_action=True)
        nxt, rewards, _ = step(state, [8], cfg)
        assert rewards.r_s.tolist() == [2.0]

    def test_iot_energy_drains_on_collect(self):
        cfg, state = open_field(iot_at=((1.0, 10.0),))
        nxt, _, _ = step(state, [0], cfg)
        assert nxt.iot_energy[0] == cfg.e_iot_init - cfg.channel.tx_power_w * cfg.slot_dt

    def test_rate_gate_blocks_oversized_buffers(self):
        # At ~1e7 bit/s a 1e9-bit buffer cannot clear in one slot, so the
        # gated mode must refuse the collection that the instantaneous mode
        # would have granted.
        gated = replace(CANON, n_uavs=1, horizon=5, rate_gated_collection=True,
                        data_volume=1e9)
        state = reset(gated, seed=1)
        state.iot_pos[0] = [1.0, 10.0]
        nxt, _, _ = step(state, [0], gated)
        assert not any(e.event == "collect" and e.entity_id == 0
                       for e in nxt.events)

    def test_rate_gate_allows_feasible_buffers(self):
        gated = replace(CANON, n_uavs=1, horizon=5, rate_gated_collection=True,
                        data_volume=1e6)
        state = reset(gated, seed=1)
        state.iot_pos[0] = [1.0, 10.0]
        nxt, _, _ = step(state, [0], gated)
        assert any(e.event == "collect" and e.entity_id == 0
                   for e in nxt.events)


class TestPeakAoi:
    def test_max_over_recorded(self):
        state = reset(replace(CANON, n_iots=3), seed=0)
        state.slot = 12
        state.recorded_aoi[:] = (3, 9, 4)
        state.has_data[:] = False
        state.peak_recorded_aoi = 9
        assert peak_aoi(state) == 9

    def test_pending_age_counts(self):
        state = reset(replace(CANON, n_iots=1), seed=0)
        state.slot = 50
        assert peak_aoi(state) >= 50

    def test_all_collected_at_generation(self):
        state = reset(replace(CANON, n_iots=2), seed=0)
        state.has_data[:] = False
        state.recorded_aoi[:] = 0
        assert peak_aoi(state) == 0
        assert state.peak_recorded_aoi == 0

    def test_peak_nondecreasing_over_episode(self):
        cfg = tiny_scenario()
        state = reset(cfg, seed=3)
        rng = np.random.default_rng(3)
        peaks = [peak_aoi(state)]
        done = False
        while not done:
            state, _, done = step(
                state, list(rng.integers(0, cfg.n_actions, cfg.n_uavs)), cfg)
            peaks.append(peak_aoi(state))
        assert all(a <= b for a, b in zip(peaks, peaks[1:]))


def step_both(state, joint, cfg):
    """`step` on ``state``, and `step_batch` on a batch of two copies of it:
    a batch of one would go through `step`, not the batch kernel."""
    nxt, rewards, _ = step(state, joint, cfg)
    batch, batch_rewards, _ = step_batch(WorldBatch.of([state, state]),
                                         np.array([joint, joint]), cfg)
    return nxt, rewards, batch, batch_rewards


class TestRewards:
    def test_healthy_band_gets_r0(self):
        cfg, state = open_field()
        state.uav_energy[0] = 20000.0
        state.uav_pos[0] = np.array([400.0, 0.0])  # outside charging area
        nxt, rewards, _ = step(state, [4], cfg)
        assert rewards.r_p.tolist() == [cfg.reward.r_0]

    def test_low_energy_inside_area_no_penalty(self):
        cfg, state = open_field(include_hover_action=True)
        state.uav_energy[0] = 5000.0
        state.uav_pos[0] = np.array([0.0, 100.0])  # inside charging disc
        nxt, rewards, _ = step(state, [8], cfg)
        assert rewards.r_p.tolist() == [0.0]

    def test_low_energy_outside_area_penalized(self):
        cfg, state = open_field()
        state.uav_energy[0] = 5000.0
        state.uav_pos[0] = np.array([400.0, 0.0])
        nxt, rewards, _ = step(state, [4], cfg)  # south, stays outside
        d_c = float(np.hypot(*nxt.uavs[0].pos)) - cfg.charge_radius
        assert rewards.r_p[0] == pytest.approx(-d_c * cfg.reward.r_pen1)

    def test_total_is_exact_weighted_sum(self):
        cfg, state = open_field(iot_at=((1.0, 50.0),))
        _, r, _ = step(state, [0], cfg)
        rw = cfg.reward
        assert r.total.tolist() == (
            rw.alpha_a * r.r_a + rw.beta_p * r.r_p + rw.gamma_s * r.r_s).tolist()

    def test_one_breakdown_with_an_entry_per_agent(self):
        # `step` gives the AoI term as a float and every other field as
        # (U,) float64; `step_batch` adds a leading episode axis.
        cfg, state = open_field(n_uavs=3, include_hover_action=True)
        _, r, _ = step(state, [8, 8, 8], cfg)
        assert type(r) is RewardBreakdown and type(r.r_a) is float
        for column in (r.r_p, r.r_s, r.total):
            assert column.shape == (3,) and column.dtype == np.float64

    def test_collision_penalty_folded_into_rp(self):
        cfg, state = open_field(n_uavs=2, include_hover_action=True)
        state.uav_pos[0] = np.array([100.0, 0.0])
        state.uav_pos[1] = np.array([104.0, 0.0])
        state.uav_energy[[0, 1]] = 20000.0
        nxt, rewards, _ = step(state, [8, 8], cfg)
        assert rewards.r_p.tolist() == [cfg.reward.r_0 - cfg.reward.event_penalty] * 2


    def test_full_battery_outside_area_penalized_at_r_pen2(self):
        # An epsilon_energy above one hover slot's drain (56.29 J) keeps a
        # full UAV in the full-battery band; 400 m from the LBD at the
        # origin, it is 150 m outside the 250 m charging disc.
        cfg, state = open_field(include_hover_action=True, epsilon_energy=100.0)
        state.uav_energy[0] = cfg.e_full
        state.uav_pos[0] = np.array([400.0, 0.0])
        nxt, rewards, _, batch_rewards = step_both(state, [8], cfg)
        assert 0.0 < cfg.e_full - nxt.uav_energy[0] <= cfg.epsilon_energy
        expected = -150.0 * cfg.reward.r_pen2
        assert rewards.r_p.tolist() == [expected]
        assert batch_rewards.r_p.tolist() == [[expected]] * 2

    def test_uavs_exactly_collision_dist_apart_do_not_collide(self):
        # A collision needs a gap below collision_dist (10 m): two healthy
        # UAVs hovering 10 m apart, outside the charging disc, log none.
        cfg, state = open_field(n_uavs=2, include_hover_action=True)
        state.uav_pos[0] = np.array([300.0, 0.0])
        state.uav_pos[1] = np.array([310.0, 0.0])
        state.uav_energy[[0, 1]] = 20000.0
        nxt, rewards, batch, batch_rewards = step_both(state, [8, 8], cfg)
        assert np.hypot(*(nxt.uav_pos[1] - nxt.uav_pos[0])) == cfg.collision_dist
        assert nxt.collisions == 0
        assert "collide" not in {e.event for e in nxt.events}
        assert rewards.r_p.tolist() == [cfg.reward.r_0] * 2
        assert batch.collisions.tolist() == [0, 0]
        assert batch_rewards.r_p.tolist() == [[cfg.reward.r_0] * 2] * 2


class TestObservation:
    def test_center_agent_entries(self):
        cfg, state = open_field(include_hover_action=True)
        state.uav_pos[0] = np.array([0.0, 0.0])
        obs = observe(state, 0, cfg)
        assert obs[0] == 0.0 and obs[1] == 0.0
        assert obs[2] == cfg.e_init_frac

    def test_dimension_fixed(self):
        cfg = tiny_scenario()
        state = reset(cfg, seed=1)
        for agent in range(cfg.n_uavs):
            assert observe(state, agent, cfg).shape == (cfg.obs_dim,)

    def test_padding_rows_are_sentinel(self):
        cfg = replace(CANON, n_iots=1, obs_k_nearest=3)
        state = reset(cfg, seed=0)
        obs = observe(state, 0, cfg)
        np.testing.assert_array_equal(obs[7:11], np.zeros(4))
        np.testing.assert_array_equal(obs[11:15], np.zeros(4))

    def test_invariant_under_storage_permutation(self):
        cfg = replace(CANON, n_iots=8, obs_k_nearest=4)
        state = reset(cfg, seed=7)
        obs1 = observe(state, 0, cfg)
        rng = np.random.default_rng(0)
        for _ in range(20):
            perm = rng.permutation(cfg.n_iots)
            shuffled = copy.deepcopy(state)
            for name in ("iot_pos", "gen_time", "has_data", "recorded_aoi",
                         "iot_energy"):
                setattr(shuffled, name, getattr(state, name)[perm])
            np.testing.assert_array_equal(observe(shuffled, 0, cfg), obs1)

    def test_equidistant_iots_listed_lower_index_first(self):
        for iot_at in (((1.0, 30.0), (1.0, -30.0)), ((1.0, -30.0), (1.0, 30.0))):
            cfg, state = open_field(n_iots=2, iot_at=iot_at, obs_k_nearest=2)
            obs = observe(state, 0, cfg)
            span = 2.0 * cfg.area_half_side
            assert obs[4] == iot_at[0][1] / span
            assert obs[8] == iot_at[1][1] / span

    def test_dead_agent_rejected(self):
        cfg, state = open_field()
        state.uav_alive[0] = False
        with pytest.raises(ValueError):
            observe(state, 0, cfg)

    @pytest.mark.parametrize("cfg", [CANON, tiny_scenario(),
                                     replace(CANON, n_lbds=10, lbd_layout="ring")])
    def test_all_agents_equal_per_agent_rows(self, cfg):
        state = reset(cfg, seed=3)
        rng = np.random.default_rng(3)
        for _ in range(25):
            rows = observe(state, None, cfg)
            assert rows.shape == (cfg.n_uavs, cfg.obs_dim)
            for j in range(cfg.n_uavs):
                np.testing.assert_array_equal(rows[j], observe(state, j, cfg))
            state, _, _ = step(
                state, list(rng.integers(0, cfg.n_actions, cfg.n_uavs)), cfg)

    def test_all_agents_rejects_a_dead_agent(self):
        cfg, state = open_field(n_uavs=3)
        state.uav_alive[1] = False
        with pytest.raises(ValueError, match="agent 1"):
            observe(state, None, cfg)

    def test_global_state_dimension(self):
        cfg = tiny_scenario()
        state = reset(cfg, seed=1)
        assert global_state_vector(state, cfg).shape == (cfg.global_state_dim,)


class TestIotColumns:
    def test_iot_ages_follow_per_iot_rule(self):
        # IoT 0 pending since slot 2, IoT 1 collected one-shot at age 4,
        # IoT 2 regenerated at slot 7 after a collection at age 5.
        state = reset(replace(CANON, n_iots=3), seed=0)
        state.slot = 10
        state.gen_time[:] = (2, 0, 7)
        state.has_data[:] = (True, False, True)
        state.recorded_aoi[:] = (0, 4, 5)
        expected = [state.slot - int(state.gen_time[i]) if state.has_data[i]
                    else int(state.recorded_aoi[i]) for i in range(3)]
        assert state.iot_ages().tolist() == expected == [8, 4, 3]

    def test_stepping_every_child_leaves_parent_unchanged(self):
        # The oracle expands every joint action from one state, and every
        # child shares iot_pos and lbds with it.
        cfg = replace(tiny_scenario(), regenerate_on_collect=False)
        state = reset(cfg, seed=4)
        state, _, _ = step(state, [0] * cfg.n_uavs, cfg)
        snapshot = copy.deepcopy(state)
        for joint in itertools.product(range(cfg.n_actions), repeat=cfg.n_uavs):
            step(state, list(joint), cfg)
        assert states_equal(state, snapshot)


def play(state, joint, cfg):
    """Step ``state`` to the end of its episode, ``joint`` every slot;
    returns the final state and every event."""
    events, done = [], False
    while not done:
        state, _, done = step(state, joint(), cfg)
        events.extend(state.events)
    return state, events


def tally_events(events, final, cfg):
    """An episode's counts from a scan of its `step` events: the reference
    that `episode_counts` must equal.  A collision is logged once for each
    UAV of the pair; a ``collect`` event names the IoT."""
    kinds = Counter(e.event for e in events)
    collected = {e.entity_id for e in events if e.event == "collect"}
    return EpisodeCounts(
        collections=kinds["collect"],
        uncollected=cfg.n_iots - len(collected),
        low_energy_iots=int(np.count_nonzero(final.iot_energy < cfg.e_iot_floor)),
        deaths=kinds["die"],
        collisions=kinds["collide"] // 2,
        clips=kinds["clip"])


class TestDeterminismAndLog:
    def run_episode(self, cfg, seed):
        rng = np.random.default_rng(seed)
        return play(reset(cfg, seed=seed),
                    lambda: list(rng.integers(0, cfg.n_actions, cfg.n_uavs)), cfg)

    def test_identical_runs_bit_identical(self):
        cfg = replace(tiny_scenario(), horizon=30)
        final_a, events_a = self.run_episode(cfg, 11)
        final_b, events_b = self.run_episode(cfg, 11)
        assert states_equal(final_a, final_b)
        assert events_to_csv(events_a) == events_to_csv(events_b)

    def test_constraint_report_clean_episode(self):
        cfg, state = open_field(iot_at=((1.0, 10.0),), horizon=3)
        final, events = play(state, lambda: [0], cfg)
        counts = episode_counts(final, cfg)
        assert counts == tally_events(events, final, cfg)
        assert counts.uncollected == 0
        assert counts.collisions == 0
        assert counts.clips == 0
        assert counts.deaths == 0

    def test_constraint_report_collision(self):
        cfg, state = open_field(n_uavs=2, include_hover_action=True, horizon=2)
        state.uav_pos[0] = np.array([100.0, 0.0])
        state.uav_pos[1] = np.array([105.0, 0.0])
        final, events = play(state, lambda: [8, 8], cfg)
        counts = episode_counts(final, cfg)
        assert counts == tally_events(events, final, cfg)
        assert counts.collisions >= 1

    def test_constraint_report_boundary(self):
        cfg, state = open_field(horizon=40)
        state.uav_pos[0] = np.array([480.0, 0.0])
        final, events = play(state, lambda: [2], cfg)  # push east into the wall
        counts = episode_counts(final, cfg)
        assert counts == tally_events(events, final, cfg)
        assert counts.clips > 0

    def test_event_csv_format(self):
        cfg, state = open_field(iot_at=((1.0, 10.0),))
        nxt, _, _ = step(state, [0], cfg)
        csv = events_to_csv(nxt.events)
        lines = csv.strip().split("\n")
        assert lines[0] == "slot,entity_kind,entity_id,event,value"
        assert all(len(line.split(",")) == 5 for line in lines[1:])

    def test_event_kinds_within_vocabulary(self):
        cfg = replace(tiny_scenario(), horizon=60,
                      e_init_frac=0.02)  # force a death along the way
        state = reset(cfg, seed=13)
        rng = np.random.default_rng(13)
        seen = set()
        done = False
        while not done:
            state, _, done = step(
                state, list(rng.integers(0, cfg.n_actions, cfg.n_uavs)), cfg)
            seen.update(e.event for e in state.events)
        assert seen <= set(world.EVENT_KINDS)
        assert {"move", "drain", "collect"} <= seen


class TestLayoutFile:
    def test_parse_and_reset(self, tmp_path):
        layout = tmp_path / "field.txt"
        layout.write_text(
            "# toy field\n"
            "IOT 10 20\n"
            "IOT -30 5\n"
            "LBD 0 0 0\n"
            "UAV 1 0\n")
        cfg = replace(CANON, n_uavs=1, n_iots=2, n_lbds=1,
                      layout_file=str(layout))
        state = reset(cfg, seed=99)
        np.testing.assert_array_equal(state.iot_pos[0], [10.0, 20.0])
        np.testing.assert_array_equal(state.iot_pos[1], [-30.0, 5.0])
        np.testing.assert_array_equal(state.uavs[0].pos, [1.0, 0.0])

    def test_lbd_not_below_altitude_rejected(self, tmp_path):
        layout = tmp_path / "field.txt"
        for z in (80, 100):
            layout.write_text(f"IOT 0 0\nLBD 0 0 {z}\nUAV 1 0\n")
            cfg = replace(CANON, n_uavs=1, n_iots=1, layout_file=str(layout))
            with pytest.raises(ConfigError, match="LBD record 1"):
                reset(cfg, seed=0)

    def test_bad_record_rejected(self):
        with pytest.raises(ConfigError):
            parse_layout("IOT 1\n")

    def test_count_mismatch_rejected(self, tmp_path):
        layout = tmp_path / "field.txt"
        layout.write_text("IOT 0 0\n")
        cfg = replace(CANON, n_iots=2, layout_file=str(layout))
        with pytest.raises(ConfigError):
            reset(cfg, seed=0)


class TestGoldenMultiUavStep:
    """A scripted 3-UAV, 2-LBD run whose slots hit every branch of `step`.

    Slot 1: UAV 0 clips at the square edge, UAV 1 at the flight disc, all
    three UAVs collide pairwise, UAVs 0 and 2 contest LBD 0 (the nearer one
    wins) and UAV 2 collects IoTs 0 and 1.  UAV 1 then hovers off-station and
    dies at slot 4.  Every byte below was captured before the UAV state
    became columns.
    """

    CFG = replace(CANON, n_uavs=3, n_iots=4, n_lbds=2, area_half_side=50.0,
                  speed=10.0, horizon=10, charge_radius=12.0, flight_limit=55.0,
                  e_full=1000.0, e_init_frac=0.2, e_charge_threshold=100.0,
                  comm_radius=6.0, collision_dist=15.0,
                  include_hover_action=True)
    LAYOUT = ([(42.0, 24.0), (46.0, 21.0), (-40.0, 40.0), (0.0, -45.0)],
              [(48.0, 18.0, 0.0), (-30.0, -30.0, 10.0)],
              [(45.0, 20.0), (42.0, 26.0), (44.0, 12.0)])
    PLAN = ([2, 1, 0], [8, 8, 4], [8, 8, 6], [8, 8, 6])

    EVENTS_CSV = (
        'slot,entity_kind,entity_id,event,value\n'
        '1,uav,0,move,10.0\n'
        '1,uav,0,clip,5.0\n'
        '1,uav,1,move,10.0\n'
        '1,uav,1,clip,4.174869855485993\n'
        '1,uav,2,move,10.0\n'
        '1,uav,0,collide,11.600955089041028\n'
        '1,uav,1,collide,11.600955089041028\n'
        '1,uav,0,collide,6.324555320336759\n'
        '1,uav,2,collide,6.324555320336759\n'
        '1,uav,1,collide,8.884770793250228\n'
        '1,uav,2,collide,8.884770793250228\n'
        '1,uav,0,charge,149.98799298292946\n'
        '1,uav,0,drain,40.60243756526654\n'
        '1,uav,1,drain,40.60243756526654\n'
        '1,uav,2,drain,40.60243756526654\n'
        '1,iot,0,collect,2.0\n'
        '1,iot,1,collect,2.0\n'
        '2,uav,2,move,10.0\n'
        '2,uav,0,collide,11.600955089041028\n'
        '2,uav,1,collide,11.600955089041028\n'
        '2,uav,0,collide,10.0\n'
        '2,uav,2,collide,10.0\n'
        '2,uav,0,charge,149.98799298292946\n'
        '2,uav,0,drain,56.2926\n'
        '2,uav,1,drain,56.2926\n'
        '2,uav,2,drain,40.60243756526654\n'
        '2,iot,1,collect,0.0\n'
        '3,uav,2,move,10.0\n'
        '3,uav,0,collide,11.600955089041028\n'
        '3,uav,1,collide,11.600955089041028\n'
        '3,uav,0,charge,149.98799298292946\n'
        '3,uav,0,drain,56.2926\n'
        '3,uav,1,drain,56.2926\n'
        '3,uav,2,drain,40.60243756526654\n'
        '3,iot,1,collect,0.0\n'
        '4,uav,2,move,10.0\n'
        '4,uav,0,collide,11.600955089041028\n'
        '4,uav,1,collide,11.600955089041028\n'
        '4,uav,0,charge,149.98799298292946\n'
        '4,uav,0,drain,56.2926\n'
        '4,uav,1,drain,56.2926\n'
        '4,uav,1,die,4.0\n'
        '4,uav,2,drain,40.60243756526654\n'
        '4,iot,1,collect,0.0\n'
    )
    # Per slot: r_a, then each agent's r_p, r_s and total.
    REWARDS = [
        (-0.1,
         [-2.9, -2.9, -1.9],
         [0.0, 0.0, 2.0],
         [-1.55, -1.55, 0.95]),
        (-0.2,
         [-1.9, -0.9, -0.9],
         [1.0, 0.0, 0.0],
         [-0.1499999999999999, -0.65, -0.65]),
        (-0.3,
         [-0.9, -1.00960313696972, -0.032315462117278176],
         [1.0, 0.0, 0.0],
         [0.25, -0.80480156848486, -0.3161577310586391]),
        (-0.4,
         [-0.9, -11.00960313696972, -0.1273863375370596],
         [1.0, 0.0, 0.0],
         [0.1499999999999999, -5.90480156848486, -0.46369316876852984]),
    ]

    def test_events_rewards_and_final_state_pinned(self):
        state = reset(self.CFG, seed=0, layout=self.LAYOUT)
        events, rewards, done = [], [], False
        for joint in self.PLAN:
            assert not done
            state, r, done = step(state, joint, self.CFG)
            events.extend(state.events)
            rewards.append((r.r_a, r.r_p.tolist(), r.r_s.tolist(), r.total.tolist()))
        assert done and state.slot == 4
        assert events_to_csv(events) == self.EVENTS_CSV
        assert rewards == self.REWARDS
        uavs = state.uavs
        assert [u.pos.tolist() for u in uavs] == [
            [50.0, 20.0], [45.609035326038665, 30.73785771045466], [24.0, 12.0]]
        assert [u.energy for u in uavs] == [590.4717343664512, 0.0,
                                            37.590249738933835]
        assert [u.alive for u in uavs] == [True, False, True]
        assert [u.charging_lbd for u in uavs] == [0, None, None]
        assert state.gen_time.tolist() == [1, 4, 0, 0]
        assert state.has_data.tolist() == [True, True, True, True]
        assert state.recorded_aoi.tolist() == [1, 1, 0, 0]
        assert state.iot_energy.tolist() == [999.9, 999.5999999999999,
                                             1000.0, 1000.0]
        assert state.peak_recorded_aoi == 1


def lock_step_against_step(cfg, episodes, seed, layout=None, twins=False):
    """Play ``episodes`` random episodes with `step_batch` and each one alone
    with `step`, asserting that every row equals its episode bit for bit:
    state, tallies, rewards and done; the batch builds no events.
    A finished episode leaves the batch, and its `episode_counts` must equal
    the tally of its `step` events.  With ``twins``, episode e of the second
    half plays the actions of episode e - episodes // 2, so the two stay
    equal.  Returns each episode's `step` events."""
    start = reset(cfg, seed=1, layout=layout)
    rng = np.random.default_rng(seed)
    states = [start] * episodes
    logs = [[] for _ in range(episodes)]
    batch = WorldBatch.of([start] * episodes)
    live = list(range(episodes))
    half = episodes // 2
    while live:
        actions = rng.integers(0, cfg.n_actions, (len(live), cfg.n_uavs))
        if twins:
            at = {e: k for k, e in enumerate(live)}
            for k, e in enumerate(live):
                if e >= half:
                    actions[k] = actions[at[e - half]]
        batch, rewards, done = step_batch(batch, actions, cfg)
        assert batch.events == []
        for k, e in enumerate(live):
            states[e], expected, ended = step(states[e], actions[k].tolist(), cfg)
            logs[e].extend(states[e].events)
            assert states_equal(batch.row(k), replace(states[e], events=[]))
            for name in ("r_a", "r_p", "r_s", "total"):    # bit for bit
                assert (np.asarray(getattr(rewards, name)[k]).tobytes()
                        == np.asarray(getattr(expected, name)).tobytes())
            assert bool(done[k]) == ended
            if ended:
                assert episode_counts(batch.row(k), cfg) == tally_events(
                    logs[e], states[e], cfg)
        batch = batch.take(~done)
        live = [e for e, ended in zip(live, done.tolist()) if not ended]
    return logs


def event_kinds(logs):
    return {e.event for events in logs for e in events}


# One UAV and two LBDs at heights 0 and 25 m, 40 m apart: in most slots
# some episodes charge at one height and some at the other.
ONE_UAV = replace(tiny_scenario(), n_uavs=1, n_lbds=2)
ONE_UAV_LAYOUT = ([], [(-20.0, 0.0, 0.0), (20.0, 0.0, 25.0)], [(0.0, 0.0)])


class TestStepBatch:
    @pytest.mark.parametrize("cfg, episodes, seed, layout, kinds, ends", [
        pytest.param(tiny_scenario(), 4, 2, None, set(), 1, id="tiny"),
        pytest.param(tiny_scenario(), 1, 2, None, set(), 1,
                     id="tiny-one-episode"),
        pytest.param(CANON, 3, 2, None, set(), 1, id="canonical"),
        pytest.param(replace(CANON, n_lbds=10, lbd_layout="ring"), 3, 2, None,
                     set(), 1, id="canonical_ring"),
        pytest.param(TestGoldenMultiUavStep.CFG, 6, 6, TestGoldenMultiUavStep.LAYOUT,
                     {"collide", "charge", "clip", "die"}, 1, id="crowded"),
        pytest.param(replace(tiny_scenario(), n_uavs=3, e_init_frac=0.03), 6, 6,
                     None, {"die"}, 3, id="ragged-deaths"),
        pytest.param(ONE_UAV, 6, 7, ONE_UAV_LAYOUT, {"charge", "clip"}, 1,
                     id="one-uav-two-heights"),
        pytest.param(replace(ONE_UAV, rate_gated_collection=True, data_volume=1.04e7),
                     6, 7, ONE_UAV_LAYOUT, {"charge", "clip"}, 1,
                     id="one-uav-two-heights-rate-gated"),
    ])
    def test_rows_equal_step(self, cfg, episodes, seed, layout, kinds, ends):
        # Rows stay equal to `step` where UAVs collide, clip, charge and die,
        # also as episodes leave the batch at different slots.
        logs = lock_step_against_step(cfg, episodes, seed, layout=layout)
        assert kinds | {"move", "drain", "collect"} <= event_kinds(logs)
        assert len({events[-1].slot for events in logs}) >= ends

    def test_square_and_disc_clipping(self):
        logs = lock_step_against_step(tiny_scenario(), 4, seed=3)
        clips = [e for events in logs for e in events if e.event == "clip"]
        assert len(clips) > 10

    def test_rate_gated_one_shot_collection(self):
        # 1.04e7 bits clear in one slot only within about 33 m of the UAV.
        cfg = replace(tiny_scenario(), rate_gated_collection=True,
                      regenerate_on_collect=False, data_volume=1.04e7)
        gated = lock_step_against_step(cfg, 4, seed=4)
        free = lock_step_against_step(
            replace(cfg, rate_gated_collection=False), 4, seed=4)
        count = [sum(e.event == "collect" for e in events) for events in gated]
        assert 0 < sum(count) and count != [
            sum(e.event == "collect" for e in events) for events in free]

    def test_rate_gate_with_repeated_distances(self):
        # Sixteen pairs of twin episodes: each collector distance comes up
        # at least twice in a slot, and the rate gate, evaluated once per
        # distinct distance, must still give each row its own `step` result.
        cfg = replace(tiny_scenario(), rate_gated_collection=True,
                      data_volume=1.04e7)
        gated = lock_step_against_step(cfg, 32, seed=9, twins=True)
        free = lock_step_against_step(
            replace(cfg, rate_gated_collection=False), 32, seed=9, twins=True)
        assert gated[:16] == gated[16:]
        count = [sum(e.event == "collect" for e in events) for events in gated]
        assert 0 < sum(count) < sum(
            sum(e.event == "collect" for e in events) for events in free)

    def test_crowded_two_lbds_with_collisions_and_deaths(self):
        golden = TestGoldenMultiUavStep
        logs = lock_step_against_step(golden.CFG, 6, seed=5, layout=golden.LAYOUT)
        assert {"collide", "charge", "clip", "die"} <= event_kinds(logs)

    def test_charging_at_two_beam_heights(self):
        # The golden layout's stations stand 0 and 10 m tall; start a UAV
        # beside each, so one slot charges at both beam heights.
        golden = TestGoldenMultiUavStep
        layout = (golden.LAYOUT[0], golden.LAYOUT[1],
                  [(45.0, 20.0), (-28.0, -30.0), (44.0, 12.0)])
        logs = lock_step_against_step(golden.CFG, 6, seed=10, layout=layout)
        assert "charge" in event_kinds(logs)
        batch = WorldBatch.of([reset(golden.CFG, seed=1, layout=layout)] * 2)
        nxt, _, _ = step_batch(batch, np.full((2, 3), 8), golden.CFG)
        assert nxt.charging_lbd.tolist() == [[0, 1, -1]] * 2

    def test_low_energy_deaths_end_episodes_at_different_slots(self):
        cfg = replace(tiny_scenario(), n_uavs=3, e_init_frac=0.03)
        logs = lock_step_against_step(cfg, 6, seed=6)
        ends = {events[-1].slot for events in logs}
        assert len(ends) > 2 and max(ends) < cfg.horizon
        assert all(any(e.event == "die" for e in events) for events in logs)

    @pytest.mark.parametrize("cfg, episodes, layout, kinds, ends", [
        pytest.param(tiny_scenario(), 4, None, {"clip", "collect"}, 1, id="tiny"),
        pytest.param(tiny_scenario(), 1, None, {"collect"}, 1,
                     id="tiny-one-episode"),
        pytest.param(TestGoldenMultiUavStep.CFG, 6, TestGoldenMultiUavStep.LAYOUT,
                     {"collide", "charge", "clip", "die"}, 1, id="crowded"),
        pytest.param(replace(tiny_scenario(), n_uavs=3, e_init_frac=0.03), 6,
                     None, {"die"}, 3, id="ragged-deaths"),
    ])
    def test_recording_batch_events_equal_step_events(self, cfg, episodes,
                                                      layout, kinds, ends,
                                                      tmp_path):
        # A lock-step batch builds no events; `train` records an episode's by
        # replaying its stored joint actions through `step`.  Row by row those
        # are the events of the episode played alone through `step`, also as
        # episodes die and leave the batch at different slots.
        if layout is not None:
            iots, lbds, uavs = layout
            field = tmp_path / "field.txt"
            field.write_text("".join(
                [f"IOT {x} {y}\n" for x, y in iots]
                + [f"LBD {x} {y} {z}\n" for x, y, z in lbds]
                + [f"UAV {x} {y}\n" for x, y in uavs]))
            cfg = replace(cfg, layout_file=str(field))
        tconf = TrainConfig(hidden_size=8, head_hidden=8, critic_hidden1=8,
                            critic_hidden2=8)
        bundle = trainer.build_bundle(cfg, tconf, seed=6)
        batch = trainer.collect_rollout(cfg, bundle, episodes, seed=6)
        logs = []
        for e, ep in enumerate(batch.episodes):
            policy = trainer.make_policy("learned", cfg, bundle)
            rng = np.random.default_rng([6, e])
            state, alone, done = reset(cfg, cfg.rng_seed), [], False
            while not done:
                state, _, done = step(
                    state, policy.joint_action(state, rng, False), cfg)
                alone.extend(state.events)
            logs.append(trainer._replay_events(cfg, ep))
            assert events_to_csv(logs[-1]) == events_to_csv(alone)
        assert kinds | {"move", "drain"} <= event_kinds(logs)
        assert len({events[-1].slot for events in logs}) >= ends

    def test_world_step_takes_a_batch(self):
        cfg = tiny_scenario()
        batch = WorldBatch.of([reset(cfg, seed=1)] * 2)
        joint = np.array([[0, 1], [2, 3]])
        by_step, by_batch = step(batch, joint, cfg), step_batch(batch, joint, cfg)
        assert states_equal(by_step[0].row(1), by_batch[0].row(1))
        np.testing.assert_array_equal(by_step[1].total, by_batch[1].total)

    @pytest.mark.parametrize("stepped", [False, True])
    def test_take_by_index_and_join_rebuild_the_batch(self, stepped):
        # Both a batch fresh from `of` and one `step_batch` returned.
        cfg = tiny_scenario()
        rng = np.random.default_rng(3)
        batch = WorldBatch.of([reset(cfg, seed=s) for s in (1, 2, 3, 4)])
        if stepped:
            batch, _, _ = step_batch(
                batch, rng.integers(cfg.n_actions, size=(4, 2)), cfg)
        parts = [batch.take(np.array([3, 0])), batch.take([1]),
                 batch.take(np.array([False, False, True, False]))]
        joined = WorldBatch.join(parts)
        for b, original in enumerate([3, 0, 1, 2]):
            assert states_equal(joined.row(b), batch.row(original))

    def test_every_batch_is_a_world_state_with_no_events(self):
        # `of`, `join`, `take` and `step_batch` (the kernel and the
        # one-episode path through `step`) all give a `WorldState` whose
        # events are empty; the rewards are one `RewardBreakdown` of arrays.
        cfg = tiny_scenario()
        made = WorldBatch.of([reset(cfg, seed=1)] * 3)
        stepped, rewards, _ = step_batch(made, np.zeros((3, 2), dtype=int), cfg)
        alone, alone_rewards, _ = step_batch(made.take([0]), np.zeros((1, 2), dtype=int),
                                             cfg)
        for batch in (made, WorldBatch.join([made, made.take([1])]),
                      made.take([2, 0]), stepped, alone):
            assert type(batch) is WorldBatch and isinstance(batch, world.WorldState)
            assert batch.events == []
        for got, b in ((rewards, 3), (alone_rewards, 1)):
            assert type(got) is RewardBreakdown
            assert got.r_a.shape == (b,)
            assert got.r_p.shape == got.r_s.shape == got.total.shape == (b, 2)

    @pytest.mark.parametrize("keep", [
        np.array([True, False, True, True, False]), np.array([4, 0, 0, 2]),
        [3, 1], [], np.zeros(5, bool)],
        ids=["mask", "indices", "list", "empty-list", "empty-mask"])
    def test_take_gives_the_indexed_columns(self, keep):
        cfg = tiny_scenario()
        batch = WorldBatch.of([reset(cfg, seed=s) for s in range(5)])
        batch, _, _ = step_batch(
            batch, np.random.default_rng(4).integers(cfg.n_actions, size=(5, 2)), cfg)
        got = batch.take(keep)
        assert got.slot == batch.slot
        assert got.lbds is batch.lbds and got.iot_pos is batch.iot_pos
        for name in (*world._COLUMNS, *world._TALLIES):
            expected = getattr(batch, name)[keep]
            column = getattr(got, name)
            assert (column.dtype, column.shape) == (expected.dtype, expected.shape)
            np.testing.assert_array_equal(column, expected)

    def test_invalid_calls_rejected(self):
        cfg = replace(tiny_scenario(), horizon=1)
        batch = WorldBatch.of([reset(cfg, seed=1)] * 2)
        with pytest.raises(ValueError, match="shape"):
            step_batch(batch, np.zeros((2, 3), dtype=int), cfg)
        with pytest.raises(ValueError, match="action index"):
            step_batch(batch, np.full((2, 2), cfg.n_actions), cfg)
        batch, _, done = step_batch(batch, np.zeros((2, 2), dtype=int), cfg)
        assert done.all()
        with pytest.raises(EpisodeOver):
            step_batch(batch, np.zeros((2, 2), dtype=int), cfg)

    def test_observe_and_global_state_rows_equal_each_episode(self):
        cfg = CANON
        start = reset(cfg, seed=1)
        rng = np.random.default_rng(8)
        states = [start] * 3
        batch = WorldBatch.of([start] * 3)
        for _ in range(20):
            actions = rng.integers(0, cfg.n_actions, (3, cfg.n_uavs))
            batch, _, _ = step_batch(batch, actions, cfg)
            states = [step(st, a.tolist(), cfg)[0] for st, a in zip(states, actions)]
            rows, gstates = observe(batch, None, cfg), global_state_vector(batch, cfg)
            for b, st in enumerate(states):
                np.testing.assert_array_equal(rows[b], observe(st, None, cfg))
                np.testing.assert_array_equal(gstates[b], global_state_vector(st, cfg))


class TestPerDistinct:
    def test_one_call_per_distinct_value(self):
        calls = []

        def f(v):
            calls.append(v)
            return v * v

        out = world._per_distinct(f, np.array([3.0, 1.0, 3.0, 2.0, 1.0, 3.0]))
        assert sorted(calls) == [1.0, 2.0, 3.0]
        assert out.tolist() == [9.0, 1.0, 9.0, 4.0, 1.0, 9.0]

    def test_bitwise_equal_to_scalar_calls(self):
        rng = np.random.default_rng(11)
        x = rng.choice(rng.uniform(0.0, 300.0, 40), 400)   # unsorted, repeats

        def f(d):
            return world.laser_power_received(LaserParams(), d, 10.0)

        expected = np.array([f(v) for v in x.tolist()])
        assert world._per_distinct(f, x).tobytes() == expected.tobytes()

    def test_signed_zeros_share_a_call(self):
        calls = []
        out = world._per_distinct(lambda v: calls.append(v) or 1.0,
                                  np.array([0.0, -0.0, 0.0]))
        assert len(calls) == 1 and out.tolist() == [1.0] * 3


class TestShortAxisHelpers:
    SHAPES = [(37, 4), (5, 6, 2), (9, 1), (0, 3)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_argmin_min_equals_argmin_and_min(self, shape):
        rng = np.random.default_rng(12)
        x = rng.integers(0, 3, shape).astype(float)   # many ties
        x[rng.random(shape[:-1]) < 0.2] = np.inf       # some all-inf rows
        index, low = world._argmin_min(x)
        assert index.dtype == x.argmin(axis=-1).dtype
        np.testing.assert_array_equal(index, x.argmin(axis=-1))
        assert low.tobytes() == x.min(axis=-1).tobytes()

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("ufunc, reduce", [
        (np.add, np.sum), (np.maximum, np.max), (np.minimum, np.min),
        (np.logical_or, np.any), (np.logical_and, np.all)])
    @pytest.mark.parametrize("dtype", [bool, np.int64, float])
    def test_rowwise_equals_the_reduction(self, shape, ufunc, reduce, dtype):
        x = np.random.default_rng(13).integers(0, 3, shape).astype(dtype)
        got, expected = world._rowwise(ufunc, x), reduce(x, axis=-1)
        assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
        assert got.tobytes() == expected.tobytes()
