"""Exhaustive-search oracle: hand-traced optima, witnesses, invariances."""

import gc
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from aoi_uav import world
from aoi_uav.config import ConfigError, ScenarioConfig
from aoi_uav.oracle import (
    OracleGuardExceeded,
    exact_min_peak_aoi,
    load_instance,
    make_instance,
    parse_instance,
    replay_verify,
    witness_from_text,
)
from aoi_uav.trainer import GreedyPolicy


def bundled(name):
    path = resources.files("aoi_uav").joinpath("instances", name)
    return parse_instance(path.read_text())


def toy_config(**kw):
    base = dict(horizon=3, speed=10.0, comm_radius=5.0)
    base.update(kw)
    return replace(ScenarioConfig(), **base)


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

    @pytest.mark.parametrize("name, optimum, witness, expanded", [
        ("adjacent_iot.txt", 1, "N,N,N", 1),
        ("two_iot_symmetric.txt", 3, "N,S,S,N", 238),
    ])
    def test_bundled_solves_pinned(self, name, optimum, witness, expanded):
        result = exact_min_peak_aoi(bundled(name))
        assert (result.optimum, result.witness_text(),
                result.states_expanded) == (optimum, witness, expanded)

    def test_solve_leaves_no_reference_cycles(self):
        # The memo must be freed when the solve returns, not whenever the
        # cycle collector next runs.
        inst = bundled("two_iot_symmetric.txt")
        gc.collect()
        gc.disable()
        try:
            exact_min_peak_aoi(inst)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_witness_text_round_trip(self):
        inst = bundled("two_iot_symmetric.txt")
        result = exact_min_peak_aoi(inst)
        text = result.witness_text()
        assert witness_from_text(text, inst.config.n_uavs) == result.witness

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

    def test_replay_length_mismatch(self):
        inst = bundled("adjacent_iot.txt")
        with pytest.raises(ValueError):
            replay_verify(inst, [(0,)])

    def test_unknown_cfg_key_rejected(self):
        with pytest.raises(ConfigError):
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
