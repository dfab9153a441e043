"""Config text format: parse/dump round trips and strict key checking."""

import pytest

from aoi_uav.config import ConfigError, ScenarioConfig, TrainConfig, tiny_scenario
from aoi_uav.config_io import (
    RunSettings,
    apply_sweep_value,
    dump_config,
    load_config,
    parse_config,
)


class TestParse:
    def test_empty_text_gives_defaults(self):
        scenario, tconf, run = parse_config("")
        assert scenario == ScenarioConfig()
        assert tconf == TrainConfig()
        assert run.seed == 0

    def test_values_and_comments(self):
        text = """
        # a comment
        [scenario]
        n_uavs = 2        # trailing comment
        speed = 7.5
        include_hover_action = true

        [laser]
        conversion_eff = 0.25

        [train]
        episodes = 12
        algo = mappo_ff
        """
        scenario, tconf, _ = parse_config(text)
        assert scenario.n_uavs == 2
        assert scenario.speed == 7.5
        assert scenario.include_hover_action is True
        assert scenario.laser.conversion_eff == 0.25
        assert tconf.episodes == 12
        assert tconf.algo == "mappo_ff"

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ConfigError, match="warp_speed"):
            parse_config("[scenario]\nwarp_speed = 3\n")

    def test_unknown_section_is_hard_error(self):
        with pytest.raises(ConfigError, match="propulsionn"):
            parse_config("[propulsionn]\ntip_speed = 80\n")

    def test_bad_number_names_key(self):
        with pytest.raises(ConfigError, match="n_uavs"):
            parse_config("[scenario]\nn_uavs = four\n")

    def test_key_outside_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("n_uavs = 2\n")

    def test_invalid_config_rejected_at_parse(self):
        for text, key in (
                ("[scenario]\ncharge_radius = 900\nflight_limit = 500\n",
                 "charge_radius"),
                ("[train]\nhidden_size = 0\n", "hidden_size"),
                ("[train]\nhead_hidden = 0\n", "head_hidden"),
                ("[train]\ncritic_hidden1 = 0\n", "critic_hidden1"),
                ("[train]\ncritic_hidden2 = -4\n", "critic_hidden2"),
                ("[train]\neval_interval = 0\n", "eval_interval"),
                ("[train]\nlearning_rate = -1\n", "learning_rate"),
                ("[train]\nlearning_rate = 0.0\n", "learning_rate"),
                ("[run]\nseed = -3\n", "seed"),
                ("[train]\nepisodes = 1\nepisodes = 300\n", "line 3: key 'episodes'"),
                ("[scenario]\nspeed = nan\n", "speed"),
                ("[scenario]\nspeed = inf\n", "speed"),
                ("[train]\nlearning_rate = nan\n", "learning_rate"),
                ("[scenario]\naltitude = 0.0\n", "altitude"),
                ("[scenario]\naltitude = -5\n", "altitude"),
                ("[train]\nadam_beta1 = 1.0\n", "adam_beta1"),
                ("[train]\nadam_beta1 = -0.1\n", "adam_beta1"),
                ("[train]\nadam_beta2 = 1.0\n", "adam_beta2"),
                ("[train]\nadam_eps = 0.0\n", "adam_eps"),
                ("[train]\nclip_norm = -1.0\n", "clip_norm"),
                ("[scenario]\ne_full = 0.0\ne_charge_threshold = -1.0\n",
                 "e_full"),
                ("[scenario]\ne_full = -100.0\ne_charge_threshold = -200.0\n",
                 "e_full"),
                ("[scenario]\nflight_limit = -5.0\ncharge_radius = -10.0\n",
                 "flight_limit"),
                ("[scenario]\nflight_limit = 0.0\ncharge_radius = 0.0\n",
                 "flight_limit"),
                ("[scenario]\ncharge_radius = -10.0\n", "charge_radius"),
                ("[reward]\naoi_norm = -5.0\n", "aoi_norm"),
                ("[scenario]\ncollision_dist = -5\n", "collision_dist"),
                ("[scenario]\ndata_volume = -1\n", "data_volume"),
                ("[scenario]\ndata_volume = 0\n", "data_volume"),
                ("[scenario]\ne_iot_init = -10\n", "e_iot_init"),
                ("[scenario]\ne_iot_floor = -1\n", "e_iot_floor"),
                ("[scenario]\nepsilon_energy = -1\n", "epsilon_energy"),
                ("[train]\nvalue_coef = -0.5\n", "value_coef"),
                ("[train]\nentropy_coef = -1\n", "entropy_coef"),
                ("[reward]\nevent_penalty = -1\n", "event_penalty"),
                ("[reward]\ndeath_penalty = -10\n", "death_penalty"),
                ("[reward]\nr_pen1 = -0.01\n", "r_pen1"),
                ("[reward]\nr_pen2 = -0.005\n", "r_pen2")):
            with pytest.raises(ConfigError, match=key):
                parse_config(text)


class TestRoundTrip:
    def test_dump_reparses_identically(self):
        scenario = tiny_scenario()
        tconf = TrainConfig(episodes=42, learning_rate=1e-3, algo="mappo_ff")
        run = RunSettings(seed=7, started_at="2026-01-01T00:00:00", out_dir="x")
        text = dump_config(scenario, tconf, run)
        scenario2, tconf2, run2 = parse_config(text)
        assert scenario2 == scenario
        assert tconf2 == tconf
        assert run2 == run

    def test_float_precision_preserved(self):
        scenario = ScenarioConfig(speed=0.1 + 0.2)  # 0.30000000000000004
        text = dump_config(scenario, TrainConfig())
        scenario2, _, _ = parse_config(text)
        assert scenario2.speed == scenario.speed

    def test_load_from_file(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text(dump_config(tiny_scenario(), TrainConfig()))
        scenario, _, _ = load_config(str(p))
        assert scenario == tiny_scenario()

    def test_missing_file_names_path(self):
        with pytest.raises(ConfigError, match="no/such/file"):
            load_config("no/such/file.cfg")


class TestSweepMapping:
    def test_eta_le(self):
        scen = apply_sweep_value(ScenarioConfig(), "eta_le", 0.05)
        assert scen.laser.conversion_eff == 0.05

    def test_laser_power(self):
        scen = apply_sweep_value(ScenarioConfig(), "P_L", 500.0)
        assert scen.laser.power_w == 500.0

    def test_counts(self):
        scen = apply_sweep_value(ScenarioConfig(), "n_uavs", 8)
        assert scen.n_uavs == 8
        scen = apply_sweep_value(ScenarioConfig(), "n_iots", 20)
        assert scen.n_iots == 20

    def test_unknown_param(self):
        with pytest.raises(ConfigError):
            apply_sweep_value(ScenarioConfig(), "mass", 1.0)
