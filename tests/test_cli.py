"""CLI surface: subcommands, exit codes, file outputs, manifest replay."""

from dataclasses import replace

import pytest

from aoi_uav import cli, oracle, world
from aoi_uav.config import TrainConfig, tiny_scenario
from aoi_uav.config_io import dump_config, load_config


@pytest.fixture()
def mini_cfg(tmp_path):
    scen = replace(tiny_scenario(), horizon=12)
    tconf = TrainConfig(episodes=2, episodes_per_update=2, epochs=2,
                        hidden_size=8, head_hidden=8,
                        critic_hidden1=8, critic_hidden2=8, eval_interval=10)
    path = tmp_path / "mini.cfg"
    path.write_text(dump_config(scen, tconf))
    return path


def read_metrics_rows(path, drop_wall_ms=True):
    lines = path.read_text().strip().split("\n")
    if drop_wall_ms:
        lines = [line.rsplit(",", 1)[0] for line in lines]
    return lines


class TestTrain:
    def test_outputs_and_layout(self, mini_cfg, tmp_path):
        out = tmp_path / "run"
        code = cli.main(["train", "--config", str(mini_cfg), "--seed", "3",
                         "--out", str(out)])
        assert code == 0
        assert (out / "manifest.txt").is_file()
        assert (out / "metrics.csv").is_file()
        assert (out / "checkpoints" / "ep_2.ckpt").is_file()
        rows = read_metrics_rows(out / "metrics.csv", drop_wall_ms=False)
        assert rows[0] == ("episode,cum_reward,aoi_reward,energy_reward,"
                           "peak_aoi,collections,collisions,clips,wall_ms")
        assert len(rows) == 3  # header + 2 episodes

    def test_same_seed_same_metrics(self, mini_cfg, tmp_path):
        cli.main(["train", "--config", str(mini_cfg), "--seed", "7",
                  "--out", str(tmp_path / "a")])
        cli.main(["train", "--config", str(mini_cfg), "--seed", "7",
                  "--out", str(tmp_path / "b")])
        # Identical apart from the wall-clock column.
        rows_a = read_metrics_rows(tmp_path / "a" / "metrics.csv")
        rows_b = read_metrics_rows(tmp_path / "b" / "metrics.csv")
        assert rows_a == rows_b

    def test_manifest_replay_reproduces_run(self, mini_cfg, tmp_path):
        out_a = tmp_path / "a"
        cli.main(["train", "--config", str(mini_cfg), "--seed", "5",
                  "--out", str(out_a), "--events"])
        out_b = tmp_path / "b"
        code = cli.main(["train", "--config", str(out_a / "manifest.txt"),
                         "--out", str(out_b), "--events"])
        assert code == 0
        assert (read_metrics_rows(out_a / "metrics.csv")
                == read_metrics_rows(out_b / "metrics.csv"))
        # Checkpoints and event logs are byte-identical too.
        for sub in ("checkpoints", "events"):
            names = sorted(p.name for p in (out_a / sub).iterdir())
            assert names == sorted(p.name for p in (out_b / sub).iterdir())
            assert names
            for name in names:
                assert ((out_a / sub / name).read_bytes()
                        == (out_b / sub / name).read_bytes()), name

    def test_missing_config_exit_2_names_path(self, tmp_path, capsys):
        code = cli.main(["train", "--config", str(tmp_path / "gone.cfg"),
                         "--out", str(tmp_path / "x")])
        assert code == 2
        assert "gone.cfg" in capsys.readouterr().err

    def test_bad_key_exit_2_names_key(self, mini_cfg, tmp_path, capsys):
        # The later cases are manifests written before a key was removed:
        # they must fail loudly, not train.
        old = mini_cfg.read_text()
        for text, key in (
                ("[scenario]\nwarp_speed = 3\n", "warp_speed"),
                (old + "old_sync_period = 1\n", "old_sync_period"),
                (old + "normalize_advantages = true\n", "normalize_advantages"),
                (old + "per_agent_value_weights = false\n",
                 "per_agent_value_weights"),
                (old + "[scenario]\nuse_slant_distance = true\n",
                 "use_slant_distance"),
                (old + "[scenario]\nrng_seed = 0\n", "rng_seed")):
            bad = tmp_path / "bad.cfg"
            bad.write_text(text)
            code = cli.main(["train", "--config", str(bad),
                             "--out", str(tmp_path / "x")])
            assert code == 2
            assert key in capsys.readouterr().err

    def test_events_flag_writes_event_logs(self, mini_cfg, tmp_path):
        out = tmp_path / "run"
        cli.main(["train", "--config", str(mini_cfg), "--seed", "1",
                  "--out", str(out), "--events"])
        ep0 = out / "events" / "ep_0.csv"
        assert ep0.is_file()
        assert ep0.read_text().startswith("slot,entity_kind,entity_id,event,value")

    def test_events_run_steps_no_batch_row_by_row(self, mini_cfg, tmp_path,
                                                  monkeypatch):
        # Four episodes per update, none cut short: collection steps them in
        # lock step, and their events come from replays through `step`, so
        # `step_batch` never falls back to stepping a batch row by row.
        calls = []
        real_step_rows = world._step_rows

        def step_rows(*args):
            calls.append(args)
            return real_step_rows(*args)

        monkeypatch.setattr(world, "_step_rows", step_rows)
        scen, tconf, _ = load_config(str(mini_cfg))
        cfg = tmp_path / "four.cfg"
        cfg.write_text(dump_config(
            scen, replace(tconf, episodes=8, episodes_per_update=4)))
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(cfg), "--seed", "1",
                         "--out", str(out), "--events"]) == 0
        assert len(list((out / "events").iterdir())) == 8
        assert calls == []


@pytest.mark.parametrize("argv, run_section, flag", [
    pytest.param(["eval", "--policy", "greedy", "--episodes", "0"], "",
                 "--episodes", id="eval-episodes-0"),
    pytest.param(["sweep", "--param", "eta_le", "--values", "0.1",
                  "--episodes", "0"], "", "--episodes", id="sweep-episodes-0"),
    pytest.param(["gradcheck", "--trials", "0"], "", "--trials",
                 id="gradcheck-trials-0"),
    pytest.param(["gradcheck", "--seed", "-1"], "", "--seed",
                 id="gradcheck-seed-negative"),
    pytest.param(["eval", "--policy", "greedy", "--seed", "-1"], "", "--seed",
                 id="eval-seed-negative"),
    pytest.param(["train"], "[run]\nseed = -3\n", "[run] seed",
                 id="config-seed-negative"),
    pytest.param(["eval", "--policy", "greedy"], "[scenario]\nspeed = nan\n",
                 "[scenario] speed", id="config-speed-nan"),
    # Sweep values parse as the config key they set: a count is an int and
    # a float is finite.
    pytest.param(["sweep", "--param", "n_uavs", "--values", "nan"], "",
                 "--values", id="sweep-count-nan"),
    pytest.param(["sweep", "--param", "n_uavs", "--values", "inf"], "",
                 "--values", id="sweep-count-inf"),
    pytest.param(["sweep", "--param", "n_uavs", "--values", "2.5"], "",
                 "--values", id="sweep-count-fraction"),
    pytest.param(["sweep", "--param", "P_L", "--values", "inf"], "",
                 "--values", id="sweep-power-inf"),
])
def test_out_of_range_number_exit_2_names_it(argv, run_section, flag, mini_cfg,
                                             tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(run_section + mini_cfg.read_text())
    if argv[0] != "gradcheck":
        argv = argv + ["--config", str(cfg), "--out", str(tmp_path / "x")]
    assert cli.main(argv) == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("argv, named", [
    pytest.param(["eval", "--policy", "greedy", "--config", "{dir}"], "dir",
                 id="config-dir"),
    pytest.param(["oracle", "--instance", "{dir}"], "dir", id="instance-dir"),
    pytest.param(["eval", "--config", "{cfg}", "--checkpoint", "{dir}"], "dir",
                 id="checkpoint-dir"),
    pytest.param(["eval", "--policy", "greedy", "--config", "{layout_dir}"],
                 "dir", id="layout-dir"),
    pytest.param(["eval", "--policy", "greedy", "--config", "{bytes}"], "bytes",
                 id="config-bytes"),
    pytest.param(["oracle", "--instance", "{bytes}"], "bytes",
                 id="instance-bytes"),
    pytest.param(["eval", "--policy", "greedy", "--config", "{layout_bytes}"],
                 "bytes", id="layout-bytes"),
    pytest.param(["eval", "--policy", "greedy", "--episodes", "1", "--config",
                  "{cfg}", "--out", "{file}"], "file", id="eval-out-file"),
    pytest.param(["sweep", "--param", "n_iots", "--values", "4", "--episodes",
                  "1", "--config", "{cfg}", "--out", "{file}"], "file",
                 id="sweep-out-file"),
])
def test_unusable_path_exit_2_names_it(argv, named, mini_cfg, tmp_path, capsys):
    # A directory where a file is read, a byte that is not UTF-8 in a text
    # input, and an output directory that is an existing file.
    paths = {"cfg": mini_cfg, "dir": tmp_path / "a_dir",
             "bytes": tmp_path / "latin1.txt", "file": tmp_path / "a_file"}
    paths["dir"].mkdir()
    paths["bytes"].write_bytes(b"# caf\xe9\nIOT 0 10\n")
    paths["file"].write_text("")
    for key, target in (("layout_dir", "dir"), ("layout_bytes", "bytes")):
        paths[key] = tmp_path / f"{key}.cfg"
        paths[key].write_text(mini_cfg.read_text().replace(
            "layout_file = \n", f"layout_file = {paths[target]}\n"))
    argv = [arg.format(**paths) for arg in argv]
    assert cli.main(argv) == 2
    assert str(paths[named]) in capsys.readouterr().err


class TestEval:
    def test_random_policy_deterministic_output(self, mini_cfg, capsys):
        args = ["eval", "--config", str(mini_cfg), "--policy", "random",
                "--episodes", "3", "--seed", "1"]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert cli.main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "mean peak AoI" in first

    def test_learned_policy_from_checkpoint(self, mini_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        cli.main(["train", "--config", str(mini_cfg), "--seed", "2",
                  "--out", str(out)])
        code = cli.main(["eval", "--config", str(mini_cfg),
                         "--checkpoint", str(out / "checkpoints" / "ep_2.ckpt"),
                         "--episodes", "2", "--policy", "learned", "--seed", "1"])
        assert code == 0
        assert "policy             : learned" in capsys.readouterr().out

    def test_corrupted_checkpoint_exit_4(self, mini_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        cli.main(["train", "--config", str(mini_cfg), "--seed", "2",
                  "--out", str(out)])
        ckpt = out / "checkpoints" / "ep_2.ckpt"
        blob = bytearray(ckpt.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        ckpt.write_bytes(bytes(blob))
        code = cli.main(["eval", "--config", str(mini_cfg),
                         "--checkpoint", str(ckpt), "--policy", "learned"])
        assert code == 4
        assert "CRC" in capsys.readouterr().err

    def test_learned_without_checkpoint_exit_2(self, mini_cfg):
        assert cli.main(["eval", "--config", str(mini_cfg),
                         "--policy", "learned"]) == 2

    @pytest.mark.parametrize("policy", ["greedy", "random"])
    def test_checkpoint_without_learned_policy_exit_2(self, policy, capsys):
        # Only a learned policy reads a checkpoint; the flag is not ignored.
        assert cli.main(["eval", "--config", "tiny", "--policy", policy,
                         "--episodes", "1",
                         "--checkpoint", "/nonexistent/x.ckpt"]) == 2
        assert "--checkpoint" in capsys.readouterr().err


class TestSweep:
    def test_sweep_csv_sorted_with_header(self, mini_cfg, tmp_path):
        out = tmp_path / "sw"
        code = cli.main(["sweep", "--param", "eta_le",
                         "--values", "0.25,0.05,0.15",
                         "--config", str(mini_cfg), "--episodes", "2",
                         "--seed", "3", "--out", str(out)])
        assert code == 0
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "param_value,mean_peak_aoi,std_peak_aoi"
        assert len(lines) == 4
        values = [float(line.split(",")[0]) for line in lines[1:]]
        assert values == sorted(values) == [0.05, 0.15, 0.25]

    def test_unknown_param_exit_2(self, mini_cfg, tmp_path, capsys):
        assert cli.main(["sweep", "--param", "mass", "--values", "1,2",
                         "--config", str(mini_cfg),
                         "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "config error: unknown sweep parameter 'mass'; "
            "choose from eta_le, n_uavs, n_iots, P_L\n")

    def test_eval_mode_policy_defaults_to_greedy(self, mini_cfg, tmp_path):
        sweeps = []
        for name, extra in (("default", []), ("greedy", ["--policy", "greedy"])):
            out = tmp_path / name
            assert cli.main(["sweep", "--param", "eta_le", "--values", "0.1,0.2",
                             "--config", str(mini_cfg), "--episodes", "1",
                             "--seed", "3", "--out", str(out), *extra]) == 0
            sweeps.append((out / "sweep.csv").read_text())
        assert sweeps[0] == sweeps[1]

    @pytest.mark.parametrize("policy", ["greedy", "random"])
    def test_train_mode_policy_exit_2(self, policy, mini_cfg, tmp_path, capsys):
        # Train mode evaluates the policy it trains, so --policy would be
        # ignored.
        assert cli.main(["sweep", "--param", "eta_le", "--values", "0.1",
                         "--config", str(mini_cfg), "--mode", "train",
                         "--policy", policy, "--out", str(tmp_path)]) == 2
        assert "--policy" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()


class TestDivergenceExit:
    def test_non_finite_loss_exit_3(self, mini_cfg, tmp_path, monkeypatch, capsys):
        from aoi_uav import trainer as trainer_mod

        def explode(*args, **kwargs):
            raise trainer_mod.TrainingDiverged("non-finite loss (surrogate=nan)")

        monkeypatch.setattr(trainer_mod, "train", explode)
        code = cli.main(["train", "--config", str(mini_cfg),
                         "--out", str(tmp_path / "x")])
        assert code == 3
        assert "non-finite" in capsys.readouterr().err


class TestSweepTrainMode:
    def test_train_mode_produces_rows(self, mini_cfg, tmp_path):
        out = tmp_path / "sw"
        code = cli.main(["sweep", "--param", "n_iots", "--values", "4,6",
                         "--config", str(mini_cfg), "--mode", "train",
                         "--episodes", "2", "--seed", "2", "--out", str(out)])
        assert code == 0
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        assert len(lines) == 3


@pytest.mark.parametrize("argv", [
    pytest.param(["eval", "--policy", "greedy", "--episodes", "1",
                  "--config", "{missing}/tiny.cfg"], id="config"),
    pytest.param(["oracle", "--instance", "{missing}/two_iot_symmetric.txt"],
                 id="instance"),
])
def test_missing_path_to_bundled_name_exit_2(argv, tmp_path, capsys):
    # Only a bare name falls back to a bundled file; a path that does not
    # exist is an error even when its file name is a bundled one.
    argv = [arg.format(missing=tmp_path / "no_such_dir") for arg in argv]
    assert cli.main(argv) == 2
    assert argv[-1] in capsys.readouterr().err


@pytest.mark.parametrize("name", ["tiny", "tiny.cfg"])
def test_bare_preset_name_resolves_to_bundled_file(name):
    path = cli._resolve_input(name, "presets")
    assert path.endswith("tiny.cfg") and path != name


class TestOracleAndGradcheck:
    def test_bundled_instance_by_name(self, capsys):
        assert cli.main(["oracle", "--instance", "two_iot_symmetric"]) == 0
        out = capsys.readouterr().out
        assert "optimum  : 3" in out
        assert "witness" in out

    def test_oversized_instance_exit_5(self, tmp_path, capsys):
        inst = tmp_path / "big.txt"
        inst.write_text("CFG horizon 8\nUAV 0 0\nUAV 5 0\nUAV 10 0\n"
                        "IOT 0 10\nLBD 0 0 0\n")
        assert cli.main(["oracle", "--instance", str(inst)]) == 5
        assert "guard" in capsys.readouterr().err

    def test_state_cap_exit_5(self, monkeypatch, capsys):
        # two_iot_symmetric's pruned search reaches 16 states.
        monkeypatch.setattr(oracle, "MAX_STATES", 15)
        assert cli.main(["oracle", "--instance", "two_iot_symmetric"]) == 5
        assert "passed 15 states" in capsys.readouterr().err

    def test_unparsable_instance_value_exit_2(self, tmp_path, capsys):
        inst = tmp_path / "bad.txt"
        inst.write_text("CFG horizon abc\nUAV 0 0\nIOT 0 10\nLBD 0 0 0\n")
        assert cli.main(["oracle", "--instance", str(inst)]) == 2
        assert "horizon" in capsys.readouterr().err

    def test_bad_record_error_names_its_file_line(self, tmp_path, capsys):
        # A comment and three CFG lines precede the bad record on line 6.
        inst = tmp_path / "bad.txt"
        inst.write_text("# comment\nCFG horizon 3\nCFG speed 10\n"
                        "CFG comm_radius 5\nUAV 0 0\nIOT 0 10 7\nLBD 0 0 0\n")
        assert cli.main(["oracle", "--instance", str(inst)]) == 2
        assert "layout line 6:" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", [
        "n_uavs 1", "n_iots 7", "n_lbds 3", "layout_file /nonexistent",
        "lbd_layout ring", "regenerate_on_collect true"])
    def test_cfg_key_the_records_decide_exit_2(self, setting, tmp_path, capsys):
        # The records place every entity and an instance collects one-shot,
        # so these keys would be ignored; the error names the key and line.
        inst = tmp_path / "ignored.txt"
        inst.write_text(f"CFG horizon 3\nCFG {setting}\n"
                        "UAV 0 0\nIOT 0 10\nLBD 0 0 0\n")
        assert cli.main(["oracle", "--instance", str(inst)]) == 2
        err = capsys.readouterr().err
        assert f"line 2: CFG {setting.split()[0]} " in err

    def test_gradcheck_passes(self, capsys):
        assert cli.main(["gradcheck", "--trials", "4"]) == 0
        assert "4/4 passed" in capsys.readouterr().out

    def test_gradcheck_detects_broken_derivative(self, monkeypatch, capsys):
        # Negative control: corrupt the tanh derivative and expect a failure.
        import numpy as np
        from aoi_uav import tensor as tt
        from aoi_uav.tensor import Tensor, _record

        def broken_tanh(a):
            a = a if isinstance(a, Tensor) else Tensor(a)
            out_data = np.tanh(a.data)
            out = Tensor(out_data)

            def backward(g):
                if a.requires_grad:
                    a.accumulate_grad(g * (1.0 - 0.5 * out_data * out_data))

            return _record(out, (a,), backward)

        monkeypatch.setattr(tt, "tanh", broken_tanh)
        assert cli.main(["gradcheck", "--trials", "2"]) != 0


class TestWorkerEnv:
    def test_eval_out_writes_csv(self, mini_cfg, tmp_path):
        out = tmp_path / "evalout"
        cli.main(["eval", "--config", str(mini_cfg), "--policy", "greedy",
                  "--episodes", "2", "--seed", "1", "--out", str(out)])
        lines = (out / "eval.csv").read_text().strip().split("\n")
        assert lines[0].startswith("policy,episodes,mean_peak_aoi")
        assert lines[1].startswith("greedy,2,")


class TestPresets:
    @pytest.mark.parametrize("name", ["tiny", "canonical", "canonical_ring"])
    def test_bundled_presets_parse(self, name):
        from aoi_uav.cli import _resolve_input
        from aoi_uav.config_io import load_config
        path = _resolve_input(name, "presets")
        scenario, tconf, _ = load_config(path)
        scenario.validate()
        tconf.validate()
        # A preset is a full dump of itself (comments aside): it names every
        # current key and no removed one.
        with open(path, encoding="utf-8") as fh:
            text = "".join(line for line in fh if not line.startswith("#"))
        assert text == dump_config(scenario, tconf)
