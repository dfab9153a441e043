"""Golden bytes of one small `aoi-uav train --events` run and of the
evaluations that follow it.

The run is the `tiny` preset cut to 3 UAVs, 30-slot episodes and 6 episodes
at 4 per update, so it covers a full update, a short last update and
colliding UAVs.  The digests pin its event CSVs, `metrics.csv` without the
`wall_ms` column and its final checkpoint.  Two evaluation pins follow it:
the `eval.csv` of `aoi-uav eval --policy learned` on that checkpoint, and
the metrics rows, without `wall_ms`, of sampling learned policies through
`rollout_policy(..., greedy=False)`.  The heuristic baselines' rows, played
through `rollout_policy` on the bundled presets, are pinned the same way.  A
change that alters training or evaluation output on purpose re-records
them, and says so in CHANGES.md.
"""

import hashlib
from dataclasses import replace
from importlib import resources

import pytest

from aoi_uav import cli, config_io, trainer

GOLDEN = {
    "checkpoints/ep_6.ckpt":
        "d6dec14cdd230b2d1aba4c8aa34ce0b093513d7b41483f59eaed3c41c2c19900",
    "events/ep_0.csv":
        "9a292fb0711f46a13fd0582764dd3862603ad46bbd655e2b27d3c4a3b00292fe",
    "events/ep_1.csv":
        "08b94287f0284e20ed15a5d8ad8ced87dacb929863a576a85c8bc3b7e814930a",
    "events/ep_2.csv":
        "91ca89f889538af7f68fa8bdd49f8b084dc904eeb8f707bc02fbec35888444ab",
    "events/ep_3.csv":
        "992ecb75065bf53e663ffad2d8f7926f98f8cb15498cb08a4b8dbbcde2a70087",
    "events/ep_4.csv":
        "25b0fb8affb8885a1505b0ba5fc460a12b565ee15a2e2fe902ac5c53196b437d",
    "events/ep_5.csv":
        "b77c9605dde1c21b378fd2a110224af52a16070015a3844192ba6f6b6ffa9be8",
    "metrics.csv":
        "b1471b39e95a20b673083d64326a138db71ee46b14fd4bc4d0faa29021e6fb2a",
}


EVAL_CSV = (
    "policy,episodes,mean_peak_aoi,max_peak_aoi,mean_peak_aoi_recorded,"
    "mean_cum_reward,mean_aoi_reward,mean_energy_reward,mean_collections\n"
    "learned,2,30.0,30,3.0,39.49999999999999,-15.500000000000002,"
    "-13.666666666666663,206.0\n")

SAMPLING_ROWS = {
    "mappo_lstm":
        "b4cd57eb7d2fff6d32f2d6ff137208f4a15960b925dbfc72c28b4f0ebdf17710",
    "mappo_ff":
        "53487a33537a5c22235f76165f77e991c91048d8ac4030b0d572813122144c78",
}

# Seed 5, three episodes each; `rng_seed` set to the seed as `aoi-uav eval`
# sets it.
HEURISTIC_ROWS = {
    ("tiny", "greedy"):
        "250ba4ae371dd7cd5c31874639db5f6dea02b741416917ef0ec8101ad4df9536",
    ("tiny", "random"):
        "00d60950c97ecd62e25ebc51f36c236a26d9e29c50f19e1c83be82471a78e454",
    ("canonical_ring", "greedy"):
        "ef2ae40356de3fb834e43b9db99060356e9542054d13f92c7aacdd1403ef0b5a",
    ("canonical_ring", "random"):
        "1ee9b54edfa62ad2bc7223854f41c61189555c84d1c1287c4f920ba46b8a870e",
}


def rows_digest(rows):
    text = "\n".join(row.csv_row().rsplit(",", 1)[0] for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """The golden config file and the directory of its training run."""
    tmp_path = tmp_path_factory.mktemp("golden")
    preset = resources.files("aoi_uav").joinpath("presets", "tiny.cfg")
    scenario, tconf, _ = config_io.load_config(str(preset))
    cfg = tmp_path / "golden.cfg"
    cfg.write_text(config_io.dump_config(
        replace(scenario, horizon=30, n_uavs=3),
        replace(tconf, episodes=6, episodes_per_update=4)))
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg), "--seed", "11",
                     "--out", str(out), "--events"]) == 0
    return cfg, out


def run_digests(out):
    digests = {}
    for name in GOLDEN:
        data = (out / name).read_bytes()
        if name == "metrics.csv":
            data = b"\n".join(line.rsplit(b",", 1)[0] for line in data.split(b"\n"))
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests


def test_train_events_run_bytes_pinned(golden_run):
    assert run_digests(golden_run[1]) == GOLDEN


def test_learned_eval_csv_pinned(golden_run, tmp_path):
    cfg, out = golden_run
    assert cli.main(["eval", "--config", str(cfg), "--policy", "learned",
                     "--checkpoint", str(out / "checkpoints" / "ep_6.ckpt"),
                     "--episodes", "2", "--seed", "11",
                     "--out", str(tmp_path)]) == 0
    assert (tmp_path / "eval.csv").read_text() == EVAL_CSV


@pytest.mark.parametrize("algo", sorted(SAMPLING_ROWS))
def test_sampling_rollout_rows_pinned(golden_run, algo):
    scenario, tconf, _ = config_io.load_config(str(golden_run[0]))
    scenario = replace(scenario, rng_seed=11)
    bundle = trainer.build_bundle(scenario, replace(tconf, algo=algo), seed=11)
    rows = trainer.rollout_policy(
        scenario, trainer.LearnedPolicy(scenario, bundle), 3, 11, greedy=False)
    assert rows_digest(rows) == SAMPLING_ROWS[algo]


@pytest.mark.parametrize("preset, kind", sorted(HEURISTIC_ROWS))
def test_heuristic_rollout_rows_pinned(preset, kind):
    path = resources.files("aoi_uav").joinpath("presets", f"{preset}.cfg")
    scenario, _, _ = config_io.load_config(str(path))
    scenario = replace(scenario, rng_seed=5)
    rows = trainer.rollout_policy(
        scenario, trainer.make_policy(kind, scenario), 3, 5)
    assert rows_digest(rows) == HEURISTIC_ROWS[preset, kind]
