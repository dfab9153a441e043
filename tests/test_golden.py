"""Golden bytes of one small `aoi-uav train --events` run and of the
evaluations that follow it.

The run is the `tiny` preset cut to 3 UAVs, 30-slot episodes and 6 episodes
at 4 per update, so it covers a full update, a short last update and
colliding UAVs.  The digests pin its event CSVs, `metrics.csv` without the
`wall_ms` column and its final checkpoint.  No UAV dies in it, so every
episode lasts 30 slots; a second run, the same with a low initial battery,
ends episodes of one update by deaths at different slots, so that the PPO
replay pads the shorter ones, and is pinned the same way.  Two evaluation pins follow it:
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
        "4abd56f46df6802d9aaa1e3b878323b1b82fbdc122f856365fbd156801effcc7",
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

# The run above with e_init_frac = 0.03: episodes of 29, 30, 26, 22, 22 and
# 22 slots.
PADDED_GOLDEN = {
    "checkpoints/ep_6.ckpt":
        "c00b14c97093cc4337287742e47c93801f44b10d170997365a5b6145caffbe27",
    "events/ep_0.csv":
        "fa38f40ccf6f7f5c2ab527b93245f6924a62f937f5c533fee68d4d80848999ee",
    "events/ep_1.csv":
        "4cd7eb8b52979917af585f889ea1c5e0f9831b40d2514d6596785d3c976a47f2",
    "events/ep_2.csv":
        "bb42ee5b49f20668fb60a3136d4b879343e06c58643bfb5d78a28605f7368eb2",
    "events/ep_3.csv":
        "bd44e27a4130004cd50b3934d072b2347adec9f6a76385027e15fb2e4edd9c10",
    "events/ep_4.csv":
        "a3f87fc89c34f330dbe487847ec78d63a7d6bfe0976feab208d0004b33d57fc1",
    "events/ep_5.csv":
        "74fb941530367943d49d9e7b74d2919ac956e27504d2d108013892cffe2b5fa7",
    "metrics.csv":
        "bea65f5cf8d53f79b432c89fe5ace69f7652ff91a0a5b25facb51e08923e5367",
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


def train_run(tmp_path, **scenario_changes):
    """The golden config file, with ``scenario_changes`` applied, and the
    directory of its training run."""
    preset = resources.files("aoi_uav").joinpath("presets", "tiny.cfg")
    scenario, tconf, _ = config_io.load_config(str(preset))
    cfg = tmp_path / "golden.cfg"
    cfg.write_text(config_io.dump_config(
        replace(scenario, horizon=30, n_uavs=3, **scenario_changes),
        replace(tconf, episodes=6, episodes_per_update=4)))
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg), "--seed", "11",
                     "--out", str(out), "--events"]) == 0
    return cfg, out


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    return train_run(tmp_path_factory.mktemp("golden"))


def run_digests(out, names):
    digests = {}
    for name in names:
        data = (out / name).read_bytes()
        if name == "metrics.csv":
            data = b"\n".join(line.rsplit(b",", 1)[0] for line in data.split(b"\n"))
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests


def test_train_events_run_bytes_pinned(golden_run):
    assert run_digests(golden_run[1], GOLDEN) == GOLDEN


def test_padded_train_events_run_bytes_pinned(tmp_path):
    _, out = train_run(tmp_path, e_init_frac=0.03)
    # An episode lasts until the slot of its last event; the first update's
    # four episodes must not all be equally long.
    lengths = [int((out / "events" / f"ep_{e}.csv").read_text()
                   .splitlines()[-1].split(",", 1)[0]) for e in range(6)]
    assert len(set(lengths[:4])) > 1
    assert run_digests(out, PADDED_GOLDEN) == PADDED_GOLDEN


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
