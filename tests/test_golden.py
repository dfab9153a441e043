"""Golden bytes of one small `aoi-uav train --events` run.

The run is the `tiny` preset cut to 3 UAVs, 30-slot episodes and 6 episodes
at 4 per update, so it covers a full update, a short last update and
colliding UAVs.  The digests pin its event CSVs, `metrics.csv` without the
`wall_ms` column and its final checkpoint.  A change that alters training
output on purpose re-records them, and says so in CHANGES.md.
"""

import hashlib
from dataclasses import replace
from importlib import resources

from aoi_uav import cli, config_io

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


def run_digests(tmp_path):
    preset = resources.files("aoi_uav").joinpath("presets", "tiny.cfg")
    scenario, tconf, _ = config_io.load_config(str(preset))
    cfg = tmp_path / "golden.cfg"
    cfg.write_text(config_io.dump_config(
        replace(scenario, horizon=30, n_uavs=3),
        replace(tconf, episodes=6, episodes_per_update=4)))
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg), "--seed", "11",
                     "--out", str(out), "--events"]) == 0
    digests = {}
    for name in GOLDEN:
        data = (out / name).read_bytes()
        if name == "metrics.csv":
            data = b"\n".join(line.rsplit(b",", 1)[0] for line in data.split(b"\n"))
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests


def test_train_events_run_bytes_pinned(tmp_path):
    assert run_digests(tmp_path) == GOLDEN
