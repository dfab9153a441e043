"""Print one ``sha256  name`` line for each output of the byte contract.

The contract (ROADMAP aim 2) covers what the command-line tool writes:

* ``train --events`` on the ``tiny`` preset, on the padded golden config
  (``tiny`` cut to 3 UAVs and 30-slot episodes with ``e_init_frac`` 0.03,
  so deaths end the episodes of one update at different slots), on a
  ``mappo_ff`` config (``tiny`` cut to 3 UAVs and 30-slot episodes) and, to
  give the learned evaluation a checkpoint, on a two-episode
  ``canonical_ring`` run: ``metrics.csv`` without its ``wall_ms`` column,
  every checkpoint and every event CSV;
* ``eval --out`` for the learned, greedy and random policies on ``tiny``
  and ``canonical_ring``: ``eval.csv`` and the stdout, whose constraint
  block sums the episodes' counts, which no CSV holds;
* one greedy ``sweep --mode eval``, and one ``sweep --mode train`` on
  ``tiny`` cut to 2 training episodes, whose rows score the trained
  policies;
* the stdout of ``oracle`` on the three bundled instances;
* the stdout of ``gradcheck --trials 2 --seed 0``, whose relative errors
  compare the tape's gradients with finite differences directly, not only
  through the checkpoints that Adam writes from them.

Everything is written under a temporary directory that is removed at exit.
The listing does not depend on the host's CPU count or on the BLAS thread
variables in the environment: this script imports ``aoi_uav`` before numpy,
and the package pins one BLAS thread.
Two trees give the same bytes when their listings are equal::

    PYTHONPATH=src python tools/output_digests.py > before.txt
    ... change the code ...
    PYTHONPATH=src python tools/output_digests.py > after.txt
    diff before.txt after.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from dataclasses import replace
from importlib import resources
from pathlib import Path

from aoi_uav import cli, config_io

SEED = "3"


def preset(name: str) -> str:
    return str(resources.files("aoi_uav").joinpath("presets", f"{name}.cfg"))


def run_cli(argv: list[str]) -> bytes:
    """Run one command in process; return its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        sys.exit(f"aoi-uav {' '.join(argv)} exited with {code}")
    return out.getvalue().encode()


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_config(path: Path, base: str, scenario_changes: dict,
                 train_changes: dict) -> str:
    scenario, tconf, _ = config_io.load_config(preset(base))
    path.write_text(config_io.dump_config(replace(scenario, **scenario_changes),
                                          replace(tconf, **train_changes)))
    return str(path)


def train_digests(label: str, config: str, out: Path) -> list[tuple[str, str]]:
    run_cli(["train", "--config", config, "--seed", SEED, "--out", str(out),
             "--events"])
    metrics = (out / "metrics.csv").read_bytes()
    lines = [(sha(b"\n".join(line.rsplit(b",", 1)[0]
                              for line in metrics.split(b"\n"))),
              f"train/{label}/metrics.csv")]
    for sub in ("checkpoints", "events"):
        files = sorted((out / sub).iterdir(),
                       key=lambda p: int(p.stem.split("_")[1]))
        lines += [(sha(p.read_bytes()), f"train/{label}/{sub}/{p.name}")
                  for p in files]
    return lines


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        configs = {
            "tiny": preset("tiny"),
            "padded": write_config(tmp / "padded.cfg", "tiny",
                                   {"horizon": 30, "n_uavs": 3, "e_init_frac": 0.03},
                                   {"episodes": 6, "episodes_per_update": 4}),
            "ff": write_config(tmp / "ff.cfg", "tiny",
                               {"horizon": 30, "n_uavs": 3},
                               {"algo": "mappo_ff", "episodes": 6,
                                "episodes_per_update": 4}),
            "canonical_ring": write_config(tmp / "ring.cfg", "canonical_ring", {},
                                           {"episodes": 2, "eval_interval": 2}),
        }
        lines = []
        for label, config in configs.items():
            lines += train_digests(label, config, tmp / "train" / label)

        for label in ("tiny", "canonical_ring"):
            ckpt = max((tmp / "train" / label / "checkpoints").iterdir(),
                       key=lambda p: int(p.stem.split("_")[1]))
            for policy in ("learned", "greedy", "random"):
                out = tmp / "eval" / label / policy
                extra = ["--checkpoint", str(ckpt)] if policy == "learned" else []
                stdout = run_cli(["eval", "--config", configs[label],
                                  "--policy", policy, *extra, "--episodes", "3",
                                  "--seed", SEED, "--out", str(out)])
                lines.append((sha((out / "eval.csv").read_bytes()),
                              f"eval/{label}/{policy}/eval.csv"))
                lines.append((sha(stdout), f"eval/{label}/{policy}/stdout"))

        out = tmp / "sweep"
        run_cli(["sweep", "--param", "n_iots", "--values", "6,10",
                 "--config", configs["tiny"], "--mode", "eval",
                 "--policy", "greedy", "--episodes", "2", "--seed", SEED,
                 "--out", str(out)])
        lines.append((sha((out / "sweep.csv").read_bytes()), "sweep/sweep.csv"))

        out = tmp / "sweep_train"
        run_cli(["sweep", "--param", "n_iots", "--values", "6,10",
                 "--config", write_config(tmp / "sweep_train.cfg", "tiny", {},
                                          {"episodes": 2, "episodes_per_update": 2}),
                 "--mode", "train", "--episodes", "2", "--seed", SEED,
                 "--out", str(out)])
        lines.append((sha((out / "sweep.csv").read_bytes()),
                      "sweep_train/sweep.csv"))

        for name in sorted(p.stem for p in
                           resources.files("aoi_uav").joinpath("instances").iterdir()
                           if p.name.endswith(".txt")):
            lines.append((sha(run_cli(["oracle", "--instance", name])),
                          f"oracle/{name}.stdout"))

        lines.append((sha(run_cli(["gradcheck", "--trials", "2", "--seed", "0"])),
                      "gradcheck/trials_2_seed_0.stdout"))

    for digest, name in lines:
        print(f"{digest}  {name}")


if __name__ == "__main__":
    main()
