"""The benchmark's workloads: set-up, one timed repeat, and output checks.

Each workload is a closed loop with one caller: ``run`` does one repeat of
timed work and ``check`` verifies what it produced, outside the timing.  An
operation is an episode or an oracle solve; a repeat holds one or more.
Repeats of one run are identical work, so their output digests must agree.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import shutil
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

from aoi_uav import checkpoint, cli, config_io, oracle, trainer
from aoi_uav.config_io import RunSettings

import instances


def preset(name: str) -> str:
    return str(resources.files("aoi_uav").joinpath("presets", f"{name}.cfg"))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@dataclass
class Outcome:
    ops: int                     # operations in the repeat
    failed: int                  # operations that failed a check
    digests: dict[str, str]      # output digests; equal across repeats
    notes: list[str] = field(default_factory=list)   # why operations failed
    diagnostics: dict = field(default_factory=dict)  # recorded, never gated


def checkpoint_round_trips(blob: bytes) -> bool:
    """save -> load -> dump must reproduce the container bytes."""
    return checkpoint.dump_tensors(checkpoint.load_tensors(blob)) == blob


class TrainTiny:
    """``aoi-uav train`` on the tiny preset for a fixed number of episodes."""

    name = "train_tiny"
    EPISODES = 8

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.config_path = work / "train_tiny.cfg"

    def setup(self) -> None:
        scenario, tconf, _ = config_io.load_config(preset("tiny"))
        tconf = replace(tconf, episodes=self.EPISODES, eval_interval=self.EPISODES)
        self.config_path.write_text(
            config_io.dump_config(scenario, tconf, RunSettings(seed=self.seed)),
            encoding="utf-8")

    def run(self, rep: int):
        out = self.work / f"train-{rep}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["train", "--config", str(self.config_path),
                             "--seed", str(self.seed), "--out", str(out)])
        return out, code

    def check(self, result) -> Outcome:
        out, code = result
        try:
            return self._check(out, code)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, out: Path, code: int) -> Outcome:
        fail = Outcome(self.EPISODES, self.EPISODES, {})
        if code != cli.EXIT_OK:
            fail.notes.append(f"aoi-uav train exited {code}")
            return fail
        lines = (out / "metrics.csv").read_text(encoding="utf-8").splitlines()
        rows = [line.split(",") for line in lines[1:]]
        if lines[0] != trainer.METRICS_CSV_HEADER or len(rows) != self.EPISODES:
            fail.notes.append(f"metrics.csv has {len(rows)} episodes, "
                              f"expected {self.EPISODES}")
            return fail
        if not all(math.isfinite(float(v)) for row in rows for v in row):
            fail.notes.append("non-finite value in metrics.csv")
            return fail
        blob = (out / "checkpoints" / f"ep_{self.EPISODES}.ckpt").read_bytes()
        if not checkpoint_round_trips(blob):
            fail.notes.append("checkpoint round trip changed bytes")
            return fail
        # wall_ms is the last column and the only one allowed to vary.
        stable = "\n".join(",".join(row[:-1]) for row in [lines[0].split(",")] + rows)
        return Outcome(self.EPISODES, 0,
                       {"metrics_csv": digest(stable.encode()), "checkpoint": digest(blob)},
                       diagnostics={"final_peak_aoi": int(rows[-1][4])})


class EvalCanonical:
    """``aoi-uav eval --policy learned`` on the canonical preset, one
    episode per repeat, with a checkpoint saved from ``build_bundle``."""

    name = "eval_canonical"
    PRESET = "canonical"

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.ckpt_path = work / "policy.ckpt"
        self.round_trip_ok = False

    def setup(self) -> None:
        scenario, tconf, _ = config_io.load_config(preset(self.PRESET))
        self.scenario = replace(scenario, rng_seed=self.seed)
        bundle = trainer.build_bundle(self.scenario, tconf, self.seed)
        checkpoint.save(str(self.ckpt_path), trainer.bundle_to_tensors(bundle))
        tensors = checkpoint.load(str(self.ckpt_path))
        self.round_trip_ok = (checkpoint.dump_tensors(tensors)
                              == self.ckpt_path.read_bytes())
        self.policy = trainer.make_policy(
            "learned", self.scenario,
            trainer.bundle_from_tensors(tensors, self.scenario, tconf))

    def run(self, rep: int):
        return trainer.evaluate(self.scenario, self.policy, 1, self.seed)

    def check(self, report) -> Outcome:
        eval_csv = report.CSV_HEADER + "\n" + report.csv_row() + "\n"
        outcome = Outcome(1, 0, {"eval_csv": digest(eval_csv.encode())},
                          diagnostics={"peak_aoi": report.max_peak_aoi})
        if not self.round_trip_ok:
            outcome.notes.append("checkpoint round trip changed bytes")
        if not math.isfinite(report.mean_cum_reward) or report.episodes != 1:
            outcome.notes.append("evaluation report is malformed")
        outcome.failed = 1 if outcome.notes else 0
        return outcome


class OracleSmall:
    """Exact solves plus witness replays: the bundled instances, then the
    seeded generated ones."""

    name = "oracle_small"
    BUNDLED = {"adjacent_iot": 1, "two_iot_symmetric": 3}  # known optima
    GENERATED = True

    def __init__(self, seed: int, work: Path):
        self.seed = seed

    def setup(self) -> None:
        root = resources.files("aoi_uav").joinpath("instances")
        self.instances = [(name, oracle.load_instance(str(root.joinpath(f"{name}.txt"))))
                          for name in self.BUNDLED]
        if self.GENERATED:
            self.instances += [(f"generated{k}", inst)
                               for k, inst in enumerate(instances.generate(self.seed))]

    def run(self, rep: int):
        solved = []
        for name, inst in self.instances:
            result = oracle.exact_min_peak_aoi(inst)
            solved.append((name, result, oracle.replay_verify(inst, result.witness)))
        return solved

    def check(self, solved) -> Outcome:
        outcome = Outcome(len(solved), 0, {})
        for name, result, replayed in solved:
            expected = self.BUNDLED.get(name, result.optimum)
            if replayed != result.optimum or result.optimum != expected:
                outcome.failed += 1
                outcome.notes.append(f"{name}: optimum {result.optimum}, "
                                     f"replayed {replayed}, expected {expected}")
            outcome.digests[name] = digest(
                f"{result.optimum};{result.witness_text()};{result.states_expanded}".encode())
            outcome.diagnostics[name] = result.optimum
        return outcome


WORKLOADS = {w.name: w for w in (TrainTiny, EvalCanonical, OracleSmall)}
