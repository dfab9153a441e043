"""Command-line harness: train / eval / sweep / oracle / gradcheck.

Every subcommand that samples follows one RNG rule: episode ``e`` under
``--seed s`` draws from ``np.random.default_rng([s, e])``, whether `train`
collects it in a lock-step batch or `eval` and `sweep` play it alone.

Exit codes: 0 success, 1 check failed (oracle witness replay does not match
the optimum, or a gradcheck trial failed), 2 config problem (including an
out-of-range flag or key, a flag or key the command would ignore, a
non-finite float, a propulsion constant whose power underflows to 0, a
repeated key, or an input or output path that cannot be read or written), 3
training diverged (non-finite loss), 4 checkpoint CRC, format or record
failure (a non-finite weight included), 5 oracle guard exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__, checkpoint, config_io, gradcheck, oracle, trainer, world
from .config import ConfigError, ScenarioConfig, TrainConfig
from .config_io import RunSettings, apply_sweep_value, parse_sweep_values
from .trainer import METRICS_CSV_HEADER, TrainingDiverged

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_CHECKPOINT = 4
EXIT_ORACLE_GUARD = 5


def _resolve_input(path: str, kind: str) -> str:
    """Return ``path`` if it exists.  A bare name that does not (``tiny``,
    ``tiny.cfg``) names a bundled preset or instance; any other missing path
    is a `ConfigError` naming it."""
    if os.path.exists(path):
        return path
    if Path(path).name == path:
        candidates = [path] if path.endswith((".cfg", ".txt")) else [
            path + ".cfg", path + ".txt"]
        for name in candidates:
            ref = resources.files("aoi_uav").joinpath(kind, name)
            if ref.is_file():
                return str(ref)
    raise ConfigError(f"cannot read {kind[:-1]} file {path}")


def _at_least(flag: str, value: int, low: int) -> int:
    if value < low:
        raise ConfigError(f"{flag} must be >= {low}, got {value}")
    return value


def _load_run_config(path: str, seed_override: int | None):
    resolved = _resolve_input(path, "presets")
    scenario, tconf, run = config_io.load_config(resolved)
    seed = (run.seed if seed_override is None
            else _at_least("--seed", seed_override, 0))
    scenario = replace(scenario, rng_seed=seed)
    return scenario, tconf, seed


def _write_manifest(out_dir: Path, scenario: ScenarioConfig, tconf: TrainConfig,
                    seed: int) -> None:
    run = RunSettings(seed=seed, tool_version=__version__,
                      started_at=time.strftime("%Y-%m-%dT%H:%M:%S"),
                      out_dir=str(out_dir))
    (out_dir / "manifest.txt").write_text(
        config_io.dump_config(scenario, tconf, run), encoding="utf-8")


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    scenario, tconf, seed = _load_run_config(args.config, args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "checkpoints").mkdir(exist_ok=True)
    if args.events:
        (out_dir / "events").mkdir(exist_ok=True)
    _write_manifest(out_dir, scenario, tconf, seed)

    metrics_path = out_dir / "metrics.csv"
    with open(metrics_path, "w", encoding="utf-8", newline="\n") as metrics_fh:
        metrics_fh.write(METRICS_CSV_HEADER + "\n")

        def metrics_sink(row):
            metrics_fh.write(row.csv_row() + "\n")
            metrics_fh.flush()

        def checkpoint_sink(episode, bundle):
            checkpoint.save(str(out_dir / "checkpoints" / f"ep_{episode}.ckpt"),
                            trainer.bundle_to_tensors(bundle))

        def event_sink(episode, events):
            (out_dir / "events" / f"ep_{episode}.csv").write_text(
                world.events_to_csv(events), encoding="utf-8")

        result = trainer.train(
            scenario, tconf, seed,
            metrics_sink=metrics_sink,
            checkpoint_sink=checkpoint_sink,
            event_sink=event_sink if args.events else None,
        )
    last = result.metrics[-1]
    print(f"trained {len(result.metrics)} episodes; "
          f"final cum_reward {last.cum_reward:.3f}, peak AoI {last.peak_aoi}")
    print(f"outputs in {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    scenario, tconf, seed = _load_run_config(args.config, args.seed)
    _at_least("--episodes", args.episodes, 1)
    if args.policy != "learned" and args.checkpoint is not None:
        raise ConfigError(f"--checkpoint applies only to --policy learned, "
                          f"not {args.policy}")
    bundle = None
    if args.policy == "learned":
        if not args.checkpoint:
            raise ConfigError("--policy learned requires --checkpoint")
        tensors = checkpoint.load(args.checkpoint)
        try:
            bundle = trainer.bundle_from_tensors(tensors, scenario, tconf)
        except ValueError as err:
            raise checkpoint.CheckpointError(str(err)) from err
    policy = trainer.make_policy(args.policy, scenario, bundle)
    report = trainer.evaluate(scenario, policy, args.episodes, seed)
    print(report.human_text())
    print()
    print(report.CSV_HEADER)
    print(report.csv_row())
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "eval.csv").write_text(
            report.CSV_HEADER + "\n" + report.csv_row() + "\n", encoding="utf-8")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def cmd_sweep(args) -> int:
    if args.mode == "train" and args.policy is not None:
        raise ConfigError("--policy applies only to --mode eval; --mode train "
                          "evaluates the policy it trains")
    scenario, tconf, seed = _load_run_config(args.config, args.seed)
    _at_least("--episodes", args.episodes, 1)
    rows = []
    for value in parse_sweep_values(args.param, args.values):
        swept = apply_sweep_value(scenario, args.param, value)
        swept.validate()
        if args.mode == "train":
            result = trainer.train(swept, tconf, seed)
            policy = trainer.make_policy("learned", swept, result.bundle)
        else:
            policy = trainer.make_policy(args.policy or "greedy", swept)
        metrics = trainer.rollout_policy(swept, policy, args.episodes, seed)
        peaks = np.array([m.peak_aoi for m in metrics], dtype=float)
        # sweep.csv holds every value as a float, counts included.
        rows.append((float(value), float(peaks.mean()), float(peaks.std())))
        print(f"{args.param}={value}: mean peak AoI {peaks.mean():.3f} "
              f"(std {peaks.std():.3f})")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    sweep_path = out_dir / "sweep.csv"
    with open(sweep_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("param_value,mean_peak_aoi,std_peak_aoi\n")
        for value, mean, std in rows:
            fh.write(f"{value!r},{mean!r},{std!r}\n")
    print(f"wrote {sweep_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle / gradcheck
# ---------------------------------------------------------------------------

def cmd_oracle(args) -> int:
    path = _resolve_input(args.instance, "instances")
    instance = oracle.load_instance(path)
    result = oracle.exact_min_peak_aoi(instance)
    replayed = oracle.replay_verify(instance, result.witness)
    print(f"instance : {args.instance}")
    print(f"uavs={instance.config.n_uavs} iots={instance.config.n_iots} "
          f"horizon={instance.config.horizon} actions={instance.config.n_actions}")
    print(f"optimum  : {result.optimum}")
    print(f"witness  : {result.witness_text()}")
    print(f"replayed : {replayed}")
    if replayed != result.optimum:
        print("witness replay does not match the claimed optimum", file=sys.stderr)
        return 1
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    results = gradcheck.run_gradcheck(_at_least("--trials", args.trials, 1),
                                      seed=_at_least("--seed", args.seed, 0))
    worst = max(r.worst_rel_error for r in results)
    failures = [r for r in results if not r.passed]
    for r in results:
        status = "ok" if r.passed else "FAIL"
        print(f"{status:4s} {r.label:28s} worst rel err {r.worst_rel_error:.3e}")
    print(f"{len(results) - len(failures)}/{len(results)} passed; "
          f"worst {worst:.3e}")
    return EXIT_OK if not failures else 1


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aoi-uav",
        description="Laser-charged multi-UAV data collection: simulator, "
                    "trainer, oracle.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train policies on a scenario")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--out", default="runs/latest")
    p_train.add_argument("--events", action="store_true",
                         help="also write per-episode event CSVs (large)")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a policy")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--checkpoint", default=None)
    p_eval.add_argument("--episodes", type=int, default=5)
    p_eval.add_argument("--policy", choices=("learned", "greedy", "random"),
                        default="learned")
    p_eval.add_argument("--seed", type=int, default=None)
    p_eval.add_argument("--out", default=None)
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter")
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--mode", choices=("eval", "train"), default="eval")
    p_sweep.add_argument("--policy", choices=("greedy", "random"), default=None,
                         help="eval mode only (default greedy)")
    p_sweep.add_argument("--episodes", type=int, default=5)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--out", default=".")
    p_sweep.set_defaults(func=cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="exact optimum on a tiny instance")
    p_oracle.add_argument("--instance", required=True)
    p_oracle.set_defaults(func=cmd_oracle)

    p_grad = sub.add_parser("gradcheck",
                            help="finite-difference gradient verification")
    p_grad.add_argument("--trials", type=int, default=20)
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except TrainingDiverged as err:
        print(f"training aborted: {err}", file=sys.stderr)
        return EXIT_DIVERGED
    except checkpoint.CheckpointError as err:
        print(f"checkpoint error: {err}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except oracle.OracleGuardExceeded as err:
        print(f"oracle guard: {err}", file=sys.stderr)
        return EXIT_ORACLE_GUARD
    except OSError as err:  # an unreadable input or an unwritable output path
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
