"""aoi-uav benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload train_tiny --seed 1 --seconds 40 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, measured with tracing off; with
``--trace 1`` they are the per-layer ones from a traced run.  The line
before it is a JSON ``info`` object: machine and version details, output
digests and diagnostics.  See bench/README.md.
"""

import os

# Pin BLAS/OpenMP pools and rollout workers before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "AOIUAV_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
MIN_REPEATS = 4
# Run in a fresh interpreter, so each set-up repeat pays the full import.
IMPORT_PROBE = ("import time; t = time.perf_counter(); import aoi_uav.cli; "
                "print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import aoi_uav and numpy."""
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True,
                           capture_output=True, text=True, timeout=120,
                           env=dict(os.environ, PYTHONPATH=str(SRC)))
    return float(probe.stdout)


def git_sha(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(np, loadavg) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "git_sha": git_sha(ROOT), "loadavg_start": loadavg}


def rate(samples: list[tuple[float, int]]) -> float:
    """Operations per second over all the repeats' timed seconds."""
    return sum(ops for _, ops in samples) / sum(seconds for seconds, _ in samples)


def measure(workload, seconds: float, tracer=None) -> dict:
    """Repeat the workload's timed operation until ``seconds`` have passed.

    With a tracer, repeats alternate untraced and traced so the tracing
    overhead is measured under the same conditions as the spans.
    """
    plain, traced = [], []  # (seconds, operations) per repeat
    attempted = failed = 0
    first_digests, notes, diagnostics = None, [], {}
    deadline = time.perf_counter() + seconds
    rep = 0
    while rep < MIN_REPEATS or time.perf_counter() < deadline:
        tracing = tracer is not None and rep % 2 == 1
        with tracer.installed() if tracing else contextlib.nullcontext():
            with tracer.span("bench.op", rep) if tracing else contextlib.nullcontext():
                t0 = time.perf_counter()
                result = workload.run(rep)
                elapsed = time.perf_counter() - t0
        outcome = workload.check(result)
        if first_digests is None:
            first_digests = outcome.digests
        elif outcome.digests != first_digests and not outcome.failed:
            outcome.failed = outcome.ops
            outcome.notes.append(f"repeat {rep}: output digests differ from repeat 0")
        attempted += outcome.ops
        failed += outcome.failed
        notes += outcome.notes
        diagnostics = outcome.diagnostics
        (traced if tracing else plain).append((elapsed, outcome.ops))
        rep += 1
    return {"plain": plain, "traced": traced,
            "attempted": attempted, "failed": failed, "notes": notes,
            "digests": first_digests, "diagnostics": diagnostics}


def per_layer(tracer, run: dict) -> tuple[dict, dict]:
    """Per-layer metrics from the traced repeats, plus a span table."""
    every = tracer.summary()
    ops = tracer.summary(root="bench.op")
    op_wall = ops["bench.op"][1]
    n_ops = sum(ops for _, ops in run["traced"])
    counts = tracer.counts

    def per_call(name, scale, inclusive=False):
        calls, total, self_s = every.get(name, (0, 0.0, 0.0))
        return (total if inclusive else self_s) / calls * scale if calls else 0.0

    def calls_per_op(name):
        return ops.get(name, (0, 0.0, 0.0))[0] / n_ops

    def share(name):
        return ops.get(name, (0, 0.0, 0.0))[2] / op_wall

    def ratio(a, b):
        return a / b if b else 0.0

    steps = every.get("world.step", (0,))[0]
    solves = every.get("oracle.exact_min_peak_aoi", (0,))[0]
    metrics = {
        "world.step.self_us": (per_call("world.step", 1e6), "us"),
        "world.step.calls": (calls_per_op("world.step"), "calls/op"),
        "world.events_per_step": (ratio(counts["world.events"], steps), "events/step"),
        "world.observe.self_us": (per_call("world.observe", 1e6), "us"),
        "world.observe.calls": (calls_per_op("world.observe"), "calls/op"),
        "world.global_state_vector.self_us": (per_call("world.global_state_vector", 1e6), "us"),
        "world.reset.self_us": (per_call("world.reset", 1e6), "us"),
        "physics.calls_per_step": (ratio(counts["physics.calls"], steps), "calls/step"),
        "nets.actor_step.self_us": (per_call("nets.actor_step", 1e6), "us"),
        "nets.actor_step.calls": (calls_per_op("nets.actor_step"), "calls/op"),
        "nets.critic_value.self_us": (per_call("nets.critic_value", 1e6), "us"),
        "nets.critic_value.calls": (calls_per_op("nets.critic_value"), "calls/op"),
        "tensor.Tape.backward.self_ms": (per_call("tensor.Tape.backward", 1e3), "ms"),
        "tensor.tape_records_per_backward": (
            ratio(counts["tensor.tape_records"], every.get("tensor.Tape.backward", (0,))[0]),
            "records"),
        "tensor.Adam.step.self_us": (per_call("tensor.Adam.step", 1e6), "us"),
        "trainer.ppo_update.self_ms": (per_call("trainer.ppo_update", 1e3), "ms"),
        "trainer.collect_rollout.ms": (per_call("trainer.collect_rollout", 1e3, True), "ms"),
        "trainer.compute_advantages.self_us": (per_call("trainer.compute_advantages", 1e6), "us"),
        "trainer.rollout_share": (ops.get("trainer.collect_rollout", (0, 0.0))[1] / op_wall, "ratio"),
        "oracle.exact_min_peak_aoi.self_ms": (per_call("oracle.exact_min_peak_aoi", 1e3), "ms"),
        "oracle.states_expanded": (ratio(counts["oracle.states_expanded"], solves), "states"),
        "oracle.steps_per_expanded": (
            ratio(tracer.calls_with_parent("world.step", "oracle.exact_min_peak_aoi"),
                  counts["oracle.states_expanded"]), "steps/state"),
        "checkpoint.save.ms": (per_call("checkpoint.save", 1e3, True), "ms"),
        "checkpoint.load.ms": (per_call("checkpoint.load", 1e3, True), "ms"),
        "checkpoint.bytes": (float(counts["checkpoint.bytes"]), "B"),
        "config_io.load_config.ms": (per_call("config_io.load_config", 1e3, True), "ms"),
        "world.step.self_share": (share("world.step"), "ratio"),
        "world.observe.self_share": (share("world.observe"), "ratio"),
        "nets.actor_step.self_share": (share("nets.actor_step"), "ratio"),
        "tensor.Tape.backward.self_share": (share("tensor.Tape.backward"), "ratio"),
        "trainer.ppo_update.self_share": (share("trainer.ppo_update"), "ratio"),
        "oracle.exact_min_peak_aoi.self_share": (share("oracle.exact_min_peak_aoi"), "ratio"),
        "trace.overhead": (rate(run["plain"]) / rate(run["traced"]), "ratio"),
    }
    table = {name: {"calls": calls, "total_ms": total * 1e3, "self_ms": self_s * 1e3,
                    "self_share_of_ops": ops[name][2] / op_wall}
             for name, (calls, total, self_s) in every.items() if calls}
    return metrics, table


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train_tiny", "eval_canonical", "oracle_small"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "aoi_uav" / "__init__.py").is_file():
        print(f"no aoi_uav sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import numpy as np
    import workloads
    from spans import SPANS, Tracer
    import_s = time.perf_counter() - t0

    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0 + import_seconds())
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            with tracer.installed(), tracer.span("bench.setup", -1):
                workload.setup()
        run = measure(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    per_op = [seconds / ops for seconds, ops in run["plain"]]
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(np, loadavg),
        "import_s": import_s, "setup_repeats_s": setup_times,
        "op_s": {"repeats": len(per_op), "median": statistics.median(per_op),
                 "quartiles": statistics.quantiles(per_op, n=4)},
        "digests": run["digests"], "diagnostics": run["diagnostics"],
        "failures": run["notes"][:20],
    }
    if tracer is None:
        metrics = {
            "ops_per_s": (rate(run["plain"]), "1/s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics, table = per_layer(tracer, run)
        info["spans"] = table
        info["unpatched"] = tracer.missing
        info["zero_calls"] = [name for _, _, name in SPANS
                              if name not in tracer.missing and name not in table]
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        spans_path = out / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write(str(spans_path))
        info["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
