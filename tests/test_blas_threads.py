"""The package pins one BLAS thread, so a run's bytes do not depend on the
host's CPU count or on the thread variables in the environment."""

import os
import subprocess
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import aoi_uav
from aoi_uav.config_io import dump_config, load_config

SRC = str(Path(aoi_uav.__file__).resolve().parents[1])
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fresh_python(args: list[str], threads: str | None) -> str:
    """Run ``python args`` in a fresh interpreter with every thread variable
    set to ``threads``, or unset if it is None; return its stdout."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = SRC
    if threads is not None:
        env.update(dict.fromkeys(THREAD_VARS, threads))
    return subprocess.run([sys.executable, *args], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_import_pins_one_thread_before_numpy():
    probe = ("import os, sys, aoi_uav; "
             f"print(*[os.environ[k] for k in {THREAD_VARS!r}], 'numpy' in sys.modules)")
    assert fresh_python(["-c", probe], threads="4").split() == ["1", "1", "1", "False"]


def test_checkpoint_bytes_do_not_depend_on_thread_variables(tmp_path):
    # One update of 4 x 100 = 400 rows: enough rows for a threaded BLAS to
    # split the weight-gradient reductions between its threads.
    preset = str(resources.files("aoi_uav").joinpath("presets", "tiny.cfg"))
    scenario, tconf, _ = load_config(preset)
    cfg = tmp_path / "tiny4.cfg"
    cfg.write_text(dump_config(scenario, replace(tconf, episodes=4, eval_interval=4)))
    blobs = []
    for threads in ("1", "2", None):
        out = tmp_path / f"threads_{threads}"
        fresh_python(["-m", "aoi_uav.cli", "train", "--config", str(cfg),
                      "--seed", "3", "--out", str(out)], threads)
        blobs.append((out / "checkpoints" / "ep_4.ckpt").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
