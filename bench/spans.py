"""In-memory span tracer that times calls into aoi_uav's public functions.

The tracer patches functions from the outside; ``src/aoi_uav`` is never
edited.  A function imported by name into another module (``trainer``
imports ``observe`` and ``actor_step``, ``world`` imports the physics
functions) is bound in several module namespaces, so every binding that is
the same object is replaced, and every one is restored on exit.

Each span stores its name, start, end, parent span and run id in flat
arrays; self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name).  ``Class.method`` attributes are patched
# on the class.
SPANS = (
    ("aoi_uav.config_io", "load_config", "config_io.load_config"),
    ("aoi_uav.world", "reset", "world.reset"),
    ("aoi_uav.world", "step", "world.step"),
    ("aoi_uav.world", "observe", "world.observe"),
    ("aoi_uav.world", "global_state_vector", "world.global_state_vector"),
    ("aoi_uav.nets", "actor_step", "nets.actor_step"),
    ("aoi_uav.nets", "critic_value", "nets.critic_value"),
    ("aoi_uav.tensor", "Tape.backward", "tensor.Tape.backward"),
    ("aoi_uav.tensor", "Adam.step", "tensor.Adam.step"),
    ("aoi_uav.trainer", "collect_rollout", "trainer.collect_rollout"),
    ("aoi_uav.trainer", "compute_advantages", "trainer.compute_advantages"),
    ("aoi_uav.trainer", "ppo_update", "trainer.ppo_update"),
    ("aoi_uav.oracle", "exact_min_peak_aoi", "oracle.exact_min_peak_aoi"),
    ("aoi_uav.oracle", "replay_verify", "oracle.replay_verify"),
    ("aoi_uav.checkpoint", "save", "checkpoint.save"),
    ("aoi_uav.checkpoint", "load", "checkpoint.load"),
)

# Physics calls are microseconds each, so they are counted, not timed.
COUNTED = (
    ("aoi_uav.physics", "transmission_rate", "physics.calls"),
    ("aoi_uav.physics", "laser_power_received", "physics.calls"),
    ("aoi_uav.physics", "propulsion_power", "physics.calls"),
)


def _count_events(tracer, args, result):
    tracer.counts["world.events"] += len(result[0].events)


def _count_tape_records(tracer, args, result):
    tracer.counts["tensor.tape_records"] += len(args[0].records)


def _count_expanded(tracer, args, result):
    tracer.counts["oracle.states_expanded"] += result.states_expanded


def _record_checkpoint_bytes(tracer, args, result):
    tracer.counts["checkpoint.bytes"] = os.path.getsize(args[0])


AFTER = {
    "world.step": _count_events,
    "tensor.Tape.backward": _count_tape_records,
    "oracle.exact_min_peak_aoi": _count_expanded,
    "checkpoint.save": _record_checkpoint_bytes,
}


class Tracer:
    """Records nested spans while installed; see ``installed``."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.root = array("i")
        self.run = array("i")
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        stack = self._stack
        self.name.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.root.append(self.root[stack[0]] if stack else idx)
        self.run.append(self.run_id)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, run_id: int):
        """A span around benchmark code; spans opened inside become its children."""
        self.run_id = run_id
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _timed(self, name: str, fn):
        name_id = self._name_id(name)
        after = AFTER.get(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def _counted(self, counter: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching ----------------------------------------------------------

    def _patch(self, module_name: str, attr: str, make_wrapper, label: str) -> None:
        module = sys.modules.get(module_name)
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = vars(owner).get(method) if owner is not None else None
        if not callable(original):
            self.missing.append(label)
            return
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            self._set(owner, method, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "aoi_uav" and not mod_name.startswith("aoi_uav."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def _set(self, obj, attr: str, value) -> None:
        self._restore.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, value)

    def install(self) -> None:
        for module_name, attr, name in SPANS:
            self._patch(module_name, attr, lambda fn, n=name: self._timed(n, fn), name)
        for module_name, attr, counter in COUNTED:
            self._patch(module_name, attr, lambda fn, c=counter: self._counted(c, fn),
                        f"{module_name.split('.')[-1]}.{attr}")

    def uninstall(self) -> None:
        while self._restore:
            obj, attr, original = self._restore.pop()
            setattr(obj, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis ----------------------------------------------------------

    def summary(self, root: str | None = None) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds).

        With ``root``, only spans nested in a span of that name count.
        """
        n = len(self.name)
        names = np.frombuffer(self.name, dtype=np.int32, count=n)
        parents = np.frombuffer(self.parent, dtype=np.int32, count=n)
        dur = (np.frombuffer(self.end, dtype=np.float64, count=n)
               - np.frombuffer(self.start, dtype=np.float64, count=n))
        child = np.zeros(n)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        self_time = dur - child
        keep = np.ones(n, dtype=bool)
        if root is not None:
            roots = np.frombuffer(self.root, dtype=np.int32, count=n)
            keep = names[roots] == self._name_ids.get(root, -1)
        out = {}
        for name_id, name in enumerate(self.names):
            mask = keep & (names == name_id)
            out[name] = (int(mask.sum()), float(dur[mask].sum()),
                         float(self_time[mask].sum()))
        return out

    def calls_with_parent(self, child: str, parent: str) -> int:
        """Number of ``child`` spans whose direct parent is a ``parent`` span."""
        n = len(self.name)
        names = np.frombuffer(self.name, dtype=np.int32, count=n)
        parents = np.frombuffer(self.parent, dtype=np.int32, count=n)
        mask = (names == self._name_ids.get(child, -1)) & (parents >= 0)
        return int((names[parents[mask]] == self._name_ids.get(parent, -1)).sum())

    def write(self, path: str) -> None:
        """Write every span as CSV: id, name, start, end, parent, run."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id,name,start_s,end_s,parent,run\n")
            for i in range(len(self.name)):
                fh.write(f"{i},{self.names[self.name[i]]},{self.start[i]!r},"
                         f"{self.end[i]!r},{self.parent[i]},{self.run[i]}\n")
