"""Quick checks of the benchmark's own code: instance generation and tracing."""

from __future__ import annotations

import pytest

from aoi_uav import oracle, tensor, trainer, world

import instances
import spans
import workloads


@pytest.mark.parametrize("seed", range(0, 200, 7))
def test_generated_instances_pass_the_oracle_guard(seed):
    generated = instances.generate(seed)
    assert len(generated) == len(instances.FAMILY)
    for inst, (horizon, cells) in zip(generated, instances.FAMILY):
        inst.validate()
        cfg = inst.config
        assert cfg.n_uavs == 1 and 1 <= cfg.n_iots <= oracle.MAX_IOTS
        assert cfg.horizon == horizon and 7 <= cfg.horizon <= oracle.MAX_HORIZON
        assert cfg.n_actions == 8 and not cfg.regenerate_on_collect
        assert len(set(inst.iots)) == len(cells)
        assert all(x % instances.LATTICE_M == 0 and y % instances.LATTICE_M == 0
                   for x, y in inst.iots)


def test_seeds_give_different_inputs():
    layouts = {tuple(inst.iots for inst in instances.generate(s)) for s in range(8)}
    assert len(layouts) > 1


class SmallTrain(workloads.TrainTiny):
    EPISODES = 2


class SmallEval(workloads.EvalCanonical):
    PRESET = "tiny"


class BundledOracle(workloads.OracleSmall):
    GENERATED = False


@pytest.mark.parametrize("kind", [SmallTrain, SmallEval, BundledOracle])
def test_tracing_leaves_output_digests_unchanged(kind, tmp_path):
    originals = (world.step, trainer.observe, trainer.actor_step,
                 world.laser_power_received, tensor.Tape.backward)
    workload = kind(seed=3, work=tmp_path)
    workload.setup()
    plain = workload.check(workload.run(0))

    tracer = spans.Tracer()
    with tracer.installed(), tracer.span("bench.op", 1):
        traced = workload.check(workload.run(1))

    assert plain.failed == 0 and traced.failed == 0, plain.notes + traced.notes
    assert traced.digests == plain.digests
    assert tracer.missing == []
    assert tracer.summary()["world.step"][0] > 0
    assert (world.step, trainer.observe, trainer.actor_step,
            world.laser_power_received, tensor.Tape.backward) == originals


def test_renamed_function_is_reported_missing(monkeypatch):
    monkeypatch.setattr(spans, "SPANS", spans.SPANS + (
        ("aoi_uav.world", "no_such_function", "world.no_such_function"),
        ("aoi_uav.tensor", "Tape.no_such_method", "tensor.Tape.no_such_method")))
    original = world.step
    tracer = spans.Tracer()
    with tracer.installed():
        assert world.step is not original
    assert world.step is original
    assert tracer.missing == ["world.no_such_function", "tensor.Tape.no_such_method"]
