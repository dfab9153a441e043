"""Plain-text config format: `key = value` lines under `[section]` headers.

Every key has a documented default (the dataclass defaults); unknown sections
or keys are hard errors so a typo cannot silently change the physics.  `#`
starts a comment.  A full dump of a parsed config re-parses to the same
values, which is what makes run manifests replayable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from . import __version__
from .config import (
    ConfigError,
    RewardParams,
    ScenarioConfig,
    TrainConfig,
    read_text,
)
from .physics import ChannelParams, LaserParams, PropulsionParams


@dataclass
class RunSettings:
    """Manifest metadata; `seed` doubles as the default run seed."""

    seed: int = 0
    tool_version: str = __version__
    started_at: str = ""
    out_dir: str = ""


_SECTION_TYPES = {
    "scenario": ScenarioConfig,
    "channel": ChannelParams,
    "laser": LaserParams,
    "propulsion": PropulsionParams,
    "reward": RewardParams,
    "train": TrainConfig,
    "run": RunSettings,
}

# Fields that are not keys: the nested parameter groups have sections of
# their own, and the run seed always overrides `rng_seed`.
_NOT_KEYS = ("channel", "laser", "propulsion", "reward", "rng_seed")


def _field_types(cls) -> dict[str, str]:
    return {f.name: f.type for f in fields(cls) if f.name not in _NOT_KEYS}


def _coerce(where: str, raw: str, kind: str):
    """``raw`` parsed as ``kind``; a `ConfigError` naming ``where`` if it
    does not parse, or if a float is not finite."""
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            value = float(raw)
            if not math.isfinite(value):
                raise ValueError
            return value
        if kind == "bool":
            low = raw.lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError
        return raw
    except ValueError:
        expected = "finite float" if kind == "float" else kind
        raise ConfigError(f"{where}: cannot parse {raw!r} as {expected}") from None


def parse_config(text: str) -> tuple[ScenarioConfig, TrainConfig, RunSettings]:
    """Parse config text; returns (scenario, train, run) with defaults filled."""
    values: dict[str, dict] = {name: {} for name in _SECTION_TYPES}
    section = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SECTION_TYPES:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, raw_value = line.partition("=")
        key, raw_value = key.strip(), raw_value.strip()
        kinds = _field_types(_SECTION_TYPES[section])
        if key not in kinds:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
        if key in values[section]:
            raise ConfigError(f"line {lineno}: key {key!r} repeated in [{section}]")
        values[section][key] = _coerce(f"[{section}] {key}", raw_value, kinds[key])

    scenario = ScenarioConfig(
        **values["scenario"],
        channel=ChannelParams(**values["channel"]),
        laser=LaserParams(**values["laser"]),
        propulsion=PropulsionParams(**values["propulsion"]),
        reward=RewardParams(**values["reward"]),
    )
    tconf = TrainConfig(**values["train"])
    run = RunSettings(**values["run"])
    scenario.validate()
    tconf.validate()
    if run.seed < 0:
        raise ConfigError(f"[run] seed must be >= 0, got {run.seed}")
    return scenario, tconf, run


def _dump_section(name: str, obj) -> list[str]:
    lines = [f"[{name}]"]
    for key in _field_types(type(obj)):
        value = getattr(obj, key)
        if isinstance(value, bool):
            rendered = "true" if value else "false"
        elif isinstance(value, float):
            rendered = repr(value)
        else:
            rendered = str(value)
        lines.append(f"{key} = {rendered}")
    lines.append("")
    return lines


def dump_config(scenario: ScenarioConfig, tconf: TrainConfig,
                run: RunSettings | None = None) -> str:
    """Full resolved dump; re-parsing reproduces the exact same configs."""
    lines: list[str] = []
    if run is not None:
        lines += _dump_section("run", run)
    lines += _dump_section("scenario", scenario)
    lines += _dump_section("channel", scenario.channel)
    lines += _dump_section("laser", scenario.laser)
    lines += _dump_section("propulsion", scenario.propulsion)
    lines += _dump_section("reward", scenario.reward)
    lines += _dump_section("train", tconf)
    return "\n".join(lines)


def load_config(path: str) -> tuple[ScenarioConfig, TrainConfig, RunSettings]:
    try:
        text = read_text(path, "config")
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    return parse_config(text)


# Sweepable parameter -> the [section] and key of the config value it sets.
SWEEPABLE_PARAMS = {"eta_le": ("laser", "conversion_eff"),
                    "n_uavs": ("scenario", "n_uavs"),
                    "n_iots": ("scenario", "n_iots"),
                    "P_L": ("laser", "power_w")}


def _sweep_target(param: str) -> tuple[str, str]:
    if param not in SWEEPABLE_PARAMS:
        raise ConfigError(f"unknown sweep parameter {param!r}; "
                          f"choose from {', '.join(SWEEPABLE_PARAMS)}")
    return SWEEPABLE_PARAMS[param]


def parse_sweep_values(param: str, text: str) -> list[int | float]:
    """The comma-separated ``--values`` of ``param``, sorted, each parsed
    as the config key it sets would be."""
    section, key = _sweep_target(param)
    kind = _field_types(_SECTION_TYPES[section])[key]
    return sorted(_coerce(f"--values {param}", raw, kind) for raw in text.split(","))


def apply_sweep_value(scenario: ScenarioConfig, param: str,
                      value: int | float) -> ScenarioConfig:
    section, key = _sweep_target(param)
    if section == "scenario":
        return replace(scenario, **{key: value})
    group = replace(getattr(scenario, section), **{key: value})
    return replace(scenario, **{section: group})
