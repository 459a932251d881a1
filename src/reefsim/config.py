"""Run configuration: one structured file covering every component.

Configs load from YAML (JSON is valid YAML).  Unknown keys are rejected;
missing keys fall back to the documented defaults baked into the dataclass
definitions.  The fully resolved configuration is echoed into each command's
output directory so results are reproducible from the artifact alone.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

import yaml

from .acoustics import AcousticsConfig
from .errors import ConfigError
from .mission import MissionConfig
from .tracking import Camera, DistractorConfig, TargetConfig, TrackingConfig
from .vehicle import NoiseConfig, VehicleConfig
from .world import WorldConfig
from .topics import TopicsConfig


@dataclass(frozen=True)
class MissionPlanConfig:
    """Survey geometry for the ``survey`` command."""

    bounds: tuple[float, float, float, float] = (0.75, 0.75, 19.25, 19.25)
    leg_spacing_m: float = 4.625
    waypoint_spacing_m: float | None = None
    altitude_setpoint_m: float = 1.0
    drift_duration_s: float = 10.0
    imaging_period_s: float = 0.5
    audio_fs_hz: int = 96_000


@dataclass(frozen=True)
class AnalysisConfig:
    ridge: float = 1e-8
    prune_below: float = 0.05


@dataclass(frozen=True)
class EpisodeConfig:
    """Episode length for the ``track`` command."""

    duration_s: float = 300.0


@dataclass(frozen=True)
class RunConfig:
    world: WorldConfig = field(default_factory=WorldConfig)
    vehicle: VehicleConfig = field(default_factory=VehicleConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    plan: MissionPlanConfig = field(default_factory=MissionPlanConfig)
    mission: MissionConfig = field(default_factory=MissionConfig)
    acoustics: AcousticsConfig = field(default_factory=AcousticsConfig)
    topics: TopicsConfig = field(default_factory=TopicsConfig)
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)
    tracking: TrackingConfig = field(default_factory=TrackingConfig)
    episode: EpisodeConfig = field(default_factory=EpisodeConfig)
    seed: int = 0


_NESTED = {
    TrackingConfig: {"camera": Camera, "target": TargetConfig},
    TargetConfig: {"distractor": DistractorConfig},
}

_OPTIONAL_NESTED = {"distractor"}


def _build(cls, data: Any, path: str):
    """Recursively build a config dataclass from a mapping, rejecting
    unknown keys and preserving defaults for missing ones."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path or cls.__name__}: expected a mapping, got {type(data).__name__}")
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ConfigError(f"{path or cls.__name__}: unknown keys {unknown}")

    kwargs = {}
    nested = _NESTED.get(cls, {})
    for name, value in data.items():
        where = f"{path}.{name}" if path else name
        if name in nested:
            if value is None and name in _OPTIONAL_NESTED:
                kwargs[name] = None
            else:
                kwargs[name] = _build(nested[name], value, where)
        elif isinstance(value, list):
            kwargs[name] = tuple(tuple(v) if isinstance(v, list) else v for v in value)
        else:
            kwargs[name] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"{path or cls.__name__}: {exc}") from exc


_SECTIONS = {f.name: f for f in fields(RunConfig)}


def config_from_dict(data: dict) -> RunConfig:
    """Validate and resolve a raw mapping into a :class:`RunConfig`."""
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    unknown = sorted(set(data) - set(_SECTIONS))
    if unknown:
        raise ConfigError(f"unknown config sections {unknown}")

    kwargs = {}
    for name, value in data.items():
        if name == "seed":
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError("seed must be an integer")
            kwargs[name] = value
        else:
            kwargs[name] = _build(_section_class(name), value, name)
    config = RunConfig(**kwargs)
    validate_config(config)
    return config


def _section_class(name: str):
    return type(getattr(RunConfig(), name))


def validate_config(config: RunConfig) -> None:
    """Cross-field validation beyond per-dataclass checks."""
    config.world.validate()
    try:
        config.topics.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if config.plan.drift_duration_s < 0:
        raise ConfigError("drift_duration_s must be non-negative")
    if config.mission.dt_s <= 0 or config.mission.dt_s > 0.5:
        raise ConfigError("mission dt_s must be in (0, 0.5]")
    if config.plan.audio_fs_hz < 48_000:
        raise ConfigError("audio_fs_hz must be at least 48000")
    if config.episode.duration_s <= 0:
        raise ConfigError("episode duration_s must be positive")
    if config.mission.words_per_image < 1:
        raise ConfigError("mission words_per_image must be at least 1")
    noise = config.noise
    for f in fields(noise):
        sigma = getattr(noise, f.name)
        if f.name.endswith("_sigma") and not (math.isfinite(sigma) and sigma >= 0):
            raise ConfigError(f"noise {f.name} must be finite and non-negative")
    # The EKF fuses these channels, and a Kalman update needs R > 0.
    if noise.depth_sigma == 0 or noise.heading_sigma == 0:
        raise ConfigError("noise depth_sigma and heading_sigma must be positive")
    if noise.usbl_enabled and noise.usbl_period_s > 0 and noise.usbl_sigma == 0:
        raise ConfigError("noise usbl_sigma must be positive while USBL fixes are enabled")


def load_config(path: str | Path | None) -> RunConfig:
    """Load a config file (YAML/JSON); None yields pure defaults."""
    if path is None:
        return RunConfig()
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    try:
        return config_from_dict(data)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def config_to_dict(config: RunConfig) -> dict:
    def convert(value):
        if dataclasses.is_dataclass(value):
            return {f.name: convert(getattr(value, f.name)) for f in fields(value)}
        if isinstance(value, tuple):
            return [convert(v) for v in value]
        return value

    return convert(config)


def dump_resolved(config: RunConfig, seed: int, path: str | Path) -> None:
    """Echo the fully resolved config (including the effective seed)."""
    data = config_to_dict(config)
    data["seed"] = seed
    Path(path).write_text(yaml.safe_dump(data, sort_keys=True, default_flow_style=False))
