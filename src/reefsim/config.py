"""Run configuration: one structured file covering every component.

Configs load from YAML (JSON is valid YAML).  Unknown keys are rejected;
missing keys fall back to the documented defaults baked into the dataclass
definitions.  Types, finiteness and nesting come from the dataclasses'
annotations: a ``float`` is a finite int or float, an ``int`` an int (a
bool is neither), a tuple a list of the declared length.  Values are never
coerced: a YAML ``20`` stays ``20``.  Ranges are checked in
:func:`validate_config` and the sections' ``validate`` methods.  The fully
resolved configuration is echoed into each command's output directory so
results are reproducible from the artifact alone.
"""

from __future__ import annotations

import dataclasses
import sys
import types
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

import yaml

from .acoustics import AcousticsConfig
from .errors import ConfigError
from .mission import MissionConfig
from .tracking import TrackingConfig
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


def _build(annotation, value: Any, where: str):
    """Check ``value`` against ``annotation`` and build it, recursing into
    dataclasses, ``X | None`` and tuples.  Any :class:`ConfigError` names
    the dotted key ``where``."""
    name = where or "config"
    if dataclasses.is_dataclass(annotation):
        if not isinstance(value, dict):
            raise ConfigError(f"{name}: expected a mapping, got {type(value).__name__}")
        hints = typing.get_type_hints(annotation)
        unknown = sorted(set(value) - set(hints), key=str)
        if unknown:
            raise ConfigError(f"{name}: unknown keys {unknown}")
        return annotation(**{key: _build(hints[key], v, f"{where}.{key}" if where else key) for key, v in value.items()})

    args = typing.get_args(annotation)
    if isinstance(annotation, types.UnionType):  # ``X | None``
        if value is None:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return _build(inner, value, where)
    if typing.get_origin(annotation) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{name}: expected a list, got {type(value).__name__}")
        if args[-1] is Ellipsis:
            args = (args[0],) * len(value)
        elif len(value) != len(args):
            raise ConfigError(f"{name}: expected {len(args)} values, got {len(value)}")
        return tuple(_build(a, v, f"{where}[{i}]") for i, (a, v) in enumerate(zip(args, value)))

    if annotation is float:
        # A comparison, not math.isfinite: that overflows on a huge int.
        ok = isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max
    else:
        ok = isinstance(value, annotation) and not (annotation is int and isinstance(value, bool))
    if not ok:
        kind = "a finite number" if annotation is float else annotation.__name__
        raise ConfigError(f"{name}: expected {kind}, got {value!r}")
    return value


def config_from_dict(data: dict | None) -> RunConfig:
    """Validate and resolve a raw mapping into a :class:`RunConfig`."""
    config = _build(RunConfig, {} if data is None else data, "")
    validate_config(config)
    return config


def validate_config(config: RunConfig) -> None:
    """Range and cross-field checks beyond per-dataclass validation."""
    config.world.validate()
    try:
        config.topics.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not config.plan.drift_duration_s >= 0:
        raise ConfigError("plan.drift_duration_s must be non-negative")
    if not 0 < config.mission.dt_s <= 0.5:
        raise ConfigError("mission.dt_s must be in (0, 0.5]")
    if not config.plan.audio_fs_hz >= 48_000:
        raise ConfigError("plan.audio_fs_hz must be at least 48000")
    if not config.episode.duration_s > 0:
        raise ConfigError("episode.duration_s must be positive")
    if not config.mission.words_per_image >= 1:
        raise ConfigError("mission.words_per_image must be at least 1")
    if not config.vehicle.tau_s > 0:
        raise ConfigError("vehicle.tau_s must be positive")
    if not config.tracking.frame_rate_hz > 0:
        raise ConfigError("tracking.frame_rate_hz must be positive")
    acoustics = config.acoustics
    # The rules of ``acoustics.stft`` and ``acoustics.band_energy``.
    if acoustics.window < 64 or acoustics.window & (acoustics.window - 1):
        raise ConfigError("acoustics.window must be a power of two >= 64")
    if not 0 < acoustics.hop <= acoustics.window:
        raise ConfigError("acoustics.hop must be in (0, window]")
    if not acoustics.band_hz[0] < acoustics.band_hz[1]:
        raise ConfigError("acoustics.band_hz must run from low to high")
    noise = config.noise
    for f in fields(noise):
        if f.name.endswith("_sigma") and not getattr(noise, f.name) >= 0:
            raise ConfigError(f"noise.{f.name} must be non-negative")
    # The EKF fuses these channels, and a Kalman update needs R > 0.
    if noise.depth_sigma == 0 or noise.heading_sigma == 0:
        raise ConfigError("noise.depth_sigma and noise.heading_sigma must be positive")
    if noise.usbl_enabled and noise.usbl_period_s > 0 and noise.usbl_sigma == 0:
        raise ConfigError("noise.usbl_sigma must be positive while USBL fixes are enabled")


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
    return config_from_dict(data)


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
