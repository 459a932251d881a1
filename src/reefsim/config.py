"""Run configuration: one structured file covering every component.

Configs load from YAML (JSON is valid YAML).  Each section is a dataclass
beside the code it configures, and that code takes its defaults from the
section, so each default is written once.  Only ``episode``, which sizes
the ``track`` command's episode, lives here, in :class:`RunConfig`.
Unknown keys are rejected; missing keys fall back to the dataclasses'
defaults.  Loading only converts, through the builder the file readers
share (:func:`reefsim.errors.build`: a mapping becomes its dataclass, a
list a tuple, nothing is coerced); every section checks itself when it is
built, and a failed check names its dotted key.  The fully resolved
configuration is echoed into each command's output directory so results
are reproducible from the artifact alone.
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass, field, fields
from pathlib import Path
import yaml

from .acoustics import AcousticsConfig
from .analysis import AnalysisConfig
from .errors import ConfigError, build, check_section
from .mission import MAX_WAYPOINT_STEPS, MissionConfig, MissionPlan
from .tracking import MAX_EPISODE_STEPS, TrackingConfig
from .vehicle import NoiseConfig, VehicleConfig
from .world import WorldConfig
from .topics import TopicsConfig


@dataclass(frozen=True)
class EpisodeConfig:
    """Episode length for the ``track`` command."""

    duration_s: float = 300.0

    def __post_init__(self) -> None:
        check_section(self, ("duration_s", lambda: self.duration_s > 0, "must be positive"))


@dataclass(frozen=True)
class RunConfig:
    world: WorldConfig = field(default_factory=WorldConfig)
    vehicle: VehicleConfig = field(default_factory=VehicleConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    plan: MissionPlan = field(default_factory=MissionPlan)
    mission: MissionConfig = field(default_factory=MissionConfig)
    acoustics: AcousticsConfig = field(default_factory=AcousticsConfig)
    topics: TopicsConfig = field(default_factory=TopicsConfig)
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)
    tracking: TrackingConfig = field(default_factory=TrackingConfig)
    episode: EpisodeConfig = field(default_factory=EpisodeConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        # The survey's EKF squares these values: a drift's body velocities,
        # which are the current's, into its covariance (the speed clamp keeps
        # them as bounded as in transit); the DVL velocity and yaw-rate sigmas
        # into its process noise, which may be 0; and the sigmas of the
        # channels it fuses into a measurement variance, which a Kalman update
        # needs > 0.  An episode runs at most ``MAX_EPISODE_STEPS`` dynamics
        # steps: the duration is at fault when even the longest legal step
        # (0.5 s) cannot fit it, the step otherwise.  A survey waypoint's
        # timeout and drift are bounded the same way by MAX_WAYPOINT_STEPS.
        n, m, p = self.noise, self.mission, self.plan
        check_section(self, ("mission.current_mps", lambda: math.hypot(*self.mission.current_mps) <= self.vehicle.v_max_mps,
                             "must be no faster than vehicle.v_max_mps"),
                      ("noise.dvl_velocity_sigma", lambda: _square(n.dvl_velocity_sigma) < math.inf, "must have a finite square"),
                      ("noise.yaw_rate_sigma", lambda: _square(n.yaw_rate_sigma) < math.inf, "must have a finite square"),
                      ("noise.depth_sigma", lambda: 0 < _square(n.depth_sigma) < math.inf, "must have a finite positive square"),
                      ("noise.heading_sigma", lambda: 0 < _square(n.heading_sigma) < math.inf, "must have a finite positive square"),
                      ("noise.usbl_sigma", lambda: n.usbl_period_s == 0 or 0 < _square(n.usbl_sigma) < math.inf,
                       "must have a finite positive square unless noise.usbl_period_s is 0"),
                      ("episode.duration_s", lambda: self.episode.duration_s <= MAX_EPISODE_STEPS * 0.5,
                       f"must be at most {MAX_EPISODE_STEPS:,} dynamics steps of the longest, 0.5 s"),
                      ("tracking.dynamics_dt_s", lambda: self.episode.duration_s / self.tracking.dynamics_dt_s <= MAX_EPISODE_STEPS,
                       f"must be at least episode.duration_s / {MAX_EPISODE_STEPS:,}"),
                      ("mission.waypoint_timeout_s", lambda: m.waypoint_timeout_s + p.drift_duration_s <= MAX_WAYPOINT_STEPS * 0.5,
                       f"plus plan.drift_duration_s must be at most {MAX_WAYPOINT_STEPS:,} dynamics steps of the longest, 0.5 s"),
                      ("mission.dt_s", lambda: (m.waypoint_timeout_s + p.drift_duration_s) / m.dt_s <= MAX_WAYPOINT_STEPS,
                       f"must be at least (mission.waypoint_timeout_s + plan.drift_duration_s) / {MAX_WAYPOINT_STEPS:,}"))


def _square(sigma: float) -> float:
    """``sigma**2`` as the vehicle loop forms it, without its OverflowError:
    a float product overflows to infinity instead of raising."""
    return float(sigma) * float(sigma)


class ConfigLoader(yaml.SafeLoader):
    """PyYAML's safe loader (YAML 1.1) plus one YAML 1.2 rule: a plain
    scalar in exponent notation without a decimal point, such as ``1e-8`` or
    ``-1E+3``, is a float rather than a string.  Quoted scalars stay strings."""


ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?[0-9][0-9_]*(?:\.[0-9_]*)?[eE][-+]?[0-9]+$"),
    list("-+0123456789"),
)


def config_from_dict(data: dict | None) -> RunConfig:
    """Build a :class:`RunConfig` from a parsed YAML mapping."""
    if not isinstance(data, dict | None):
        raise ConfigError(f"config: expected a mapping, got {type(data).__name__}")
    return build(RunConfig, data or {})


def load_config(path: str | Path | None) -> RunConfig:
    """Load a config file (YAML/JSON); None yields pure defaults."""
    if path is None:
        return RunConfig()
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = yaml.load(text, Loader=ConfigLoader)
    except yaml.MarkedYAMLError as exc:
        # PyYAML's own message spans several lines and names "<unicode string>".
        mark = exc.problem_mark
        raise ConfigError(f"cannot parse config {path} line {mark.line + 1} column {mark.column + 1}: {exc.problem}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {str(exc).splitlines()[0]}") from exc
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
