"""Every config section checks itself when it is built, by any caller."""

from __future__ import annotations

import dataclasses
import math

import pytest

from reefsim.acoustics import AcousticsConfig
from reefsim.config import AnalysisConfig, EpisodeConfig, RunConfig, config_to_dict
from reefsim.errors import ConfigError
from reefsim.mission import MissionConfig, MissionPlan, plan_lawnmower
from reefsim.topics import TopicsConfig
from reefsim.tracking import Camera, DistractorConfig, TargetConfig, TrackingConfig
from reefsim.vehicle import NoiseConfig, VehicleConfig
from reefsim.world import WorldConfig

SECTIONS = (
    WorldConfig,
    VehicleConfig,
    NoiseConfig,
    MissionPlan,
    MissionConfig,
    AcousticsConfig,
    TopicsConfig,
    AnalysisConfig,
    TrackingConfig,
    Camera,
    TargetConfig,
    DistractorConfig,
    EpisodeConfig,
    RunConfig,
)

CASES = [
    (section, f.name, bad)
    for section in SECTIONS
    for f in dataclasses.fields(section)
    for bad in (math.nan, "abc", True)
    if not (bad is True and f.name == "usbl_enabled")  # a bool field takes True
]


@pytest.mark.parametrize(
    "section, name, bad", CASES, ids=[f"{s.__name__}.{name}={bad!r}" for s, name, bad in CASES]
)
def test_direct_construction_checks_each_field(section, name, bad) -> None:
    with pytest.raises(ConfigError) as caught:
        dataclasses.replace(section(), **{name: bad})
    assert str(caught.value).startswith(name)


def test_plan_rejects_spacing_larger_than_bounds() -> None:
    with pytest.raises(ConfigError, match="^leg_spacing_m"):
        MissionPlan(bounds=(0, 0, 5, 5), leg_spacing_m=50.0)


def test_plan_waypoints_are_derived_not_configured() -> None:
    plan = MissionPlan(bounds=(0.0, 0.0, 10.0, 10.0), leg_spacing_m=10.0, waypoint_spacing_m=2.5)
    assert plan == plan_lawnmower((0.0, 0.0, 10.0, 10.0), 10.0, waypoint_spacing_m=2.5)
    assert plan.waypoints[:6] == ((0.0, 0.0), (2.5, 0.0), (5.0, 0.0), (7.5, 0.0), (10.0, 0.0), (10.0, 10.0))
    assert plan.waypoints is plan.waypoints
    assert "waypoints" not in config_to_dict(RunConfig())["plan"]
