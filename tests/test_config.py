"""Every config section checks itself when it is built, by any caller."""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import pytest
import yaml

from reefsim.acoustics import AcousticsConfig
from reefsim.config import ConfigLoader, EpisodeConfig, RunConfig, config_to_dict, load_config
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


def test_benchmark_site_is_the_example_site() -> None:
    """The site-survey benchmark runs the criterion-1 site of example_config.yaml."""
    root = Path(__file__).parents[1]
    assert load_config(root / "perfbench" / "site.yaml") == load_config(root / "example_config.yaml")


def test_exponent_without_decimal_point_loads_as_float(tmp_path) -> None:
    path = tmp_path / "config.yaml"
    path.write_text("noise: {dvl_velocity_sigma: 1e-8}\n")
    assert load_config(path).noise.dvl_velocity_sigma == 1e-8


def test_other_scalars_keep_their_yaml_types() -> None:
    data = yaml.load("[1e-8, -1E+3, 1.0e-8, 7, 512, .nan, '1e-8', abc]", Loader=ConfigLoader)
    assert data[:3] == [1e-8, -1000.0, 1e-8] and all(type(v) is float for v in data[:3])
    assert data[3:5] == [7, 512] and all(type(v) is int for v in data[3:5])
    assert math.isnan(data[5])
    assert data[6:] == ["1e-8", "abc"]
