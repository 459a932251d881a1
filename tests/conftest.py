from __future__ import annotations

import numpy as np
import pytest

from reefsim.mission import MissionConfig, execute, plan_lawnmower
from reefsim.vehicle import NoiseConfig, VehicleConfig
from reefsim.world import WorldConfig, generate_world


@pytest.fixture(scope="session")
def default_world():
    """The default world, seed 7, shared by every module; no test mutates it."""
    return generate_world(WorldConfig(), seed=7)


@pytest.fixture(scope="session")
def quiet_world():
    """No snap emitters anywhere."""
    return generate_world(WorldConfig(snap_rates_per_s=(0.0, 0.0, 0.0)), seed=3)


@pytest.fixture(scope="session")
def make_audio_dir(tmp_path_factory):
    """Returns a function that makes a fresh directory for the drift WAVs
    ``execute`` writes: ``execute(..., seed=3, audio_dir=make_audio_dir())``."""
    return lambda: tmp_path_factory.mktemp("audio")


@pytest.fixture(scope="session")
def small_log(default_world, make_audio_dir):
    """A survey of the default world, seed 5, with a 2 s drift at each of its
    six waypoints and their WAVs.  The mission and acoustics tests read it."""
    plan = plan_lawnmower((1.0, 1.0, 19.0, 19.0), 9.0, drift_duration_s=2.0)
    return execute(plan, default_world, VehicleConfig(), NoiseConfig(), MissionConfig(), seed=5, audio_dir=make_audio_dir())


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
