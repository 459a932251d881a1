from __future__ import annotations

import numpy as np
import pytest

from reefsim.world import WorldConfig, generate_world


@pytest.fixture(scope="session")
def default_world():
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


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
