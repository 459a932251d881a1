"""The pins that a deliberate change to a random stream or to the arithmetic
moves, and the code that computes each.

Every pin lives in ``golden_cli_digests.json`` beside this file:

* ``artifacts``: the sha256 of every CLI artifact of :data:`SMALL_CONFIG`
  (``test_cli.py::TestGoldenDigests``);
* ``loop_branches``: one digest per branch of the vehicle loop that no CLI
  artifact reaches (``test_mission.py``, :data:`LOOP_BRANCHES`);
* ``detection_times``: the count, first time and sha256 of the detections
  in one pinned window (``test_acoustics.py``);
* ``numpy``: the numpy release the pins were computed with.  The bytes
  depend on its generators and float formatting, so a pinned test skips
  under another release.

``PYTHONPATH=src python tests/regenerate_pins.py`` rewrites them all.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from reefsim.acoustics import detect_snaps_in_window
from reefsim.cli import main
from reefsim.mission import MissionConfig, execute, plan_lawnmower, save_log
from reefsim.rng import substream
from reefsim.vehicle import NoiseConfig, VehicleConfig
from reefsim.world import GridWorld, synthesize_audio

PINS_PATH = Path(__file__).parent / "golden_cli_digests.json"

SMALL_CONFIG = {
    "world": {"width_m": 16.0, "height_m": 16.0, "snap_rates_per_s": [20.0, 0.0, 0.0]},
    "plan": {
        "bounds": [1.0, 1.0, 15.0, 15.0],
        "leg_spacing_m": 7.0,
        "drift_duration_s": 1.0,
        "waypoint_spacing_m": 4.5,
        "audio_fs_hz": 48_000,
    },
    "topics": {"gibbs_sweeps": 5},
    "episode": {"duration_s": 20.0},
}

# Plans of the vehicle-loop branches no CLI artifact reaches, on the default
# world: ambient current during drifts, a drift whose step count rounds to
# zero (it still runs one step) and a waypoint timeout that aborts the
# mission.  Each case is (plan keyword arguments, mission keyword arguments).
LOOP_BRANCHES = {
    "ambient-current": ({"drift_duration_s": 1.0}, {"current_mps": (0.03, -0.02)}),
    "drift-rounds-to-zero-steps": ({"drift_duration_s": 0.01}, {}),
    "waypoint-timeout": ({"drift_duration_s": 1.0}, {"waypoint_timeout_s": 6.0}),
}


def pinned(key: str):
    """The pins stored under ``key``; skips the calling test when the
    installed numpy is not the release they were computed with."""
    pins = json.loads(PINS_PATH.read_text())
    if np.__version__ != pins["numpy"]:
        pytest.skip(f"pinned with numpy {pins['numpy']}, installed numpy is {np.__version__}")
    return pins[key]


def tree_hashes(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _invoke(args: list) -> None:
    result = CliRunner().invoke(main, [str(arg) for arg in args])
    assert result.exit_code == 0, result.output


def make_workspace(root: Path) -> tuple[Path, Path, Path]:
    """``world-gen`` and ``survey`` of :data:`SMALL_CONFIG` under ``root``,
    seed 3; returns the config file and the two output directories."""
    config = root / "config.yaml"
    config.write_text(yaml.safe_dump(SMALL_CONFIG))
    world_out, survey_out = root / "world", root / "survey"
    _invoke(["world-gen", "--config", config, "--seed", "3", "--out", world_out])
    _invoke(["survey", "--world", world_out / "world.json", "--config", config, "--seed", "3", "--out", survey_out])
    return config, world_out, survey_out


def cli_artifact_digests(config: Path, world_out: Path, survey_out: Path, out: Path) -> dict[str, str]:
    """sha256 of every artifact of the four commands, keyed by command and
    path: ``analyze`` (seed 0) and ``track`` (seed 5) run into ``out`` from
    the outputs of :func:`make_workspace`."""
    _invoke(["analyze", "--log", survey_out / "mission_log.jsonl", "--config", config, "--seed", "0", "--out", out / "analyze"])
    _invoke(["track", "--world", world_out / "world.json", "--config", config, "--seed", "5", "--out", out / "track"])
    digests = {}
    for name, root in (("world-gen", world_out), ("survey", survey_out), ("analyze", out / "analyze"), ("track", out / "track")):
        digests.update({f"{name}/{path}": digest for path, digest in tree_hashes(root).items()})
    return digests


def loop_branch_digest(world: GridWorld, case: str, root: Path) -> str:
    """One digest of the WAVs and the saved log of a :data:`LOOP_BRANCHES`
    survey, seed 3, written under the empty directory ``root``."""
    plan_kwargs, mission_kwargs = LOOP_BRANCHES[case]
    plan = plan_lawnmower((1.0, 1.0, 7.0, 5.0), 4.0, audio_fs_hz=48_000, **plan_kwargs)
    log = execute(plan, world, VehicleConfig(), NoiseConfig(), MissionConfig(**mission_kwargs), seed=3, audio_dir=root / "audio")
    save_log(log, root / "mission_log.jsonl")
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def detection_times(world: GridWorld) -> dict:
    """The detections of one 2 s, 96 kHz window at (6, 6) m: their count,
    the first time and the sha256 of all times."""
    window = synthesize_audio(world, 6.0, 6.0, 2.0, 96_000, False, substream(5, "pin"))
    detection = detect_snaps_in_window(window)
    return {
        "count": detection.count,
        "first_time": float(detection.times[0]),
        "times_sha256": hashlib.sha256(detection.times.tobytes()).hexdigest(),
    }
