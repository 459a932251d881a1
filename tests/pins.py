"""The pins that a deliberate change to a random stream or to the arithmetic
moves, and the code that computes each.

Every pin lives in ``golden_cli_digests.json`` beside this file:

* ``artifacts``: the sha256 of every CLI artifact of :data:`SMALL_CONFIG`
  (``test_cli.py::TestGoldenDigests``);
* ``loop_branches``: one digest per branch of the vehicle loop that no CLI
  artifact reaches (``test_mission.py``, :data:`LOOP_BRANCHES`);
* ``detection_times``: the count, first time and sha256 of the detections
  in one pinned window (``test_acoustics.py``);
* ``track_logs``: the sha256 of the track log of each follow-loop branch the
  CLI artifacts do not reach (``test_tracking.py``, :data:`TRACK_LOG_CASES`);
* ``sampler``: one digest of the topic sampler's state after each of three
  seeded runs (``test_topics.py``, :data:`SAMPLER_RUNS`);
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
from panels import FOLLOW_TARGETS, track_world

from reefsim.acoustics import detect_snaps_in_window
from reefsim.cli import main
from reefsim.mission import MissionConfig, execute, plan_lawnmower, save_log
from reefsim.rng import substream
from reefsim.topics import TopicModel
from reefsim.tracking import TargetConfig, TrackingConfig, run_tracking_episode, save_track_log
from reefsim.vehicle import NoiseConfig, VehicleConfig
from reefsim.world import GridWorld, _block_appearance, synthesize_audio

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

# The follow-loop branches the CLI artifacts (one 20 s midwater sphere) do
# not reach: one 300 s episode each in the open world of
# :func:`panels.track_world`, as (tracking config, keyword arguments, seed).
TRACK_LOG_CASES = {
    "benthic-distractor-walk": (FOLLOW_TARGETS["benthic-distractor"], {}, 7),
    "ellipsoid-abeam": (TrackingConfig(target=TargetConfig(body_aspect=0.3)), {"start_bearing_deg": 90.0}, 8),
    # reaches all four walls
    "wall-bounce": (TrackingConfig(target=TargetConfig(speed_mps=0.6, heading_deg=60.0)), {}, 9),
    # a target twice as fast as the vehicle: 1,025 lost frames in two losses
    "lost-frames": (TrackingConfig(target=TargetConfig(speed_mps=2.0, heading_walk_sigma=0.3)), {}, 10),
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


def track_log_digest(case: str, root: Path) -> str:
    """The sha256 of the saved track log of :data:`TRACK_LOG_CASES` ``case``,
    written under the directory ``root``."""
    config, kwargs, seed = TRACK_LOG_CASES[case]
    log = run_tracking_episode(track_world(), VehicleConfig(), config, 300.0, seed=seed, **kwargs)
    save_track_log(log, root / "track_log.jsonl")
    return hashlib.sha256((root / "track_log.jsonl").read_bytes()).hexdigest()


def striped_world(nx: int = 10, ny: int = 10) -> np.ndarray:
    """Three horizontal habitat bands over an nx-by-ny grid."""
    truth = np.zeros(nx * ny, dtype=int)
    rows = np.arange(nx * ny) // nx
    truth[rows >= ny // 3] = 1
    truth[rows >= 2 * ny // 3] = 2
    return truth


def survey_pass(model: TopicModel, truth: np.ndarray, appearance: np.ndarray, rng, images_per_cell: int = 3, words: int = 20) -> None:
    """One boustrophedon pass over every cell."""
    nx, ny = model.grid_nx, model.grid_ny
    for iy in range(ny):
        xs = range(nx) if iy % 2 == 0 else range(nx - 1, -1, -1)
        for ix in xs:
            cell = iy * nx + ix
            for _ in range(images_per_cell):
                model.observe(cell, rng.multinomial(words, appearance[truth[cell]]), rng)


def _digest(state: list) -> str:
    return hashlib.sha256(json.dumps(state).encode()).hexdigest()


def golden_run(max_topics: int) -> tuple[TopicModel, str]:
    """Seeded observe + refine on a small banded grid; returns the model and
    the sha256 of (token topics, labels, n_topics, next uniform)."""
    appearance = _block_appearance(3, 24, 0.05)
    truth = striped_world(6, 6)
    rng = substream(21, "golden")
    model = TopicModel(24, 6, 6, max_topics)
    survey_pass(model, truth, appearance, rng, images_per_cell=2)
    model.gibbs_refine(5, rng)
    return model, _digest([model._tok_topic, model.labels, model.n_topics, rng.random().hex()])


def golden_stream(root: Path) -> tuple[TopicModel, set[str], str]:
    """The topic-stream benchmark's traffic in small: 5-word observes in
    lawnmower order over a banded 10x10 grid, a one-sweep refine every 300
    ops and a save/load half-way (under the directory ``root``), the counts
    checked after each op.  Returns the model, the kinds of op that ran and
    the sha256 of (token topics, labels, n_topics, next label, next uniform)."""
    appearance = _block_appearance(3, 30, 0.05)
    truth = striped_world(10, 10)
    order = [iy * 10 + ix for iy in range(10) for ix in (range(10) if iy % 2 == 0 else range(9, -1, -1))]
    rng = substream(8, "golden-stream")
    model = TopicModel(30, 10, 10)
    kinds = set()
    for i in range(1, 1501):
        if i == 750:
            model.save(root / "model.json")
            model = TopicModel.load(root / "model.json")
            kinds.add("load")
        elif i % 300 == 0:
            retired = model._next_label - model.n_topics
            model.gibbs_refine(1, rng)
            kinds.add("retire" if model._next_label - model.n_topics > retired else "refine")
        else:
            cell = order[i % 100]
            model.observe(cell, rng.multinomial(5, appearance[truth[cell]]), rng)
            kinds.add("observe")
        model.validate_counts()
    return model, kinds, _digest([model._tok_topic, model.labels, model.n_topics, model._next_label, rng.random().hex()])


# The seeded sampler runs whose final state is pinned: any change to the
# draw order, the arithmetic of the conditional or the number of uniforms
# consumed moves a digest.  Each maps the directory for a reload to its digest.
SAMPLER_RUNS = {
    "at-the-topic-cap": lambda root: golden_run(3)[1],  # max_topics=3 keeps the sampler at the cap
    "with-topic-creation-and-retirement": lambda root: golden_run(20)[1],
    "streaming-observes-with-refines-and-a-reload": lambda root: golden_stream(root)[2],
}
