from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from json_leaves import OTHER_JSON_VALUES, leaf, leaf_paths, other_type, replace_leaf

from reefsim import mission
from reefsim.errors import ConfigError, DataError
from reefsim.mission import (
    AudioRef,
    LogRecord,
    MissionConfig,
    MissionLog,
    execute,
    load_log,
    plan_lawnmower,
    save_log,
)
from reefsim.vehicle import NoiseConfig, VehicleConfig
from reefsim.world import AudioWindow, write_wav


class TestPlanLawnmower:
    def test_20m_bounds_5m_spacing_gives_5_legs_10_waypoints(self) -> None:
        plan = plan_lawnmower((0.0, 0.0, 20.0, 20.0), 5.0)
        assert len(plan.waypoints) == 10
        ys = sorted({wp[1] for wp in plan.waypoints})
        assert ys == [0.0, 5.0, 10.0, 15.0, 20.0]

    def test_legs_alternate_direction(self) -> None:
        plan = plan_lawnmower((0.0, 0.0, 10.0, 10.0), 5.0)
        assert plan.waypoints[0][0] == 0.0 and plan.waypoints[1][0] == 10.0
        assert plan.waypoints[2][0] == 10.0 and plan.waypoints[3][0] == 0.0

    def test_waypoint_subdivision(self) -> None:
        plan = plan_lawnmower((0.0, 0.0, 10.0, 10.0), 10.0, waypoint_spacing_m=2.5)
        # two legs, five stations each
        assert len(plan.waypoints) == 10

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        corner=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
        extent=st.tuples(st.floats(0.01, 50.0), st.floats(0.01, 50.0)),
        legs=st.floats(1.0, 60.0),
        stations=st.one_of(st.none(), st.integers(1, 60), st.floats(0.01, 60.0)),
    )
    def test_closed_form_waypoint_count_matches_the_waypoints(self, corner, extent, legs, stations) -> None:
        """The count the waypoint budget checks is the plan's, also where a
        whole number of station spacings ends at or near the far bound."""
        x0, y0, x1, y1 = bounds = (*corner, corner[0] + extent[0], corner[1] + extent[1])
        spacing = (x1 - x0) / stations if type(stations) is int else stations
        plan = plan_lawnmower(bounds, (y1 - y0) / legs, waypoint_spacing_m=spacing)
        assert plan._waypoint_count() == len(plan.waypoints)

    def test_spacing_larger_than_bounds_rejected(self) -> None:
        with pytest.raises(ConfigError):
            plan_lawnmower((0.0, 0.0, 5.0, 5.0), 50.0)

    def test_degenerate_bounds_rejected(self) -> None:
        with pytest.raises(ConfigError):
            plan_lawnmower((0.0, 0.0, 0.0, 5.0), 1.0)


class TestExecute:
    def test_every_waypoint_yields_one_drift_window(self, small_log) -> None:
        plan = plan_lawnmower((1.0, 1.0, 19.0, 19.0), 9.0, drift_duration_s=2.0)
        assert len(small_log.drift_records()) == len(plan.waypoints)

    def test_drift_segments_have_requested_duration(self, small_log) -> None:
        for record in small_log.drift_records():
            assert small_log.audio_window(record).duration == pytest.approx(2.0)

    def test_zero_drift_duration_gives_pure_visual_survey(self, default_world, make_audio_dir) -> None:
        plan = plan_lawnmower((1.0, 1.0, 19.0, 19.0), 9.0, drift_duration_s=0.0)
        log = execute(plan, default_world, VehicleConfig(), NoiseConfig(), MissionConfig(), seed=1, audio_dir=make_audio_dir())
        assert log.drift_records() == []
        assert len(log.imaging_records()) > 0

    def test_imaging_count_matches_transit_time(self, small_log) -> None:
        # Oracle: recount from the log's own timestamps.  Transit time is
        # total time minus drift time; images arrive at the imaging period.
        n_drifts = len(small_log.drift_records())
        total = small_log.records[-1].t - small_log.records[0].t
        transit = total - n_drifts * 2.0
        expected = transit / 0.5
        n_legs = n_drifts  # one leg per waypoint
        assert abs(len(small_log.imaging_records()) - expected) <= n_legs + 1

    def test_same_seed_reproduces_identical_log(self, default_world, make_audio_dir) -> None:
        plan = plan_lawnmower((1.0, 1.0, 19.0, 19.0), 9.0, drift_duration_s=1.0)
        a = execute(plan, default_world, VehicleConfig(), NoiseConfig(), MissionConfig(), seed=3, audio_dir=make_audio_dir())
        b = execute(plan, default_world, VehicleConfig(), NoiseConfig(), MissionConfig(), seed=3, audio_dir=make_audio_dir())
        assert len(a.records) == len(b.records)
        assert all(ra == rb for ra, rb in zip(a.records, b.records))
        assert all(np.array_equal(a.audio_window(r).samples, b.audio_window(r).samples) for r in a.drift_records())

    def test_unreachable_waypoint_aborts_with_marker(self, default_world, make_audio_dir) -> None:
        plan = plan_lawnmower((1.0, 1.0, 19.0, 19.0), 9.0, drift_duration_s=0.0)
        config = MissionConfig(waypoint_timeout_s=5.0)  # far too short to cross a leg
        log = execute(plan, default_world, VehicleConfig(), NoiseConfig(), config, seed=2, audio_dir=make_audio_dir())
        assert log.aborted
        assert "timeout" in log.abort_reason or "unreachable" in log.abort_reason

    def test_waypoints_outside_world_rejected(self, default_world, make_audio_dir) -> None:
        plan = plan_lawnmower((1.0, 1.0, 25.0, 19.0), 9.0)
        with pytest.raises(ConfigError):
            execute(plan, default_world, VehicleConfig(), NoiseConfig(), MissionConfig(), seed=0, audio_dir=make_audio_dir())

    # Digests of the WAVs ``execute`` writes and the ``save_log`` JSONL of
    # three plans whose branches of the vehicle loop no CLI digest covers:
    # ambient current during drifts, a drift whose step count rounds to zero
    # (it still runs one step) and a waypoint timeout that aborts the mission.
    LOOP_BRANCH_DIGESTS = {
        "ambient-current": ({"drift_duration_s": 1.0}, {"current_mps": (0.03, -0.02)},
                            "c95db40b70c94e9644f423f97317472482bb16b77ba8616f7d326ab4f8cc934c"),
        "drift-rounds-to-zero-steps": ({"drift_duration_s": 0.01}, {},
                                       "bdadd48a6796c83a834b7e336d56677f6e9f2919de32c647275cc2f14523fb1d"),
        "waypoint-timeout": ({"drift_duration_s": 1.0}, {"waypoint_timeout_s": 6.0},
                             "37c6732741f104a76518b62dc629180a7cd25132510db80c17d1223cfadf61a1"),
    }

    @pytest.mark.parametrize("case", sorted(LOOP_BRANCH_DIGESTS))
    def test_loop_branches_match_pinned_digests(self, default_world, case, tmp_path) -> None:
        pinned = json.loads((Path(__file__).parent / "golden_cli_digests.json").read_text())["numpy"]
        if np.__version__ != pinned:
            pytest.skip(f"digests pinned with numpy {pinned}, installed numpy is {np.__version__}")
        plan_kwargs, mission_kwargs, expected = self.LOOP_BRANCH_DIGESTS[case]
        plan = plan_lawnmower((1.0, 1.0, 7.0, 5.0), 4.0, audio_fs_hz=48_000, **plan_kwargs)
        log = execute(plan, default_world, VehicleConfig(), NoiseConfig(), MissionConfig(**mission_kwargs), seed=3, audio_dir=tmp_path / "audio")
        save_log(log, tmp_path / "mission_log.jsonl")
        digest = hashlib.sha256()
        for path in sorted(p for p in tmp_path.rglob("*") if p.is_file()):
            digest.update(path.relative_to(tmp_path).as_posix().encode())
            digest.update(path.read_bytes())
        assert digest.hexdigest() == expected

    def test_altitude_stays_near_setpoint(self, default_world, small_log) -> None:
        altitudes = [
            default_world.depth_at(r.true_pose[0], r.true_pose[1]) - r.true_pose[2] for r in small_log.records
        ]
        assert min(altitudes) > 0.3
        assert max(altitudes) < 2.0


def _raise_data_error(send, *args):
    raise DataError("vehicle loop failed")


def _exit_without_reply(send, *args):
    os._exit(7)


# A monkeypatched target reaches the worker only when the worker is forked
# from this process; under spawn or forkserver it re-imports the module.
needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="the patched worker target is seen only under fork"
)


class TestWorkerProcess:
    """The vehicle loop runs in a worker process; the audio stays here."""

    def test_no_worker_outlives_execute(self, small_log) -> None:
        assert small_log.drift_records()
        assert multiprocessing.active_children() == []

    def test_audio_error_stops_the_worker(self, default_world, monkeypatch, make_audio_dir) -> None:
        def fail(*args, **kwargs):
            raise DataError("audio failed")

        monkeypatch.setattr(mission, "synthesize_audio", fail)
        plan = plan_lawnmower((1.0, 1.0, 19.0, 19.0), 9.0, drift_duration_s=1.0)
        with pytest.raises(DataError, match="audio failed"):
            execute(plan, default_world, VehicleConfig(), NoiseConfig(), MissionConfig(), seed=0, audio_dir=make_audio_dir())
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_worker_exception_keeps_its_type(self, default_world, monkeypatch, make_audio_dir) -> None:
        monkeypatch.setattr(mission, "_run_vehicle", _raise_data_error)
        plan = plan_lawnmower((1.0, 1.0, 19.0, 19.0), 9.0, drift_duration_s=1.0)
        with pytest.raises(DataError, match="vehicle loop failed"):
            execute(plan, default_world, VehicleConfig(), NoiseConfig(), MissionConfig(), seed=0, audio_dir=make_audio_dir())
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_worker_that_dies_without_reply_names_its_exit_code(self, default_world, monkeypatch, make_audio_dir) -> None:
        monkeypatch.setattr(mission, "_run_vehicle", _exit_without_reply)
        plan = plan_lawnmower((1.0, 1.0, 19.0, 19.0), 9.0, drift_duration_s=1.0)
        with pytest.raises(RuntimeError, match="exited with code 7"):
            execute(plan, default_world, VehicleConfig(), NoiseConfig(), MissionConfig(), seed=0, audio_dir=make_audio_dir())
        assert multiprocessing.active_children() == []


class TestLogInvariants:
    def test_timestamps_strictly_increasing(self, small_log) -> None:
        ts = [r.t for r in small_log.records]
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_audio_only_in_drift_records(self, small_log) -> None:
        for record in small_log.records:
            assert (record.audio is None) != (record.words is None)
        assert small_log.drift_records() == [r for r in small_log.records if r.audio is not None]

    def test_no_saturated_audio_marked_drift(self, small_log) -> None:
        for record in small_log.drift_records():
            assert not record.audio.saturated

    def test_drift_cell_matches_true_pose_at_drift_start(self, default_world, small_log) -> None:
        for record in small_log.drift_records():
            assert record.cell_id == default_world.cell_id(record.true_pose[0], record.true_pose[1])

    def test_validate_accepts_the_executor_output(self, small_log) -> None:
        small_log.validate()

    def test_validate_rejects_audio_in_transit(self, small_log) -> None:
        broken = MissionLog(
            grid_nx=small_log.grid_nx,
            grid_ny=small_log.grid_ny,
            cell_size_m=small_log.cell_size_m,
            audio_fs_hz=small_log.audio_fs_hz,
            drift_duration_s=small_log.drift_duration_s,
            audio_dir=small_log.audio_dir,
        )
        drift = small_log.drift_records()[0]
        import dataclasses

        for record in (dataclasses.replace(drift, words=(1, 0, 2)), dataclasses.replace(drift, audio=None)):
            broken.records = [record]
            with pytest.raises(ValueError, match="exactly one of words and audio"):
                broken.validate()


class TestLogPersistence:
    def test_round_trip_preserves_records_and_audio(self, small_log, tmp_path) -> None:
        path = tmp_path / "log.jsonl"
        save_log(small_log, path)
        loaded = load_log(path)
        assert len(loaded.records) == len(small_log.records)
        assert all(ra == rb for ra, rb in zip(loaded.records, small_log.records))
        assert loaded.audio_dir.resolve() == small_log.audio_dir.resolve()
        for record in small_log.drift_records():
            window = small_log.audio_window(record)
            assert np.array_equal(loaded.audio_window(record).samples, window.samples)
            assert loaded.audio_window(record).saturated == window.saturated

    def test_write_read_write_is_byte_identical(self, small_log, tmp_path) -> None:
        save_log(small_log, tmp_path / "a.jsonl")
        save_log(load_log(tmp_path / "a.jsonl"), tmp_path / "b.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
        assert sorted(path.name for path in tmp_path.iterdir()) == ["a.jsonl", "b.jsonl"]  # save_log writes no WAV

    def test_truncated_log_rejected(self, small_log, tmp_path) -> None:
        from reefsim.errors import DataError

        path = tmp_path / "log.jsonl"
        save_log(small_log, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop the end marker
        with pytest.raises(DataError):
            load_log(path)


@pytest.fixture(scope="module")
def tiny_log_lines(tmp_path_factory):
    """A hand-built log on a 2x2 grid, one 10 ms drift and one image, saved
    once; returns its directory and its parsed lines."""
    directory = tmp_path_factory.mktemp("tiny_log")
    (directory / "audio").mkdir()
    write_wav(directory / "audio" / "drift_0000.wav", AudioWindow(np.zeros(480, dtype=np.float32), 48_000, np.array([0.002, 0.005])))
    pose = (0.5, 0.5, 7.0, 0.0)
    log = MissionLog(grid_nx=2, grid_ny=2, cell_size_m=1.0, audio_fs_hz=48_000, drift_duration_s=0.01, audio_dir=directory / "audio")
    log.records = [
        LogRecord(0.0, pose, pose, (0.1, 0.1, 0.1, 0.1), 0, audio=AudioRef("drift_0000.wav", False, (0.002, 0.005))),
        LogRecord(0.05, pose, pose, (0.1, 0.1, 0.1, 0.1), 3, words=(2, 0, 1)),
    ]
    save_log(log, directory / "mission_log.jsonl")
    return directory, [json.loads(line) for line in (directory / "mission_log.jsonl").read_text().splitlines()]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_load_log_with_one_leaf_of_another_type_loads_or_is_data_error(tiny_log_lines, data) -> None:
    directory, lines = tiny_log_lines
    n, path = data.draw(st.sampled_from([(n, path) for n, line in enumerate(lines) for path in leaf_paths(line)]))
    new = data.draw(OTHER_JSON_VALUES.filter(lambda v: other_type(leaf(lines[n], path), v)))
    corrupt = [replace_leaf(line, path, new) if i == n else line for i, line in enumerate(lines)]
    log_path = directory / "corrupt.jsonl"
    log_path.write_text("\n".join(json.dumps(line) for line in corrupt) + "\n")
    try:
        load_log(log_path)
    except DataError:
        pass


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_load_log_with_a_damaged_wav_loads_or_is_data_error(tiny_log_lines, data) -> None:
    """A WAV cut at any length or with any bit of its first 64 bytes flipped
    loads with its log and reads through ``audio_window``, or raises a
    one-line :class:`DataError`; the reader neither raises anything else nor
    warns."""
    directory, _ = tiny_log_lines
    wav = directory / "audio" / "drift_0000.wav"
    original = wav.read_bytes()
    damaged = bytearray(original)
    if data.draw(st.booleans(), label="truncate"):
        del damaged[data.draw(st.integers(0, len(original) - 1), label="length") :]
    else:
        bit = data.draw(st.integers(0, 64 * 8 - 1), label="bit")
        damaged[bit // 8] ^= 1 << bit % 8
    wav.write_bytes(damaged)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log = load_log(directory / "mission_log.jsonl")
            for record in log.drift_records():
                log.audio_window(record)
    except DataError as exc:
        assert "\n" not in str(exc)
    finally:
        wav.write_bytes(original)
