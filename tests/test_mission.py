from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

from reefsim import mission
from reefsim.errors import ConfigError, DataError
from reefsim.mission import (
    DRIFT,
    TRANSIT,
    MissionConfig,
    MissionLog,
    execute,
    load_log,
    plan_lawnmower,
    save_log,
)
from reefsim.vehicle import NoiseConfig, VehicleConfig
from reefsim.world import WorldConfig, generate_world


@pytest.fixture(scope="module")
def world():
    return generate_world(WorldConfig(), seed=7)


@pytest.fixture(scope="module")
def small_log(world):
    plan = plan_lawnmower((1.0, 1.0, 19.0, 19.0), 9.0, drift_duration_s=2.0)
    return execute(plan, world, VehicleConfig(), NoiseConfig(), MissionConfig(), seed=5)


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

    def test_spacing_larger_than_bounds_rejected(self) -> None:
        with pytest.raises(ConfigError):
            plan_lawnmower((0.0, 0.0, 5.0, 5.0), 50.0)

    def test_degenerate_bounds_rejected(self) -> None:
        with pytest.raises(ConfigError):
            plan_lawnmower((0.0, 0.0, 0.0, 5.0), 1.0)


class TestExecute:
    def test_every_waypoint_yields_one_drift_window(self, world, small_log) -> None:
        plan = plan_lawnmower((1.0, 1.0, 19.0, 19.0), 9.0, drift_duration_s=2.0)
        assert len(small_log.drift_records()) == len(plan.waypoints)

    def test_drift_segments_have_requested_duration(self, small_log) -> None:
        for record in small_log.drift_records():
            assert record.audio.duration == pytest.approx(2.0)

    def test_zero_drift_duration_gives_pure_visual_survey(self, world) -> None:
        plan = plan_lawnmower((1.0, 1.0, 19.0, 19.0), 9.0, drift_duration_s=0.0)
        log = execute(plan, world, VehicleConfig(), NoiseConfig(), MissionConfig(), seed=1)
        assert log.drift_records() == []
        assert len(log.imaging_records()) > 0

    def test_imaging_count_matches_transit_time(self, world, small_log) -> None:
        # Oracle: recount from the log's own timestamps.  Transit time is
        # total time minus drift time; images arrive at the imaging period.
        n_drifts = len(small_log.drift_records())
        total = small_log.records[-1].t - small_log.records[0].t
        transit = total - n_drifts * 2.0
        expected = transit / 0.5
        n_legs = n_drifts  # one leg per waypoint
        assert abs(len(small_log.imaging_records()) - expected) <= n_legs + 1

    def test_same_seed_reproduces_identical_log(self, world) -> None:
        plan = plan_lawnmower((1.0, 1.0, 19.0, 19.0), 9.0, drift_duration_s=1.0)
        a = execute(plan, world, VehicleConfig(), NoiseConfig(), MissionConfig(), seed=3)
        b = execute(plan, world, VehicleConfig(), NoiseConfig(), MissionConfig(), seed=3)
        assert len(a.records) == len(b.records)
        assert all(ra == rb for ra, rb in zip(a.records, b.records))
        assert all(np.array_equal(a.audio[k].samples, b.audio[k].samples) for k in a.audio)

    def test_unreachable_waypoint_aborts_with_marker(self, world) -> None:
        plan = plan_lawnmower((1.0, 1.0, 19.0, 19.0), 9.0, drift_duration_s=0.0)
        config = MissionConfig(waypoint_timeout_s=5.0)  # far too short to cross a leg
        log = execute(plan, world, VehicleConfig(), NoiseConfig(), config, seed=2)
        assert log.aborted
        assert "timeout" in log.abort_reason or "unreachable" in log.abort_reason

    def test_waypoints_outside_world_rejected(self, world) -> None:
        plan = plan_lawnmower((1.0, 1.0, 25.0, 19.0), 9.0)
        with pytest.raises(ConfigError):
            execute(plan, world, VehicleConfig(), NoiseConfig(), MissionConfig(), seed=0)

    def test_altitude_stays_near_setpoint(self, world, small_log) -> None:
        altitudes = [
            world.depth_at(r.true_pose[0], r.true_pose[1]) - r.true_pose[2] for r in small_log.records
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

    def test_audio_error_stops_the_worker(self, world, monkeypatch) -> None:
        def fail(*args, **kwargs):
            raise DataError("audio failed")

        monkeypatch.setattr(mission, "synthesize_audio", fail)
        plan = plan_lawnmower((1.0, 1.0, 19.0, 19.0), 9.0, drift_duration_s=1.0)
        with pytest.raises(DataError, match="audio failed"):
            execute(plan, world, VehicleConfig(), NoiseConfig(), MissionConfig(), seed=0)
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_worker_exception_keeps_its_type(self, world, monkeypatch) -> None:
        monkeypatch.setattr(mission, "_run_vehicle", _raise_data_error)
        plan = plan_lawnmower((1.0, 1.0, 19.0, 19.0), 9.0, drift_duration_s=1.0)
        with pytest.raises(DataError, match="vehicle loop failed"):
            execute(plan, world, VehicleConfig(), NoiseConfig(), MissionConfig(), seed=0)
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_worker_that_dies_without_reply_names_its_exit_code(self, world, monkeypatch) -> None:
        monkeypatch.setattr(mission, "_run_vehicle", _exit_without_reply)
        plan = plan_lawnmower((1.0, 1.0, 19.0, 19.0), 9.0, drift_duration_s=1.0)
        with pytest.raises(RuntimeError, match="exited with code 7"):
            execute(plan, world, VehicleConfig(), NoiseConfig(), MissionConfig(), seed=0)
        assert multiprocessing.active_children() == []


class TestLogInvariants:
    def test_timestamps_strictly_increasing(self, small_log) -> None:
        ts = [r.t for r in small_log.records]
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_audio_only_in_drift_records(self, small_log) -> None:
        for record in small_log.records:
            if record.audio is not None:
                assert record.mode == DRIFT
            if record.words is not None:
                assert record.mode == TRANSIT

    def test_no_saturated_audio_marked_drift(self, small_log) -> None:
        for record in small_log.drift_records():
            assert not record.audio.saturated

    def test_drift_cell_matches_true_pose_at_drift_start(self, world, small_log) -> None:
        for record in small_log.drift_records():
            assert record.cell_id == world.cell_id(record.true_pose[0], record.true_pose[1])

    def test_validate_accepts_the_executor_output(self, small_log) -> None:
        small_log.validate()

    def test_validate_rejects_audio_in_transit(self, small_log) -> None:
        broken = MissionLog(
            grid_nx=small_log.grid_nx,
            grid_ny=small_log.grid_ny,
            cell_size_m=small_log.cell_size_m,
            audio_fs_hz=small_log.audio_fs_hz,
            drift_duration_s=small_log.drift_duration_s,
        )
        drift = small_log.drift_records()[0]
        import dataclasses

        broken.records = [dataclasses.replace(drift, mode=TRANSIT, words=None)]
        with pytest.raises(ValueError):
            broken.validate()


class TestLogPersistence:
    def test_round_trip_preserves_records_and_audio(self, small_log, tmp_path) -> None:
        path = tmp_path / "log.jsonl"
        save_log(small_log, path)
        loaded = load_log(path)
        assert len(loaded.records) == len(small_log.records)
        assert all(ra == rb for ra, rb in zip(loaded.records, small_log.records))
        for key, window in small_log.audio.items():
            assert np.array_equal(loaded.audio[key].samples, window.samples)
            assert loaded.audio[key].saturated == window.saturated

    def test_write_read_write_is_byte_identical(self, small_log, tmp_path) -> None:
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        d1.mkdir()
        d2.mkdir()
        save_log(small_log, d1 / "log.jsonl")
        save_log(load_log(d1 / "log.jsonl"), d2 / "log.jsonl")
        assert (d1 / "log.jsonl").read_bytes() == (d2 / "log.jsonl").read_bytes()
        for wav in sorted((d1 / "audio").glob("*.wav")):
            assert wav.read_bytes() == (d2 / "audio" / wav.name).read_bytes()

    def test_truncated_log_rejected(self, small_log, tmp_path) -> None:
        from reefsim.errors import DataError

        path = tmp_path / "log.jsonl"
        save_log(small_log, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop the end marker
        with pytest.raises(DataError):
            load_log(path)
