from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from panels import follow_summary, track_world

from reefsim import tracking
from reefsim.rng import substream
from reefsim.tracking import (
    BBox,
    Camera,
    CameraInsideBody,
    DistractorConfig,
    TargetConfig,
    TrackerState,
    TrackingConfig,
    project_target,
    run_tracking_episode,
    save_track_log,
    servo_command,
    simulate_tracker,
)
from reefsim import vehicle
from reefsim.vehicle import VehicleConfig
from reefsim.world import WorldConfig, generate_world

CAMERA = Camera()


@pytest.fixture(scope="module")
def open_world():
    return track_world()


class TestProjectTarget:
    def test_target_on_axis_projects_to_frame_center(self) -> None:
        bbox = project_target(CAMERA, (0.0, 0.0, 5.0, 0.0), (4.0, 0.0, 5.0), TargetConfig())
        assert bbox is not None
        assert bbox.cx == pytest.approx(CAMERA.width_px / 2)
        assert bbox.cy == pytest.approx(CAMERA.height_px / 2)

    def test_doubling_range_halves_width(self) -> None:
        # Oracle: pinhole scaling; exact in the small-angle regime.
        near = project_target(CAMERA, (0.0, 0.0, 5.0, 0.0), (10.0, 0.0, 5.0), TargetConfig(body_length_m=1.0))
        far = project_target(CAMERA, (0.0, 0.0, 5.0, 0.0), (20.0, 0.0, 5.0), TargetConfig(body_length_m=1.0))
        assert near.w == pytest.approx(2 * far.w, rel=0.01)

    def test_target_behind_camera_is_out_of_view(self) -> None:
        assert project_target(CAMERA, (0.0, 0.0, 5.0, 0.0), (-3.0, 0.0, 5.0), TargetConfig()) is None

    def test_target_outside_frame_is_out_of_view(self) -> None:
        # 90 degree FOV: lateral offset beyond +-45 degrees leaves the frame
        assert project_target(CAMERA, (0.0, 0.0, 5.0, 0.0), (2.0, 4.0, 5.0), TargetConfig()) is None

    def test_target_at_zero_range_rejected(self) -> None:
        with pytest.raises(ValueError):
            project_target(CAMERA, (0.0, 0.0, 5.0, 0.0), (0.05, 0.0, 5.0), TargetConfig(body_length_m=1.0))

    def test_starboard_target_lands_right_of_center(self) -> None:
        bbox = project_target(CAMERA, (0.0, 0.0, 5.0, 0.0), (5.0, 1.0, 5.0), TargetConfig())
        assert bbox.cx > CAMERA.width_px / 2

    def test_deeper_target_lands_below_center(self) -> None:
        bbox = project_target(CAMERA, (0.0, 0.0, 5.0, 0.0), (5.0, 0.0, 6.0), TargetConfig())
        assert bbox.cy > CAMERA.height_px / 2

    def test_distance_past_float_range_is_infinite(self) -> None:
        # Its square overflows a float; the box is numpy's: zero wide, on axis.
        bbox = project_target(CAMERA, (0.0, 0.0, 5.0, 0.0), (1e200, 0.0, 5.0), TargetConfig())
        assert (bbox.cx, bbox.cy, bbox.w, bbox.h) == (CAMERA.width_px / 2, CAMERA.height_px / 2, 0.0, 0.0)

    def test_ellipsoid_looks_narrower_end_on_than_broadside(self) -> None:
        config = TargetConfig(body_aspect=0.25)
        end_on = project_target(CAMERA, (0.0, 0.0, 5.0, 0.0), (5.0, 0.0, 5.0), config, target_heading=0.0)
        broadside = project_target(CAMERA, (0.0, 0.0, 5.0, 0.0), (5.0, 0.0, 5.0), config, target_heading=np.pi / 2)
        assert end_on.w < 0.5 * broadside.w


class TestSimulateTracker:
    def base_config(self, **kwargs) -> TrackingConfig:
        defaults = dict(pixel_noise_px=0.0, dropout_prob=0.0)
        defaults.update(kwargs)
        return TrackingConfig(**defaults)

    def test_noise_free_tracker_returns_input(self) -> None:
        bbox = BBox(cx=300.0, cy=200.0, w=40.0, h=30.0, frame_w=640, frame_h=360)
        out = simulate_tracker(bbox, None, self.base_config(), TrackerState(), substream(0, "trk"))
        assert out == bbox

    def test_full_dropout_never_emits(self) -> None:
        bbox = BBox(cx=300.0, cy=200.0, w=40.0, h=30.0, frame_w=640, frame_h=360)
        config = self.base_config(dropout_prob=1.0)
        rng = substream(1, "trk")
        assert all(simulate_tracker(bbox, None, config, TrackerState(), rng) is None for _ in range(100))

    def test_empirical_dropout_frequency_matches_probability(self) -> None:
        # Monte Carlo oracle over 10^4 frames.
        bbox = BBox(cx=300.0, cy=200.0, w=40.0, h=30.0, frame_w=640, frame_h=360)
        config = self.base_config(dropout_prob=0.1)
        rng = substream(2, "trk")
        state = TrackerState()
        drops = sum(simulate_tracker(bbox, None, config, state, rng) is None for _ in range(10_000))
        assert abs(drops / 10_000 - 0.1) <= 0.01

    def test_distractor_lock_emits_distractor_box(self) -> None:
        true_box = BBox(cx=300.0, cy=200.0, w=40.0, h=30.0, frame_w=640, frame_h=360)
        lure_box = BBox(cx=100.0, cy=100.0, w=12.0, h=12.0, frame_w=640, frame_h=360)
        config = self.base_config(target=TargetConfig(distractor=DistractorConfig(switch_prob_per_s=1e9)))
        state = TrackerState()
        out = simulate_tracker(true_box, lure_box, config, state, substream(3, "trk"))
        assert out is not None
        assert abs(out.cx - lure_box.cx) < 1.0


class TestServoCommand:
    def test_centered_box_at_setpoint_ratio_commands_zero(self) -> None:
        config = TrackingConfig()
        bbox = BBox(cx=320.0, cy=180.0, w=0.15 * 640, h=54.0, frame_w=640, frame_h=360)
        command = servo_command(bbox, config)
        assert command.yaw_rate == 0.0
        assert command.heave == 0.0
        assert command.surge == pytest.approx(0.0)

    def test_box_at_right_edge_commands_full_rightward_yaw(self) -> None:
        config = TrackingConfig()
        bbox = BBox(cx=640.0, cy=180.0, w=96.0, h=54.0, frame_w=640, frame_h=360)
        command = servo_command(bbox, config)
        assert command.yaw_rate == pytest.approx(config.k_yaw)

    def test_oversized_box_commands_backing_away(self) -> None:
        config = TrackingConfig()
        bbox = BBox(cx=320.0, cy=180.0, w=2 * 0.15 * 640, h=54.0, frame_w=640, frame_h=360)
        command = servo_command(bbox, config)
        assert command.surge < 0.0

    def test_low_box_commands_descent(self) -> None:
        config = TrackingConfig()
        bbox = BBox(cx=320.0, cy=300.0, w=96.0, h=54.0, frame_w=640, frame_h=360)
        command = servo_command(bbox, config)
        assert command.heave < 0.0  # heave is positive up; descend toward a low target


class TestTrackingEpisode:
    def test_zero_noise_equilibrium_reached_within_30s(self, open_world) -> None:
        config = TrackingConfig(pixel_noise_px=0.0, dropout_prob=0.0, target=TargetConfig(speed_mps=0.0))
        nominal = CAMERA.fx * config.target.body_length_m / (config.width_ratio_setpoint * CAMERA.width_px)
        log = run_tracking_episode(
            open_world, VehicleConfig(), config, 30.0, seed=0, start_range_m=nominal + 0.4
        )
        final = log.frames[-1]
        cx, cy, w, _ = final.bbox
        assert np.hypot(cx - 320.0, cy - 180.0) < 2.0
        assert abs(w / 640.0 - config.width_ratio_setpoint) < 0.005
        assert not log.ended_lost

    def test_same_seed_reproduces_identical_log(self, open_world) -> None:
        config = TrackingConfig()
        a = run_tracking_episode(open_world, VehicleConfig(), config, 20.0, seed=4)
        b = run_tracking_episode(open_world, VehicleConfig(), config, 20.0, seed=4)
        assert len(a.frames) == len(b.frames)
        assert all(fa == fb for fa, fb in zip(a.frames, b.frames))

    def test_cruiser_stays_centered_for_five_minutes(self) -> None:
        summary = follow_summary("cruiser", 1)  # default noise, 0.25 m/s cruiser; seed 1 of the panels
        assert summary["central_fraction"] >= 0.9
        assert not summary["ended_lost"]

    def test_distractor_episode_recovers_without_permanent_loss(self, open_world) -> None:
        config = TrackingConfig(
            target=TargetConfig(
                kind="benthic-glider",
                speed_mps=0.15,
                heading_walk_sigma=0.05,
                distractor=DistractorConfig(switch_prob_per_s=0.02, mean_lock_s=3.0),
            )
        )
        log = run_tracking_episode(open_world, VehicleConfig(), config, 180.0, seed=2)
        assert any(frame.distractor_locked for frame in log.frames)  # lure engaged at least once
        assert not log.ended_lost

    def test_benthic_glider_keeps_legal_altitude(self, open_world) -> None:
        config = TrackingConfig(target=TargetConfig(kind="benthic-glider", speed_mps=0.15))
        log = run_tracking_episode(open_world, VehicleConfig(), config, 60.0, seed=3)
        for frame in log.frames:
            tx, ty, tz = frame.target
            altitude = open_world.depth_at(tx, ty) - tz
            assert 0.2 - 1e-9 <= altitude <= 1.0 + 1e-9

    def test_standoff_asymmetry_with_ellipsoid_body(self, open_world) -> None:
        # A slender body viewed end-on looks narrower, so holding the same
        # width ratio pulls the follower much closer than broadside viewing.
        def steady_range(speed: float, bearing_deg: float) -> float:
            config = TrackingConfig(
                pixel_noise_px=0.0,
                dropout_prob=0.0,
                target=TargetConfig(speed_mps=speed, body_aspect=0.3, heading_deg=20.0),
            )
            log = run_tracking_episode(
                open_world, VehicleConfig(), config, 120.0, seed=6, start_range_m=3.0, start_bearing_deg=bearing_deg
            )
            ranges = [
                np.hypot(f.target[0] - f.vehicle[0], f.target[1] - f.vehicle[1]) for f in log.frames[-150:]
            ]
            return float(np.mean(ranges))

        away = steady_range(speed=0.05, bearing_deg=0.0)  # swimming directly away, seen end-on
        broadside = steady_range(speed=0.0, bearing_deg=90.0)  # viewed from abeam
        assert away < 0.7 * broadside

    def test_camera_inside_target_is_not_seen(self, monkeypatch) -> None:
        # Benthic episode 24003 on world 24 closes to ~0.6 m of the 1.2 m
        # glider.  Those frames get no box and the episode runs to the end.
        world = generate_world(WorldConfig(width_m=60.0, height_m=60.0, snap_rates_per_s=(0.0, 0.0, 0.0)), seed=24)
        config = TrackingConfig(
            target=TargetConfig(
                kind="benthic-glider",
                speed_mps=0.15,
                heading_walk_sigma=0.05,
                distractor=DistractorConfig(switch_prob_per_s=0.02, mean_lock_s=3.0),
            )
        )
        inside = []

        def spy(*args):
            try:
                return project_target(*args)
            except CameraInsideBody:
                inside.append(args)
                raise

        monkeypatch.setattr(tracking, "project_target", spy)
        log = run_tracking_episode(world, VehicleConfig(), config, 300.0, seed=24003)
        assert inside
        assert len(log.frames) == 4501
        assert log.summary(config.camera)["central_fraction"] > 0.9

    def test_duration_must_be_positive(self, open_world) -> None:
        with pytest.raises(ValueError):
            run_tracking_episode(open_world, VehicleConfig(), TrackingConfig(), 0.0, seed=0)

    @pytest.mark.parametrize("frame_rate_hz, dt", [(20.0, 0.05), (15.0, 0.05), (3.0, 0.2)])
    def test_frame_schedule_does_not_drift_over_the_longest_episode(self, frame_rate_hz, dt) -> None:
        # The episode loop's frame test alone, over MAX_EPISODE_STEPS steps.
        # A schedule summed frame by frame drifted one frame short on each.
        frame_dt = 1.0 / frame_rate_hz
        n_frames = 0
        for step in range(tracking.MAX_EPISODE_STEPS + 1):
            n_frames += tracking.frame_due(step * dt, n_frames, frame_dt)
        assert n_frames == round(tracking.MAX_EPISODE_STEPS * dt * frame_rate_hz) + 1


class TestEpisodePanels:
    """Seeded Monte Carlo panels for the episode-level behavior: the
    default panels of criteria 5a and 5b, read from the same episodes."""

    def test_cruiser_panel(self) -> None:
        passes = 0
        n_seeds = 20
        for seed in range(n_seeds):
            summary = follow_summary("cruiser", seed)
            passes += summary["central_fraction"] >= 0.9 and not summary["ended_lost"]
        assert passes >= 0.9 * n_seeds

    def test_distractor_panel(self) -> None:
        passes = 0
        n_seeds = 20
        for seed in range(n_seeds):
            passes += not follow_summary("benthic-distractor", seed)["ended_lost"]
        assert passes >= 0.8 * n_seeds


class TestPinnedEpisodes:
    """Byte-for-byte pins of the follow loop's branches the golden CLI
    digests (one 20 s midwater sphere) do not reach."""

    # sha256 of the ``save_track_log`` bytes of one 300 s episode in the
    # open world: (tracking config, keyword arguments, seed, digest).
    DIGESTS = {
        "benthic-distractor-walk": (
            TrackingConfig(target=TargetConfig(kind="benthic-glider", speed_mps=0.15, heading_walk_sigma=0.05,
                                               distractor=DistractorConfig(switch_prob_per_s=0.02, mean_lock_s=3.0))),
            {}, 7, "84a4581e4912f297f03356ce964fad469fd30e4838eed06b5411384818659be5"),
        "ellipsoid-abeam": (TrackingConfig(target=TargetConfig(body_aspect=0.3)), {"start_bearing_deg": 90.0}, 8,
                            "5522f4c355969f1a838676f9a800680a83da2ce2d0c26303b1755e383a32d844"),
        # reaches all four walls
        "wall-bounce": (TrackingConfig(target=TargetConfig(speed_mps=0.6, heading_deg=60.0)), {}, 9,
                        "74e0ad590893b8ad5821e579b5f319d8011b093535bdca88a0870bf9a5e28d93"),
        # a target twice as fast as the vehicle: 1,025 lost frames in two losses
        "lost-frames": (TrackingConfig(target=TargetConfig(speed_mps=2.0, heading_walk_sigma=0.3)), {}, 10,
                        "739abea844c007e6ea16e728ae23b3477465fc426d9d74b0a2e8c01f67150dd2"),
    }

    @pytest.mark.parametrize("case", sorted(DIGESTS))
    def test_track_log_matches_pinned_digest(self, open_world, case, tmp_path) -> None:
        pinned = json.loads((Path(__file__).parent / "golden_cli_digests.json").read_text())["numpy"]
        if np.__version__ != pinned:
            pytest.skip(f"digests pinned with numpy {pinned}, installed numpy is {np.__version__}")
        config, kwargs, seed, expected = self.DIGESTS[case]
        log = run_tracking_episode(open_world, VehicleConfig(), config, 300.0, seed=seed, **kwargs)
        save_track_log(log, tmp_path / "track_log.jsonl")
        assert hashlib.sha256((tmp_path / "track_log.jsonl").read_bytes()).hexdigest() == expected

    def test_math_matches_numpy_scalars_on_episode_values(self, open_world, monkeypatch) -> None:
        """The loop takes cos, sin and sqrt from ``math``; on every value one
        episode feeds them they return numpy's scalar bits."""
        fed = {"cos": [], "sin": [], "sqrt": []}

        class Recorder:
            def __getattr__(self, name):
                function = getattr(math, name)
                if name not in fed:
                    return function
                return lambda x: fed[name].append(x) or function(x)

        monkeypatch.setattr(tracking, "math", Recorder())
        monkeypatch.setattr(vehicle, "math", Recorder())
        config, kwargs, seed, _ = self.DIGESTS["benthic-distractor-walk"]
        run_tracking_episode(open_world, VehicleConfig(), config, 60.0, seed=seed, **kwargs)
        for name, values in fed.items():
            assert len(values) > 1000, name
            ours = np.array([getattr(math, name)(x) for x in values])
            numpy = np.array([getattr(np, name)(x) for x in values])
            assert np.array_equal(ours, numpy), name
