"""Visual target following: projection, tracker stand-in, servo control.

The closed loop mimics a monocular box tracker feeding a three-axis
proportional controller: yaw and heave center the box in the image; surge
holds the ratio of box width to image width at a setpoint, so a target that
grows in the image pushes the vehicle back and one that shrinks pulls it
forward.  The tracker stand-in perturbs the true projected box with pixel
noise, drops frames at a configured probability, and can lock onto an
offset companion "distractor" for exponentially distributed stretches.

Camera: forward-looking pinhole at the vehicle origin, level with the
horizon; image x runs to starboard, image y down.  A target is rendered as
a sphere of diameter "body length" (optionally an ellipsoid elongated along
its heading, which makes the apparent width aspect-dependent).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, check_section, fields_around, write_csv, write_json_lines
from .rng import substream
from .vehicle import Command, VehicleConfig, VehicleState, step_dynamics, wrap_angle

TRACK_LOG_FORMAT = "reefsim-track-log-v2"

MIDWATER_CRUISER = "midwater-cruiser"
BENTHIC_GLIDER = "benthic-glider"


@dataclass(frozen=True)
class Camera:
    width_px: int = 640
    height_px: int = 360
    hfov_deg: float = 90.0

    @property
    def fx(self) -> float:
        return (self.width_px / 2.0) / np.tan(np.radians(self.hfov_deg) / 2.0)

    @property
    def fy(self) -> float:
        return self.fx  # square pixels

    def __post_init__(self) -> None:
        check_section(self, ("width_px", lambda: self.width_px >= 2, "must be at least 2"),
                      ("height_px", lambda: self.height_px >= 2, "must be at least 2"),
                      ("hfov_deg", lambda: 0.0 < self.hfov_deg < 180.0, "must be in (0, 180) degrees"))


@dataclass
class BBox:
    cx: float
    cy: float
    w: float
    h: float
    frame_w: int
    frame_h: int

    @property
    def width_ratio(self) -> float:
        return self.w / self.frame_w

    def in_frame(self) -> bool:
        """Whether the box intersects the image."""
        return not (
            self.cx + self.w / 2 < 0
            or self.cx - self.w / 2 > self.frame_w
            or self.cy + self.h / 2 < 0
            or self.cy - self.h / 2 > self.frame_h
        )


@dataclass(frozen=True)
class DistractorConfig:
    offset_m: float = 0.6  # companion swims this far to the target's side
    switch_prob_per_s: float = 0.02
    mean_lock_s: float = 3.0

    def __post_init__(self) -> None:
        check_section(self, ("mean_lock_s", lambda: self.mean_lock_s > 0, "must be positive"))


@dataclass(frozen=True)
class TargetConfig:
    kind: str = MIDWATER_CRUISER
    speed_mps: float = 0.25
    body_length_m: float = 1.2
    body_aspect: float = 1.0  # width/length; 1.0 renders a sphere
    depth_m: float = 4.0  # cruise depth (midwater kind)
    altitude_m: float = 0.5  # height over the seafloor (benthic kind)
    heading_deg: float = 20.0
    heading_walk_sigma: float = 0.0  # rad/sqrt(s) random heading walk
    distractor: DistractorConfig | None = None

    def __post_init__(self) -> None:
        check_section(self, ("kind", lambda: self.kind in (MIDWATER_CRUISER, BENTHIC_GLIDER), f"must be {MIDWATER_CRUISER!r} or {BENTHIC_GLIDER!r}"),
                      ("speed_mps", lambda: self.speed_mps >= 0, "must be non-negative"),
                      ("body_length_m", lambda: self.body_length_m > 0, "must be positive"),
                      ("body_aspect", lambda: 0 < self.body_aspect <= 1.0, "must be in (0, 1]"))


@dataclass(frozen=True)
class TrackingConfig:
    camera: Camera = field(default_factory=Camera)
    frame_rate_hz: float = 15.0
    dynamics_dt_s: float = 0.05
    k_yaw: float = 0.8  # rad/s at one half-frame of horizontal offset
    k_heave: float = 0.4  # m/s at one half-frame of vertical offset
    k_surge: float = 1.0  # m/s at one unit of width-ratio error
    width_ratio_setpoint: float = 0.15
    pixel_noise_px: float = 2.0
    dropout_prob: float = 0.02
    hold_s: float = 1.0  # keep last command this long after losing the box
    lost_after_s: float = 3.0  # declare LOST after this long without the box
    target: TargetConfig = field(default_factory=TargetConfig)

    def __post_init__(self) -> None:
        check_section(self, ("frame_rate_hz", lambda: self.frame_rate_hz > 0, "must be positive"),
                      ("dynamics_dt_s", lambda: 0 < self.dynamics_dt_s <= 0.5, "must be in (0, 0.5]"),
                      ("pixel_noise_px", lambda: self.pixel_noise_px >= 0, "must be non-negative"),
                      ("dropout_prob", lambda: 0 <= self.dropout_prob <= 1, "must be in [0, 1]"),
                      ("hold_s", lambda: self.hold_s >= 0, "must be non-negative"),
                      ("lost_after_s", lambda: self.lost_after_s >= 0, "must be non-negative"))


@dataclass
class TargetState:
    x: float
    y: float
    z: float
    heading: float


def step_target(state: TargetState, config: TargetConfig, world, dt: float, rng: np.random.Generator) -> TargetState:
    """Advance the target: constant speed along a (possibly wandering)
    heading, at the depth :func:`_target_depth` gives."""
    heading = state.heading
    if config.heading_walk_sigma > 0:
        heading = wrap_angle(heading + rng.normal(0.0, config.heading_walk_sigma * np.sqrt(dt)))
    x = state.x + dt * config.speed_mps * np.cos(heading)
    y = state.y + dt * config.speed_mps * np.sin(heading)

    # Bounce off the world walls so long episodes stay in bounds.
    if x < 0.5 or x > world.width_m - 0.5:
        heading = wrap_angle(np.pi - heading)
        x = float(np.clip(x, 0.5, world.width_m - 0.5))
    if y < 0.5 or y > world.height_m - 0.5:
        heading = wrap_angle(-heading)
        y = float(np.clip(y, 0.5, world.height_m - 0.5))

    z = _target_depth(config, world, x, y)
    return TargetState(x=float(x), y=float(y), z=float(z), heading=float(heading))


def _target_depth(config: TargetConfig, world, x: float, y: float) -> float:
    """The target's depth at (x, y): the midwater kind cruises at its depth,
    the benthic kind follows the seafloor at its altitude, clamped to
    [0.2, 1.0] m above the bottom."""
    if config.kind == BENTHIC_GLIDER:
        return world.depth_at(x, y) - float(np.clip(config.altitude_m, 0.2, 1.0))
    return config.depth_m


def _apparent_radii(config: TargetConfig, view_bearing: float, target_heading: float) -> tuple[float, float]:
    """Apparent horizontal/vertical semi-axes of the body seen along
    ``view_bearing``.  A sphere is aspect-independent; an ellipsoid shows
    its full length broadside and only its width end-on."""
    length_r = config.body_length_m / 2.0
    width_r = length_r * config.body_aspect
    if config.body_aspect >= 1.0:
        return length_r, length_r
    aspect_angle = wrap_angle(target_heading - view_bearing)
    horizontal = float(np.hypot(length_r * np.sin(aspect_angle), width_r * np.cos(aspect_angle)))
    return horizontal, width_r


class CameraInsideBody(ValueError):
    """The camera sits inside the body it projects, at zero range."""


def project_target(
    camera: Camera,
    vehicle_pose: tuple[float, float, float, float],
    target_pos: tuple[float, float, float],
    config: TargetConfig,
    target_heading: float = 0.0,
) -> BBox | None:
    """Project the target body into the image; None when out of view.

    Out of view means the center is behind the camera or projects outside
    the frame.  Raises :class:`CameraInsideBody` for a degenerate
    zero-range target.
    """
    vx, vy, vz, psi = vehicle_pose
    dx, dy, dz = target_pos[0] - vx, target_pos[1] - vy, target_pos[2] - vz
    cos_psi, sin_psi = np.cos(psi), np.sin(psi)
    forward = cos_psi * dx + sin_psi * dy
    right = -sin_psi * dx + cos_psi * dy
    down = dz

    distance = float(np.sqrt(forward**2 + right**2 + down**2))
    h_radius, v_radius = _apparent_radii(config, np.arctan2(dy, dx), target_heading)
    if distance <= max(h_radius, v_radius):
        raise CameraInsideBody("target at zero range (camera inside the body)")
    if forward <= 0:
        return None

    u = camera.width_px / 2.0 + camera.fx * right / forward
    v = camera.height_px / 2.0 + camera.fy * down / forward
    if not (0 <= u <= camera.width_px and 0 <= v <= camera.height_px):
        return None

    w = 2.0 * camera.fx * np.tan(np.arcsin(h_radius / distance))
    h = 2.0 * camera.fy * np.tan(np.arcsin(v_radius / distance))
    return BBox(cx=float(u), cy=float(v), w=float(w), h=float(h), frame_w=camera.width_px, frame_h=camera.height_px)


def _frame_box(*args) -> BBox | None:
    """:func:`project_target` for one episode frame: a body the camera is
    inside is not seen that frame."""
    try:
        return project_target(*args)
    except CameraInsideBody:
        return None


@dataclass
class TrackerState:
    lock_remaining_s: float = 0.0  # distractor lock countdown


def simulate_tracker(
    true_bbox: BBox | None,
    distractor_bbox: BBox | None,
    config: TrackingConfig,
    state: TrackerState,
    rng: np.random.Generator,
) -> BBox | None:
    """One tracker output: the true box with pixel noise, a dropout, or the
    distractor's box while a lock-switch is active.  A noisy box that misses
    the image is a dropout: a tracker reports no box outside its image.

    Draw order per frame is fixed (dropout, lock trigger, lock duration,
    four noise values) so episodes stay reproducible.
    """
    frame_dt = 1.0 / config.frame_rate_hz
    dropped = rng.random() < config.dropout_prob

    distractor = config.target.distractor
    if distractor is not None and state.lock_remaining_s <= 0:
        if rng.random() < distractor.switch_prob_per_s * frame_dt:
            state.lock_remaining_s = float(rng.exponential(distractor.mean_lock_s))

    source = true_bbox
    if state.lock_remaining_s > 0:
        state.lock_remaining_s -= frame_dt
        if distractor_bbox is not None:
            source = distractor_bbox

    if dropped or source is None:
        return None
    noise = rng.normal(0.0, config.pixel_noise_px, 4) if config.pixel_noise_px > 0 else np.zeros(4)
    box = BBox(
        cx=float(source.cx + noise[0]),
        cy=float(source.cy + noise[1]),
        w=float(max(source.w + noise[2], 1.0)),
        h=float(max(source.h + noise[3], 1.0)),
        frame_w=source.frame_w,
        frame_h=source.frame_h,
    )
    return box if box.in_frame() else None


def servo_command(bbox: BBox, config: TrackingConfig) -> Command:
    """Three-axis proportional servo on the observed box.

    Yaw rate is proportional to the horizontal offset of the box center
    (positive toward starboard); heave is proportional to the vertical
    offset (a low box commands a descent; heave is positive up); surge is
    proportional to the width-ratio error, backing away when the target
    looks too large.  Clamping to actuator limits happens in the dynamics.
    A gain so large that a command overflows raises :class:`ConfigError`.
    """
    yaw_rate = config.k_yaw * (bbox.cx - bbox.frame_w / 2.0) / (bbox.frame_w / 2.0)
    heave = config.k_heave * (bbox.frame_h / 2.0 - bbox.cy) / (bbox.frame_h / 2.0)
    surge = config.k_surge * (config.width_ratio_setpoint - bbox.width_ratio)
    for key, value in (("k_yaw", yaw_rate), ("k_heave", heave), ("k_surge", surge)):
        if not math.isfinite(value):
            raise ConfigError(f"tracking.{key}: {getattr(config, key)} overflows the servo command")
    return Command(surge=float(surge), heave=float(heave), yaw_rate=float(yaw_rate))


@dataclass
class TrackFrame:
    t: float
    vehicle: tuple[float, float, float, float]  # x, y, z, psi
    target: tuple[float, float, float]
    bbox: tuple[float, float, float, float] | None  # cx, cy, w, h
    command: tuple[float, float, float]  # surge, heave, yaw_rate
    lost: bool
    distractor_locked: bool


@dataclass
class TrackLog:
    """An episode's frames.  On disk the fields declared before ``frames``
    form the header line; the end line only marks a file not cut short."""

    frame_rate_hz: float
    frames: list[TrackFrame] = field(default_factory=list)

    @property
    def ended_lost(self) -> bool:
        return bool(self.frames) and self.frames[-1].lost

    def summary(self, camera: Camera) -> dict:
        """Frame counts, centering and losses: a loss is a lost frame whose predecessor, if any, is not."""
        inside = 0
        observed = 0
        errors = []
        for frame in self.frames:
            if frame.bbox is None:
                continue
            observed += 1
            cx, cy, _, _ = frame.bbox
            err = float(np.hypot(cx - camera.width_px / 2.0, cy - camera.height_px / 2.0))
            errors.append(err)
            if (
                abs(cx - camera.width_px / 2.0) <= camera.width_px / 8.0
                and abs(cy - camera.height_px / 2.0) <= camera.height_px / 8.0
            ):
                inside += 1
        errors = np.asarray(errors) if errors else np.zeros(1)
        n = len(self.frames)
        lost = [frame.lost for frame in self.frames]
        return {
            "n_frames": n,
            "observed_fraction": observed / n if n else 0.0,
            "central_fraction": inside / n if n else 0.0,
            "centering_p50_px": float(np.percentile(errors, 50)),
            "centering_p90_px": float(np.percentile(errors, 90)),
            "loss_count": sum(now and not before for before, now in zip([False, *lost], lost)),
            "ended_lost": self.ended_lost,
            "duration_s": n / self.frame_rate_hz if n else 0.0,
        }


def run_tracking_episode(
    world,
    vehicle_config: VehicleConfig,
    tracking_config: TrackingConfig,
    duration_s: float,
    seed: int,
    start_range_m: float | None = None,
    start_bearing_deg: float = 0.0,
) -> TrackLog:
    """Closed-loop follow episode.

    The vehicle starts looking at the target near the standoff range
    implied by the width-ratio setpoint; ``start_bearing_deg`` rotates the
    start position around the target (0 = directly behind it, 90 = abeam,
    viewing the body broadside).  Perception and control run at the tracker
    frame rate; dynamics integrate at their own step with zero-order-hold
    commands.  After ``hold_s`` without a box the command zeroes; after
    ``lost_after_s`` without the target in view, frames are marked lost
    until the target comes back into view.  A body the camera has
    closed inside of is out of view for that frame.
    """
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    target_cfg = tracking_config.target
    camera = tracking_config.camera
    rng = substream(seed, "tracking")

    cx = world.width_m / 2.0
    cy = world.height_m / 2.0
    heading = np.radians(target_cfg.heading_deg)
    target = TargetState(x=cx, y=cy, z=_target_depth(target_cfg, world, cx, cy), heading=float(heading))

    # Standoff range at which the body length fills the width-ratio setpoint.
    nominal_range = camera.fx * target_cfg.body_length_m / (tracking_config.width_ratio_setpoint * camera.width_px)
    start_range = start_range_m if start_range_m is not None else nominal_range
    approach = target.heading + np.radians(start_bearing_deg)
    vehicle = VehicleState(
        x=target.x - start_range * np.cos(approach),
        y=target.y - start_range * np.sin(approach),
        z=target.z,
        psi=wrap_angle(approach),
    )

    log = TrackLog(frame_rate_hz=tracking_config.frame_rate_hz)
    tracker_state = TrackerState()
    frame_dt = 1.0 / tracking_config.frame_rate_hz
    dt = tracking_config.dynamics_dt_s

    command = Command()
    last_box_time = 0.0
    last_seen_time = 0.0
    lost = False
    next_frame_time = 0.0
    n_steps = int(round(duration_s / dt))
    companion_cfg = TargetConfig(kind=target_cfg.kind, body_length_m=max(0.3 * target_cfg.body_length_m, 0.1), body_aspect=1.0)

    for step in range(n_steps + 1):
        t = step * dt
        if t + 1e-9 >= next_frame_time:
            pose = (vehicle.x, vehicle.y, vehicle.z, vehicle.psi)
            true_box = _frame_box(camera, pose, (target.x, target.y, target.z), target_cfg, target.heading)
            distractor_box = None
            if target_cfg.distractor is not None:
                offset = target_cfg.distractor.offset_m
                side = target.heading + np.pi / 2.0
                companion = (
                    target.x + offset * np.cos(side),
                    target.y + offset * np.sin(side),
                    target.z,
                )
                distractor_box = _frame_box(camera, pose, companion, companion_cfg)

            observed = simulate_tracker(true_box, distractor_box, tracking_config, tracker_state, rng)

            if observed is not None:
                command = servo_command(observed, tracking_config)
                last_box_time = t
            elif t - last_box_time > tracking_config.hold_s:
                command = Command()

            if true_box is not None:
                last_seen_time = t
                lost = False
            elif t - last_seen_time > tracking_config.lost_after_s:
                lost = True

            log.frames.append(
                TrackFrame(
                    t=t,
                    vehicle=pose,
                    target=(target.x, target.y, target.z),
                    bbox=None if observed is None else (observed.cx, observed.cy, observed.w, observed.h),
                    command=(command.surge, command.heave, command.yaw_rate),
                    lost=lost,
                    distractor_locked=tracker_state.lock_remaining_s > 0,
                )
            )
            next_frame_time += frame_dt

        target = step_target(target, target_cfg, world, dt, rng)
        vehicle = step_dynamics(vehicle, command, dt, vehicle_config)

    return log


def save_track_log(log: TrackLog, path: str | Path) -> None:
    """Line-delimited JSON track log (header, frames, end marker)."""
    header, end = fields_around(log, "frames")
    frames = ({"type": "frame", **vars(frame)} for frame in log.frames)
    write_json_lines(path, itertools.chain([{"type": "header", "format": TRACK_LOG_FORMAT, **header}], frames, [{"type": "end", **end}]))


def export_track_metrics_csv(summary: dict, path: str | Path) -> None:
    """CSV: the keys of an episode summary (:meth:`TrackLog.summary`),
    sorted, over one row of values."""
    keys = sorted(summary)
    write_csv(path, keys, [[summary[k] for k in keys]])
