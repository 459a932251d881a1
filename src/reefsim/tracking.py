"""Visual target following: projection, tracker stand-in, servo control.

The closed loop mimics a monocular box tracker feeding a three-axis
proportional controller: yaw and heave center the box in the image; surge
holds the ratio of box width to image width at a setpoint, so a target that
grows in the image pushes the vehicle back and one that shrinks pulls it
forward.  The tracker stand-in perturbs the true projected box with pixel
noise, drops frames at a configured probability, and can lock onto an
offset companion "distractor" for exponentially distributed stretches.
The servo's gains (``K_YAW``, ``K_HEAVE``, ``K_SURGE``) and timers (``HOLD_S``,
``LOST_AFTER_S``) are the method's constants, not config keys.

Camera: forward-looking pinhole at the vehicle origin, level with the
horizon; image x runs to starboard, image y down.  A target is rendered as
a sphere of diameter "body length" (optionally an ellipsoid elongated along
its heading, which makes the apparent width aspect-dependent).

Arithmetic: the loop runs on Python floats, and its output is the same,
byte for byte, as when it ran on numpy scalars.  Cosine, sine and square
root come from ``math`` (here and in :func:`reefsim.vehicle.step_dynamics`),
and ``min``/``max`` stand in for ``np.clip``.  With numpy 2.4.6 on an
AVX-512 Xeon, on 40,000 arguments drawn from [-10, 10] (arcsin: [-1, 1]),
``math.cos``, ``math.sin`` and ``math.sqrt`` returned numpy's scalar bits
every time, and a test checks them on the values an episode feeds them.
The rest stay on numpy because ``math`` did not match it: ``tan`` differed
on 231 of those arguments, ``asin`` on 3,448, ``atan2`` on 3,198 and
``hypot`` on 229.  Squares stay ``x**2``, which matched numpy's scalar
square on 200,000 normal draws where ``x * x`` differed on 168.

Python floats raise where numpy scalars warned and carried an inf or NaN
on: ``**`` overflows to ``OverflowError``, ``math.cos(inf)`` raises
``ValueError`` and ``x / 0.0`` ``ZeroDivisionError``.  So the config bounds
the geometry the loop starts from (:data:`MAX_FOLLOW_RANGE_M`, and a
positive setpoint), the pixel noise (:data:`MAX_IMAGE_PX`) and the steps it
runs (:data:`MAX_EPISODE_STEPS`), and :func:`project_target` takes a
distance whose square overflows as infinite, as numpy did; a world file can
still carry the vehicle that far from the target.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import check_section, fields_around, write_csv, write_json_lines
from .rng import substream
from .vehicle import Command, VehicleConfig, VehicleState, step_dynamics, wrap_angle

TRACK_LOG_FORMAT = "reefsim-track-log-v2"

MIDWATER_CRUISER = "midwater-cruiser"
BENTHIC_GLIDER = "benthic-glider"

# Upper bound on an episode's dynamics steps (``episode.duration_s`` over
# ``tracking.dynamics_dt_s``), so that a config cannot ask for a run of
# hours or days.  The longest episode any test, benchmark or example runs is
# 300 s at 0.05 s, 6,000 steps; this allows 60 times that.  An episode at the
# bound with one frame per step took 27 s and peaked at 423 MB on a 2-vCPU
# x86_64 VM.
MAX_EPISODE_STEPS = 360_000

# Upper bound on the start standoff and on the companion fish's offset, far
# past the visibility of any water a camera follows a fish in.  Beyond it a
# setpoint, body length or field of view starts the vehicle where the target
# is a fraction of a pixel wide, or out of float range.
MAX_FOLLOW_RANGE_M = 1e4

# Upper bound on the camera's width and height and the tracker's pixel noise,
# past any follow camera's sensor.  Unbounded, a width of 10**400 overflowed
# where it became a float, and a noise of 1e308 px drew infinite box widths.
MAX_IMAGE_PX = 100_000

# A frame is due once the step time is within this of its frame time.
FRAME_TIME_TOL_S = 1e-9

K_YAW = 0.8  # rad/s at one half-frame of horizontal offset
K_HEAVE = 0.4  # m/s at one half-frame of vertical offset
K_SURGE = 1.0  # m/s at one unit of width-ratio error
HOLD_S = 1.0  # keep the last command this long after losing the box
LOST_AFTER_S = 3.0  # declare LOST after this long without the target in view


def frame_due(t: float, n_frames: int, frame_dt: float) -> bool:
    """Whether the frame after ``n_frames`` frames is due at step time ``t``.
    Its time is computed as ``n_frames * frame_dt``, not summed frame by
    frame, so the schedule does not drift over a long episode."""
    return t + FRAME_TIME_TOL_S >= n_frames * frame_dt


@dataclass(frozen=True)
class Camera:
    width_px: int = 640
    height_px: int = 360
    hfov_deg: float = 90.0

    @functools.cached_property
    def fx(self) -> float:
        """Focal length in pixels, on both axes (square pixels); computed once."""
        return (self.width_px / 2.0) / float(np.tan(np.radians(self.hfov_deg) / 2.0))

    def __post_init__(self) -> None:
        # The tangent test also rejects an angle whose half in radians
        # underflows to 0, which would leave no focal length at all.
        check_section(self, ("width_px", lambda: 2 <= self.width_px <= MAX_IMAGE_PX, f"must be in [2, {MAX_IMAGE_PX}]"),
                      ("height_px", lambda: 2 <= self.height_px <= MAX_IMAGE_PX, f"must be in [2, {MAX_IMAGE_PX}]"),
                      ("hfov_deg", lambda: 0.0 < self.hfov_deg < 180.0 and np.tan(np.radians(self.hfov_deg) / 2.0) > 0.0,
                       "must be in (0, 180) degrees"))


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
        check_section(self, ("offset_m", lambda: abs(self.offset_m) <= MAX_FOLLOW_RANGE_M, f"must be within {MAX_FOLLOW_RANGE_M:g} m"),
                      ("mean_lock_s", lambda: self.mean_lock_s > 0, "must be positive"))


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

    @functools.cached_property
    def clearance_m(self) -> float:
        """The benthic kind's height over the seafloor: ``altitude_m``
        clamped to [0.2, 1.0] m."""
        return float(min(max(self.altitude_m, 0.2), 1.0))


@dataclass(frozen=True)
class TrackingConfig:
    camera: Camera = field(default_factory=Camera)
    frame_rate_hz: float = 15.0
    dynamics_dt_s: float = 0.05
    width_ratio_setpoint: float = 0.15
    pixel_noise_px: float = 2.0
    dropout_prob: float = 0.02
    target: TargetConfig = field(default_factory=TargetConfig)

    def __post_init__(self) -> None:
        check_section(self, ("frame_rate_hz", lambda: self.frame_rate_hz > 0, "must be positive"),
                      ("dynamics_dt_s", lambda: 0 < self.dynamics_dt_s <= 0.5, "must be in (0, 0.5]"),
                      ("frame_rate_hz", lambda: 1.0 / self.frame_rate_hz >= self.dynamics_dt_s - FRAME_TIME_TOL_S,
                       "must be at most one frame per dynamics step (1 / dynamics_dt_s)"),
                      ("pixel_noise_px", lambda: 0 <= self.pixel_noise_px <= MAX_IMAGE_PX, f"must be in [0, {MAX_IMAGE_PX}]"),
                      ("dropout_prob", lambda: 0 <= self.dropout_prob <= 1, "must be in [0, 1]"),
                      ("width_ratio_setpoint", lambda: self.width_ratio_setpoint > 0, "must be positive"),
                      ("width_ratio_setpoint", lambda: self.start_standoff_m <= MAX_FOLLOW_RANGE_M,
                       f"must put the start standoff within {MAX_FOLLOW_RANGE_M:g} m: the focal length from camera.hfov_deg "
                       "times target.body_length_m over width_ratio_setpoint * camera.width_px"))

    @property
    def start_standoff_m(self) -> float:
        """The range at which the body length fills the width-ratio setpoint."""
        return self.camera.fx * self.target.body_length_m / (self.width_ratio_setpoint * self.camera.width_px)


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
        heading = wrap_angle(heading + rng.normal(0.0, config.heading_walk_sigma * math.sqrt(dt)))
    x = state.x + dt * config.speed_mps * math.cos(heading)
    y = state.y + dt * config.speed_mps * math.sin(heading)

    # Bounce off the world walls so long episodes stay in bounds.
    if x < 0.5 or x > world.width_m - 0.5:
        heading = wrap_angle(math.pi - heading)
        x = min(max(x, 0.5), world.width_m - 0.5)
    if y < 0.5 or y > world.height_m - 0.5:
        heading = wrap_angle(-heading)
        y = min(max(y, 0.5), world.height_m - 0.5)

    return TargetState(x=x, y=y, z=float(_target_depth(config, world, x, y)), heading=heading)


def _target_depth(config: TargetConfig, world, x: float, y: float) -> float:
    """The target's depth at (x, y): the midwater kind cruises at its depth,
    the benthic kind follows the seafloor at its clamped altitude."""
    if config.kind == BENTHIC_GLIDER:
        return world.depth_at(x, y) - config.clearance_m
    return config.depth_m


def _apparent_radii(config: TargetConfig, dx: float, dy: float, target_heading: float) -> tuple[float, float]:
    """Apparent horizontal/vertical semi-axes of the body seen from the
    offset (``dx``, ``dy``) toward it.  A sphere is aspect-independent; an
    ellipsoid shows its full length broadside and only its width end-on."""
    length_r = config.body_length_m / 2.0
    if config.body_aspect >= 1.0:
        return length_r, length_r
    width_r = length_r * config.body_aspect
    aspect_angle = wrap_angle(target_heading - np.arctan2(dy, dx))
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
    cos_psi, sin_psi = math.cos(psi), math.sin(psi)
    forward = cos_psi * dx + sin_psi * dy
    right = -sin_psi * dx + cos_psi * dy
    down = dz

    try:
        distance = math.sqrt(forward**2 + right**2 + down**2)
    except OverflowError:  # a square past the float range, where numpy gave inf
        distance = math.inf
    h_radius, v_radius = _apparent_radii(config, dx, dy, target_heading)
    if distance <= max(h_radius, v_radius):
        raise CameraInsideBody("target at zero range (camera inside the body)")
    if forward <= 0:
        return None

    f = camera.fx
    u = camera.width_px / 2.0 + f * right / forward
    v = camera.height_px / 2.0 + f * down / forward
    if not (0 <= u <= camera.width_px and 0 <= v <= camera.height_px):
        return None

    w = 2.0 * f * float(np.tan(np.arcsin(h_radius / distance)))
    h = w if v_radius == h_radius else 2.0 * f * float(np.tan(np.arcsin(v_radius / distance)))
    return BBox(cx=float(u), cy=float(v), w=w, h=h, frame_w=camera.width_px, frame_h=camera.height_px)


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
    noise = rng.normal(0.0, config.pixel_noise_px, 4).tolist() if config.pixel_noise_px > 0 else [0.0] * 4
    box = BBox(
        cx=source.cx + noise[0],
        cy=source.cy + noise[1],
        w=max(source.w + noise[2], 1.0),
        h=max(source.h + noise[3], 1.0),
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
    """
    yaw_rate = K_YAW * (bbox.cx - bbox.frame_w / 2.0) / (bbox.frame_w / 2.0)
    heave = K_HEAVE * (bbox.frame_h / 2.0 - bbox.cy) / (bbox.frame_h / 2.0)
    surge = K_SURGE * (config.width_ratio_setpoint - bbox.width_ratio)
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
    commands.  After ``HOLD_S`` without a box the command zeroes; after
    ``LOST_AFTER_S`` without the target in view, frames are marked lost
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

    start_range = start_range_m if start_range_m is not None else tracking_config.start_standoff_m
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
    n_steps = int(round(duration_s / dt))
    companion_cfg = TargetConfig(kind=target_cfg.kind, body_length_m=max(0.3 * target_cfg.body_length_m, 0.1), body_aspect=1.0)

    for step in range(n_steps + 1):
        t = step * dt
        if frame_due(t, len(log.frames), frame_dt):
            pose = (vehicle.x, vehicle.y, vehicle.z, vehicle.psi)
            true_box = _frame_box(camera, pose, (target.x, target.y, target.z), target_cfg, target.heading)
            distractor_box = None
            if target_cfg.distractor is not None:
                offset = target_cfg.distractor.offset_m
                side = target.heading + math.pi / 2.0
                companion = (
                    target.x + offset * math.cos(side),
                    target.y + offset * math.sin(side),
                    target.z,
                )
                distractor_box = _frame_box(camera, pose, companion, companion_cfg)

            observed = simulate_tracker(true_box, distractor_box, tracking_config, tracker_state, rng)

            if observed is not None:
                command = servo_command(observed, tracking_config)
                last_box_time = t
            elif t - last_box_time > HOLD_S:
                command = Command()

            if true_box is not None:
                last_seen_time = t
                lost = False
            elif t - last_seen_time > LOST_AFTER_S:
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
