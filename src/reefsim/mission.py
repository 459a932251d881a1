"""Survey missions: lawnmower planning, drift-interleaved execution, logging.

A :class:`MissionPlan` is both the ``plan`` config section and the plan the
executor runs; it derives its waypoints once, on first use.

The executor runs a fixed-step loop.  In TRANSIT the vehicle tracks the next
waypoint under altitude hold with thrusters on, sampling a visual-word
histogram at the imaging cadence.  On arrival it switches to DRIFT: thrusters
off, position held (plus any configured ambient current), and one hydrophone
window is synthesized for the whole drift.  The EKF runs throughout.

Thruster-saturated transit audio is never recorded: such windows carry no
usable signal and the downstream detector refuses them anyway.  A drift
window whose snaps clip is recorded with its ``saturated`` flag set, and
analysis skips it (see ``acoustics.snap_rate_series``).

The log is an append-only, strictly time-ordered record sequence; at most one
record is written per simulation step.  On disk it is line-delimited JSON
(one self-describing record per line, header first).  A record's kind
follows from its content: one with ``words`` is an imaging record, taken in
transit, one with ``audio`` a drift record, and each holds exactly one.  A
drift window's audio lives only in its 32-bit float WAV file, in the log's
audio directory, at the header's sample rate and length: the record holds
the file's name and an :class:`AudioRef` describing it.  The
dataclasses :class:`MissionLog`, :class:`LogRecord` and :class:`AudioRef`
are the file's schema: :func:`save_log` writes their fields, and
:func:`load_log` reads each line through the builder the config uses
(:func:`reefsim.errors.build`), so a value of the wrong type, a non-finite
number or a tuple of the wrong length is a :class:`DataError` naming the
line and the key.  The vehicle loop builds its records unchecked.
:func:`load_log` reads no audio: :meth:`MissionLog.audio_window` reads and
checks one WAV when detection needs it.

:func:`execute` runs on two cores.  The fixed-step vehicle loop (dynamics,
sensors, EKF, image words) runs in one worker process.  At each drift
station it sends ``(drift_index, x, y)`` over a pipe, and this process
renders that window and writes its WAV while the loop goes on; the worker
returns the records, and each drift record gets its window's
:class:`AudioRef` here.  The result is byte-identical to running both halves
in one process: the loop draws only from the ``"mission"`` substream and
window ``i`` only from ``("audio", i)``, and no samples cross the pipe.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, build, check_section, data_errors, fields_around, json_object, write_json_lines
from .rng import substream
from .vehicle import (
    Command,
    EkfEstimate,
    NoiseConfig,
    VehicleConfig,
    VehicleState,
    altitude_hold_command,
    ekf_predict,
    ekf_update,
    simulate_sensors,
    step_dynamics,
    waypoint_command,
)
from .worker import Worker
from .world import MAX_GRID_CELLS, MIN_AUDIO_FS, AudioWindow, GridWorld, read_wav, sample_image_words, synthesize_audio, write_wav

LOG_FORMAT = "reefsim-mission-log-v2"

# Upper bounds on a survey's work, checked before it starts: the waypoints of
# a plan, and the dynamics steps of one waypoint, its
# ``mission.waypoint_timeout_s / mission.dt_s`` of transit at most plus its
# ``plan.drift_duration_s / mission.dt_s`` of drift.  The largest survey any
# test, benchmark or example runs is the criterion-1 site: 50 waypoints, and
# 3,600 + 200 steps per waypoint at the default 180 s timeout, 10 s drifts
# and 0.05 s steps.  Each budget allows 100 times that.  They bound each
# factor, not the product: on a 2-vCPU x86_64 VM a plan of 4,646 waypoints
# without drifts ran in 9.7 s, and a step took about 0.1 ms, so a waypoint
# that uses all 380,000 steps runs for about 40 s.
MAX_WAYPOINTS = 5_000
MAX_WAYPOINT_STEPS = 380_000

# Upper bound on a drift window's samples, which are rendered, written and
# detected whole.  The largest window any test, benchmark or example records
# is 10 s at 96 kHz, 960,000 samples; this allows 10 times that.  On the same
# VM a survey of four windows at the bound peaked at 260 MB, and one 2,000 s
# drift at 96 kHz at 3.1 GB.
MAX_WINDOW_SAMPLES = 9_600_000

# Upper bound on the visual words drawn per image.  Each becomes a token of
# ``analyze``'s topic fit.  Every test, benchmark and example draws the
# default 25; this allows 100 times that, which over the criterion-1 site's
# 596 images is about the fit's budget, :data:`reefsim.analysis.MAX_FIT_TOKENS`.
MAX_WORDS_PER_IMAGE = 2_500


def _drift_window_rules(s) -> tuple:
    """A plan's and a log header's rules on the drift windows.  The rate is
    bounded before the product: an int too large for a float overflows it."""
    return (("drift_duration_s", lambda: s.drift_duration_s >= 0, "must be non-negative"),
            ("audio_fs_hz", lambda: MIN_AUDIO_FS <= s.audio_fs_hz <= sys.float_info.max, f"must be at least {MIN_AUDIO_FS} and fit a float"),
            ("drift_duration_s", lambda: s.drift_duration_s * s.audio_fs_hz <= MAX_WINDOW_SAMPLES,
             f"times audio_fs_hz must be at most {MAX_WINDOW_SAMPLES:,} samples"))


@dataclass(frozen=True)
class MissionPlan:
    """Boustrophedon survey of ``bounds = (x0, y0, x1, y1)``, with a drift
    station at each waypoint.  Legs run parallel to the x-axis at y = y0,
    y0 + spacing, ... while they fit inside the bounds; leg direction
    alternates.  By default each leg contributes its two endpoints;
    ``waypoint_spacing_m`` additionally subdivides legs so drift stations
    sit every so many meters along them."""

    bounds: tuple[float, float, float, float] = (0.75, 0.75, 19.25, 19.25)
    leg_spacing_m: float = 4.625
    drift_duration_s: float = 10.0
    altitude_setpoint_m: float = 1.0
    imaging_period_s: float = 0.5
    audio_fs_hz: int = 96_000
    waypoint_spacing_m: float | None = None

    def __post_init__(self) -> None:
        b = self.bounds
        check_section(self, ("bounds", lambda: b[2] > b[0] and b[3] > b[1], "must be non-degenerate"),
                      ("leg_spacing_m", lambda: self.leg_spacing_m > 0, "must be positive"),
                      ("leg_spacing_m", lambda: self.leg_spacing_m <= max(b[2] - b[0], b[3] - b[1]), "is larger than both bound extents"),
                      ("waypoint_spacing_m", lambda: self.waypoint_spacing_m is None or self.waypoint_spacing_m > 0, "must be positive"),
                      ("imaging_period_s", lambda: self.imaging_period_s > 0, "must be positive"),
                      *_drift_window_rules(self),
                      ("leg_spacing_m", lambda: self._layout()[0] <= MAX_WAYPOINTS, f"must give at most {MAX_WAYPOINTS:,} waypoints"),
                      ("leg_spacing_m" if self.waypoint_spacing_m is None else "waypoint_spacing_m",
                       lambda: self._waypoint_count() <= MAX_WAYPOINTS, f"must give at most {MAX_WAYPOINTS:,} waypoints"))

    def _layout(self) -> tuple[float, float, bool]:
        """``(legs, spans, closed)`` of :attr:`waypoints`, in closed form:
        the legs, the whole ``waypoint_spacing_m`` steps along a leg, and
        whether a station at ``x1`` closes a leg after them.  The counts are
        floats, so that a spacing of 1e-300 gives a count to compare with a
        budget, not a list too long to build."""
        x0, y0, x1, y1 = self.bounds
        legs = np.floor((y1 - y0) / self.leg_spacing_m + 1e-9) + 1
        if self.waypoint_spacing_m is None:
            return legs, 1.0, False
        spans = np.floor((x1 - x0) / self.waypoint_spacing_m + 1e-9)
        return legs, spans, bool(x0 + spans * self.waypoint_spacing_m < x1 - 1e-9)

    def _waypoint_count(self) -> float:
        legs, spans, closed = self._layout()
        return legs * (spans + 1 + closed)

    @functools.cached_property
    def waypoints(self) -> tuple[tuple[float, float], ...]:
        """The waypoints in visiting order, derived once per plan."""
        x0, y0, x1, y1 = self.bounds
        legs, spans, closed = self._layout()
        if self.waypoint_spacing_m is None:
            stations = [x0, x1]
        else:
            stations = [x0 + i * self.waypoint_spacing_m for i in range(int(spans) + 1)] + [x1] * closed
        waypoints: list[tuple[float, float]] = []
        for i in range(int(legs)):
            y = y0 + i * self.leg_spacing_m
            xs = stations if i % 2 == 0 else stations[::-1]
            waypoints.extend((x, y) for x in xs)
        return tuple(waypoints)


@dataclass(frozen=True)
class MissionConfig:
    dt_s: float = 0.05
    words_per_image: int = 25
    waypoint_timeout_s: float = 180.0
    current_mps: tuple[float, float] = (0.0, 0.0)  # ambient drift during DRIFT

    def __post_init__(self) -> None:
        check_section(self, ("dt_s", lambda: 0 < self.dt_s <= 0.5, "must be in (0, 0.5]"),
                      ("words_per_image", lambda: 1 <= self.words_per_image <= MAX_WORDS_PER_IMAGE, f"must be in [1, {MAX_WORDS_PER_IMAGE:,}]"))


# The public name for building a plan; the fields' order keeps its positional
# arguments ``(bounds, leg_spacing_m, drift_duration_s, ...)``.
plan_lawnmower = MissionPlan


@dataclass
class AudioRef:
    filename: str
    saturated: bool
    truth_snap_times: tuple[float, ...]


@dataclass
class LogRecord:
    t: float
    true_pose: tuple[float, float, float, float]  # x, y, z, psi
    est_mean: tuple[float, float, float, float]
    est_cov_diag: tuple[float, float, float, float]
    cell_id: int
    words: tuple[int, ...] | None = None  # visual-word histogram: an imaging record
    audio: AudioRef | None = None  # a drift record's window


@dataclass
class MissionLog:
    """A survey's records.  On disk the fields declared before ``records``
    form the header line and those after it the end line."""

    grid_nx: int
    grid_ny: int
    cell_size_m: float
    audio_fs_hz: int
    drift_duration_s: float
    audio_dir: Path  # the directory holding the drift windows' WAV files
    records: list[LogRecord] = field(default_factory=list)
    abort_reason: str | None = None

    def __post_init__(self) -> None:
        check_section(self, ("grid_nx", lambda: self.grid_nx >= 1, "must be at least 1"),
                      ("grid_ny", lambda: self.grid_ny >= 1, "must be at least 1"),
                      ("grid_ny", lambda: self.grid_nx * self.grid_ny <= MAX_GRID_CELLS, f"times grid_nx must be at most {MAX_GRID_CELLS:,} cells"),
                      ("cell_size_m", lambda: self.cell_size_m > 0, "must be positive"),
                      *_drift_window_rules(self))

    @property
    def aborted(self) -> bool:
        return self.abort_reason is not None

    def imaging_records(self) -> list[LogRecord]:
        return [r for r in self.records if r.words is not None]

    def drift_records(self) -> list[LogRecord]:
        return [r for r in self.records if r.words is None]

    @property
    def drift_samples(self) -> int:
        """The sample count of every drift window's WAV."""
        return round(self.drift_duration_s * self.audio_fs_hz)

    def audio_window(self, record: LogRecord) -> AudioWindow:
        """Read a drift record's window from its WAV, checked against the
        header: sample rate, length and finite samples in [-1, 1].  A failed
        check raises a one-line :class:`DataError` that names the file."""
        ref = record.audio
        path = self.audio_dir / ref.filename
        samples, fs = read_wav(path)
        with data_errors(f"WAV {path}"):
            if fs != self.audio_fs_hz or len(samples) != self.drift_samples:
                raise ValueError(f"holds {len(samples)} samples at {fs} Hz, not the {self.drift_samples} samples at"
                                 f" {self.audio_fs_hz} Hz of a {self.drift_duration_s} s drift")
            window = AudioWindow(samples=samples, fs=fs, truth_snap_times=np.asarray(ref.truth_snap_times, dtype=np.float64), saturated=ref.saturated)
            window.validate()
        return window

    def validate(self) -> None:
        ts = [r.t for r in self.records]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("record timestamps must be strictly increasing")
        for r in self.records:
            if (r.words is None) == (r.audio is None):
                raise ValueError(f"record at t={r.t} must hold exactly one of words and audio")


def execute(
    plan: MissionPlan,
    world: GridWorld,
    vehicle_config: VehicleConfig,
    noise_config: NoiseConfig,
    mission_config: MissionConfig,
    seed: int,
    audio_dir: str | Path,
) -> MissionLog:
    """Run the survey and return the complete, ordered mission log.

    Deterministic in (plan, world, configs, seed): the mission consumes one
    sequential sensor/word stream, and each drift window draws from its own
    indexed audio substream.  If a waypoint is not reached within the
    timeout, counted from the end of the previous waypoint's drift, the
    mission aborts and returns the partial log with an explicit abort
    marker.  The true position is confined to the world rectangle, so plans
    should keep waypoints at least a capture radius inside it.

    The vehicle loop runs in a worker process; this process renders each
    drift window as the worker reaches its station and writes it at once to
    ``audio_dir/drift_NNNN.wav`` (the directory is created if needed), then
    gives each drift record the worker returns its window's
    :class:`AudioRef`.  A mission that fails part-way leaves behind the WAVs
    it already wrote.
    """
    for wx, wy in plan.waypoints:
        if not world.contains(wx, wy):
            raise ConfigError(f"waypoint ({wx}, {wy}) lies outside the world")

    audio_dir = Path(audio_dir)
    audio_dir.mkdir(parents=True, exist_ok=True)
    refs: list[AudioRef] = []
    with Worker(_run_vehicle, plan, world, vehicle_config, noise_config, mission_config, seed, audio_dir) as worker:
        for drift_index, x, y in worker.messages():
            rng = substream(seed, "audio", drift_index)
            window = synthesize_audio(world, x, y, plan.drift_duration_s, plan.audio_fs_hz, thrusters_on=False, rng=rng)
            filename = f"drift_{drift_index:04d}.wav"
            write_wav(audio_dir / filename, window)
            refs.append(AudioRef(filename, window.saturated, tuple(window.truth_snap_times.tolist())))
        log = worker.result()

    for record, ref in zip(log.drift_records(), refs, strict=True):
        record.audio = ref
    log.validate()
    return log


def _run_vehicle(
    send,
    plan: MissionPlan,
    world: GridWorld,
    vehicle_config: VehicleConfig,
    noise_config: NoiseConfig,
    mission_config: MissionConfig,
    seed: int,
    audio_dir: Path,
) -> MissionLog:
    """The fixed-step vehicle loop of :func:`execute`, run in its worker.

    At each drift station it sends ``(drift_index, x, y)``, where the drift
    index is the waypoint's, and logs the drift record (no words) without
    audio.  Returns the log with no audio attached.
    """
    dt = mission_config.dt_s
    rng = substream(seed, "mission")
    log = MissionLog(
        grid_nx=world.nx,
        grid_ny=world.ny,
        cell_size_m=float(world.cell_size_m),  # a world file may hold a whole size as an int
        audio_fs_hz=plan.audio_fs_hz,
        drift_duration_s=plan.drift_duration_s,
        audio_dir=audio_dir,
    )

    wp0 = plan.waypoints[0]
    heading = 0.0
    if len(plan.waypoints) > 1:
        heading = float(np.arctan2(plan.waypoints[1][1] - wp0[1], plan.waypoints[1][0] - wp0[0]))
    state = VehicleState(
        x=wp0[0],
        y=wp0[1],
        z=world.depth_at(wp0[0], wp0[1]) - plan.altitude_setpoint_m,
        psi=heading,
    )
    est = EkfEstimate.from_arrays([state.x, state.y, state.z, state.psi], np.diag([0.04, 0.04, 0.01, 0.004]))

    def clamp_to_world(s: VehicleState) -> VehicleState:
        eps = 1e-6
        x = min(max(s.x, 0.0), world.width_m - eps)
        y = min(max(s.y, 0.0), world.height_m - eps)
        if x == s.x and y == s.y:
            return s
        return VehicleState(x=x, y=y, z=s.z, psi=s.psi, u=s.u, v=s.v, w=s.w, yaw_rate=s.yaw_rate)

    def snapshot(t: float, words=None) -> LogRecord:
        return LogRecord(
            t=t,
            true_pose=(state.x, state.y, state.z, state.psi),
            est_mean=est.mean,
            est_cov_diag=est.variances,
            cell_id=world.cell_id(state.x, state.y),
            words=words,
        )

    def run_estimator(t: float) -> None:
        nonlocal est
        sensors = simulate_sensors(state, world, noise_config, t, rng)
        est = ekf_predict(est, sensors.dvl_velocity, sensors.imu_yaw_rate, dt, noise_config)
        est = ekf_update(est, "depth", sensors.depth, noise_config.depth_sigma**2)
        est = ekf_update(est, "heading", sensors.imu_heading, noise_config.heading_sigma**2)
        if sensors.usbl is not None:
            est = ekf_update(est, "usbl", sensors.usbl, noise_config.usbl_sigma**2)

    current = mission_config.current_mps
    timeout = mission_config.waypoint_timeout_s
    # A drift runs at least one step, even one whose duration rounds to none.
    drift_steps = max(round(plan.drift_duration_s / dt), 1) if plan.drift_duration_s > 0 else 0
    step = 0
    deadline = timeout
    next_imaging_time = 0.0

    for wp_index, waypoint in enumerate(plan.waypoints):
        # TRANSIT: track the waypoint under altitude hold until arrival.
        while True:
            t = step * dt
            if t > deadline:
                log.abort_reason = f"waypoint {wp_index} unreachable within {timeout} s"
                return log
            guidance, arrived = waypoint_command(est.mean, waypoint, vehicle_config)
            if arrived:
                break
            if t + 1e-9 >= next_imaging_time:
                words = sample_image_words(world, state.x, state.y, mission_config.words_per_image, rng)
                log.records.append(snapshot(t, words=tuple(words.tolist())))
                next_imaging_time += plan.imaging_period_s
            sensors_alt = simulate_sensors(state, world, noise_config, t, rng)
            heave, _fallback = altitude_hold_command(
                sensors_alt.dvl_altitude, sensors_alt.dvl_altitude_valid, plan.altitude_setpoint_m, vehicle_config
            )
            command = Command(surge=guidance.surge, sway=guidance.sway, heave=heave, yaw_rate=guidance.yaw_rate)
            state = clamp_to_world(step_dynamics(state, command, dt, vehicle_config))
            run_estimator(t + dt)
            step += 1

        # The arrival step moves nothing.
        step += 1
        if drift_steps:
            send((wp_index, state.x, state.y))
            log.records.append(snapshot(t))

            # DRIFT: thrusters off, carried only by ambient current.
            cos_psi, sin_psi = np.cos(state.psi), np.sin(state.psi)
            u = float(cos_psi * current[0] + sin_psi * current[1])
            v = float(-sin_psi * current[0] + cos_psi * current[1])
            for _ in range(drift_steps):
                state = clamp_to_world(
                    VehicleState(x=state.x + current[0] * dt, y=state.y + current[1] * dt, z=state.z, psi=state.psi, u=u, v=v)
                )
                run_estimator(step * dt + dt)
                step += 1
            next_imaging_time = (np.floor(step * dt / plan.imaging_period_s) + 1) * plan.imaging_period_s
        # The next waypoint's clock starts once the drift is over.
        deadline = step * dt + timeout

    return log


# --- persistence -----------------------------------------------------------


def save_log(log: MissionLog, path: str | Path) -> None:
    """Write the log as line-delimited JSON.  The header names the log's
    audio directory relative to the log file; the WAVs are already there.

    Rewriting the same log produces byte-identical output.
    """
    path = Path(path)
    header, end = fields_around(log, "records")
    header["audio_dir"] = os.path.relpath(log.audio_dir, path.parent)
    # A record line leaves out whichever of words and audio is None.
    records = ({"type": "record", **{k: v for k, v in vars(record).items() if v is not None}} for record in log.records)
    write_json_lines(path, itertools.chain([{"type": "header", "format": LOG_FORMAT, **header}], records, [{"type": "end", **end}]))


def _load_record(payload: dict, log: MissionLog) -> LogRecord:
    """One ``record`` line, built and type-checked as a :class:`LogRecord`.
    A field that fails its check raises ``ValueError`` or
    :class:`ConfigError`."""
    record = build(LogRecord, payload)
    if not 0 <= record.cell_id < log.grid_nx * log.grid_ny:
        raise ValueError(f"cell_id {record.cell_id} is outside the {log.grid_nx}x{log.grid_ny} grid")
    if record.words and min(record.words) < 0:
        raise ValueError("words must be non-negative counts")
    return record


def load_log(path: str | Path) -> MissionLog:
    """Read a log written by :func:`save_log`.  No WAV is read here; see
    :meth:`MissionLog.audio_window`.

    Every way the file can fail to be such a log, including a line that is
    not a JSON object or a field that is missing or of the wrong type,
    raises :class:`DataError`.
    """
    path = Path(path)
    with data_errors(f"mission log {path}"):
        lines = path.read_text().splitlines()
    if not lines:
        raise DataError(f"mission log {path} is empty")

    with data_errors(f"mission log {path} line 1"):
        header = json_object(lines[0])
        log_format = header.pop("format", None)
        if header.pop("type", None) != "header" or log_format != LOG_FORMAT:
            raise ValueError(f"not a {LOG_FORMAT} header: format {log_format!r}")
        log = build(MissionLog, {**header, "audio_dir": path.parent / header["audio_dir"]})

    saw_end = False
    for number, line in enumerate(lines[1:], start=2):
        with data_errors(f"mission log {path} line {number}"):
            if saw_end:
                raise ValueError("follows the end marker")
            payload = json_object(line)
            kind = payload.pop("type", None)
            if kind == "end":
                log = dataclasses.replace(log, **{name: payload.pop(name) for name in fields_around(log, "records")[1]})
                if payload:
                    raise ValueError(f"unknown keys {sorted(payload)}")
                saw_end = True
            elif kind == "record":
                log.records.append(_load_record(payload, log))
            else:
                raise ValueError(f"unknown record type {kind!r}")
    if not saw_end:
        raise DataError(f"mission log {path} is truncated (no end marker)")

    with data_errors(f"mission log {path}"):
        log.validate()
    return log
