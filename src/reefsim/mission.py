"""Survey missions: lawnmower planning, drift-interleaved execution, logging.

The executor runs a fixed-step loop.  In TRANSIT the vehicle tracks the next
waypoint under altitude hold with thrusters on, sampling a visual-word
histogram at the imaging cadence.  On arrival it switches to DRIFT: thrusters
off, position held (plus any configured ambient current), and one hydrophone
window is synthesized for the whole drift.  The EKF runs throughout.

Thruster-saturated transit audio is never recorded: such windows carry no
usable signal and the downstream detector refuses them anyway.

The log is an append-only, strictly time-ordered record sequence; at most one
record is written per simulation step.  On disk it is line-delimited JSON
(one self-describing record per line, header first) with drift audio in a
sidecar directory of 32-bit float WAV files referenced by filename.

:func:`execute` runs on two cores.  The fixed-step vehicle loop (dynamics,
sensors, EKF, image words) runs in one worker process.  At each drift
station it sends ``(drift_index, x, y, t)`` over a pipe, and this process
renders that window while the loop goes on; the worker returns the records,
and the audio is attached here.  The result is byte-identical to running
both halves in one process: the loop draws only from the ``"mission"``
substream and window ``i`` only from ``("audio", i)``, and no samples cross
the pipe.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, finite
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
from .world import AudioWindow, GridWorld, read_wav, sample_image_words, synthesize_audio, write_wav

LOG_FORMAT = "reefsim-mission-log-v1"

TRANSIT = "TRANSIT"
DRIFT = "DRIFT"


@dataclass(frozen=True)
class MissionPlan:
    waypoints: tuple[tuple[float, float], ...]
    altitude_setpoint_m: float = 1.0
    drift_duration_s: float = 10.0
    imaging_period_s: float = 0.5
    audio_fs_hz: int = 96_000

    def validate(self) -> None:
        if len(self.waypoints) < 1:
            raise ConfigError("plan needs at least one waypoint")
        if not (finite(self.drift_duration_s) and self.drift_duration_s >= 0):
            raise ConfigError("drift_duration_s must be non-negative and finite")
        if not (finite(self.imaging_period_s) and self.imaging_period_s > 0):
            raise ConfigError("imaging_period_s must be positive and finite")


@dataclass(frozen=True)
class MissionConfig:
    dt_s: float = 0.05
    words_per_image: int = 25
    waypoint_timeout_s: float = 180.0
    current_mps: tuple[float, float] = (0.0, 0.0)  # ambient drift during DRIFT


def plan_lawnmower(
    bounds: tuple[float, float, float, float],
    leg_spacing_m: float,
    drift_duration_s: float = 10.0,
    altitude_setpoint_m: float = 1.0,
    imaging_period_s: float = 0.5,
    audio_fs_hz: int = 96_000,
    waypoint_spacing_m: float | None = None,
) -> MissionPlan:
    """Boustrophedon coverage of ``bounds = (x0, y0, x1, y1)``.

    Legs run parallel to the x-axis at y = y0, y0 + spacing, ... while they
    fit inside the bounds; leg direction alternates.  By default each leg
    contributes its two endpoints; ``waypoint_spacing_m`` additionally
    subdivides legs so drift stations sit every so many meters along them.
    """
    x0, y0, x1, y1 = bounds
    if not (finite(*bounds) and x1 > x0 and y1 > y0):
        raise ConfigError("bounds must be finite and non-degenerate")
    if not (finite(leg_spacing_m) and leg_spacing_m > 0):
        raise ConfigError("leg_spacing_m must be positive and finite")
    if leg_spacing_m > (y1 - y0) and leg_spacing_m > (x1 - x0):
        raise ConfigError("leg spacing larger than both bound extents")
    if waypoint_spacing_m is not None and not (finite(waypoint_spacing_m) and waypoint_spacing_m > 0):
        raise ConfigError("waypoint_spacing_m must be positive and finite")

    n_legs = int(np.floor((y1 - y0) / leg_spacing_m + 1e-9)) + 1
    if waypoint_spacing_m is None:
        stations = [x0, x1]
    else:
        n_spans = int(np.floor((x1 - x0) / waypoint_spacing_m + 1e-9))
        stations = [x0 + i * waypoint_spacing_m for i in range(n_spans + 1)]
        if stations[-1] < x1 - 1e-9:
            stations.append(x1)
    waypoints: list[tuple[float, float]] = []
    for i in range(n_legs):
        y = y0 + i * leg_spacing_m
        xs = stations if i % 2 == 0 else stations[::-1]
        waypoints.extend((x, y) for x in xs)
    plan = MissionPlan(
        waypoints=tuple(waypoints),
        altitude_setpoint_m=altitude_setpoint_m,
        drift_duration_s=drift_duration_s,
        imaging_period_s=imaging_period_s,
        audio_fs_hz=audio_fs_hz,
    )
    plan.validate()
    return plan


@dataclass
class AudioRef:
    filename: str
    fs: int
    duration: float
    saturated: bool
    truth_snap_times: list[float]


@dataclass
class LogRecord:
    t: float
    mode: str  # TRANSIT | DRIFT
    true_pose: tuple[float, float, float, float]  # x, y, z, psi
    est_mean: tuple[float, float, float, float]
    est_cov_diag: tuple[float, float, float, float]
    cell_id: int
    words: list[int] | None = None
    audio: AudioRef | None = None


@dataclass
class MissionLog:
    grid_nx: int
    grid_ny: int
    cell_size_m: float
    audio_fs_hz: int
    drift_duration_s: float
    records: list[LogRecord] = field(default_factory=list)
    audio: dict[str, AudioWindow] = field(default_factory=dict)
    aborted: bool = False
    abort_reason: str | None = None

    def imaging_records(self) -> list[LogRecord]:
        return [r for r in self.records if r.mode == TRANSIT and r.words is not None]

    def drift_records(self) -> list[LogRecord]:
        return [r for r in self.records if r.mode == DRIFT]

    def audio_window(self, record: LogRecord) -> AudioWindow:
        if record.audio is None:
            raise DataError(f"record at t={record.t} carries no audio")
        return self.audio[record.audio.filename]

    def validate(self) -> None:
        ts = [r.t for r in self.records]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("record timestamps must be strictly increasing")
        for r in self.records:
            if r.audio is not None and r.mode != DRIFT:
                raise ValueError("audio present outside a DRIFT record")
            if r.words is not None and r.mode != TRANSIT:
                raise ValueError("word histogram present outside a TRANSIT record")
            if r.mode == DRIFT and r.audio is not None and r.audio.saturated:
                raise ValueError("saturated audio window marked DRIFT")


def execute(
    plan: MissionPlan,
    world: GridWorld,
    vehicle_config: VehicleConfig,
    noise_config: NoiseConfig,
    mission_config: MissionConfig,
    seed: int,
) -> MissionLog:
    """Run the survey and return the complete, ordered mission log.

    Deterministic in (plan, world, configs, seed): the mission consumes one
    sequential sensor/word stream, and each drift window draws from its own
    indexed audio substream.  If a waypoint is not reached within the
    timeout, the mission aborts and returns the partial log with an explicit
    abort marker.  The true position is confined to the world rectangle, so
    plans should keep waypoints at least a capture radius inside it.

    The vehicle loop runs in a worker process; this process renders each
    drift window as the worker reaches its station, then attaches the audio
    to the records the worker returns.
    """
    plan.validate()
    for wx, wy in plan.waypoints:
        if not world.contains(wx, wy):
            raise ConfigError(f"waypoint ({wx}, {wy}) lies outside the world")

    windows: list[AudioWindow] = []
    with Worker(_run_vehicle, plan, world, vehicle_config, noise_config, mission_config, seed) as worker:
        for drift_index, x, y, t in worker.messages():
            windows.append(
                synthesize_audio(
                    world,
                    x,
                    y,
                    plan.drift_duration_s,
                    plan.audio_fs_hz,
                    thrusters_on=False,
                    rng=substream(seed, "audio", drift_index),
                    start_time=t,
                )
            )
        log = worker.result()

    for drift_index, (record, window) in enumerate(zip(log.drift_records(), windows, strict=True)):
        filename = f"drift_{drift_index:04d}.wav"
        log.audio[filename] = window
        record.audio = AudioRef(
            filename=filename,
            fs=window.fs,
            duration=window.duration,
            saturated=window.saturated,
            truth_snap_times=[float(v) for v in window.truth_snap_times],
        )
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
) -> MissionLog:
    """The fixed-step vehicle loop of :func:`execute`, run in its worker.

    At each drift station it sends ``(drift_index, x, y, t)`` and logs the
    DRIFT record without audio.  Returns the log with no audio attached.
    """
    dt = mission_config.dt_s
    rng = substream(seed, "mission")
    log = MissionLog(
        grid_nx=world.nx,
        grid_ny=world.ny,
        cell_size_m=world.cell_size_m,
        audio_fs_hz=plan.audio_fs_hz,
        drift_duration_s=plan.drift_duration_s,
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
    est = EkfEstimate(
        mean=np.array([state.x, state.y, state.z, state.psi]),
        cov=np.diag([0.04, 0.04, 0.01, 0.004]),
    )

    def clamp_to_world(s: VehicleState) -> VehicleState:
        eps = 1e-6
        x = min(max(s.x, 0.0), world.width_m - eps)
        y = min(max(s.y, 0.0), world.height_m - eps)
        if x == s.x and y == s.y:
            return s
        return VehicleState(x=x, y=y, z=s.z, psi=s.psi, u=s.u, v=s.v, w=s.w, yaw_rate=s.yaw_rate)

    def snapshot(t: float, mode: str, words=None) -> LogRecord:
        return LogRecord(
            t=t,
            mode=mode,
            true_pose=(state.x, state.y, state.z, state.psi),
            est_mean=tuple(float(m) for m in est.mean),
            est_cov_diag=tuple(float(c) for c in np.diag(est.cov)),
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
            est = ekf_update(est, "usbl", sensors.usbl, noise_config.usbl_sigma**2 * np.eye(2))

    step = 0
    wp_index = 0
    mode = TRANSIT
    wp_deadline = mission_config.waypoint_timeout_s
    drift_steps_left = 0
    drift_index = 0
    next_imaging_time = 0.0
    current = mission_config.current_mps

    while True:
        t = step * dt

        if mode == TRANSIT:
            if wp_index >= len(plan.waypoints):
                break
            if t > wp_deadline:
                log.aborted = True
                log.abort_reason = f"waypoint {wp_index} unreachable within {mission_config.waypoint_timeout_s} s"
                break

            guidance, arrived = waypoint_command(est.mean, plan.waypoints[wp_index], vehicle_config)
            if arrived:
                wp_index += 1
                wp_deadline = t + mission_config.waypoint_timeout_s
                if plan.drift_duration_s > 0:
                    mode = DRIFT
                    drift_steps_left = round(plan.drift_duration_s / dt)
                    send((drift_index, state.x, state.y, t))
                    log.records.append(snapshot(t, DRIFT))
                    drift_index += 1
                step += 1
                continue

            if t + 1e-9 >= next_imaging_time:
                words = sample_image_words(world, state.x, state.y, mission_config.words_per_image, rng)
                log.records.append(snapshot(t, TRANSIT, words=[int(c) for c in words]))
                next_imaging_time += plan.imaging_period_s

            sensors_alt = simulate_sensors(state, world, noise_config, t, rng)
            heave, _fallback = altitude_hold_command(
                sensors_alt.dvl_altitude, sensors_alt.dvl_altitude_valid, plan.altitude_setpoint_m, vehicle_config
            )
            command = Command(surge=guidance.surge, sway=guidance.sway, heave=heave, yaw_rate=guidance.yaw_rate)
            state = clamp_to_world(step_dynamics(state, command, dt, vehicle_config))
            run_estimator(t + dt)

        else:  # DRIFT: thrusters off, carried only by ambient current
            cos_psi, sin_psi = np.cos(state.psi), np.sin(state.psi)
            state = clamp_to_world(
                VehicleState(
                    x=state.x + current[0] * dt,
                    y=state.y + current[1] * dt,
                    z=state.z,
                    psi=state.psi,
                    u=float(cos_psi * current[0] + sin_psi * current[1]),
                    v=float(-sin_psi * current[0] + cos_psi * current[1]),
                    w=0.0,
                    yaw_rate=0.0,
                )
            )
            run_estimator(t + dt)
            drift_steps_left -= 1
            if drift_steps_left <= 0:
                mode = TRANSIT
                end_time = (step + 1) * dt
                next_imaging_time = (np.floor(end_time / plan.imaging_period_s) + 1) * plan.imaging_period_s

        step += 1

    return log


# --- persistence -----------------------------------------------------------


def _dump_record(record: LogRecord) -> dict:
    payload = {
        "type": "record",
        "t": record.t,
        "mode": record.mode,
        "true_pose": list(record.true_pose),
        "est_mean": list(record.est_mean),
        "est_cov_diag": list(record.est_cov_diag),
        "cell_id": record.cell_id,
    }
    if record.words is not None:
        payload["words"] = record.words
    if record.audio is not None:
        payload["audio"] = {
            "filename": record.audio.filename,
            "fs": record.audio.fs,
            "duration": record.audio.duration,
            "saturated": record.audio.saturated,
            "truth_snap_times": record.audio.truth_snap_times,
        }
    return payload


def save_log(log: MissionLog, path: str | Path, audio_dirname: str = "audio") -> None:
    """Write the log as line-delimited JSON plus a sidecar WAV directory.

    Rewriting the same log produces byte-identical output.
    """
    path = Path(path)
    lines = [
        json.dumps(
            {
                "type": "header",
                "format": LOG_FORMAT,
                "grid_nx": log.grid_nx,
                "grid_ny": log.grid_ny,
                "cell_size_m": log.cell_size_m,
                "audio_fs_hz": log.audio_fs_hz,
                "drift_duration_s": log.drift_duration_s,
                "audio_dir": audio_dirname,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
    ]
    lines.extend(json.dumps(_dump_record(r), sort_keys=True, separators=(",", ":")) for r in log.records)
    lines.append(
        json.dumps(
            {"type": "end", "aborted": log.aborted, "abort_reason": log.abort_reason},
            sort_keys=True,
            separators=(",", ":"),
        )
    )
    path.write_text("\n".join(lines) + "\n")

    audio_dir = path.parent / audio_dirname
    audio_dir.mkdir(parents=True, exist_ok=True)
    for filename in sorted(log.audio):
        write_wav(audio_dir / filename, log.audio[filename])


def _load_record(payload: dict, log: MissionLog, audio_dir: Path) -> LogRecord:
    """One ``record`` line; its audio window goes into ``log.audio``.  A
    field that fails its check raises ``ValueError``."""
    t = float(payload["t"])
    mode = payload["mode"]
    if mode not in (TRANSIT, DRIFT):
        raise ValueError(f"record at t={t} has unknown mode {mode!r}")
    cell_id = int(payload["cell_id"])
    if not 0 <= cell_id < log.grid_nx * log.grid_ny:
        raise ValueError(f"record at t={t} has cell_id {cell_id} outside the grid")
    words = payload.get("words")
    if words is not None and not (isinstance(words, list) and all(type(c) is int and c >= 0 for c in words)):
        raise ValueError(f"record at t={t} has word counts that are not non-negative integers")
    audio_ref = None
    if "audio" in payload:
        a = payload["audio"]
        audio_ref = AudioRef(
            filename=a["filename"],
            fs=int(a["fs"]),
            duration=float(a["duration"]),
            saturated=bool(a["saturated"]),
            truth_snap_times=[float(v) for v in a["truth_snap_times"]],
        )
        samples, fs = read_wav(audio_dir / audio_ref.filename)
        log.audio[audio_ref.filename] = AudioWindow(
            samples=samples,
            fs=fs,
            start_time=t,
            truth_snap_times=np.asarray(audio_ref.truth_snap_times, dtype=np.float64),
            saturated=audio_ref.saturated,
        )
    return LogRecord(
        t=t,
        mode=mode,
        true_pose=_floats(payload["true_pose"]),
        est_mean=_floats(payload["est_mean"]),
        est_cov_diag=_floats(payload["est_cov_diag"]),
        cell_id=cell_id,
        words=words,
        audio=audio_ref,
    )


@contextmanager
def _line_errors(path: Path, number: int):
    """Turn a parse, missing-key or wrong-type error on one line of the log
    into a :class:`DataError` naming the file and line."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise DataError(f"mission log {path} line {number}: {reason}") from exc


def _json_object(line: str) -> dict:
    payload = json.loads(line)
    if not isinstance(payload, dict):
        raise TypeError(f"expected a JSON object, got {type(payload).__name__}")
    return payload


def _floats(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


def load_log(path: str | Path) -> MissionLog:
    """Read a log written by :func:`save_log`, including sidecar audio.

    Every way the file can fail to be such a log, including a line that is
    not a JSON object or a field that is missing or of the wrong type,
    raises :class:`DataError`.
    """
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read mission log {path}: {exc}") from exc
    if not lines:
        raise DataError(f"mission log {path} is empty")

    with _line_errors(path, 1):
        header = _json_object(lines[0])
        if header.get("type") != "header" or header.get("format") != LOG_FORMAT:
            raise ValueError("unsupported mission log format")
        log = MissionLog(
            grid_nx=int(header["grid_nx"]),
            grid_ny=int(header["grid_ny"]),
            cell_size_m=float(header["cell_size_m"]),
            audio_fs_hz=int(header["audio_fs_hz"]),
            drift_duration_s=float(header["drift_duration_s"]),
        )
        audio_dir = path.parent / header["audio_dir"]

    saw_end = False
    for number, line in enumerate(lines[1:], start=2):
        with _line_errors(path, number):
            payload = _json_object(line)
            kind = payload.get("type")
            if kind == "end":
                log.aborted = bool(payload["aborted"])
                log.abort_reason = payload["abort_reason"]
                saw_end = True
            elif kind == "record":
                log.records.append(_load_record(payload, log, audio_dir))
            else:
                raise ValueError(f"unknown record type {kind!r}")
    if not saw_end:
        raise DataError(f"mission log {path} is truncated (no end marker)")

    try:
        log.validate()
    except ValueError as exc:
        raise DataError(f"mission log {path}: {exc}") from exc
    return log
