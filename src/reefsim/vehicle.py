"""Vehicle kinematics, sensor simulation, EKF fusion, and low-level guidance.

Conventions (used package-wide):

* World frame: x, y on the grid, z positive DOWN (depth).  Heading ``psi``
  is measured from +x toward +y, so a positive yaw rate turns the vehicle
  toward +y ("rightward" seen from above with z down).
* Body frame: surge ``u`` forward, sway ``v`` to starboard, heave ``w``
  positive UP (ascending decreases depth).
* All headings are wrapped to (-pi, pi].

The estimator state is [x, y, z, psi]; body velocities are treated as
inputs from the DVL rather than filter states, so DVL/IMU input noise is
the filter's process noise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import check_section

TWO_PI = 2.0 * np.pi

# Upper bound on ``VehicleConfig.v_max_mps``, far past any survey vehicle.
# The EKF squares a body velocity (times dt and the heading variance) into
# its covariance every step, and a drift takes the current's velocity, which
# may be as fast as ``v_max_mps``.  Near sqrt(float max) ~ 1.3e154 m/s that
# product overflows to inf in the survey worker; this bound keeps it finite
# by nearly 300 orders of magnitude.
MAX_SPEED_LIMIT_MPS = 1e6


def wrap_angle(angle: float) -> float:
    """Wrap an angle to (-pi, pi].  Angles already in range pass through
    unchanged (bit-exact)."""
    if -np.pi < angle <= np.pi:
        return float(angle)
    wrapped = float((-angle + np.pi) % TWO_PI)
    return np.pi - wrapped


@dataclass(frozen=True)
class VehicleConfig:
    tau_s: float = 0.5  # first-order velocity response time constant
    v_max_mps: float = 1.0  # per-axis speed clamp (surge/sway)
    heave_max_mps: float = 0.5
    yaw_rate_max: float = 1.0
    cruise_speed_mps: float = 0.5
    capture_radius_m: float = 0.5
    k_waypoint_yaw: float = 1.0  # yaw rate per rad of bearing error
    k_waypoint_surge: float = 0.5  # surge per meter of distance
    k_altitude: float = 1.0  # heave per meter of altitude error

    def __post_init__(self) -> None:
        check_section(self, ("tau_s", lambda: self.tau_s > 0, "must be positive"),
                      ("v_max_mps", lambda: 0 < self.v_max_mps <= MAX_SPEED_LIMIT_MPS, f"must be in (0, {MAX_SPEED_LIMIT_MPS:g}]"),
                      ("heave_max_mps", lambda: self.heave_max_mps > 0, "must be positive"),
                      ("yaw_rate_max", lambda: self.yaw_rate_max > 0, "must be positive"))


@dataclass(frozen=True)
class NoiseConfig:
    """Per-channel sensor noise (standard deviations) and timing."""

    dvl_velocity_sigma: float = 0.02  # m/s per body axis
    dvl_altitude_sigma: float = 0.02  # m
    dvl_max_range_m: float = 1.5  # altitude validity cutoff
    heading_sigma: float = 0.02  # rad
    yaw_rate_sigma: float = 0.005  # rad/s
    depth_sigma: float = 0.02  # m
    usbl_sigma: float = 0.5  # m per axis
    usbl_period_s: float = 1.0  # 0 disables USBL

    def __post_init__(self) -> None:
        names = [f.name for f in fields(self) if f.name.endswith("_sigma")] + ["usbl_period_s"]
        check_section(self, *((name, lambda name=name: getattr(self, name) >= 0, "must be non-negative") for name in names))


@dataclass
class VehicleState:
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0  # depth, positive down
    psi: float = 0.0
    u: float = 0.0  # surge
    v: float = 0.0  # sway (starboard positive)
    w: float = 0.0  # heave (up positive)
    yaw_rate: float = 0.0

    def altitude_above(self, world) -> float:
        """Height above the seafloor: bathymetry depth minus vehicle depth."""
        return world.depth_at(self.x, self.y) - self.z


@dataclass(frozen=True)
class Command:
    surge: float = 0.0
    sway: float = 0.0
    heave: float = 0.0
    yaw_rate: float = 0.0

    def finite(self) -> bool:
        isfinite = math.isfinite
        return isfinite(self.surge) and isfinite(self.sway) and isfinite(self.heave) and isfinite(self.yaw_rate)


def _clip(value: float, lo: float, hi: float) -> float:
    """``np.clip`` for one Python float, without the array round trip."""
    return min(max(value, lo), hi)


@functools.lru_cache(maxsize=8)
def _relaxation(dt: float, tau_s: float) -> float:
    """Fraction of the setpoint gap a first-order lag closes in ``dt``."""
    return float(1.0 - np.exp(-dt / tau_s))


def step_dynamics(state: VehicleState, command: Command, dt: float, config: VehicleConfig) -> VehicleState:
    """Advance the vehicle one step.

    Each body velocity relaxes exponentially toward its (clamped) setpoint
    with time constant ``tau_s``; position then integrates the new body
    velocities rotated by the pre-step heading.
    """
    if not 0.0 < dt <= 0.5:
        raise ValueError("dt must be in (0, 0.5] s")
    if not command.finite():
        raise ValueError("command contains non-finite values")

    c = config
    alpha = _relaxation(dt, c.tau_s)

    u_sp = _clip(command.surge, -c.v_max_mps, c.v_max_mps)
    v_sp = _clip(command.sway, -c.v_max_mps, c.v_max_mps)
    w_sp = _clip(command.heave, -c.heave_max_mps, c.heave_max_mps)
    r_sp = _clip(command.yaw_rate, -c.yaw_rate_max, c.yaw_rate_max)

    u = float(_clip(state.u + alpha * (u_sp - state.u), -c.v_max_mps, c.v_max_mps))
    v = float(_clip(state.v + alpha * (v_sp - state.v), -c.v_max_mps, c.v_max_mps))
    w = float(_clip(state.w + alpha * (w_sp - state.w), -c.heave_max_mps, c.heave_max_mps))
    r = float(_clip(state.yaw_rate + alpha * (r_sp - state.yaw_rate), -c.yaw_rate_max, c.yaw_rate_max))

    cos_psi, sin_psi = math.cos(state.psi), math.sin(state.psi)  # numpy's bits, without the ufunc call
    return VehicleState(
        x=float(state.x + dt * (u * cos_psi - v * sin_psi)),
        y=float(state.y + dt * (u * sin_psi + v * cos_psi)),
        z=float(state.z - dt * w),  # heave positive up, z positive down
        psi=wrap_angle(state.psi + dt * r),
        u=u,
        v=v,
        w=w,
        yaw_rate=r,
    )


@dataclass
class SensorReadings:
    dvl_velocity: np.ndarray  # body (u, v, w)
    dvl_altitude: float
    dvl_altitude_valid: bool
    imu_heading: float
    imu_yaw_rate: float
    depth: float
    usbl: np.ndarray | None  # (x, y) fix or None


def simulate_sensors(
    state: VehicleState,
    world,
    noise: NoiseConfig,
    t: float,
    rng: np.random.Generator,
) -> SensorReadings:
    """Noisy readings of the true state.

    DVL altitude is flagged invalid when the TRUE altitude exceeds the
    sensor's max range.  A USBL fix is emitted only when ``t`` is a multiple
    of the configured period (within floating tolerance).
    """
    true_altitude = state.altitude_above(world)
    altitude_valid = true_altitude <= noise.dvl_max_range_m

    velocity = np.array([state.u, state.v, state.w]) + rng.normal(0.0, noise.dvl_velocity_sigma, 3)
    altitude = true_altitude + rng.normal(0.0, noise.dvl_altitude_sigma)
    heading = wrap_angle(state.psi + rng.normal(0.0, noise.heading_sigma))
    yaw_rate = state.yaw_rate + rng.normal(0.0, noise.yaw_rate_sigma)
    depth = state.z + rng.normal(0.0, noise.depth_sigma)

    usbl = None
    if noise.usbl_period_s > 0:
        cycles = t / noise.usbl_period_s
        if abs(cycles - round(cycles)) < 1e-6 and round(cycles) > 0:
            usbl = np.array([state.x, state.y]) + rng.normal(0.0, noise.usbl_sigma, 2)

    return SensorReadings(
        dvl_velocity=velocity,
        dvl_altitude=float(altitude),
        dvl_altitude_valid=bool(altitude_valid),
        imu_heading=float(heading),
        imu_yaw_rate=float(yaw_rate),
        depth=float(depth),
        usbl=usbl,
    )


@dataclass
class EkfEstimate:
    """Gaussian belief over [x, y, z, psi]."""

    mean: np.ndarray = field(default_factory=lambda: np.zeros(4))
    cov: np.ndarray = field(default_factory=lambda: np.eye(4))

    def validate(self, tol: float = 1e-9) -> None:
        if not np.allclose(self.cov, self.cov.T, atol=tol):
            raise ValueError("covariance not symmetric")
        eigenvalues = np.linalg.eigvalsh(self.cov)
        if eigenvalues.min() < -tol:
            raise ValueError(f"covariance not PSD (min eigenvalue {eigenvalues.min()})")


def _symmetrize(p: np.ndarray) -> np.ndarray:
    return 0.5 * (p + p.T)


def ekf_predict(
    est: EkfEstimate,
    dvl_velocity: np.ndarray,
    imu_yaw_rate: float,
    dt: float,
    noise: NoiseConfig,
) -> EkfEstimate:
    """Dead-reckoning prediction using DVL body velocity and IMU yaw rate.

    The velocities are inputs, so the process noise for the step is the
    input noise mapped through the motion model:
    ``Q = dt^2 diag(s_v^2, s_v^2, s_v^2, s_r^2)``.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    x, y, z, psi = est.mean
    u, v, w = dvl_velocity
    cos_psi, sin_psi = np.cos(psi), np.sin(psi)

    mean = np.array(
        [
            x + dt * (u * cos_psi - v * sin_psi),
            y + dt * (u * sin_psi + v * cos_psi),
            z - dt * w,
            wrap_angle(psi + dt * imu_yaw_rate),
        ]
    )

    jacobian = np.eye(4)
    jacobian[0, 3] = dt * (-u * sin_psi - v * cos_psi)
    jacobian[1, 3] = dt * (u * cos_psi - v * sin_psi)

    q = _process_noise(dt, noise.dvl_velocity_sigma, noise.yaw_rate_sigma)
    cov = _symmetrize(jacobian @ est.cov @ jacobian.T + q)
    return EkfEstimate(mean, cov)


@functools.lru_cache(maxsize=8)
def _process_noise(dt: float, s_v: float, s_r: float) -> np.ndarray:
    q = dt * dt * np.diag([s_v**2, s_v**2, s_v**2, s_r**2])
    q.setflags(write=False)
    return q


# The state index each single-axis channel observes; "usbl" observes 0 and 1.
_SCALAR_CHANNELS = {"depth": 2, "heading": 3}

_IDENTITY = np.eye(4)
_IDENTITY.setflags(write=False)
_IDENTITY_2 = np.eye(2)
_IDENTITY_2.setflags(write=False)


def ekf_update(est: EkfEstimate, kind: str, value, r: float) -> EkfEstimate:
    """Kalman update for one measurement channel.

    ``kind`` selects the linear measurement model: "usbl" observes (x, y),
    "depth" observes z, "heading" observes psi with the innovation wrapped.
    ``r`` is the noise variance of each observed axis, a finite positive
    float; for USBL the measurement covariance is ``r * I``.

    Every channel's ``h`` only selects state entries, so the update needs no
    ``h``: ``S`` is the observed block of ``P`` plus ``r * I``, the gain is
    the observed columns of ``P`` times ``inv(S)`` (``1 / S`` for one axis),
    ``I - K h`` is the identity with the observed columns reduced by the
    gain, and the noise term is ``(K r) K^T``.  Each entry is computed with
    the same operations in the same order as the matrix form, so both give
    bit-identical results; the Joseph product stays a matmul because BLAS
    may fuse its multiply-adds.
    """
    if not (math.isfinite(r) and r > 0):
        raise ValueError("measurement variance must be finite and positive")
    p = est.cov
    factor = _IDENTITY.copy()
    if kind == "usbl":
        z = np.asarray(value, dtype=np.float64)
        if z.shape != (2,):
            raise ValueError("usbl measurement must have shape (2,)")
        gain = p[:, :2] @ np.linalg.inv(p[:2, :2] + r * _IDENTITY_2)
        mean = est.mean + gain @ (z - est.mean[:2])
        factor[:, :2] -= gain
        noise = (gain * r) @ gain.T
    elif kind in _SCALAR_CHANNELS:
        k = _SCALAR_CHANNELS[kind]
        z = np.asarray(value, dtype=np.float64)
        if z.size != 1 or z.ndim > 1:
            raise ValueError(f"{kind} measurement must have shape (1,)")
        innovation = z.item() - est.mean[k]
        if kind == "heading":
            innovation = wrap_angle(innovation)
        gain = p[:, k] * (1.0 / (p[k, k] + r))
        mean = est.mean + gain * innovation
        factor[:, k] -= gain
        noise = (gain * r)[:, None] * gain[None, :]
    else:
        raise ValueError(f"unknown measurement kind: {kind!r}")
    mean[3] = wrap_angle(mean[3])
    # Joseph form keeps the covariance symmetric PSD under roundoff.
    cov = _symmetrize(factor @ p @ factor.T + noise)
    return EkfEstimate(mean, cov)


def altitude_hold_command(altitude: float, valid: bool, setpoint: float, config: VehicleConfig) -> tuple[float, bool]:
    """Proportional altitude hold.

    Returns (heave setpoint, fallback flag).  When the altitude estimate is
    invalid (DVL out of range) the controller falls back to holding depth:
    zero heave with the flag set.
    """
    if not valid or not math.isfinite(altitude):
        return 0.0, True
    heave = config.k_altitude * (setpoint - altitude)
    return float(_clip(heave, -config.heave_max_mps, config.heave_max_mps)), False


def waypoint_command(est_mean: np.ndarray, waypoint: tuple[float, float], config: VehicleConfig) -> tuple[Command, bool]:
    """Proportional guidance toward a waypoint in the horizontal plane.

    Yaw rate is proportional to the wrapped bearing error; surge is
    proportional to distance, clamped to cruise speed, and gated by the
    bearing alignment so the vehicle turns before driving.  Arrival is
    distance <= capture radius (boundary counts as arrived).
    """
    dx = waypoint[0] - est_mean[0]
    dy = waypoint[1] - est_mean[1]
    distance = float(np.hypot(dx, dy))
    if distance <= config.capture_radius_m:
        return Command(), True

    bearing_error = wrap_angle(np.arctan2(dy, dx) - est_mean[3])
    yaw_rate = float(_clip(config.k_waypoint_yaw * bearing_error, -config.yaw_rate_max, config.yaw_rate_max))
    surge = float(_clip(config.k_waypoint_surge * distance, 0.0, config.cruise_speed_mps))
    surge *= max(0.0, float(np.cos(bearing_error)))
    return Command(surge=surge, yaw_rate=yaw_rate), False
