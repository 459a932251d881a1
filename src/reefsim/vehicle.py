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

An :class:`EkfEstimate` holds its mean as four Python floats and its
covariance as the 10 unique entries of the symmetric 4x4 matrix, as
Bierman's scalar-update filters do (*Factorization Methods for Discrete
Sequential Estimation*, 1977).  The motion Jacobian differs from the
identity in two entries and every measurement observes one or two state
entries, so :func:`ekf_predict` and :func:`ekf_update` are closed forms on
floats: no 4x4 array is built in the loop, and the covariance is symmetric
by construction.  The update keeps the Joseph form (Bar-Shalom, Li &
Kirubarajan, *Estimation with Applications to Tracking and Navigation*,
2001): it is the updated covariance for any gain, so roundoff in the gain
moves it only to second order, where the short form ``P - K C^T`` moves to
first order and can lose definiteness.  The two functions are the only
implementation: they take arrays or floats at their boundary and work on
floats inside.

The guidance and altitude-hold constants, ``CRUISE_SPEED_MPS``,
``CAPTURE_RADIUS_M``, ``K_WAYPOINT_YAW``, ``K_WAYPOINT_SURGE`` and
``K_ALTITUDE``, are the method's; :class:`VehicleConfig` holds the plant.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, fields

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

CRUISE_SPEED_MPS = 0.5
CAPTURE_RADIUS_M = 0.5  # a waypoint this close or closer is reached
K_WAYPOINT_YAW = 1.0  # yaw rate per rad of bearing error
K_WAYPOINT_SURGE = 0.5  # surge per meter of distance
K_ALTITUDE = 1.0  # heave per meter of altitude error


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
    dvl_velocity: tuple[float, float, float]  # body (u, v, w)
    dvl_altitude: float
    dvl_altitude_valid: bool
    imu_heading: float
    imu_yaw_rate: float
    depth: float
    usbl: tuple[float, float] | None  # (x, y) fix or None


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

    The noise of a call is one ``standard_normal`` draw: the three DVL
    velocity axes, altitude, heading, yaw rate and depth, then the two USBL
    axes when a fix is due.  Each channel adds ``0.0 + sigma * z``, which is
    what ``rng.normal(0.0, sigma)`` computes from the same draw, so the
    readings are those of one ``rng.normal`` call per channel, bit for bit.
    """
    true_altitude = state.altitude_above(world)
    altitude_valid = true_altitude <= noise.dvl_max_range_m

    fix_due = False
    if noise.usbl_period_s > 0:
        cycles = t / noise.usbl_period_s
        fix_due = abs(cycles - round(cycles)) < 1e-6 and round(cycles) > 0
    z = rng.standard_normal(9 if fix_due else 7).tolist()

    s_v = noise.dvl_velocity_sigma
    velocity = (state.u + (0.0 + s_v * z[0]), state.v + (0.0 + s_v * z[1]), state.w + (0.0 + s_v * z[2]))
    usbl = None
    if fix_due:
        usbl = (state.x + (0.0 + noise.usbl_sigma * z[7]), state.y + (0.0 + noise.usbl_sigma * z[8]))

    return SensorReadings(
        dvl_velocity=velocity,
        dvl_altitude=true_altitude + (0.0 + noise.dvl_altitude_sigma * z[3]),
        dvl_altitude_valid=bool(altitude_valid),
        imu_heading=wrap_angle(state.psi + (0.0 + noise.heading_sigma * z[4])),
        imu_yaw_rate=state.yaw_rate + (0.0 + noise.yaw_rate_sigma * z[5]),
        depth=state.z + (0.0 + noise.depth_sigma * z[6]),
        usbl=usbl,
    )


# The covariance's 10 unique entries in the order an estimate stores them:
# the upper triangle of the symmetric 4x4 matrix, row by row.
_PACKED_ROWS, _PACKED_COLS = np.triu_indices(4)
# The packed positions of each state's column of the covariance.
_COLUMNS = [operator.itemgetter(0, 1, 2, 3), operator.itemgetter(1, 4, 5, 6),
            operator.itemgetter(2, 5, 7, 8), operator.itemgetter(3, 6, 8, 9)]


@dataclass
class EkfEstimate:
    """Gaussian belief over [x, y, z, psi].

    ``mean`` holds the four state floats and ``p`` the covariance's 10
    unique entries, ``(P00, P01, P02, P03, P11, P12, P13, P22, P23, P33)``,
    so the covariance is symmetric by construction.  :meth:`from_arrays`
    builds an estimate from a mean and a 4x4 covariance; :attr:`cov` gives
    the covariance back as a 4x4 array."""

    mean: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    p: tuple[float, ...] = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0)

    @classmethod
    def from_arrays(cls, mean, cov) -> "EkfEstimate":
        """An estimate from a length-4 mean and a 4x4 covariance, of which
        the upper triangle is read."""
        mean, cov = np.asarray(mean, dtype=np.float64), np.asarray(cov, dtype=np.float64)
        if mean.shape != (4,) or cov.shape != (4, 4):
            raise ValueError("an estimate takes a mean of shape (4,) and a covariance of shape (4, 4)")
        return cls(tuple(mean.tolist()), tuple(cov[_PACKED_ROWS, _PACKED_COLS].tolist()))

    @property
    def cov(self) -> np.ndarray:
        """The covariance as a symmetric 4x4 array."""
        cov = np.empty((4, 4))
        cov[_PACKED_ROWS, _PACKED_COLS] = self.p
        cov[_PACKED_COLS, _PACKED_ROWS] = self.p
        return cov

    @property
    def variances(self) -> tuple[float, float, float, float]:
        """The covariance's diagonal."""
        p = self.p
        return p[0], p[4], p[7], p[9]

    def validate(self, tol: float = 1e-9) -> None:
        """Raise ``ValueError`` unless the covariance is positive
        semidefinite to ``tol``; it is symmetric by construction."""
        eigenvalues = np.linalg.eigvalsh(self.cov)
        if not eigenvalues.min() >= -tol:
            raise ValueError(f"covariance not PSD (min eigenvalue {eigenvalues.min()})")


def ekf_predict(
    est: EkfEstimate,
    dvl_velocity,
    imu_yaw_rate: float,
    dt: float,
    noise: NoiseConfig,
) -> EkfEstimate:
    """Dead-reckoning prediction using DVL body velocity and IMU yaw rate.

    The velocities are inputs, so the process noise for the step is the
    input noise mapped through the motion model:
    ``Q = dt^2 diag(s_v^2, s_v^2, s_v^2, s_r^2)``.  The motion Jacobian is
    the identity but for ``a = dx'/dpsi`` and ``b = dy'/dpsi``, so
    ``F P F^T`` changes only the entries in row or column 0 or 1, in closed
    form.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    x, y, z, psi = est.mean
    u, v, w = map(float, dvl_velocity)
    cos_psi, sin_psi = math.cos(psi), math.sin(psi)
    mean = (
        x + dt * (u * cos_psi - v * sin_psi),
        y + dt * (u * sin_psi + v * cos_psi),
        z - dt * w,
        wrap_angle(psi + dt * float(imu_yaw_rate)),
    )

    a = dt * (-u * sin_psi - v * cos_psi)
    b = dt * (u * cos_psi - v * sin_psi)
    q_v = dt * dt * noise.dvl_velocity_sigma**2
    q_r = dt * dt * noise.yaw_rate_sigma**2
    p00, p01, p02, p03, p11, p12, p13, p22, p23, p33 = est.p
    c03 = p03 + a * p33  # row 0 and row 1 of F P, column 3
    c13 = p13 + b * p33
    cov = (
        p00 + a * p03 + a * c03 + q_v, p01 + a * p13 + b * c03, p02 + a * p23, c03,
        p11 + b * p13 + b * c13 + q_v, p12 + b * p23, c13,
        p22 + q_v, p23,
        p33 + q_r,
    )
    return EkfEstimate(mean, cov)


# The axes each measurement channel observes: "usbl" observes x and y.
_OBSERVED = {"usbl": (0, 1), "depth": (2,), "heading": (3,)}


def _measurement(kind: str, value) -> list[float]:
    """The measurement as one float per axis the channel observes."""
    if kind not in _OBSERVED:
        raise ValueError(f"unknown measurement kind: {kind!r}")
    if type(value) is not float:
        array = np.asarray(value, dtype=np.float64)
        value = array.tolist() if array.ndim <= 1 else None
    z = [value] if type(value) is float else value
    if z is None or len(z) != len(_OBSERVED[kind]):
        raise ValueError(f"{kind} measurement must have shape ({len(_OBSERVED[kind])},)")
    return z


def _joseph(p: tuple, g, c, h) -> tuple:
    """``P - g c^T - c g^T + g h^T`` packed, the Joseph-form terms of one
    observed axis: ``g`` is its gain column, ``c`` its column of the prior
    covariance and ``h`` the matching column of ``K S``."""
    p00, p01, p02, p03, p11, p12, p13, p22, p23, p33 = p
    g0, g1, g2, g3 = g
    c0, c1, c2, c3 = c
    h0, h1, h2, h3 = h
    return (
        p00 - g0 * c0 - c0 * g0 + g0 * h0, p01 - g0 * c1 - c0 * g1 + g0 * h1,
        p02 - g0 * c2 - c0 * g2 + g0 * h2, p03 - g0 * c3 - c0 * g3 + g0 * h3,
        p11 - g1 * c1 - c1 * g1 + g1 * h1, p12 - g1 * c2 - c1 * g2 + g1 * h2, p13 - g1 * c3 - c1 * g3 + g1 * h3,
        p22 - g2 * c2 - c2 * g2 + g2 * h2, p23 - g2 * c3 - c2 * g3 + g2 * h3,
        p33 - g3 * c3 - c3 * g3 + g3 * h3,
    )


def ekf_update(est: EkfEstimate, kind: str, value, r: float) -> EkfEstimate:
    """Kalman update for one measurement channel.

    ``kind`` selects the linear measurement model: "usbl" observes (x, y),
    "depth" observes z, "heading" observes psi with the innovation wrapped.
    ``r`` is the noise variance of each observed axis, a finite positive
    float; for USBL the measurement covariance is ``r * I``.

    Every channel's ``h`` only selects state entries, so ``S`` is the
    observed block of ``P`` plus ``r * I``, and the gain ``K = C inv(S)``,
    where ``C`` holds the observed columns of ``P``: ``1 / S`` for one axis,
    the closed-form 2x2 inverse for USBL.  The covariance is the Joseph
    form ``(I - K h) P (I - K h)^T + K R K^T``, expanded as
    ``P - K C^T - C K^T + K S K^T``, one observed axis at a time.
    """
    if not (math.isfinite(r) and r > 0):
        raise ValueError("measurement variance must be finite and positive")
    z = _measurement(kind, value)
    p = est.p
    if kind == "usbl":
        c0, c1 = _COLUMNS[0](p), _COLUMNS[1](p)
        s00, s01, s11 = p[0] + r, p[1], p[4] + r
        inv_det = 1.0 / (s00 * s11 - s01 * s01)
        k0 = [(a * s11 - b * s01) * inv_det for a, b in zip(c0, c1)]
        k1 = [(b * s00 - a * s01) * inv_det for a, b in zip(c0, c1)]
        nu0, nu1 = z[0] - est.mean[0], z[1] - est.mean[1]
        mean = [m + a * nu0 + b * nu1 for m, a, b in zip(est.mean, k0, k1)]
        d0 = [a * s00 + b * s01 for a, b in zip(k0, k1)]  # the columns of K S
        d1 = [a * s01 + b * s11 for a, b in zip(k0, k1)]
        cov = _joseph(_joseph(p, k0, c0, d0), k1, c1, d1)
    else:
        (k,) = _OBSERVED[kind]
        c = _COLUMNS[k](p)
        s = c[k] + r
        inv_s = 1.0 / s
        gain = [ci * inv_s for ci in c]
        innovation = z[0] - est.mean[k]
        if kind == "heading":
            innovation = wrap_angle(innovation)
        mean = [m + g * innovation for m, g in zip(est.mean, gain)]
        cov = _joseph(p, gain, c, [s * g for g in gain])
    mean[3] = wrap_angle(mean[3])
    return EkfEstimate(tuple(mean), cov)


def altitude_hold_command(altitude: float, valid: bool, setpoint: float, config: VehicleConfig) -> float:
    """Proportional altitude hold: the heave setpoint.  When the altitude
    estimate is invalid (DVL out of range) the controller falls back to
    holding depth: zero heave.
    """
    if not valid or not math.isfinite(altitude):
        return 0.0
    heave = K_ALTITUDE * (setpoint - altitude)
    return float(_clip(heave, -config.heave_max_mps, config.heave_max_mps))


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
    if distance <= CAPTURE_RADIUS_M:
        return Command(), True

    bearing_error = wrap_angle(np.arctan2(dy, dx) - est_mean[3])
    yaw_rate = float(_clip(K_WAYPOINT_YAW * bearing_error, -config.yaw_rate_max, config.yaw_rate_max))
    surge = float(_clip(K_WAYPOINT_SURGE * distance, 0.0, CRUISE_SPEED_MPS))
    surge *= max(0.0, float(np.cos(bearing_error)))
    return Command(surge=surge, yaw_rate=yaw_rate), False
