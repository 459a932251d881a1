from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from filter_run import filter_run
from panels import DRIFT_RUNS, NEES_RUNS, dead_reckoning_rms, nees_run
from scipy.stats import chi2

from reefsim.rng import substream
from reefsim.vehicle import (
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
    wrap_angle,
)

CFG = VehicleConfig()


class TestWrapAngle:
    @pytest.mark.parametrize(
        "angle,expected",
        [(0.0, 0.0), (np.pi, np.pi), (-np.pi, np.pi), (3 * np.pi / 2, -np.pi / 2), (2 * np.pi, 0.0)],
    )
    def test_reference_values(self, angle, expected) -> None:
        assert wrap_angle(angle) == pytest.approx(expected)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=-100.0, max_value=100.0))
    def test_always_lands_in_half_open_interval(self, angle) -> None:
        wrapped = wrap_angle(angle)
        assert -np.pi < wrapped <= np.pi
        # same direction modulo 2 pi
        assert abs((wrapped - angle) % (2 * np.pi)) < 1e-9 or abs((wrapped - angle) % (2 * np.pi) - 2 * np.pi) < 1e-9


class TestStepDynamics:
    def test_zero_command_from_rest_leaves_state_unchanged(self) -> None:
        state = VehicleState(x=3.0, y=4.0, z=5.0, psi=0.7)
        new = step_dynamics(state, Command(), 0.05, CFG)
        assert new == state

    def test_first_order_step_response_reaches_setpoint(self) -> None:
        # Oracle: closed-form step response u(t) = s (1 - exp(-t / tau)).
        state = VehicleState()
        setpoint = 0.4
        dt, t_end = 0.05, 10 * CFG.tau_s
        for _ in range(int(t_end / dt)):
            state = step_dynamics(state, Command(surge=setpoint), dt, CFG)
        expected = setpoint * (1 - np.exp(-t_end / CFG.tau_s))
        assert state.u == pytest.approx(expected, rel=1e-6)
        assert abs(state.u - setpoint) < 0.01 * setpoint

    def test_heading_integrates_constant_yaw_rate(self) -> None:
        rate = 0.3
        state = VehicleState(yaw_rate=rate)
        dt, steps = 0.05, 200
        for _ in range(steps):
            state = step_dynamics(state, Command(yaw_rate=rate), dt, CFG)
        assert state.psi == pytest.approx(wrap_angle(rate * dt * steps), abs=1e-9)

    def test_heave_moves_up_means_depth_decreases(self) -> None:
        state = VehicleState(z=5.0, w=0.2)
        new = step_dynamics(state, Command(heave=0.2), 0.1, CFG)
        assert new.z < 5.0

    def test_speeds_clamped_to_limits(self) -> None:
        state = VehicleState()
        for _ in range(400):
            state = step_dynamics(state, Command(surge=99.0, sway=-99.0, heave=99.0, yaw_rate=-99.0), 0.05, CFG)
        assert state.u <= CFG.v_max_mps
        assert state.v >= -CFG.v_max_mps
        assert state.w <= CFG.heave_max_mps
        assert state.yaw_rate >= -CFG.yaw_rate_max

    def test_bad_dt_rejected(self) -> None:
        with pytest.raises(ValueError):
            step_dynamics(VehicleState(), Command(), 0.0, CFG)
        with pytest.raises(ValueError):
            step_dynamics(VehicleState(), Command(), 0.6, CFG)

    def test_non_finite_command_rejected(self) -> None:
        with pytest.raises(ValueError):
            step_dynamics(VehicleState(), Command(surge=np.nan), 0.05, CFG)


class TestSimulateSensors:
    def test_zero_noise_reads_ground_truth(self, default_world) -> None:
        noise = NoiseConfig(
            dvl_velocity_sigma=0.0,
            dvl_altitude_sigma=0.0,
            heading_sigma=0.0,
            yaw_rate_sigma=0.0,
            depth_sigma=0.0,
            usbl_sigma=0.0,
        )
        state = VehicleState(x=5.0, y=5.0, z=7.0, psi=0.3, u=0.2, v=0.05, w=-0.02, yaw_rate=0.1)
        readings = simulate_sensors(state, default_world, noise, t=1.0, rng=substream(0, "s"))
        np.testing.assert_allclose(readings.dvl_velocity, [0.2, 0.05, -0.02])
        assert readings.imu_heading == pytest.approx(0.3)
        assert readings.imu_yaw_rate == pytest.approx(0.1)
        assert readings.depth == pytest.approx(7.0)
        assert readings.dvl_altitude == pytest.approx(state.altitude_above(default_world))
        np.testing.assert_allclose(readings.usbl, [5.0, 5.0])

    def test_altitude_beyond_max_range_flagged_invalid(self, default_world) -> None:
        depth_here = default_world.depth_at(5.0, 5.0)
        state = VehicleState(x=5.0, y=5.0, z=depth_here - 2.0)  # true altitude 2 m
        readings = simulate_sensors(state, default_world, NoiseConfig(dvl_max_range_m=1.5), 0.5, substream(1, "s"))
        assert not readings.dvl_altitude_valid

    def test_usbl_fix_count_over_ten_seconds(self, default_world) -> None:
        noise = NoiseConfig(usbl_period_s=1.0)
        state = VehicleState(x=5.0, y=5.0, z=6.0)
        rng = substream(2, "s")
        fixes = sum(
            simulate_sensors(state, default_world, noise, t=round(k * 0.05, 10), rng=rng).usbl is not None
            for k in range(1, 201)  # t = 0.05 .. 10.0
        )
        assert fixes == 10


class TestEkfPredict:
    def test_zero_velocity_keeps_mean_and_grows_covariance_by_q(self) -> None:
        noise = NoiseConfig()
        est = EkfEstimate.from_arrays([1.0, 2.0, 3.0, 0.5], np.diag([0.1, 0.1, 0.1, 0.01]))
        dt = 0.1
        new = ekf_predict(est, np.zeros(3), 0.0, dt, noise)
        np.testing.assert_allclose(new.mean, est.mean)
        s_v, s_r = noise.dvl_velocity_sigma, noise.yaw_rate_sigma
        q = dt * dt * np.diag([s_v**2, s_v**2, s_v**2, s_r**2])
        np.testing.assert_allclose(new.cov, est.cov + q, atol=1e-12)

    def test_trace_never_decreases_with_zero_velocity(self) -> None:
        # With zero body velocity the motion Jacobian is the identity, so
        # the covariance can only grow by the (PSD) process noise.
        est = EkfEstimate.from_arrays(np.zeros(4), np.diag([0.5, 0.5, 0.2, 0.05]))
        rng = substream(3, "trace")
        for _ in range(50):
            new = ekf_predict(est, np.zeros(3), rng.normal(0, 0.2), 0.05, NoiseConfig())
            assert np.trace(new.cov) >= np.trace(est.cov) - 1e-12
            est = new

    def test_exact_inputs_track_dead_reckoning_oracle(self) -> None:
        # Oracle: independent dead-reckoning integration of the same inputs.
        noise = NoiseConfig()
        dt = 0.05
        est = EkfEstimate.from_arrays([2.0, 3.0, 5.0, 0.2], np.eye(4) * 1e-6)
        oracle = np.array(est.mean)
        rng = substream(4, "dr")
        for _ in range(500):
            velocity = rng.normal(0, 0.3, 3)
            yaw_rate = rng.normal(0, 0.1)
            est = ekf_predict(est, velocity, yaw_rate, dt, noise)
            cos_psi, sin_psi = np.cos(oracle[3]), np.sin(oracle[3])
            oracle = np.array(
                [
                    oracle[0] + dt * (velocity[0] * cos_psi - velocity[1] * sin_psi),
                    oracle[1] + dt * (velocity[0] * sin_psi + velocity[1] * cos_psi),
                    oracle[2] - dt * velocity[2],
                    wrap_angle(oracle[3] + dt * yaw_rate),
                ]
            )
        np.testing.assert_allclose(est.mean, oracle, atol=1e-9)

    def test_bad_dt_rejected(self) -> None:
        with pytest.raises(ValueError):
            ekf_predict(EkfEstimate(), np.zeros(3), 0.0, 0.0, NoiseConfig())


class TestEkfUpdate:
    def test_measurement_at_predicted_mean_leaves_mean_unchanged(self) -> None:
        est = EkfEstimate.from_arrays([1.0, 2.0, 3.0, 0.5], np.diag([0.3, 0.3, 0.1, 0.02]))
        new = ekf_update(est, "usbl", [1.0, 2.0], 0.25)
        np.testing.assert_allclose(new.mean, est.mean, atol=1e-12)

    def test_infinite_noise_limit_is_a_noop(self) -> None:
        est = EkfEstimate.from_arrays([1.0, 2.0, 3.0, 0.5], np.diag([0.3, 0.3, 0.1, 0.02]))
        new = ekf_update(est, "usbl", [50.0, -40.0], 1e12)
        np.testing.assert_allclose(new.mean, est.mean, atol=1e-6)
        np.testing.assert_allclose(new.cov, est.cov, atol=1e-6)

    def test_covariance_trace_does_not_increase(self) -> None:
        est = EkfEstimate.from_arrays(np.zeros(4), np.diag([1.0, 1.0, 0.5, 0.1]))
        new = ekf_update(est, "depth", 0.3, 0.01)
        assert np.trace(new.cov) <= np.trace(est.cov) + 1e-12

    def test_heading_wrap_equivalence(self) -> None:
        est = EkfEstimate.from_arrays([0.0, 0.0, 0.0, 3.0], np.diag([0.1, 0.1, 0.1, 0.4]))
        psi = 3.1
        a = ekf_update(est, "heading", psi, 0.01)
        b = ekf_update(est, "heading", psi + 2 * np.pi, 0.01)
        np.testing.assert_allclose(a.mean, b.mean, atol=1e-12)
        np.testing.assert_allclose(a.cov, b.cov, atol=1e-12)

    def test_non_pd_noise_rejected(self) -> None:
        for r in (0.0, -0.01, np.nan, np.inf):
            with pytest.raises(ValueError):
                ekf_update(EkfEstimate(), "usbl", [0.0, 0.0], r)

    def test_covariance_stays_symmetric_psd_through_long_sequence(self) -> None:
        noise = NoiseConfig()
        est = EkfEstimate.from_arrays(np.zeros(4), np.diag([0.25, 0.25, 0.04, 0.01]))
        rng = substream(6, "psd")
        for k in range(10_000):
            est = ekf_predict(est, rng.normal(0, 0.3, 3), rng.normal(0, 0.1), 0.05, noise)
            est = ekf_update(est, "depth", rng.normal(5, 0.1), noise.depth_sigma**2)
            est = ekf_update(est, "heading", rng.normal(0, 0.3), noise.heading_sigma**2)
            if k % 20 == 0:
                est = ekf_update(est, "usbl", rng.normal(0, 1.0, 2), noise.usbl_sigma**2)
            cov = est.cov
            assert np.array_equal(cov, cov.T)
            est.validate()


def matrix_form_update(est: EkfEstimate, kind: str, value, r: float) -> EkfEstimate:
    """Reference: the general matrix Kalman update, ``R = r I``."""
    h = {"usbl": np.eye(4)[:2], "depth": np.eye(4)[2:3], "heading": np.eye(4)[3:]}[kind]
    z = np.atleast_1d(np.asarray(value, dtype=np.float64))
    r_mat = r * np.eye(len(h))
    innovation = z - h @ est.mean
    if kind == "heading":
        innovation[0] = wrap_angle(innovation[0])
    s = h @ est.cov @ h.T + r_mat
    gain = est.cov @ h.T @ np.linalg.inv(s)
    mean = est.mean + gain @ innovation
    mean[3] = wrap_angle(mean[3])
    factor = np.eye(4) - gain @ h
    cov = factor @ est.cov @ factor.T + gain @ r_mat @ gain.T
    return EkfEstimate.from_arrays(mean, 0.5 * (cov + cov.T))


class TestScalarEkfUpdate:
    @staticmethod
    def random_estimate(rng: np.random.Generator, psi: float | None = None) -> EkfEstimate:
        a = rng.standard_normal((4, 4))
        mean = rng.normal(0.0, 5.0, 4)
        mean[3] = rng.uniform(-np.pi, np.pi) if psi is None else psi
        return EkfEstimate.from_arrays(mean, a @ a.T + 1e-3 * np.eye(4))

    # The closed-form update and the matrix form sum in different orders, and
    # BLAS may fuse the matrix form's multiply-adds, so the two agree to
    # roundoff, not bit for bit: within 1e-14 of the largest prior covariance
    # entry (about 45 ulps), and of the mean's scale.
    TOLERANCE = 1e-14

    @classmethod
    def assert_matches(cls, got: EkfEstimate, expected: EkfEstimate, prior: EkfEstimate) -> None:
        np.testing.assert_allclose(got.cov, expected.cov, rtol=0, atol=cls.TOLERANCE * np.max(np.abs(prior.cov)))
        np.testing.assert_allclose(got.mean, expected.mean, rtol=0, atol=cls.TOLERANCE * (1.0 + np.max(np.abs(expected.mean))))

    @pytest.mark.parametrize("kind", ["depth", "heading", "usbl"])
    def test_matches_matrix_form_to_roundoff(self, kind) -> None:
        rng = substream(21, "scalar-ekf", kind)
        for _ in range(200):
            est = self.random_estimate(rng)
            if kind == "usbl":
                value = rng.normal(est.mean[:2], 1.0)
            else:
                value = rng.normal(est.mean[2], 1.0) if kind == "depth" else rng.uniform(-np.pi, np.pi)
            r = rng.uniform(1e-4, 1.0)
            self.assert_matches(ekf_update(est, kind, value, r), matrix_form_update(est, kind, value, r), est)

    def test_heading_wrap_matches_matrix_form_to_roundoff(self) -> None:
        rng = substream(22, "scalar-ekf-wrap")
        for psi, value in ((3.1, -3.1), (-3.1, 3.1), (np.pi, -np.pi + 1e-3), (0.2, 0.2 + 4 * np.pi)):
            est = self.random_estimate(rng, psi)
            got = ekf_update(est, "heading", value, 0.01)
            self.assert_matches(got, matrix_form_update(est, "heading", value, 0.01), est)
            assert -np.pi < got.mean[3] <= np.pi

    @pytest.mark.parametrize("r", [0.0, -0.01, np.nan, np.inf])
    @pytest.mark.parametrize("kind", ["depth", "heading"])
    def test_non_positive_noise_rejected(self, kind, r) -> None:
        with pytest.raises(ValueError):
            ekf_update(EkfEstimate(), kind, 0.0, r)

    def test_wrong_shapes_rejected(self) -> None:
        with pytest.raises(ValueError):
            ekf_update(EkfEstimate(), "depth", [0.0, 1.0], 0.01)
        with pytest.raises(ValueError):
            ekf_update(EkfEstimate(), "usbl", [0.0], 0.01)


class TestFilterConsistency:
    def test_monte_carlo_nees_inside_chi2_envelope(self) -> None:
        # Oracle: Monte Carlo consistency test; the ensemble-average NEES of
        # a consistent 4-state filter lives in the 95% chi-square envelope.
        # The runs are criterion 4c's.
        n_runs = NEES_RUNS
        nees = np.stack([nees_run(run)[0] for run in range(n_runs)])
        average = nees.mean(axis=0)
        lo = chi2.ppf(0.025, 4 * n_runs) / n_runs
        hi = chi2.ppf(0.975, 4 * n_runs) / n_runs
        assert lo <= average.mean() <= hi
        assert np.mean((average >= lo) & (average <= hi)) >= 0.9

    def test_steady_state_rms_bounded_by_twice_usbl_sigma(self) -> None:
        noise = NoiseConfig()
        errors = []
        for truth, est in filter_run("mc", 7, 6000, noise):
            errors.append(np.hypot(truth[0] - est.mean[0], truth[1] - est.mean[1]))
        errors = np.asarray(errors)
        steady = errors[1200:]  # after 60 s
        assert np.sqrt(np.mean(steady**2)) <= 2 * noise.usbl_sigma

    def test_dead_reckoning_drift_grows(self) -> None:
        # Random-walk drift: a single run can wander back toward zero, so
        # average the windowed RMS over a few runs (criterion 4b's).
        rms_60, rms_600 = zip(*(dead_reckoning_rms(seed) for seed in range(DRIFT_RUNS)))
        assert np.mean(rms_600) > np.mean(rms_60)


class TestAltitudeHold:
    def test_at_setpoint_commands_zero(self) -> None:
        heave, fallback = altitude_hold_command(1.0, True, 1.0, CFG)
        assert heave == 0.0 and not fallback

    def test_below_setpoint_commands_ascent(self) -> None:
        heave, fallback = altitude_hold_command(0.5, True, 1.0, CFG)
        assert heave > 0.0 and not fallback

    def test_invalid_altitude_falls_back_to_depth_hold(self) -> None:
        heave, fallback = altitude_hold_command(2.5, False, 1.0, CFG)
        assert heave == 0.0 and fallback


class TestWaypointCommand:
    def test_at_waypoint_reports_arrival_with_zero_command(self) -> None:
        command, arrived = waypoint_command(np.array([3.0, 4.0, 0.0, 0.0]), (3.0, 4.0), CFG)
        assert arrived
        assert command == Command()

    def test_capture_boundary_counts_as_arrived(self) -> None:
        _, arrived = waypoint_command(np.array([0.0, 0.0, 0.0, 0.0]), (CFG.capture_radius_m, 0.0), CFG)
        assert arrived

    def test_waypoint_dead_ahead_commands_full_cruise_no_yaw(self) -> None:
        command, arrived = waypoint_command(np.array([0.0, 0.0, 0.0, 0.0]), (100.0, 0.0), CFG)
        assert not arrived
        assert command.surge == pytest.approx(CFG.cruise_speed_mps)
        assert command.yaw_rate == 0.0

    def test_waypoint_behind_commands_maximal_turn(self) -> None:
        command, _ = waypoint_command(np.array([0.0, 0.0, 0.0, 0.0]), (-100.0, 1e-9), CFG)
        assert abs(command.yaw_rate) == pytest.approx(CFG.yaw_rate_max)
        # shortest turn toward +y here
        assert command.yaw_rate > 0
