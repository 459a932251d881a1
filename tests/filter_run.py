"""The truth/filter simulation shared by the EKF consistency and drift tests."""

from __future__ import annotations

import numpy as np

from reefsim.rng import substream
from reefsim.vehicle import EkfEstimate, NoiseConfig, ekf_predict, ekf_update, wrap_angle


def filter_run(stream: str, seed: int, n_steps: int, noise: NoiseConfig, exact_start: bool = False, dt: float = 0.05):
    """Truth moves at constant body velocity with a gentle turn; the filter
    sees noisy inputs and measurements drawn from the same models, from the
    substream ``(seed, stream)``.  The initial estimate is drawn from the
    prior (as NEES consistency requires) unless ``exact_start`` pins it to
    the truth (a known initial fix, for drift-growth experiments).  USBL
    fixes arrive every ``noise.usbl_period_s``, none when it is 0.  Yields
    (truth, estimate) after every step.
    """
    rng = substream(seed, stream)
    p0 = np.diag([0.25, 0.25, 0.04, 0.01])
    truth = np.array([5.0, 5.0, 7.0, 0.3])
    if exact_start:
        est = EkfEstimate.from_arrays(truth, np.eye(4) * 1e-6)
    else:
        est = EkfEstimate.from_arrays(truth + rng.multivariate_normal(np.zeros(4), p0), p0)
    u, v, w_up, r = 0.4, 0.0, 0.0, 0.05
    for k in range(n_steps):
        t = (k + 1) * dt
        cos_psi, sin_psi = np.cos(truth[3]), np.sin(truth[3])
        truth = np.array(
            [
                truth[0] + dt * (u * cos_psi - v * sin_psi),
                truth[1] + dt * (u * sin_psi + v * cos_psi),
                truth[2] - dt * w_up,
                wrap_angle(truth[3] + dt * r),
            ]
        )
        velocity = np.array([u, v, w_up]) + rng.normal(0, noise.dvl_velocity_sigma, 3)
        yaw_rate = r + rng.normal(0, noise.yaw_rate_sigma)
        est = ekf_predict(est, velocity, yaw_rate, dt, noise)
        est = ekf_update(est, "depth", truth[2] + rng.normal(0, noise.depth_sigma), noise.depth_sigma**2)
        est = ekf_update(est, "heading", wrap_angle(truth[3] + rng.normal(0, noise.heading_sigma)), noise.heading_sigma**2)
        if noise.usbl_period_s > 0:
            cycles = t / noise.usbl_period_s
            if abs(cycles - round(cycles)) < 1e-6 and round(cycles) > 0:
                est = ekf_update(est, "usbl", truth[:2] + rng.normal(0, noise.usbl_sigma, 2), noise.usbl_sigma**2)
        yield truth.copy(), est
