"""Seeded Monte Carlo panels that more than one test reads, each computed
once per session.

The acceptance criteria and the unit tests that check the same behaviour
share these runs: each function is cached per seed, so a panel costs its
episodes, windows or filter runs once however many tests read it, and a
full-acceptance run (100 seeds) computes each seed once too.  A cached
value is a small summary, never a whole log, and no test may mutate one.
"""

from __future__ import annotations

import functools

import numpy as np
from filter_run import filter_run

from reefsim.acoustics import band_energy, detect_snaps_in_window, hann_window, stft
from reefsim.rng import substream
from reefsim.tracking import Camera, DistractorConfig, TargetConfig, TrackingConfig, run_tracking_episode
from reefsim.vehicle import NoiseConfig, VehicleConfig, wrap_angle
from reefsim.world import GridWorld, WorldConfig, generate_world, make_snap_bursts, synthesize_audio

# --- follow episodes (criteria 5a and 5b, tests/test_tracking.py) ------------

FOLLOW_TARGETS = {
    "cruiser": TrackingConfig(),  # default noise, 0.25 m/s midwater cruiser
    "benthic-distractor": TrackingConfig(
        target=TargetConfig(
            kind="benthic-glider",
            speed_mps=0.15,
            heading_walk_sigma=0.05,
            distractor=DistractorConfig(switch_prob_per_s=0.02, mean_lock_s=3.0),
        )
    ),
}


@functools.cache
def track_world() -> GridWorld:
    """The 60 m open world, seed 5, that every follow episode runs in."""
    return generate_world(WorldConfig(width_m=60.0, height_m=60.0, snap_rates_per_s=(0.0, 0.0, 0.0)), seed=5)


@functools.cache
def follow_summary(target: str, seed: int) -> dict:
    """``TrackLog.summary`` of one 300 s episode following ``FOLLOW_TARGETS[target]``."""
    log = run_tracking_episode(track_world(), VehicleConfig(), FOLLOW_TARGETS[target], 300.0, seed=seed)
    return log.summary(Camera())


# --- snap detector at 10 dB (criterion 2, tests/test_acoustics.py) -----------

FS = 96_000


def snr_amplitude(target_snr_db: float, background_sigma: float, fs: int, window: int = 1024) -> float:
    """Amplitude giving the requested in-band energy SNR: the burst's
    contribution to a frame's band magnitude-squared sum over the mean
    background band sum per frame.

    A short burst of time energy E windowed at mean Hann-squared gain adds
    about (window/2) * E * gain to the raw band sum (Parseval, interior
    bins counted once in the band sum but twice in the energy identity).
    """
    rng = substream(0, "snr-calib")
    burst_energy = np.mean([np.sum(make_snap_bursts(fs, 1, rng)[0] ** 2) for _ in range(200)])
    noise = np.random.default_rng(1).normal(0.0, background_sigma, fs)
    bg_frame = float(np.mean(band_energy(stft(noise, fs, window=window))))
    gain = float(np.mean(hann_window(window) ** 2))
    burst_band_sum = burst_energy * gain * window / 2.0
    return float(np.sqrt(10 ** (target_snr_db / 10.0) * bg_frame / burst_band_sum))


@functools.cache
def detector_world() -> GridWorld:
    """A silent default world with one emitter, 2 snaps/s in cell (10, 10),
    whose snaps reach about 10 dB in-band SNR over the background."""
    background = 0.003
    amplitude = snr_amplitude(10.0, background, FS)
    config = WorldConfig(snap_rates_per_s=(0.0, 0.0, 0.0), snap_amplitude=amplitude, background_sigma=background)
    world = generate_world(config, seed=0)
    world.snap_rate[10, 10] = 2.0
    return world


@functools.cache
def detector_panel() -> tuple[int, int, int]:
    """``(matched, truth_total, detected_total)`` over 40 seeded 10 s windows
    at the emitter.  A detection matches a true snap within +-2 ms, and each
    detection matches at most one snap."""
    matched = truth_total = detected_total = 0
    for seed in range(40):
        window = synthesize_audio(detector_world(), 10.5, 10.5, 10.0, FS, False, substream(seed, "pr"))
        detection = detect_snaps_in_window(window)
        detected_total += detection.count
        truth_total += len(window.truth_snap_times)
        used: set[int] = set()
        for t in window.truth_snap_times:
            if detection.count == 0:
                continue
            j = int(np.argmin(np.abs(detection.times - t)))
            if j not in used and abs(detection.times[j] - t) <= 0.002:
                matched += 1
                used.add(j)
    return matched, truth_total, detected_total


# --- EKF Monte Carlo (criteria 4b and 4c, tests/test_vehicle.py) --------------

EKF_STREAM = "acc-ekf"
NEES_RUNS, NEES_STEPS = 100, 600
DRIFT_RUNS = 5


@functools.cache
def nees_run(run: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One 30 s run with default noise, its start drawn from the prior:
    every step's NEES, shape (600,), and the estimate's means (600, 4) and
    covariances (600, 4, 4)."""
    nees = np.zeros(NEES_STEPS)
    means = np.zeros((NEES_STEPS, 4))
    covs = np.zeros((NEES_STEPS, 4, 4))
    for k, (truth, est) in enumerate(filter_run(EKF_STREAM, run, NEES_STEPS, NoiseConfig())):
        err = truth - est.mean
        err[3] = wrap_angle(err[3])
        nees[k] = err @ np.linalg.solve(est.cov, err)
        means[k], covs[k] = est.mean, est.cov
    return nees, means, covs


@functools.cache
def dead_reckoning_rms(seed: int) -> tuple[float, float]:
    """One 10-minute run without USBL from an exact start: the RMS
    horizontal error around t = 60 s and around t = 600 s."""
    noise = NoiseConfig(usbl_period_s=0.0)
    errors = np.asarray(
        [np.hypot(t[0] - e.mean[0], t[1] - e.mean[1]) for t, e in filter_run(EKF_STREAM, seed, 12_000, noise, exact_start=True)]
    )
    return np.sqrt(np.mean(errors[1000:1400] ** 2)), np.sqrt(np.mean(errors[-400:] ** 2))
