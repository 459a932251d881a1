"""Acceptance suite: one test per acceptance criterion.

Each criterion runs at its stated tolerance and prints a PASS/FAIL line.
The statistical criteria are defined over 100-seed panels; by default each
test runs a fixed, documented seed subset with a proportionally scaled pass
threshold so the suite stays laptop-sized.  Set ``REEFSIM_FULL_ACCEPTANCE=1``
to run every panel at its full 100 seeds.

Panel sizes (default -> full):
  criterion 1: seeds 0..2  (3 of 3 must pass)   -> 100 seeds, >= 90
  criterion 2: one pooled 40-window experiment  (unchanged)
  criterion 3: seeds 0..19 (>= 18 must pass)    -> 100 seeds, >= 90
  criterion 4: 100 Monte Carlo runs             (unchanged)
  criterion 5: seeds 0..19 / 0..19              -> 100 seeds, >= 90 / >= 80
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np
import pytest
from filter_run import filter_run
from panels import (
    DRIFT_RUNS,
    FS,
    NEES_RUNS,
    NEES_STEPS,
    dead_reckoning_rms,
    detector_panel,
    detector_world,
    follow_summary,
    nees_run,
    track_world,
)
from scipy.stats import chi2

from reefsim.acoustics import detect_snaps_in_window, hann_window, stft
from reefsim.analysis import analyze_log, fit_shrimp_habitat
from reefsim.config import load_config
from reefsim.errors import SaturatedWindowError
from reefsim.mission import execute
from reefsim.rng import substream
from reefsim.topics import TopicModel, TopicsConfig, match_accuracy
from reefsim.tracking import Camera, TargetConfig, TrackingConfig, run_tracking_episode
from reefsim.vehicle import EkfEstimate, NoiseConfig, VehicleConfig
from reefsim.world import WorldConfig, _block_appearance, generate_world, synthesize_audio

FULL = os.environ.get("REEFSIM_FULL_ACCEPTANCE", "") == "1"


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")


def panel(n_default: int, n_full: int, required_fraction: float) -> tuple[range, int]:
    n = n_full if FULL else n_default
    return range(n), int(np.ceil(required_fraction * n))


# --- criterion 1: survey-site analog, habitat-sound regression -------------

# The site is the one a user surveys with example_config.yaml: the world is
# generated from the file's seed, the survey and analysis use the panel seed.
EXAMPLE_CONFIG = Path(__file__).parents[1] / "example_config.yaml"


def run_site_survey(seed: int, audio_dir):
    config = load_config(EXAMPLE_CONFIG)
    world = generate_world(config.world, config.seed)  # one fixed reef scene
    assert len(config.plan.waypoints) == 50
    log = execute(config.plan, world, config.vehicle, config.noise, config.mission, seed=seed, audio_dir=audio_dir)
    return analyze_log(log, config.acoustics, config.topics, seed)


class TestCriterion1SurveyRegression:
    def test_coral_coefficient_and_correlation(self, make_audio_dir) -> None:
        seeds, required = panel(3, 100, 0.90)
        audio_dir = make_audio_dir()  # each seed's survey overwrites the last one's 50 WAVs
        passes = 0
        runtimes, rs, seconds, failing = [], [], [], []
        for seed in seeds:
            start = time.monotonic()
            rep = run_site_survey(seed, audio_dir)
            runtimes.append(time.monotonic() - start)
            coefs = np.sort(np.asarray(rep.fit.coefficients))[::-1]
            second = float(coefs[1]) if len(coefs) > 1 else -1.0
            ok = int(np.sum(coefs > 0.1)) == 1 and second <= 0.05 and rep.pearson_r >= 0.8
            passes += ok
            rs.append(rep.pearson_r)
            seconds.append(second)
            if not ok:
                failing.append(seed)
        passed = passes >= required and max(runtimes) <= 300.0
        report(
            "criterion 1 (survey regression)",
            passed,
            f"{passes}/{len(seeds)} seeds pass; min r {min(rs):.3f} >= 0.8, max second coefficient "
            f"{max(seconds):.3f} <= 0.05, failing seeds {failing}; max runtime {max(runtimes):.0f}s <= 300s",
        )
        assert passes >= required
        assert max(runtimes) <= 300.0


# --- criterion 2: snap detector ---------------------------------------------


class TestCriterion2SnapDetector:
    def test_recall_precision_gain_invariance_saturation(self) -> None:
        world = detector_world()  # ~10 dB in-band SNR, one emitter at 2 snaps/s

        matched, truth_total, detected_total = detector_panel()  # 40 windows, +-2 ms matching
        recall = matched / truth_total
        precision = matched / max(detected_total, 1)

        # gain invariance on one window
        window = synthesize_audio(world, 10.5, 10.5, 5.0, FS, False, substream(99, "gain"))
        baseline = detect_snaps_in_window(window).count
        gains_ok = True
        for gain in (0.02, 0.5, 7.0):
            scaled = synthesize_audio(world, 10.5, 10.5, 5.0, FS, False, substream(99, "gain"))
            scaled.samples = (scaled.samples * np.float32(gain)).astype(np.float32)
            gains_ok &= detect_snaps_in_window(scaled).count == baseline

        # saturated windows always rejected
        saturated = synthesize_audio(world, 10.5, 10.5, 1.0, FS, True, substream(7, "sat"))
        with pytest.raises(SaturatedWindowError):
            detect_snaps_in_window(saturated)

        passed = recall >= 0.9 and precision >= 0.9 and gains_ok
        report(
            "criterion 2 (snap detector)",
            passed,
            f"recall {recall:.3f} >= 0.9, precision {precision:.3f} >= 0.9, gain-invariant {gains_ok}, saturated rejected",
        )
        assert recall >= 0.9
        assert precision >= 0.9
        assert gains_ok


# --- criterion 3: topic recovery ---------------------------------------------


class TestCriterion3TopicRecovery:
    def test_recovery_accuracy_panel(self) -> None:
        seeds, required = panel(20, 100, 0.90)
        appearance = _block_appearance(3, 30, 0.05)
        nx = ny = 10
        truth = np.zeros(nx * ny, dtype=int)
        rows = np.arange(nx * ny) // nx
        truth[rows >= 3] = 1
        truth[rows >= 7] = 2

        passes = 0
        accuracies = []
        for seed in seeds:
            rng = substream(seed, "recover")
            model = TopicModel(30, nx, ny)
            for iy in range(ny):
                xs = range(nx) if iy % 2 == 0 else range(nx - 1, -1, -1)
                for ix in xs:
                    cell = iy * nx + ix
                    for _ in range(3):
                        model.observe(cell, rng.multinomial(20, appearance[truth[cell]]), rng)
            model.gibbs_refine(50, rng)
            accuracies.append(match_accuracy(model.dominant_topic_cells(), truth))
            passes += accuracies[-1] >= 0.8
        passed = passes >= required
        report(
            "criterion 3a (topic recovery)",
            passed,
            f"{passes}/{len(seeds)} seeds reach 0.8 accuracy; lowest {min(accuracies):.3f}",
        )
        assert passes >= required

    def test_count_conservation_fuzz(self) -> None:
        # 1e5 operations with the count invariants checked after every one.
        n_ops = 100_000
        rng = substream(0, "fuzz")
        model = TopicModel(10, 5, 5, TopicsConfig(max_topics=8))
        appearance = _block_appearance(3, 10, 0.05)
        violations = 0
        for op in range(n_ops):
            if op % 5000 == 4999 and model.token_count:
                model.gibbs_refine(1, rng)
            elif op % 37 == 36:
                model.habitat_distribution(int(rng.integers(25)))
            else:
                habitat = int(rng.integers(3))
                model.observe(int(rng.integers(25)), rng.multinomial(2, appearance[habitat]), rng)
            try:
                model.validate_counts()
            except ValueError:
                violations += 1
                break
        report("criterion 3b (count conservation fuzz)", violations == 0, f"{n_ops} ops, {violations} violations")
        assert violations == 0


# --- criterion 4: EKF ---------------------------------------------------------


class TestCriterion4Ekf:
    def test_steady_state_rms_with_usbl(self) -> None:
        noise = NoiseConfig(usbl_sigma=0.5, usbl_period_s=1.0)
        errors = np.asarray(
            [np.hypot(t[0] - e.mean[0], t[1] - e.mean[1]) for t, e in filter_run("acc-ekf", 0, 12_000, noise)]
        )
        rms = float(np.sqrt(np.mean(errors[1200:] ** 2)))  # steady state after 60 s of a 10-min run
        passed = rms <= 1.0
        report("criterion 4a (EKF steady-state RMS)", passed, f"RMS {rms:.3f} m <= 1.0 m over 10 min")
        assert rms <= 1.0

    def test_dead_reckoning_drift_grows(self) -> None:
        rms_60, rms_600 = zip(*(dead_reckoning_rms(seed) for seed in range(DRIFT_RUNS)))
        passed = np.mean(rms_600) > np.mean(rms_60)
        report(
            "criterion 4b (dead-reckoning drift)",
            passed,
            f"RMS@600s {np.mean(rms_600):.3f} > RMS@60s {np.mean(rms_60):.3f}",
        )
        assert passed

    def test_nees_within_chi2_envelope(self) -> None:
        n_runs = NEES_RUNS
        nees = np.zeros((n_runs, NEES_STEPS))
        for run in range(n_runs):
            nees[run], means, covs = nees_run(run)
            for mean, cov in zip(means, covs):
                EkfEstimate.from_arrays(mean, cov).validate()  # covariance PSD at every step; symmetric by construction
        average = nees.mean(axis=0)
        lo = chi2.ppf(0.025, 4 * n_runs) / n_runs
        hi = chi2.ppf(0.975, 4 * n_runs) / n_runs
        inside = float(np.mean((average >= lo) & (average <= hi)))
        passed = lo <= average.mean() <= hi and inside >= 0.9
        report(
            "criterion 4c (EKF NEES)",
            passed,
            f"mean NEES {average.mean():.3f} in [{lo:.3f}, {hi:.3f}], {inside:.0%} of steps inside",
        )
        assert lo <= average.mean() <= hi
        assert inside >= 0.9


# --- criterion 5: tracking ------------------------------------------------------


class TestCriterion5Tracking:
    def test_midwater_centering_panel(self) -> None:
        seeds, required = panel(20, 100, 0.90)
        passes = 0
        central, lost = [], []
        for seed in seeds:
            summary = follow_summary("cruiser", seed)  # default noise, 0.25 m/s cruiser
            passes += summary["central_fraction"] >= 0.9
            central.append(summary["central_fraction"])
            if summary["ended_lost"]:
                lost.append(seed)
        passed = passes >= required
        report(
            "criterion 5a (midwater centering)",
            passed,
            f"{passes}/{len(seeds)} episodes >= 90% centered; lowest {min(central):.3f}, ended lost {lost}",
        )
        assert passes >= required

    def test_benthic_distractor_panel(self) -> None:
        seeds, required = panel(20, 100, 0.80)
        passes = 0
        central, lost = [], []
        for seed in seeds:
            summary = follow_summary("benthic-distractor", seed)
            passes += not summary["ended_lost"]
            central.append(summary["central_fraction"])
            if summary["ended_lost"]:
                lost.append(seed)
        passed = passes >= required
        report(
            "criterion 5b (benthic distractor)",
            passed,
            f"{passes}/{len(seeds)} episodes without permanent loss; ended lost {lost}, lowest centred {min(central):.3f}",
        )
        assert passes >= required

    def test_zero_noise_equilibrium(self) -> None:
        world = track_world()
        config = TrackingConfig(pixel_noise_px=0.0, dropout_prob=0.0, target=TargetConfig(speed_mps=0.0))
        camera = Camera()
        nominal = camera.fx * config.target.body_length_m / (config.width_ratio_setpoint * camera.width_px)
        log = run_tracking_episode(world, VehicleConfig(), config, 30.0, seed=0, start_range_m=nominal + 0.4)
        cx, cy, w, _ = log.frames[-1].bbox
        err = float(np.hypot(cx - camera.width_px / 2, cy - camera.height_px / 2))
        ratio_err = abs(w / camera.width_px - config.width_ratio_setpoint)
        passed = err < 2.0 and ratio_err < 0.005
        report(
            "criterion 5c (zero-noise equilibrium)",
            passed,
            f"centering error {err:.3f} px < 2, |w/W - setpoint| {ratio_err:.4f} < 0.005",
        )
        assert err < 2.0
        assert ratio_err < 0.005


# --- criterion 6: numerics --------------------------------------------------------


class TestCriterion6Numerics:
    def test_stft_parseval(self) -> None:
        samples = np.random.default_rng(3).standard_normal(16_384)
        spec = stft(samples, 96_000)
        window = hann_window(1024)
        worst = 0.0
        for i in range(spec.n_frames):
            frame = samples[i * 512 : i * 512 + 1024] * window
            direct = float(np.sum(frame**2))
            worst = max(worst, abs(spec.frame_energy()[i] - direct) / direct)
        passed = worst <= 1e-6
        report("criterion 6a (STFT Parseval)", passed, f"worst relative error {worst:.2e} <= 1e-6")
        assert worst <= 1e-6

    def test_ols_residual_orthogonality(self) -> None:
        rng = np.random.default_rng(4)
        x = rng.dirichlet(np.ones(3), size=40)
        y = 0.8 * x[:, 0] + rng.normal(0, 0.05, 40)
        fit = fit_shrimp_habitat(x, y)
        residuals = fit.normalize(y) - fit.predictions
        design = np.hstack([x, np.ones((40, 1))])
        worst = float(np.max(np.abs(design.T @ residuals)))
        passed = worst <= 1e-8
        report("criterion 6b (OLS orthogonality)", passed, f"max |X^T r| {worst:.2e} <= 1e-8")
        assert worst <= 1e-8

    def test_probability_vectors_sum_to_one(self) -> None:
        world = generate_world(WorldConfig(), seed=3)
        worst = float(np.max(np.abs(world.habitat_field.sum(axis=2) - 1.0)))
        worst = max(worst, float(np.max(np.abs(world.appearance.sum(axis=1) - 1.0))))
        model = TopicModel(10, 4, 4)
        rng = substream(1, "sum1")
        for cell in range(16):
            model.observe(cell, rng.multinomial(8, np.full(10, 0.1)), rng)
        for cell in range(16):
            worst = max(worst, abs(float(model.habitat_distribution(cell).sum()) - 1.0))
        mixture = model.record_mixture(np.asarray([2, 0, 1, 0, 0, 0, 3, 0, 0, 0]))
        worst = max(worst, abs(float(mixture.sum()) - 1.0))
        passed = worst <= 1e-9
        report("criterion 6c (probability normalization)", passed, f"worst deviation {worst:.2e} <= 1e-9")
        assert worst <= 1e-9

    def test_cli_byte_reproducibility(self, tmp_path) -> None:
        # Every CLI command, run twice with the same seed, must overwrite
        # with identical bytes.  (Covered per-command in the CLI tests; this
        # repeats the check end-to-end through all four commands.)
        import hashlib

        import yaml
        from click.testing import CliRunner

        from reefsim.cli import main

        config = tmp_path / "config.yaml"
        config.write_text(
            yaml.safe_dump(
                {
                    "world": {"width_m": 12.0, "height_m": 12.0},
                    "plan": {
                        "bounds": [1.0, 1.0, 11.0, 11.0],
                        "leg_spacing_m": 5.0,
                        "drift_duration_s": 1.0,
                        "audio_fs_hz": 48_000,
                    },
                    "topics": {"gibbs_sweeps": 3},
                    "episode": {"duration_s": 10.0},
                }
            )
        )
        runner = CliRunner()

        def run_all(base: str) -> dict[str, str]:
            root = tmp_path / base
            for args in (
                ["world-gen", "--config", str(config), "--seed", "2", "--out", str(root / "w")],
                ["survey", "--world", str(root / "w/world.json"), "--config", str(config), "--seed", "2", "--out", str(root / "s")],
                ["analyze", "--log", str(root / "s/mission_log.jsonl"), "--config", str(config), "--seed", "2", "--out", str(root / "a")],
                ["track", "--world", str(root / "w/world.json"), "--config", str(config), "--seed", "2", "--out", str(root / "t")],
            ):
                result = runner.invoke(main, args)
                assert result.exit_code == 0, result.output
            return {
                str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(root.rglob("*"))
                if p.is_file()
            }

        first = run_all("run1")
        second = run_all("run2")
        passed = first == second
        report("criterion 6d (CLI byte reproducibility)", passed, f"{len(first)} files identical across reruns")
        assert first == second
