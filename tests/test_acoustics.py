from __future__ import annotations

import numpy as np
import pytest
from panels import detector_panel
from pins import detection_times, pinned

from reefsim.acoustics import (
    STFT_BLOCK_SAMPLES,
    Spectrogram,
    _refine_peak_time,
    _refine_peak_times,
    band_energy,
    detect_snaps,
    detect_snaps_in_window,
    export_snap_rates_csv,
    hann_window,
    snap_rate_series,
    stft,
)
from reefsim.errors import SaturatedWindowError
from reefsim.rng import substream
from reefsim.world import WorldConfig, generate_world, synthesize_audio

FS = 96_000
BLOCK = STFT_BLOCK_SAMPLES // 1024  # frames per transform block at a 1024-sample window


def samples_for(n_frames: int, window: int = 1024, hop: int = 512) -> int:
    return window + (n_frames - 1) * hop


def white_noise(n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(n)


class TestStft:
    def test_shape_invariants(self) -> None:
        spec = stft(white_noise(10_000), FS, window=1024, hop=512)
        assert spec.n_bins == 1024 // 2 + 1
        assert spec.n_frames == (10_000 - 1024) // 512 + 1

    def test_all_zero_input_gives_all_zero_power(self) -> None:
        spec = stft(np.zeros(4096), FS)
        assert np.all(spec.power == 0)

    def test_pure_sine_concentrates_in_one_bin(self) -> None:
        # exact bin frequency: k * fs / window
        k = 100
        freq = k * FS / 1024
        t = np.arange(8192) / FS
        spec = stft(np.sin(2 * np.pi * freq * t), FS)
        for frame in spec.power:
            peak = frame[k - 1 : k + 2].sum()
            assert peak >= 0.99 * frame.sum()

    def test_parseval_on_white_noise(self) -> None:
        # Oracle: direct time-domain energy of each windowed frame.
        samples = white_noise(16_384, seed=3)
        spec = stft(samples, FS, window=1024, hop=512)
        window = hann_window(1024)
        recovered = spec.frame_energy()
        for i in range(spec.n_frames):
            frame = samples[i * 512 : i * 512 + 1024] * window
            direct = float(np.sum(frame**2))
            assert abs(recovered[i] - direct) <= 1e-6 * direct

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(window=100),  # not a power of two
            dict(window=32),  # below minimum
            dict(hop=2048),  # hop > window
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs) -> None:
        with pytest.raises(ValueError):
            stft(white_noise(8192), FS, **{"window": 1024, "hop": 512, **kwargs})

    def test_too_few_samples_rejected(self) -> None:
        with pytest.raises(ValueError):
            stft(white_noise(1000), FS, window=1024)


    @pytest.mark.parametrize(
        "n, window, hop",
        [
            (10_000, 1024, 512),
            (96_000, 1024, 512),
            (5_000, 256, 100),
            (4_096, 1024, 1024),
            # frame counts around the transform block: below, exactly, one over, and not a multiple
            (samples_for(BLOCK - 1), 1024, 512),
            (samples_for(BLOCK), 1024, 512),
            (samples_for(BLOCK + 1), 1024, 512),
            (samples_for(2 * BLOCK + 5) + 300, 1024, 512),
        ],
    )
    def test_matches_index_gather_reference(self, n, window, hop) -> None:
        samples = white_noise(n, seed=n)
        n_frames = (n - window) // hop + 1
        idx = np.arange(window)[None, :] + hop * np.arange(n_frames)[:, None]
        expected = np.abs(np.fft.rfft(samples[idx] * hann_window(window)[None, :], axis=1)) ** 2
        assert stft(samples, FS, window, hop).power.tobytes() == expected.tobytes()
        # A float32 recording (as read from a WAV) gives the spectrogram of its float64 copy.
        samples32 = (0.1 * samples).astype(np.float32)
        assert stft(samples32, FS, window, hop).power.tobytes() == stft(samples32.astype(np.float64), FS, window, hop).power.tobytes()


class TestBandEnergy:
    def test_sine_below_band_leaks_almost_nothing(self) -> None:
        t = np.arange(16_384) / FS
        spec = stft(np.sin(2 * np.pi * 1000.0 * t), FS)
        in_band = band_energy(spec, 2000.0, 24_000.0).sum()
        total = spec.power.sum()
        assert in_band <= 1e-4 * total

    def test_sine_inside_band_captures_nearly_everything(self) -> None:
        t = np.arange(16_384) / FS
        spec = stft(np.sin(2 * np.pi * 10_000.0 * t), FS)
        in_band = band_energy(spec, 2000.0, 24_000.0).sum()
        assert in_band >= 0.999 * spec.power.sum()

    def test_matches_brute_force_bin_sum(self) -> None:
        # Oracle: independent per-frame re-summation over the band bins.
        spec = stft(white_noise(8192, seed=1), FS)
        energy = band_energy(spec, 2000.0, 24_000.0)
        freqs = np.arange(spec.n_bins) * FS / 1024
        for i in range(spec.n_frames):
            direct = sum(float(spec.power[i, b]) for b in range(spec.n_bins) if 2000.0 <= freqs[b] <= 24_000.0)
            assert energy[i] == pytest.approx(direct, rel=1e-12)

    def test_empty_band_rejected(self) -> None:
        spec = stft(white_noise(8192), FS)
        with pytest.raises(ValueError):
            band_energy(spec, 25_000.0, 24_000.0)
        with pytest.raises(ValueError):
            band_energy(spec, 2000.0, 60_000.0)


class TestDetectSnaps:
    def test_constant_series_yields_zero_snaps(self) -> None:
        spec = stft(np.zeros(96_000), FS)
        energy = np.full(spec.n_frames, 3.7)
        detection = detect_snaps(energy, spec, 1.0)
        assert detection.count == 0

    def test_saturated_window_refused(self, quiet_world) -> None:
        window = synthesize_audio(quiet_world, 5.0, 5.0, 1.0, FS, True, substream(0, "sat"))
        with pytest.raises(SaturatedWindowError):
            detect_snaps_in_window(window)

    def test_injected_snaps_counted(self, quiet_world) -> None:
        # Oracle: ground-truth snap times injected by the synthesizer.  One
        # emitter in the listener's cell at 2 snaps/s; the seed is frozen on
        # a draw with exactly 20 snaps.
        world = generate_world(WorldConfig(snap_rates_per_s=(0.0, 0.0, 0.0)), seed=2)
        world.snap_rate[10, 10] = 2.0
        window = synthesize_audio(world, 10.5, 10.5, 10.0, FS, False, substream(3, "inject"))
        truth = window.truth_snap_times
        assert len(truth) == 20  # fixed by the frozen seed
        detection = detect_snaps_in_window(window)
        assert abs(detection.count - len(truth)) <= 1

    def test_count_invariant_under_gain_scaling(self, default_world) -> None:
        window = synthesize_audio(default_world, 6.0, 6.0, 2.0, FS, False, substream(2, "gain"))
        baseline = detect_snaps_in_window(window).count
        for gain in (0.037, 0.5, 12.0):
            scaled = synthesize_audio(default_world, 6.0, 6.0, 2.0, FS, False, substream(2, "gain"))
            scaled.samples = np.clip(scaled.samples.astype(np.float64) * gain, -1e9, 1e9).astype(np.float32)
            assert detect_snaps_in_window(scaled).count == baseline

    def test_rate_is_count_over_duration(self, default_world) -> None:
        window = synthesize_audio(default_world, 6.0, 6.0, 2.0, FS, False, substream(3, "rate"))
        detection = detect_snaps_in_window(window)
        assert detection.rate == pytest.approx(detection.count / 2.0)

    def test_false_positive_floor_on_pure_background(self, quiet_world) -> None:
        # Oracle: measured false-positive rate on snap-free audio.
        total = 0
        duration = 0.0
        for seed in range(10):
            window = synthesize_audio(quiet_world, 10.0, 10.0, 5.0, FS, False, substream(seed, "fp"))
            total += detect_snaps_in_window(window).count
            duration += window.duration
        assert total / duration <= 0.2

    def test_short_series_rejected(self) -> None:
        spec = stft(np.zeros(4096), FS)
        with pytest.raises(ValueError):
            detect_snaps(np.ones(4), spec, 1.0)

    def test_pinned_detection_times(self, default_world) -> None:
        """Faster framing or peak timing must not move a single detection."""
        assert detection_times(default_world) == pinned("detection_times")


class TestPeakTiming:
    @pytest.mark.parametrize("hop, window", [(512, 1024), (256, 512), (400, 1024), (1024, 1024)])
    def test_array_timing_matches_scalar_rule(self, hop, window) -> None:
        """The array form of the sub-frame timing gives each kept peak the
        scalar rule's time, bit for bit, on every branch of that rule."""
        rng = np.random.default_rng(hop + window)
        n, baseline = 2_000, 0.5
        energy = np.round(rng.exponential(1.0, n), 1)  # rounding makes ties and values at the baseline common
        energy[rng.choice(n, 40, replace=False)] = np.nan  # and a NaN takes the scalar rule's branch too
        spec = Spectrogram(np.zeros((n, 1)), FS, window, hop)
        peaks = np.arange(1, n - 1)
        expected = np.array([_refine_peak_time(energy, p, baseline, spec, spec.frame_times) for p in peaks])
        assert np.array_equal(_refine_peak_times(energy, peaks, baseline, spec), expected, equal_nan=True)

        e_prev, e_peak, e_next = energy[:-2] - baseline, energy[1:-1] - baseline, energy[2:] - baseline
        rising = e_peak > 0
        assert (~rising).any()  # e_peak <= 0: the frame center
        assert (rising & (np.maximum(e_prev, e_next) <= 0)).any()  # both neighbors <= 0: the centroid
        assert (rising & (np.minimum(e_prev, e_next) <= 0) & (np.maximum(e_prev, e_next) > 0)).any()  # one neighbor <= 0
        assert (rising & (e_prev == e_next) & (e_prev > 0)).any()  # a tie picks the previous frame

    def test_no_peaks(self) -> None:
        spec = Spectrogram(np.zeros((10, 1)), FS, 1024, 512)
        times = _refine_peak_times(np.ones(10), np.empty(0, dtype=np.intp), 0.5, spec)
        assert times.dtype == np.float64 and times.shape == (0,)


class TestDetectorRecallPrecision:
    def test_recall_and_precision_at_10db(self) -> None:
        # Injected ground truth at ~10 dB in-band SNR, +-2 ms matching:
        # criterion 2's 40 windows.
        matched, truth_total, detected_total = detector_panel()
        assert truth_total > 30
        recall = matched / truth_total
        precision = matched / max(detected_total, 1)
        assert recall >= 0.9
        assert precision >= 0.9


class TestSnapRateSeries:

    def test_one_rate_entry_per_drift_window(self, small_log) -> None:
        series = snap_rate_series(small_log)
        assert len(series) == len(small_log.drift_records())
        assert all(row.rate is not None for row in series)

    def test_entries_in_time_order_and_match_per_window_detection(self, small_log) -> None:
        series = snap_rate_series(small_log)
        times = [e.t_start for e in series]
        assert times == sorted(times)
        first = small_log.drift_records()[0]
        direct = detect_snaps_in_window(small_log.audio_window(first))
        assert series[0].rate == pytest.approx(direct.rate)

    def test_log_without_drift_windows_rejected(self, quiet_world, make_audio_dir) -> None:
        from reefsim.errors import DataError
        from reefsim.mission import MissionConfig, execute, plan_lawnmower
        from reefsim.vehicle import NoiseConfig, VehicleConfig

        plan = plan_lawnmower((1.0, 1.0, 19.0, 19.0), 9.0, drift_duration_s=0.0)
        log = execute(plan, quiet_world, VehicleConfig(), NoiseConfig(), MissionConfig(), seed=1, audio_dir=make_audio_dir())
        with pytest.raises(DataError):
            snap_rate_series(log)

    def test_csv_export(self, small_log, tmp_path) -> None:
        series = snap_rate_series(small_log)
        path = tmp_path / "rates.csv"
        export_snap_rates_csv(series, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t_start,cell_x,cell_y,count,rate,skipped_reason"
        assert len(lines) == 1 + len(series)
