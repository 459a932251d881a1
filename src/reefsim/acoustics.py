"""Spectrograms and the snapping-shrimp snap detector.

The detector front-end is a Hann-windowed magnitude-squared STFT.  Per-frame
energy in the snap band ``SNAP_BAND_HZ`` (2-24 kHz, the band snaps are
rendered in) feeds a transient-spike rule: candidate frames are local maxima
whose energy exceeds ``mean + THRESHOLD_SIGMA * std`` of the window's own
band-energy series, with maxima closer than ``REFRACTORY_S`` merged into the
larger peak.

The relative threshold is deliberately low (``THRESHOLD_SIGMA`` = 0.1),
which on featureless noise would fire on roughly half of all local maxima.
A second, scale-free prominence condition therefore applies: a peak must
also exceed ``MIN_PEAK_RATIO`` times the ``BACKGROUND_QUANTILE`` quantile of
the series (a robust background level even when most frames contain snaps).
Both conditions are invariant under global gain scaling of the audio.  These
constants are the method, calibrated with the acceptance criteria; the
config sets only the transform's ``window`` and ``hop``
(:class:`AcousticsConfig`).

:func:`stft` transforms the frames in blocks of ``STFT_BLOCK_SAMPLES``
worth of samples (64 frames of 512).  Each block is windowed, transformed
and squared through two reused buffers straight into its rows of the
spectrogram, so no frame copy or whole-window spectrum is ever built.  The
result is byte-identical to transforming all frames at once: the window
product, modulus and square are elementwise and the real FFT works row by
row, so a frame's bits do not depend on the block that holds it, and a
float32 recording widens to float64 exactly inside the multiply.  The kept
peaks are timed together, each branch of the timing rule an elementwise
array expression.

:func:`snap_rate_series` returns one :class:`SnapRate` row per drift window,
in log order; a saturated window's row names the reason it was skipped.
Those rows are the lines of ``snap_rates.csv``.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields

import numpy as np

from .errors import ConfigError, DataError, SaturatedWindowError, check_section, write_csv
from .world import SNAP_BAND_HZ, AudioWindow

# The detection rule (see the module docstring).
THRESHOLD_SIGMA = 0.1
MIN_PEAK_RATIO = 2.0
BACKGROUND_QUANTILE = 0.1
REFRACTORY_S = 0.005
STFT_BLOCK_SAMPLES = 32_768  # each transform block holds this many samples' worth of frames, at least one

# Upper bound on one drift window's spectrogram, frames x bins, which is held
# whole while that window is detected.  The largest any test, benchmark or
# example makes is the criterion-1 site's (perfbench/site.yaml,
# example_config.yaml): a 10 s, 96 kHz window at a 512-sample window and
# 256-sample hop, 3,749 frames of 257 bins, 963,493 entries.  This allows
# about 100 times that, 0.8 GB of float64; a 1-sample hop on a 1024-sample
# window would ask for 3.9 GB.
MAX_SPECTROGRAM_ENTRIES = 96_400_000


@dataclass(frozen=True)
class AcousticsConfig:
    window: int = 1024
    hop: int = 512

    def __post_init__(self) -> None:
        # The rules of :func:`stft`.
        check_section(self, ("window", lambda: self.window >= 64 and not self.window & (self.window - 1), "must be a power of two >= 64"),
                      ("hop", lambda: 0 < self.hop <= self.window, "must be in (0, window]"))


@dataclass
class Spectrogram:
    """Magnitude-squared short-time transform: ``power[frame, bin]``."""

    power: np.ndarray
    fs: int
    window: int
    hop: int

    @property
    def n_frames(self) -> int:
        return self.power.shape[0]

    @property
    def n_bins(self) -> int:
        return self.power.shape[1]

    @property
    def frame_times(self) -> np.ndarray:
        """Frame center times in seconds."""
        return (np.arange(self.n_frames) * self.hop + self.window / 2) / self.fs

    def frame_energy(self) -> np.ndarray:
        """Per-frame time-domain energy of the windowed signal, recovered
        from the spectrum (Parseval): DC and Nyquist bins count once, all
        others twice, divided by the transform length."""
        p = self.power
        return (p[:, 0] + 2.0 * p[:, 1:-1].sum(axis=1) + p[:, -1]) / self.window


def hann_window(n: int) -> np.ndarray:
    """Periodic Hann window."""
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(n) / n))


def stft(samples: np.ndarray, fs: int, window: int = AcousticsConfig.window, hop: int = AcousticsConfig.hop) -> Spectrogram:
    """Hann-windowed magnitude-squared STFT.

    Frames start every ``hop`` samples; the count is
    ``floor((n - window) / hop) + 1`` and trailing samples that do not fill
    a frame are dropped.  The frames are transformed ``STFT_BLOCK_SAMPLES /
    window`` at a time (see the module docstring).
    """
    if window < 64 or window & (window - 1):
        raise ValueError("window must be a power of two >= 64")
    if not 0 < hop <= window:
        raise ValueError("hop must be in (0, window]")
    samples = np.asarray(samples)
    if samples.dtype != np.float32:  # float32 widens exactly inside the multiply
        samples = np.asarray(samples, dtype=np.float64)
    n = len(samples)
    if n < window:
        raise ValueError(f"need at least {window} samples, got {n}")

    frames = np.lib.stride_tricks.sliding_window_view(samples, window)[::hop]
    taper = hann_window(window)
    block = max(STFT_BLOCK_SAMPLES // window, 1)
    windowed = np.empty((block, window))
    spectrum = np.empty((block, window // 2 + 1), dtype=np.complex128)
    power = np.empty((len(frames), window // 2 + 1))
    for start in range(0, len(frames), block):
        rows = power[start : start + block]
        m = len(rows)
        np.multiply(frames[start : start + m], taper, out=windowed[:m])
        np.fft.rfft(windowed[:m], axis=1, out=spectrum[:m])
        np.abs(spectrum[:m], out=rows)
        np.square(rows, out=rows)
    return Spectrogram(power=power, fs=fs, window=window, hop=hop)


def band_bins(fs: int, window: int, f_lo: float, f_hi: float) -> np.ndarray:
    """Mask of the bins of a ``window``-sample transform at ``fs`` Hz whose
    center frequency lies in [f_lo, f_hi]."""
    freqs = np.arange(window // 2 + 1, dtype=np.float64) * fs / window
    return (freqs >= f_lo) & (freqs <= f_hi)


def band_energy(spec: Spectrogram, f_lo: float = SNAP_BAND_HZ[0], f_hi: float = SNAP_BAND_HZ[1]) -> np.ndarray:
    """Per-frame sum of magnitude-squared over bins with center frequency
    in [f_lo, f_hi]."""
    if not f_lo < f_hi:
        raise ValueError("need f_lo < f_hi")
    if f_hi > spec.fs / 2:
        raise ValueError("f_hi must not exceed Nyquist")
    mask = band_bins(spec.fs, spec.window, f_lo, f_hi)
    if not mask.any():
        raise ValueError("band contains no bins")
    return spec.power[:, mask].sum(axis=1)


@dataclass
class SnapDetection:
    times: np.ndarray  # seconds from window start, sorted
    count: int
    rate: float  # snaps / second of window duration


def _refine_peak_times(energy: np.ndarray, peaks: np.ndarray, baseline: float, spec: Spectrogram) -> np.ndarray:
    """Sub-frame timing of the impulsive peak at each interior frame in
    ``peaks``, elementwise.

    With 50 % overlap a short burst excites exactly two adjacent frames with
    Hann-squared weights, so the energy ratio of the peak and its larger
    neighbor (the previous frame on a tie) inverts in closed form to the
    burst position.  Other hop sizes, and a peak whose neighbors both stay at
    or below ``baseline``, take the energy centroid of the three frames, each
    weight clipped at 0.  A peak that does not rise above ``baseline`` keeps
    its frame center.
    """
    frame_times = spec.frame_times
    times = frame_times[peaks]
    e_prev, e_peak, e_next = (energy[peaks + step] - baseline for step in (-1, 0, 1))
    # The pair's left frame is the previous one when that is the larger neighbor, else the peak.
    prev_side = e_prev >= e_next
    e_left = np.where(prev_side, e_prev, e_peak)
    e_right = np.where(prev_side, e_peak, e_next)
    closed = (e_left > 0) & (e_right > 0) & (2 * spec.hop == spec.window)
    centroid = (e_peak > 0) & ~closed

    w_prev, w_peak, w_next = (np.maximum(e[centroid], 0.0) for e in (e_prev, e_peak, e_next))
    at = peaks[centroid]  # w_peak > 0, so the weights sum above 0
    times[centroid] = (w_prev * frame_times[at - 1] + w_peak * frame_times[at] + w_next * frame_times[at + 1]) / (w_prev + w_peak + w_next)

    sqrt_rho = np.sqrt(e_right[closed] / e_left[closed])
    cos_phi = np.clip((1.0 - sqrt_rho) / (1.0 + sqrt_rho), -1.0, 1.0)
    phi = np.arccos(cos_phi)
    offset = spec.hop + spec.window * phi / (2.0 * np.pi)
    times[closed] = ((peaks - prev_side)[closed] * spec.hop + offset) / spec.fs
    return times


def detect_snaps(energy: np.ndarray, spec: Spectrogram, duration: float) -> SnapDetection:
    """Count transient spikes in a band-energy series, with the thresholds
    and refractory gap of the module constants.

    A constant series (std below 1e-12) yields zero snaps.  Candidates are
    interior local maxima above both the relative threshold and the
    prominence floor; candidates closer than the refractory gap merge into
    the larger peak.
    """
    energy = np.asarray(energy, dtype=np.float64)
    if len(energy) < 8:
        raise ValueError("need at least 8 frames of band energy")
    if duration <= 0:
        raise ValueError("duration must be positive")

    # Python floats, so that a threshold beyond the float range is an
    # infinity, not an overflow warning.
    mu = float(energy.mean())
    sigma = float(energy.std())
    if sigma < 1e-12:
        return SnapDetection(np.empty(0), 0, 0.0)

    baseline = float(np.quantile(energy, BACKGROUND_QUANTILE))
    threshold = max(mu + THRESHOLD_SIGMA * sigma, MIN_PEAK_RATIO * baseline)

    interior = energy[1:-1]
    is_peak = (interior > energy[:-2]) & (interior >= energy[2:]) & (interior > threshold)
    candidates = np.flatnonzero(is_peak) + 1

    # Merge candidates within the refractory gap, keeping the larger peak.
    frame_period = spec.hop / spec.fs
    kept: list[int] = []
    for c in candidates:
        if kept and (c - kept[-1]) * frame_period < REFRACTORY_S:
            if energy[c] > energy[kept[-1]]:
                kept[-1] = c
        else:
            kept.append(c)

    times = np.sort(_refine_peak_times(energy, np.array(kept, dtype=np.intp), baseline, spec))
    return SnapDetection(times, len(kept), len(kept) / duration)


def detect_snaps_in_window(window: AudioWindow, config: AcousticsConfig | None = None) -> SnapDetection:
    """Run the full detection chain on one audio window.

    Saturated windows (thruster noise) are refused: their statistics carry
    no usable signal.
    """
    cfg = config or AcousticsConfig()
    if window.saturated:
        raise SaturatedWindowError("window is saturated (thruster noise); detection refused")
    spec = stft(window.samples, window.fs, cfg.window, cfg.hop)
    return detect_snaps(band_energy(spec), spec, window.duration)


@dataclass
class SnapRate:
    """One drift window's row of ``snap_rates.csv``.  A saturated window
    holds only ``t_start`` and ``skipped_reason``."""

    t_start: float
    cell_x: int | None = None
    cell_y: int | None = None
    count: int | None = None
    rate: float | None = None
    skipped_reason: str | None = None


def snap_rate_series(log, config: AcousticsConfig | None = None) -> list[SnapRate]:
    """One :class:`SnapRate` per drift window of a mission log, in log order.

    A saturated window is not detected on; its row carries the skip reason
    and no rate.  A config that does not fit the log's audio raises
    :class:`ConfigError`, before any window is processed.
    """
    cfg = config or AcousticsConfig()
    drift_records = log.drift_records()
    if not drift_records:
        raise DataError("mission log contains no drift windows")
    # The checks of stft, band_energy and detect_snaps, made once for the
    # log's windows.  The snap band lies below the log's Nyquist frequency:
    # its header holds at least MIN_AUDIO_FS.
    fs, (lo, hi) = log.audio_fs_hz, SNAP_BAND_HZ
    # The frames are counted first: they bound the window by the log's
    # samples before any array of the window's length is made.
    n_samples = log.drift_samples
    n_frames = max((n_samples - cfg.window) // cfg.hop + 1, 0)
    if n_frames < 8:
        raise ConfigError(f"acoustics.window: leaves {n_frames} frames in a drift window of {n_samples} samples, fewer than 8")
    if n_frames * (cfg.window // 2 + 1) > MAX_SPECTROGRAM_ENTRIES:
        raise ConfigError(f"acoustics.hop must leave at most {MAX_SPECTROGRAM_ENTRIES:,} spectrogram entries per drift window; "
                          f"it gives {n_frames:,} frames of {cfg.window // 2 + 1} bins")
    if not band_bins(fs, cfg.window, lo, hi).any():
        raise ConfigError(f"acoustics.window: no frequency bin of a {cfg.window}-sample window at {fs} Hz lies in the snap band, {lo:g}-{hi:g} Hz")

    rows = []
    for record in drift_records:
        window = log.audio_window(record)
        if window.saturated:
            rows.append(SnapRate(record.t, skipped_reason="saturated"))
            continue
        detection = detect_snaps_in_window(window, cfg)
        cell_y, cell_x = divmod(record.cell_id, log.grid_nx)
        rows.append(SnapRate(record.t, cell_x, cell_y, detection.count, detection.rate))
    return rows


def export_snap_rates_csv(rows: list[SnapRate], path) -> None:
    """CSV: one row per drift window; a skipped window carries a reason."""
    write_csv(path, [f.name for f in fields(SnapRate)], map(astuple, rows))
