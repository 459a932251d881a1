"""Spectrograms and the snapping-shrimp snap detector.

The detector front-end is the per-frame energy of a Hann-windowed
magnitude-squared STFT in the snap band ``SNAP_BAND_HZ`` (2-24 kHz, the band
snaps are rendered in), computed by :func:`band_energy` without holding the
spectrogram.  It feeds a transient-spike rule: candidate frames are local
maxima whose energy exceeds ``mean + THRESHOLD_SIGMA * std`` of the window's
own band-energy series, with maxima closer than ``REFRACTORY_S`` merged into
the larger peak.

The relative threshold is deliberately low (``THRESHOLD_SIGMA`` = 0.1),
which on featureless noise would fire on roughly half of all local maxima.
A second, scale-free prominence condition therefore applies: a peak must
also exceed ``MIN_PEAK_RATIO`` times the ``BACKGROUND_QUANTILE`` quantile of
the series (a robust background level even when most frames contain snaps).
Both conditions are invariant under global gain scaling of the audio.  These
constants are the method, calibrated with the acceptance criteria; the
config sets only the transform's ``window`` and ``hop``
(:class:`AcousticsConfig`).  The kept peaks are timed together, each branch
of the timing rule an elementwise array expression.

:func:`stft` computes the whole spectrogram at once; it is the reference
:func:`band_energy` is tested against, and the transform criterion 6a checks
by Parseval's identity.

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
STFT_BLOCK_SAMPLES = 32_768  # each band-energy block holds this many samples' worth of frames, at least two

# Upper bound on one drift window's transform work, frames x bins: every bin
# of every frame is computed, a block at a time, before the band is summed.
# The largest any test, benchmark or example makes is the criterion-1 site's
# (perfbench/site.yaml, example_config.yaml): a 10 s, 96 kHz window at a
# 512-sample window and 256-sample hop, 3,749 frames of 257 bins, 963,493
# entries.  This allows about 100 times that.
MAX_SPECTROGRAM_ENTRIES = 96_400_000


@dataclass(frozen=True)
class AcousticsConfig:
    window: int = 1024
    hop: int = 512

    def __post_init__(self) -> None:
        # The rules of :func:`_frames`.
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

    def frame_energy(self) -> np.ndarray:
        """Per-frame time-domain energy of the windowed signal, recovered
        from the spectrum (Parseval): DC and Nyquist bins count once, all
        others twice, divided by the transform length."""
        p = self.power
        return (p[:, 0] + 2.0 * p[:, 1:-1].sum(axis=1) + p[:, -1]) / self.window


def hann_window(n: int) -> np.ndarray:
    """Periodic Hann window."""
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(n) / n))


def _frames(samples: np.ndarray, window: int, hop: int) -> np.ndarray:
    """A view of the ``floor((n - window) / hop) + 1`` frames of ``samples``;
    trailing samples that fill no frame are dropped.  A float32 recording
    stays float32: it widens exactly inside the window product."""
    if window < 64 or window & (window - 1):
        raise ValueError("window must be a power of two >= 64")
    if not 0 < hop <= window:
        raise ValueError("hop must be in (0, window]")
    samples = np.asarray(samples)
    if samples.dtype != np.float32:
        samples = np.asarray(samples, dtype=np.float64)
    if len(samples) < window:
        raise ValueError(f"need at least {window} samples, got {len(samples)}")
    return np.lib.stride_tricks.sliding_window_view(samples, window)[::hop]


def stft(samples: np.ndarray, fs: int, window: int = AcousticsConfig.window, hop: int = AcousticsConfig.hop) -> Spectrogram:
    """Hann-windowed magnitude-squared STFT of the frames of :func:`_frames`."""
    power = np.abs(np.fft.rfft(_frames(samples, window, hop) * hann_window(window), axis=1)) ** 2
    return Spectrogram(power=power, fs=fs, window=window, hop=hop)


def band_bins(fs: int, window: int, f_lo: float, f_hi: float) -> np.ndarray:
    """Mask of the bins of a ``window``-sample transform at ``fs`` Hz whose
    center frequency lies in [f_lo, f_hi]."""
    freqs = np.arange(window // 2 + 1, dtype=np.float64) * fs / window
    return (freqs >= f_lo) & (freqs <= f_hi)


def band_energy(samples: np.ndarray, fs: int, window: int = AcousticsConfig.window, hop: int = AcousticsConfig.hop) -> np.ndarray:
    """Per-frame sum of :func:`stft`'s power over the bins of the snap band
    ``SNAP_BAND_HZ``, byte for byte, with no spectrogram held.

    The frames are windowed and transformed ``STFT_BLOCK_SAMPLES / window``
    at a time through reused buffers, and only the band's bins are squared
    and summed.  Each step works elementwise or row by row, so a frame's
    bits do not depend on its block.  The band buffer is column-major, so
    numpy adds a frame's bins in order, as on the spectrogram's band
    columns; it would add a lone row pairwise, so a lone last frame joins
    the block before it.
    """
    frames = _frames(samples, window, hop)
    bins = np.flatnonzero(band_bins(fs, window, *SNAP_BAND_HZ))
    if not len(bins):
        raise ValueError(f"no frequency bin of a {window}-sample window at {fs} Hz lies in the snap band")
    band = slice(bins[0], bins[-1] + 1)
    n = len(frames)
    block = max(STFT_BLOCK_SAMPLES // window, 2)
    taper = hann_window(window)
    windowed = np.empty((block + 1, window))
    spectrum = np.empty((block + 1, window // 2 + 1), dtype=np.complex128)
    power = np.empty((block + 1, len(bins)), order="F")
    energy = np.empty(n)
    for start in range(0, max(n - 1, 1), block):
        stop = n if n - start <= block + 1 else start + block
        m = stop - start
        np.multiply(frames[start:stop], taper, out=windowed[:m])
        np.fft.rfft(windowed[:m], axis=1, out=spectrum[:m])
        np.abs(spectrum[:m, band], out=power[:m])
        np.square(power[:m], out=power[:m])
        power[:m].sum(axis=1, out=energy[start:stop])
    return energy


@dataclass
class SnapDetection:
    times: np.ndarray  # seconds from window start, sorted
    count: int
    rate: float  # snaps / second of window duration


def _refine_peak_times(energy: np.ndarray, peaks: np.ndarray, baseline: float, fs: int, window: int, hop: int) -> np.ndarray:
    """Sub-frame timing of the impulsive peak at each interior frame in
    ``peaks``, elementwise.

    With 50 % overlap a short burst excites exactly two adjacent frames with
    Hann-squared weights, so the energy ratio of the peak and its larger
    neighbor (the previous frame on a tie) inverts in closed form to the
    burst position.  Other hop sizes, and a peak whose neighbors both stay at
    or below ``baseline``, take the energy centroid of the three frames, each
    weight clipped at 0.  A peak that does not rise above ``baseline`` keeps
    its frame center, ``(frame * hop + window / 2) / fs``.
    """
    frame_times = (np.arange(len(energy)) * hop + window / 2) / fs
    times = frame_times[peaks]
    e_prev, e_peak, e_next = (energy[peaks + step] - baseline for step in (-1, 0, 1))
    # The pair's left frame is the previous one when that is the larger neighbor, else the peak.
    prev_side = e_prev >= e_next
    e_left = np.where(prev_side, e_prev, e_peak)
    e_right = np.where(prev_side, e_peak, e_next)
    closed = (e_left > 0) & (e_right > 0) & (2 * hop == window)
    centroid = (e_peak > 0) & ~closed

    w_prev, w_peak, w_next = (np.maximum(e[centroid], 0.0) for e in (e_prev, e_peak, e_next))
    at = peaks[centroid]  # w_peak > 0, so the weights sum above 0
    times[centroid] = (w_prev * frame_times[at - 1] + w_peak * frame_times[at] + w_next * frame_times[at + 1]) / (w_prev + w_peak + w_next)

    sqrt_rho = np.sqrt(e_right[closed] / e_left[closed])
    cos_phi = np.clip((1.0 - sqrt_rho) / (1.0 + sqrt_rho), -1.0, 1.0)
    phi = np.arccos(cos_phi)
    offset = hop + window * phi / (2.0 * np.pi)
    times[closed] = ((peaks - prev_side)[closed] * hop + offset) / fs
    return times


def detect_snaps(energy: np.ndarray, fs: int, window: int, hop: int, duration: float) -> SnapDetection:
    """Count transient spikes in a band-energy series, one value per
    ``window``-sample frame every ``hop`` samples at ``fs`` Hz, with the
    thresholds and refractory gap of the module constants.

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
    frame_period = hop / fs
    kept: list[int] = []
    for c in candidates:
        if kept and (c - kept[-1]) * frame_period < REFRACTORY_S:
            if energy[c] > energy[kept[-1]]:
                kept[-1] = c
        else:
            kept.append(c)

    times = np.sort(_refine_peak_times(energy, np.array(kept, dtype=np.intp), baseline, fs, window, hop))
    return SnapDetection(times, len(kept), len(kept) / duration)


def detect_snaps_in_window(window: AudioWindow, config: AcousticsConfig | None = None) -> SnapDetection:
    """Run the full detection chain on one audio window.

    Saturated windows (thruster noise) are refused: their statistics carry
    no usable signal.
    """
    cfg = config or AcousticsConfig()
    if window.saturated:
        raise SaturatedWindowError("window is saturated (thruster noise); detection refused")
    energy = band_energy(window.samples, window.fs, cfg.window, cfg.hop)
    return detect_snaps(energy, window.fs, cfg.window, cfg.hop, window.duration)


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
    # The checks of band_energy and detect_snaps, made once for the log's windows.
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
