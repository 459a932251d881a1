"""Synthetic reef worlds.

A :class:`GridWorld` holds, on a regular 2-D grid of square cells:

* bathymetry (seafloor depth in meters, positive down),
* a per-cell categorical distribution over ``H`` ground-truth habitats,
* a per-habitat categorical appearance model over ``V`` visual words,
* a per-cell Poisson snap-emission rate (snaps/second).

Worlds are generated deterministically from (config, seed), are immutable
after generation, and can be queried concurrently.  The module also
synthesizes hydrophone audio for a listener position: snap events arrive as
a Poisson process whose rate sums the per-cell emission rates attenuated by
geometric spreading ``1 / (1 + r^2)``, each event rendered as a short
band-limited decaying noise burst on top of Gaussian background noise.

A window's bursts are rendered as one batch.  The batch takes its noise from
a single ``rng.standard_normal((n_snaps, m))`` draw, which consumes the
stream exactly as ``n_snaps`` successive draws of ``m`` would, and adds the
bursts into the window in snap order; so a batch equals rendering and adding
the bursts one by one, bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from .errors import ConfigError, finite

WORLD_FORMAT = "reefsim-world-v1"

# Snap rendering constants: a ~1 ms broadband click.
SNAP_BURST_S = 1.0e-3
SNAP_DECAY_S = 2.0e-4
SNAP_BAND_HZ = (2000.0, 24000.0)

MIN_AUDIO_FS = 48_000


@dataclass(frozen=True)
class WorldConfig:
    """Parameters of the world generator.  All rates and levels are
    configuration, not claims about any particular reef."""

    width_m: float = 20.0
    height_m: float = 20.0
    cell_size_m: float = 1.0
    n_habitats: int = 3
    vocab_size: int = 30
    patch_length_m: float = 6.0  # smoothing length of the habitat noise field
    habitat_fractions: tuple[float, ...] | None = None  # area shares; None = equal
    appearance_overlap: float = 0.05  # shared word mass between habitats
    snap_rates_per_s: tuple[float, ...] = (30.0, 0.0, 0.0)  # per-habitat emission rate
    snap_amplitude: float = 0.2  # peak amplitude of a rendered snap
    background_sigma: float = 0.003  # Gaussian hydrophone background level
    base_depth_m: float = 8.0
    depth_relief_m: float = 1.0

    def validate(self) -> None:
        if not (finite(self.width_m, self.height_m) and self.width_m > 0 and self.height_m > 0):
            raise ConfigError("world width_m and height_m must be positive and finite")
        if not (finite(self.cell_size_m) and self.cell_size_m > 0):
            raise ConfigError("world cell_size_m must be positive and finite")
        if not (finite(self.n_habitats) and self.n_habitats >= 1):
            raise ConfigError("need at least one habitat")
        if not (finite(self.vocab_size) and self.vocab_size >= 2):
            raise ConfigError("vocabulary needs at least two words")
        if self.n_habitats > self.vocab_size:
            raise ConfigError("more habitats than vocabulary words")
        if len(self.snap_rates_per_s) != self.n_habitats:
            raise ConfigError("snap_rates_per_s must list one rate per habitat")
        if not (finite(*self.snap_rates_per_s) and all(r >= 0 for r in self.snap_rates_per_s)):
            raise ConfigError("snap rates must be non-negative and finite")
        if not 0.0 <= self.appearance_overlap < 1.0:
            raise ConfigError("appearance_overlap must be in [0, 1)")
        if not (finite(self.patch_length_m) and self.patch_length_m > 0):
            raise ConfigError("patch_length_m must be positive and finite")
        if not (finite(self.base_depth_m) and self.base_depth_m > 0):
            raise ConfigError("base_depth_m must be positive and finite")
        if self.habitat_fractions is not None:
            if len(self.habitat_fractions) != self.n_habitats:
                raise ConfigError("habitat_fractions must list one share per habitat")
            fractions = self.habitat_fractions
            if not (finite(*fractions) and all(f > 0 for f in fractions) and abs(sum(fractions) - 1.0) <= 1e-9):
                raise ConfigError("habitat_fractions must be positive and sum to 1")


@dataclass
class GridWorld:
    """Immutable synthetic reef.  Arrays are indexed ``[iy, ix]``; the cell
    ``(ix, iy)`` covers ``[ix*s, (ix+1)*s) x [iy*s, (iy+1)*s)`` meters."""

    width_m: float
    height_m: float
    cell_size_m: float
    bathymetry: np.ndarray  # (ny, nx) depth in m, positive down
    habitat_field: np.ndarray  # (ny, nx, H) categorical over habitats
    appearance: np.ndarray  # (H, V) categorical over visual words
    snap_rate: np.ndarray  # (ny, nx) snaps/second
    seed: int
    snap_amplitude: float = 0.2  # peak amplitude of a rendered snap
    background_sigma: float = 0.003  # hydrophone background noise level

    @property
    def nx(self) -> int:
        return self.bathymetry.shape[1]

    @property
    def ny(self) -> int:
        return self.bathymetry.shape[0]

    @property
    def n_habitats(self) -> int:
        return self.habitat_field.shape[2]

    @property
    def vocab_size(self) -> int:
        return self.appearance.shape[1]

    def contains(self, x: float, y: float) -> bool:
        return 0.0 <= x <= self.width_m and 0.0 <= y <= self.height_m

    def cell_index(self, x: float, y: float) -> tuple[int, int]:
        """Map a position to (ix, iy); the far boundary belongs to the last cell."""
        if not self.contains(x, y):
            raise ValueError(f"position ({x}, {y}) outside world bounds")
        ix = min(int(x / self.cell_size_m), self.nx - 1)
        iy = min(int(y / self.cell_size_m), self.ny - 1)
        return ix, iy

    def cell_id(self, x: float, y: float) -> int:
        ix, iy = self.cell_index(x, y)
        return iy * self.nx + ix

    def habitat_at(self, x: float, y: float) -> np.ndarray:
        ix, iy = self.cell_index(x, y)
        return self.habitat_field[iy, ix]

    def depth_at(self, x: float, y: float) -> float:
        ix, iy = self.cell_index(x, y)
        return float(self.bathymetry[iy, ix])

    def word_mixture_at(self, x: float, y: float) -> np.ndarray:
        """P(word | position) = sum_h P(word | h) P(h | position)."""
        return self.habitat_at(x, y) @ self.appearance

    def dominant_habitat(self) -> np.ndarray:
        """(ny, nx) index of the most probable habitat per cell."""
        return np.argmax(self.habitat_field, axis=2)

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        s = self.cell_size_m
        cx = (np.arange(self.nx) + 0.5) * s
        cy = (np.arange(self.ny) + 0.5) * s
        return np.meshgrid(cx, cy)

    def validate(self) -> None:
        if not np.all(self.bathymetry > 0):
            raise ValueError("bathymetry must be positive (depth below surface)")
        if not np.all(self.snap_rate >= 0):
            raise ValueError("snap rates must be non-negative")
        if not np.allclose(self.habitat_field.sum(axis=2), 1.0, atol=1e-9):
            raise ValueError("per-cell habitat distributions must sum to 1")
        if not np.allclose(self.appearance.sum(axis=1), 1.0, atol=1e-9):
            raise ValueError("appearance distributions must sum to 1")

    def save(self, path: str | Path) -> None:
        """Write the world as a single self-describing JSON file."""
        payload = {
            "format": WORLD_FORMAT,
            "width_m": self.width_m,
            "height_m": self.height_m,
            "cell_size_m": self.cell_size_m,
            "seed": self.seed,
            "snap_amplitude": self.snap_amplitude,
            "background_sigma": self.background_sigma,
            "bathymetry": self.bathymetry.tolist(),
            "habitat_field": self.habitat_field.tolist(),
            "appearance": self.appearance.tolist(),
            "snap_rate": self.snap_rate.tolist(),
        }
        Path(path).write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "GridWorld":
        from .errors import DataError

        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise DataError(f"cannot read world file {path}: {exc}") from exc
        if payload.get("format") != WORLD_FORMAT:
            raise DataError(f"unsupported world format: {payload.get('format')!r}")
        world = cls(
            width_m=float(payload["width_m"]),
            height_m=float(payload["height_m"]),
            cell_size_m=float(payload["cell_size_m"]),
            bathymetry=np.asarray(payload["bathymetry"], dtype=np.float64),
            habitat_field=np.asarray(payload["habitat_field"], dtype=np.float64),
            appearance=np.asarray(payload["appearance"], dtype=np.float64),
            snap_rate=np.asarray(payload["snap_rate"], dtype=np.float64),
            seed=int(payload["seed"]),
            snap_amplitude=float(payload["snap_amplitude"]),
            background_sigma=float(payload["background_sigma"]),
        )
        world.validate()
        return world


@dataclass
class AudioWindow:
    """One hydrophone recording window.

    ``truth_snap_times`` are ground-truth event offsets in seconds from the
    window start; they exist only in simulation and never feed the detector.
    """

    samples: np.ndarray  # float32 in [-1, 1]
    fs: int
    start_time: float
    truth_snap_times: np.ndarray = field(default_factory=lambda: np.empty(0))
    saturated: bool = False

    @property
    def duration(self) -> float:
        return len(self.samples) / self.fs

    def validate(self) -> None:
        if np.max(np.abs(self.samples), initial=0.0) > 1.0:
            raise ValueError("samples must lie in [-1, 1]")
        if len(self.truth_snap_times):
            if np.any(np.diff(self.truth_snap_times) < 0):
                raise ValueError("truth_snap_times must be sorted")
            if self.truth_snap_times[0] < 0 or self.truth_snap_times[-1] > self.duration:
                raise ValueError("truth_snap_times must lie within the window")


def _value_noise(nx: int, ny: int, cell_size: float, length: float, rng: np.random.Generator) -> np.ndarray:
    """Smooth random field at cell centers: iid normal lattice values at
    spacing ``length`` meters, bilinearly interpolated."""
    width, height = nx * cell_size, ny * cell_size
    lat_nx = int(np.ceil(width / length)) + 2
    lat_ny = int(np.ceil(height / length)) + 2
    lattice = rng.standard_normal((lat_ny, lat_nx))

    cx = (np.arange(nx) + 0.5) * cell_size / length
    cy = (np.arange(ny) + 0.5) * cell_size / length
    gx, gy = np.meshgrid(cx, cy)
    ix0 = np.clip(gx.astype(int), 0, lat_nx - 2)
    iy0 = np.clip(gy.astype(int), 0, lat_ny - 2)
    fx = gx - ix0
    fy = gy - iy0
    v00 = lattice[iy0, ix0]
    v01 = lattice[iy0, ix0 + 1]
    v10 = lattice[iy0 + 1, ix0]
    v11 = lattice[iy0 + 1, ix0 + 1]
    return (
        v00 * (1 - fx) * (1 - fy)
        + v01 * fx * (1 - fy)
        + v10 * (1 - fx) * fy
        + v11 * fx * fy
    )


def _block_appearance(n_habitats: int, vocab_size: int, overlap: float) -> np.ndarray:
    """Well-separated appearance models: each habitat concentrates
    ``1 - overlap`` of its mass on its own block of the vocabulary and
    spreads ``overlap`` uniformly over all words.  Total variation between
    any two habitats is exactly ``1 - overlap``."""
    blocks = np.arange(vocab_size) * n_habitats // vocab_size
    appearance = np.full((n_habitats, vocab_size), overlap / vocab_size)
    for h in range(n_habitats):
        members = np.flatnonzero(blocks == h)
        appearance[h, members] += (1.0 - overlap) / len(members)
    return appearance


def generate_world(config: WorldConfig, seed: int) -> GridWorld:
    """Generate a world deterministically from (config, seed).

    The habitat field comes from a smoothed value-noise surface thresholded
    at equal-probability quantiles into ``n_habitats`` contiguous patches;
    each cell carries a point-mass habitat distribution.  Per-cell snap rate
    is the habitat mixture of the configured per-habitat rates.
    """
    from .rng import substream

    config.validate()
    nx = max(1, round(config.width_m / config.cell_size_m))
    ny = max(1, round(config.height_m / config.cell_size_m))

    habitat_noise = _value_noise(nx, ny, config.cell_size_m, config.patch_length_m, substream(seed, "world-habitat"))
    if config.n_habitats == 1:
        labels = np.zeros((ny, nx), dtype=int)
    else:
        fractions = config.habitat_fractions or tuple(1.0 / config.n_habitats for _ in range(config.n_habitats))
        cuts = np.cumsum(fractions)[:-1]
        qs = np.quantile(habitat_noise, cuts)
        labels = np.searchsorted(qs, habitat_noise)
    habitat_field = np.zeros((ny, nx, config.n_habitats))
    for h in range(config.n_habitats):
        habitat_field[:, :, h] = labels == h

    depth_noise = _value_noise(nx, ny, config.cell_size_m, config.patch_length_m, substream(seed, "world-bathymetry"))
    scale = max(np.max(np.abs(depth_noise)), 1e-12)
    bathymetry = config.base_depth_m + config.depth_relief_m * depth_noise / scale
    bathymetry = np.maximum(bathymetry, 0.1 * config.base_depth_m)

    snap_rate = habitat_field @ np.asarray(config.snap_rates_per_s, dtype=np.float64)

    world = GridWorld(
        width_m=nx * config.cell_size_m,
        height_m=ny * config.cell_size_m,
        cell_size_m=config.cell_size_m,
        bathymetry=bathymetry,
        habitat_field=habitat_field,
        appearance=_block_appearance(config.n_habitats, config.vocab_size, config.appearance_overlap),
        snap_rate=snap_rate,
        seed=seed,
        snap_amplitude=config.snap_amplitude,
        background_sigma=config.background_sigma,
    )
    world.validate()
    return world


def sample_image_words(world: GridWorld, x: float, y: float, n_words: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a visual-word histogram at a position.

    Words are i.i.d. from the habitat mixture sum_h P(word|h) P(h|x); the
    returned length-V histogram sums to ``n_words``.
    """
    if n_words < 1:
        raise ValueError("n_words must be >= 1")
    mixture = world.word_mixture_at(x, y)
    mixture = mixture / mixture.sum()
    return rng.multinomial(n_words, mixture)


def expected_snap_rate(world: GridWorld, x: float, y: float) -> float:
    """Closed-form arrival rate heard at (x, y): per-cell rates attenuated
    by geometric spreading 1/(1+r^2) to the cell center, no multipath."""
    cx, cy = world.cell_centers()
    r2 = (cx - x) ** 2 + (cy - y) ** 2
    return float(np.sum(world.snap_rate / (1.0 + r2)))


def make_snap_bursts(fs: int, n_snaps: int, rng: np.random.Generator) -> np.ndarray:
    """``(n_snaps, m)`` unit-peak snap waveforms: ~1 ms of exponentially
    decaying noise per row, band-limited to the snap band by FFT masking."""
    m = max(8, round(SNAP_BURST_S * fs))
    t = np.arange(m) / fs
    bursts = rng.standard_normal((n_snaps, m)) * np.exp(-t / SNAP_DECAY_S)
    spectrum = np.fft.rfft(bursts, axis=1)
    freqs = np.fft.rfftfreq(m, 1.0 / fs)
    spectrum[:, (freqs < SNAP_BAND_HZ[0]) | (freqs > SNAP_BAND_HZ[1])] = 0.0
    bursts = np.fft.irfft(spectrum, m, axis=1)
    peak = np.max(np.abs(bursts), axis=1, keepdims=True)
    # A pathological draw keeps silence rather than dividing by ~0.
    silent = peak < 1e-12
    return np.where(silent, 0.0, bursts / np.where(silent, 1.0, peak))


def make_snap_burst(fs: int, rng: np.random.Generator) -> np.ndarray:
    """One unit-peak snap waveform (see :func:`make_snap_bursts`)."""
    return make_snap_bursts(fs, 1, rng)[0]


def synthesize_audio(
    world: GridWorld,
    x: float,
    y: float,
    duration: float,
    fs: int,
    thrusters_on: bool,
    rng: np.random.Generator,
    start_time: float = 0.0,
) -> AudioWindow:
    """Render one hydrophone window at a listener position.

    Snap times are a Poisson process at the spreading-attenuated rate sum;
    each snap is a unit-peak burst scaled to the configured snap amplitude.
    Background is white Gaussian noise.  With thrusters on, broadband noise
    at 0.95 full scale is added and the result clips, flagging saturation.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    if fs < MIN_AUDIO_FS:
        raise ValueError(f"fs must be >= {MIN_AUDIO_FS} Hz so the snap band fits below Nyquist")
    if not world.contains(x, y):
        raise ValueError(f"listener position ({x}, {y}) outside world bounds")

    n = round(duration * fs)
    rate = expected_snap_rate(world, x, y)
    n_snaps = rng.poisson(rate * duration)
    snap_times = np.sort(rng.uniform(0.0, duration, n_snaps))

    samples = np.zeros(n)
    bursts = make_snap_bursts(fs, n_snaps, rng) * world.snap_amplitude
    # Overlap-add in snap order; a burst running past the window end is cut.
    index = (snap_times * fs).astype(np.int64)[:, None] + np.arange(bursts.shape[1])
    inside = index < n
    np.add.at(samples, index[inside], bursts[inside])

    if world.background_sigma > 0:
        samples += rng.normal(0.0, world.background_sigma, n)
    if thrusters_on:
        samples += rng.normal(0.0, 0.95, n)

    clipped = bool(np.max(np.abs(samples), initial=0.0) > 1.0)
    samples = np.clip(samples, -1.0, 1.0)

    window = AudioWindow(
        samples=samples.astype(np.float32),
        fs=fs,
        start_time=start_time,
        truth_snap_times=snap_times,
        saturated=thrusters_on or clipped,
    )
    window.validate()
    return window


def write_wav(path: str | Path, window: AudioWindow) -> None:
    """Export a window as 32-bit float WAV."""
    wavfile.write(str(path), window.fs, window.samples.astype(np.float32))


def read_wav(path: str | Path) -> tuple[np.ndarray, int]:
    """Read a 32-bit float WAV back as (samples, fs)."""
    from .errors import DataError

    try:
        fs, samples = wavfile.read(str(path))
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read WAV {path}: {exc}") from exc
    return np.asarray(samples, dtype=np.float32), int(fs)
