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

A window is rendered in float32, the sample format of its WAV.  Its stream
is, in order: the snap count, the snap times, the bursts' noise (float64,
cast to float32 once scaled), then one ``rng.standard_normal(n,
dtype=np.float32)`` background draw scaled in place, and one more for
thruster noise.  The bursts are added into the background in place, and the
window is clipped in place, so no float64 copy of the window is made.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, build, check_section, check_value, data_errors, field_types, json_object, write_json_lines

WORLD_FORMAT = "reefsim-world-v1"

# Snap rendering constants: a ~1 ms broadband click.
SNAP_BURST_S = 1.0e-3
SNAP_DECAY_S = 2.0e-4
SNAP_BAND_HZ = (2000.0, 24000.0)

MIN_AUDIO_FS = 48_000

# Upper bounds on the arrays a world is built from, so that a config cannot
# ask for more cells, noise-lattice points, habitat-field entries or
# appearance entries than memory holds.  The largest world any test,
# benchmark or example builds is 60 m x 60 m at 1 m cells: 3,600 cells,
# 12 x 12 = 144 lattice points per noise field (at the default 6 m patch
# length), 3,600 x 3 = 10,800 habitat-field entries and 3 x 30 = 90
# appearance entries.  Each budget allows 100 times that.  The habitat field
# (cells x habitats) is what the world and its file hold: a 600 m x 600 m
# world took 1.8 s, peaked at 179 MB and wrote a 13 MB world file with 3
# habitats, and 12.6 s, 2.0 GB and 144 MB with 94 habitats over 95 words,
# on a 2-vCPU x86_64 VM.
MAX_GRID_CELLS = 360_000
MAX_LATTICE_POINTS = 14_400
MAX_HABITAT_FIELD_ENTRIES = 1_080_000
MAX_APPEARANCE_ENTRIES = 9_000


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

    def __post_init__(self) -> None:
        rates, fractions = self.snap_rates_per_s, self.habitat_fractions
        check_section(self, ("width_m", lambda: self.width_m > 0, "must be positive"),
                      ("height_m", lambda: self.height_m > 0, "must be positive"),
                      ("cell_size_m", lambda: self.cell_size_m > 0, "must be positive"),
                      ("n_habitats", lambda: self.n_habitats >= 1, "must be at least 1"),
                      ("vocab_size", lambda: self.vocab_size >= 2, "must be at least 2"),
                      ("n_habitats", lambda: self.n_habitats <= self.vocab_size, "must not exceed vocab_size"),
                      ("snap_rates_per_s", lambda: len(rates) == self.n_habitats and min(rates) >= 0, "must list one non-negative rate per habitat"),
                      ("appearance_overlap", lambda: 0.0 <= self.appearance_overlap < 1.0, "must be in [0, 1)"),
                      ("patch_length_m", lambda: self.patch_length_m > 0, "must be positive"),
                      ("background_sigma", lambda: self.background_sigma >= 0, "must be non-negative"),
                      ("base_depth_m", lambda: self.base_depth_m > 0, "must be positive"),
                      ("habitat_fractions", lambda: fractions is None or (len(fractions) == self.n_habitats and min(fractions) > 0 and abs(sum(fractions) - 1) <= 1e-9), "must list one positive share per habitat, summing to 1"),
                      # Each budget is checked in floats before the counts it bounds are rounded to ints.
                      ("cell_size_m", lambda: max(self.width_m, self.height_m) / self.cell_size_m <= MAX_GRID_CELLS
                       and math.prod(self.grid_shape) <= MAX_GRID_CELLS, f"must give at most {MAX_GRID_CELLS:,} cells over width_m x height_m"),
                      ("patch_length_m", lambda: max(self.grid_shape) * self.cell_size_m / self.patch_length_m <= MAX_LATTICE_POINTS
                       and math.prod(_lattice_shape(*self.grid_shape, self.cell_size_m, self.patch_length_m)) <= MAX_LATTICE_POINTS,
                       f"must give at most {MAX_LATTICE_POINTS:,} value-noise lattice points over width_m x height_m"),
                      ("n_habitats", lambda: math.prod(self.grid_shape) * self.n_habitats <= MAX_HABITAT_FIELD_ENTRIES,
                       f"times the grid cells must be at most {MAX_HABITAT_FIELD_ENTRIES:,} habitat-field entries"),
                      ("vocab_size", lambda: self.n_habitats * self.vocab_size <= MAX_APPEARANCE_ENTRIES,
                       f"times n_habitats must be at most {MAX_APPEARANCE_ENTRIES:,} appearance entries"))

    @property
    def grid_shape(self) -> tuple[int, int]:
        """``(nx, ny)``: the cells across the width and the height."""
        return max(1, round(self.width_m / self.cell_size_m)), max(1, round(self.height_m / self.cell_size_m))


@dataclass
class GridWorld:
    """Immutable synthetic reef.  Arrays are indexed ``[iy, ix]``; the cell
    ``(ix, iy)`` covers ``[ix*s, (ix+1)*s) x [iy*s, (iy+1)*s)`` meters.  A
    world checks itself once, when it is built, as a config section does."""

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

    def __post_init__(self) -> None:
        b, h, a, r = self.bathymetry, self.habitat_field, self.appearance, self.snap_rate
        check_section(self, ("world arrays", lambda: all(np.isfinite(x).all() for x in (b, h, a, r)), "must be finite"),
                      ("world arrays", lambda: (b.ndim == r.ndim == a.ndim == 2 and h.ndim == 3
                                                and b.shape == r.shape == h.shape[:2] and h.shape[2] == a.shape[0]),
                       "must be shaped (ny, nx), (ny, nx, H) and (H, V)"),
                      ("width_m", lambda: self.width_m > 0, "must be positive"),
                      ("height_m", lambda: self.height_m > 0, "must be positive"),
                      ("cell_size_m", lambda: self.cell_size_m > 0, "must be positive"),
                      ("bathymetry", lambda: np.all(b > 0), "must be positive (depth below surface)"),
                      ("snap_rate", lambda: np.all(r >= 0), "must be non-negative"),
                      ("background_sigma", lambda: self.background_sigma >= 0, "must be non-negative"),
                      ("habitat_field", lambda: np.allclose(h.sum(axis=2), 1.0, atol=1e-9), "must sum to 1 in every cell"),
                      ("appearance", lambda: np.allclose(a.sum(axis=1), 1.0, atol=1e-9), "must sum to 1 for every habitat"))

    @property
    def nx(self) -> int:
        return self.bathymetry.shape[1]

    @property
    def ny(self) -> int:
        return self.bathymetry.shape[0]

    @property
    def n_habitats(self) -> int:
        return self.habitat_field.shape[2]

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

    def save(self, path: str | Path) -> None:
        """Write the world's fields as a single self-describing JSON line."""
        fields = {key: value.tolist() if isinstance(value, np.ndarray) else value for key, value in vars(self).items()}
        write_json_lines(path, [{"format": WORLD_FORMAT, **fields}])

    @classmethod
    def load(cls, path: str | Path) -> "GridWorld":
        """Read a world file; any way it can fail to be one raises
        :class:`DataError`.  Every field must match its annotation.  The
        array fields are read as float64 once each leaf that is not a float
        has been checked as a ``float`` field is: ``np.asarray`` alone would
        read ``true`` as 1.0 and ``"7.5"`` as 7.5."""
        with data_errors(f"world file {path}"):
            payload = json_object(Path(path).read_text())
            world_format = payload.pop("format", None)
            if world_format != WORLD_FORMAT:
                raise ValueError(f"unsupported world format {world_format!r}")
            for key in (name for name, annotation in field_types(cls).items() if annotation is np.ndarray):
                leaves = np.asarray(payload[key], dtype=object)
                if not set(map(type, leaves.flat)) <= {float}:
                    for index in np.ndindex(leaves.shape):
                        check_value(float, leaves[index], f"{key}{list(index) or ''}")
                payload[key] = leaves.astype(np.float64)
            return build(cls, payload)


@dataclass
class AudioWindow:
    """One hydrophone recording window.

    ``truth_snap_times`` are ground-truth event offsets in seconds from the
    window start; they exist only in simulation and never feed the detector.
    """

    samples: np.ndarray  # float32 in [-1, 1]
    fs: int
    truth_snap_times: np.ndarray = field(default_factory=lambda: np.empty(0))
    saturated: bool = False

    @property
    def duration(self) -> float:
        return len(self.samples) / self.fs

    def validate(self) -> None:
        # Written so that a NaN sample fails: it compares false with +-1.0.
        if not (np.max(self.samples, initial=0.0) <= 1.0 and np.min(self.samples, initial=0.0) >= -1.0):
            raise ValueError("samples must be finite and lie in [-1, 1]")
        if len(self.truth_snap_times):
            if np.any(np.diff(self.truth_snap_times) < 0):
                raise ValueError("truth_snap_times must be sorted")
            if self.truth_snap_times[0] < 0 or self.truth_snap_times[-1] > self.duration:
                raise ValueError("truth_snap_times must lie within the window")


def _lattice_shape(nx: int, ny: int, cell_size: float, length: float) -> tuple[int, int]:
    """``(lat_nx, lat_ny)``: the value-noise lattice points across and up an
    ``nx`` x ``ny`` grid at spacing ``length``, one beyond each edge."""
    return int(np.ceil(nx * cell_size / length)) + 2, int(np.ceil(ny * cell_size / length)) + 2


def _value_noise(nx: int, ny: int, cell_size: float, length: float, rng: np.random.Generator) -> np.ndarray:
    """Smooth random field at cell centers: iid normal lattice values at
    spacing ``length`` meters, bilinearly interpolated."""
    lat_nx, lat_ny = _lattice_shape(nx, ny, cell_size, length)
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

    nx, ny = config.grid_shape

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

    return GridWorld(
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
    bursts /= np.where(silent, 1.0, peak)
    bursts[silent[:, 0]] = 0.0
    return bursts


def synthesize_audio(
    world: GridWorld,
    x: float,
    y: float,
    duration: float,
    fs: int,
    thrusters_on: bool,
    rng: np.random.Generator,
) -> AudioWindow:
    """Render one hydrophone window at a listener position.

    Snap times are a Poisson process at the spreading-attenuated rate sum;
    each snap is a unit-peak burst scaled to the configured snap amplitude.
    Background is white Gaussian noise.  With thrusters on, broadband noise
    at 0.95 full scale is added and the result clips, flagging saturation.
    The samples are float32 throughout (see the module docstring).
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
    bursts = (make_snap_bursts(fs, n_snaps, rng) * world.snap_amplitude).astype(np.float32)

    if world.background_sigma > 0:
        samples = rng.standard_normal(n, dtype=np.float32)
        samples *= np.float32(world.background_sigma)
    else:
        samples = np.zeros(n, dtype=np.float32)
    if thrusters_on:
        thrusters = rng.standard_normal(n, dtype=np.float32)
        thrusters *= np.float32(0.95)
        samples += thrusters
    # Overlap-add in snap order; a burst running past the window end is cut.
    index = (snap_times * fs).astype(np.int64)[:, None] + np.arange(bursts.shape[1])
    inside = index < n
    np.add.at(samples, index[inside], bursts[inside])

    clipped = bool(np.max(samples, initial=0.0) > 1.0 or np.min(samples, initial=0.0) < -1.0)
    np.clip(samples, -1.0, 1.0, out=samples)

    return AudioWindow(
        samples=samples,
        fs=fs,
        truth_snap_times=snap_times,
        saturated=thrusters_on or clipped,
    )


def write_wav(path: str | Path, window: AudioWindow) -> None:
    """Export a window as 32-bit float WAV."""
    from scipy.io import wavfile

    wavfile.write(str(path), window.fs, np.asarray(window.samples, dtype=np.float32))


def read_wav(path: str | Path) -> tuple[np.ndarray, int]:
    """Read a 32-bit float WAV back as (samples, fs).  Whatever the reader
    raises or warns about a damaged file raises :class:`DataError`."""
    from scipy.io import wavfile

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", wavfile.WavFileWarning)
            fs, samples = wavfile.read(str(path))
    except Exception as exc:  # a damaged header also fails as UnboundLocalError, struct.error or ZeroDivisionError
        raise DataError(f"cannot read WAV {path}: {exc}") from exc
    return np.asarray(samples, dtype=np.float32), int(fs)
