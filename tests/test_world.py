from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from json_leaves import OTHER_JSON_VALUES, leaf, leaf_paths, other_type, replace_leaf

from reefsim.errors import ConfigError, DataError
from reefsim.rng import substream
from reefsim.world import (
    AudioWindow,
    GridWorld,
    WorldConfig,
    _standard_normal_f32,
    expected_snap_rate,
    generate_world,
    make_snap_bursts,
    read_wav,
    sample_image_words,
    synthesize_audio,
    write_wav,
)


class TestGenerateWorld:
    def test_single_habitat_is_point_mass_everywhere(self) -> None:
        world = generate_world(WorldConfig(n_habitats=1, snap_rates_per_s=(5.0,)), seed=0)
        assert np.array_equal(world.habitat_field[:, :, 0], np.ones((world.ny, world.nx)))

    def test_20m_world_at_1m_cells_has_400_cells(self) -> None:
        world = generate_world(WorldConfig(width_m=20.0, height_m=20.0, cell_size_m=1.0), seed=1)
        assert world.nx * world.ny == 400

    def test_same_seed_gives_byte_identical_fields(self) -> None:
        config = WorldConfig()
        w1 = generate_world(config, seed=7)
        w2 = generate_world(config, seed=7)
        assert w1.habitat_field.tobytes() == w2.habitat_field.tobytes()
        assert w1.bathymetry.tobytes() == w2.bathymetry.tobytes()
        assert w1.snap_rate.tobytes() == w2.snap_rate.tobytes()

    def test_different_seed_changes_the_world(self) -> None:
        config = WorldConfig()
        assert generate_world(config, 0).habitat_field.tobytes() != generate_world(config, 1).habitat_field.tobytes()

    def test_distributions_sum_to_one(self, default_world) -> None:
        np.testing.assert_allclose(default_world.habitat_field.sum(axis=2), 1.0, atol=1e-9)
        np.testing.assert_allclose(default_world.appearance.sum(axis=1), 1.0, atol=1e-9)

    def test_bathymetry_positive_and_rates_nonnegative(self, default_world) -> None:
        assert np.all(default_world.bathymetry > 0)
        assert np.all(default_world.snap_rate >= 0)

    def test_snap_rate_is_habitat_mixture_of_configured_rates(self, default_world) -> None:
        rates = np.asarray(WorldConfig().snap_rates_per_s)
        np.testing.assert_allclose(default_world.snap_rate, default_world.habitat_field @ rates)

    def test_habitat_fractions_respected(self) -> None:
        config = WorldConfig(habitat_fractions=(0.2, 0.4, 0.4))
        world = generate_world(config, seed=5)
        areas = world.habitat_field.sum(axis=(0, 1)) / (world.nx * world.ny)
        np.testing.assert_allclose(areas, (0.2, 0.4, 0.4), atol=0.02)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(width_m=0.0),
            dict(cell_size_m=0.0),
            dict(n_habitats=0, snap_rates_per_s=()),
            dict(n_habitats=31, snap_rates_per_s=tuple([1.0] * 31)),  # H > V
            dict(snap_rates_per_s=(1.0,)),  # wrong length
        ],
    )
    def test_invalid_config_rejected(self, bad) -> None:
        with pytest.raises(ConfigError):
            generate_world(WorldConfig(**bad), seed=0)

    def test_appearance_blocks_are_well_separated(self, default_world) -> None:
        appearance = default_world.appearance
        for i in range(appearance.shape[0]):
            for j in range(i + 1, appearance.shape[0]):
                tv = 0.5 * np.abs(appearance[i] - appearance[j]).sum()
                assert tv == pytest.approx(1.0 - WorldConfig().appearance_overlap, abs=1e-12)


class TestCellGeometry:
    def test_far_boundary_belongs_to_last_cell(self, default_world) -> None:
        assert default_world.cell_index(default_world.width_m, default_world.height_m) == (
            default_world.nx - 1,
            default_world.ny - 1,
        )

    def test_out_of_bounds_rejected(self, default_world) -> None:
        with pytest.raises(ValueError):
            default_world.cell_index(-0.1, 1.0)
        with pytest.raises(ValueError):
            default_world.cell_index(1.0, default_world.height_m + 0.1)


class TestSampleImageWords:
    def test_point_mass_appearance_yields_point_mass_histogram(self, rng) -> None:
        world = generate_world(WorldConfig(n_habitats=3, vocab_size=8), seed=0)
        # force: every cell is habitat 2, and habitat 2's appearance is a
        # point mass on word 5
        world.habitat_field[:, :, :] = 0.0
        world.habitat_field[:, :, 2] = 1.0
        world.appearance[2, :] = 0.0
        world.appearance[2, 5] = 1.0
        hist = sample_image_words(world, 3.0, 3.0, 40, rng)
        assert hist[5] == 40 and hist.sum() == 40

    def test_histogram_sums_to_n_words(self, default_world, rng) -> None:
        assert sample_image_words(default_world, 5.0, 5.0, 17, rng).sum() == 17

    def test_zero_words_rejected(self, default_world, rng) -> None:
        with pytest.raises(ValueError):
            sample_image_words(default_world, 5.0, 5.0, 0, rng)

    def test_out_of_bounds_rejected(self, default_world, rng) -> None:
        with pytest.raises(ValueError):
            sample_image_words(default_world, -1.0, 5.0, 10, rng)

    def test_empirical_frequencies_match_mixture(self, default_world) -> None:
        # Oracle: direct evaluation of the mixture distribution.
        x, y = 7.3, 12.8
        mixture = default_world.word_mixture_at(x, y)
        rng = substream(99, "word-freq")
        hist = sample_image_words(default_world, x, y, 1_000_000, rng)
        empirical = hist / hist.sum()
        tv = 0.5 * np.abs(empirical - mixture).sum()
        assert tv < 0.01

    def test_mixture_chi2_consistency(self, default_world) -> None:
        from scipy.stats import chi2

        x, y = 3.6, 15.2
        mixture = default_world.word_mixture_at(x, y)
        n = 100_000
        hist = sample_image_words(default_world, x, y, n, substream(5, "chi2"))
        expected = mixture * n
        mask = expected > 5  # standard chi-square validity cut
        stat = float(np.sum((hist[mask] - expected[mask]) ** 2 / expected[mask]))
        dof = int(mask.sum()) - 1
        assert stat < chi2.ppf(0.999, dof)


class TestSynthesizeAudio:
    def test_silent_world_has_no_snaps(self, quiet_world) -> None:
        window = synthesize_audio(quiet_world, 10.0, 10.0, 1.0, 96_000, False, substream(0, "a"))
        assert len(window.truth_snap_times) == 0
        assert not window.saturated
        # pure background: bounded well below snap amplitude
        assert np.max(np.abs(window.samples)) < 10 * quiet_world.background_sigma

    def test_snap_count_matches_poisson_mean(self, default_world) -> None:
        # Oracle: closed-form Poisson mean from the spreading-attenuated rate sum.
        x, y, duration = 10.0, 10.0, 1.0
        mean = expected_snap_rate(default_world, x, y) * duration
        counts = [
            len(synthesize_audio(default_world, x, y, duration, 96_000, False, substream(s, "count")).truth_snap_times)
            for s in range(100)
        ]
        total = sum(counts)
        expected_total = 100 * mean
        assert abs(total - expected_total) < 3 * np.sqrt(expected_total)

    def test_thrusters_saturate_and_clip(self, quiet_world) -> None:
        window = synthesize_audio(quiet_world, 5.0, 5.0, 0.25, 96_000, True, substream(1, "thr"))
        assert window.saturated
        assert np.max(np.abs(window.samples)) == pytest.approx(1.0)

    def test_low_sample_rate_rejected(self, quiet_world) -> None:
        with pytest.raises(ValueError):
            synthesize_audio(quiet_world, 5.0, 5.0, 1.0, 44_100, False, substream(0, "fs"))

    def test_emission_is_habitat_faithful(self) -> None:
        # Single emitting cell far from the listener: the observed count
        # stays within the 3-sigma Poisson floor of the tiny expected rate.
        config = WorldConfig(n_habitats=1, snap_rates_per_s=(2.0,), width_m=20, height_m=20)
        world = generate_world(config, seed=2)
        world.snap_rate[:, :] = 0.0
        world.snap_rate[0, 0] = 2.0  # emitter at cell (0, 0), center (0.5, 0.5)
        x, y = 15.5, 15.5  # ~21 cells away
        duration = 10.0
        mean = expected_snap_rate(world, x, y) * duration
        assert mean < 0.05
        window = synthesize_audio(world, x, y, duration, 96_000, False, substream(4, "faith"))
        assert len(window.truth_snap_times) <= mean + 3 * np.sqrt(mean) + 1

    def test_determinism(self, default_world) -> None:
        w1 = synthesize_audio(default_world, 8.0, 8.0, 0.5, 96_000, False, substream(11, "det"))
        w2 = synthesize_audio(default_world, 8.0, 8.0, 0.5, 96_000, False, substream(11, "det"))
        assert np.array_equal(w1.samples, w2.samples)
        assert np.array_equal(w1.truth_snap_times, w2.truth_snap_times)


class TestAudioWindowValidate:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.0000001, -1.0000001], ids=["nan", "+inf", "-inf", "above-1", "below-minus-1"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sample_outside_unit_range_rejected(self, bad, dtype) -> None:
        samples = np.zeros(1000, dtype=dtype)
        samples[417] = bad
        with pytest.raises(ValueError, match="samples must be finite"):
            AudioWindow(samples, 48_000).validate()

    @pytest.mark.parametrize("samples", [np.ones(4), -np.ones(4), np.full(4, -0.5), np.empty(0, dtype=np.float32)], ids=["all-1", "all-minus-1", "all-negative", "empty"])
    def test_samples_in_unit_range_accepted(self, samples) -> None:
        AudioWindow(samples, 48_000).validate()


class TestStandardNormalF32:
    LARGEST = math.sqrt(-2 * math.log(2.0**-24))

    @pytest.fixture(scope="class")
    def draws(self) -> np.ndarray:
        return _standard_normal_f32(substream(0, "audio", 0), 960_001)

    def test_matches_standard_normal(self, draws) -> None:
        from scipy.stats import kstest

        assert draws.dtype == np.float32
        assert kstest(draws, "norm").pvalue > 0.01
        assert abs(draws.mean()) < 0.005
        assert abs(draws.std() - 1) < 0.005

    def test_tails_end_at_the_smallest_uniform_gap(self, draws) -> None:
        assert np.max(np.abs(draws)) <= self.LARGEST

    @pytest.mark.parametrize("n", [0, 1, 7, 10])
    def test_draws_two_uniforms_per_pair(self, n) -> None:
        rng, reference = substream(2, "bm"), substream(2, "bm")
        draws = _standard_normal_f32(rng, n)
        reference.random(2 * math.ceil(n / 2), dtype=np.float32)
        assert draws.shape == (n,) and draws.dtype == np.float32
        assert rng.bit_generator.state == reference.bit_generator.state


def synthesize_audio_per_snap(world, x, y, duration, fs, rng):
    """Reference renderer: one burst drawn at a time, then the float32
    background, then each burst added in float32, in snap order."""
    n = round(duration * fs)
    n_snaps = rng.poisson(expected_snap_rate(world, x, y) * duration)
    snap_times = np.sort(rng.uniform(0.0, duration, n_snaps))
    bursts = [(make_snap_bursts(fs, 1, rng)[0] * world.snap_amplitude).astype(np.float32) for _ in snap_times]
    samples = _standard_normal_f32(rng, n) * np.float32(world.background_sigma)
    for t_snap, burst in zip(snap_times, bursts):
        i0 = int(t_snap * fs)
        i1 = min(i0 + len(burst), n)
        samples[i0:i1] += burst[: i1 - i0]
    return np.clip(samples, -1.0, 1.0), snap_times


class TestBatchedSnapBursts:
    def test_single_burst_matches_one_dimensional_fft(self) -> None:
        fs = 96_000
        n = round(1.0e-3 * fs)
        rng = substream(8, "burst")
        t = np.arange(n) / fs
        burst = rng.standard_normal(n) * np.exp(-t / 2.0e-4)
        spectrum = np.fft.rfft(burst)
        freqs = np.fft.rfftfreq(n, 1.0 / fs)
        spectrum[(freqs < 2000.0) | (freqs > 24000.0)] = 0.0
        burst = np.fft.irfft(spectrum, n)
        expected = burst / np.max(np.abs(burst))
        assert make_snap_bursts(fs, 1, substream(8, "burst"))[0].tobytes() == expected.tobytes()

    def test_silent_draw_gives_silent_row(self) -> None:
        class HalfSilent:
            def standard_normal(self, shape):
                draw = np.random.default_rng(0).standard_normal(shape)
                draw[0] = 0.0
                return draw

        bursts = make_snap_bursts(96_000, 2, HalfSilent())
        assert not np.any(bursts[0])
        assert np.max(np.abs(bursts[1])) == 1.0

    def test_window_matches_per_snap_reference(self) -> None:
        # ~4,000 snaps/s heard: 1 ms bursts overlap, and one starts in the
        # last millisecond so it runs past the window end.
        world = generate_world(WorldConfig(snap_rates_per_s=(400.0, 400.0, 400.0)), seed=7)
        x, y, duration, fs = 10.0, 10.0, 1.0, 96_000
        window = synthesize_audio(world, x, y, duration, fs, False, substream(9, "batch"))
        samples, snap_times = synthesize_audio_per_snap(world, x, y, duration, fs, substream(9, "batch"))
        burst_s = 1.0e-3
        assert np.min(np.diff(snap_times)) < burst_s
        assert snap_times[-1] > duration - burst_s
        assert window.samples.tobytes() == samples.tobytes()
        assert window.truth_snap_times.tobytes() == snap_times.tobytes()

    def test_zero_snap_window_matches_per_snap_reference(self, quiet_world) -> None:
        window = synthesize_audio(quiet_world, 10.0, 10.0, 1.0, 96_000, False, substream(9, "none"))
        samples, snap_times = synthesize_audio_per_snap(quiet_world, 10.0, 10.0, 1.0, 96_000, substream(9, "none"))
        assert len(window.truth_snap_times) == len(snap_times) == 0
        assert window.samples.tobytes() == samples.tobytes()


class TestWorldIO:
    def test_save_load_round_trip(self, default_world, tmp_path) -> None:
        path = tmp_path / "world.json"
        default_world.save(path)
        loaded = GridWorld.load(path)
        assert np.array_equal(loaded.habitat_field, default_world.habitat_field)
        assert np.array_equal(loaded.bathymetry, default_world.bathymetry)
        assert np.array_equal(loaded.appearance, default_world.appearance)
        assert loaded.seed == default_world.seed
        assert loaded.snap_amplitude == default_world.snap_amplitude

    def test_save_is_byte_stable(self, default_world, tmp_path) -> None:
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        default_world.save(p1)
        GridWorld.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_wav_round_trip_preserves_float32_samples(self, quiet_world, tmp_path) -> None:
        window = synthesize_audio(quiet_world, 5.0, 5.0, 0.1, 96_000, False, substream(3, "wav"))
        path = tmp_path / "w.wav"
        write_wav(path, window)
        samples, fs = read_wav(path)
        assert fs == 96_000
        assert np.array_equal(samples, window.samples)

    @pytest.mark.parametrize("n", [0, 1, 4_801])
    def test_wav_bytes_match_scipy(self, tmp_path, n) -> None:
        from scipy.io import wavfile

        samples = np.random.default_rng(n).uniform(-1.0, 1.0, n).astype(np.float32)
        write_wav(tmp_path / "ours.wav", AudioWindow(samples, 48_000))
        wavfile.write(tmp_path / "scipy.wav", 48_000, samples)
        assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()

    @pytest.mark.parametrize(
        "edit",
        [lambda wav: wav[:-1], lambda wav: wav + bytes(4), lambda wav: wav[:20] + b"\x01" + wav[21:], lambda wav: b""],
        ids=["cut-mid-sample", "trailing-sample", "pcm-format-tag", "empty"],
    )
    def test_wav_of_another_layout_is_data_error(self, quiet_world, tmp_path, edit) -> None:
        path = tmp_path / "w.wav"
        write_wav(path, synthesize_audio(quiet_world, 5.0, 5.0, 0.01, 96_000, False, substream(3, "wav")))
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(DataError, match="^cannot read WAV .*: not a mono 32-bit float WAV of its file's length$"):
            read_wav(path)


@settings(max_examples=30, deadline=None)
@given(
    x=st.floats(min_value=0.0, max_value=20.0),
    y=st.floats(min_value=0.0, max_value=20.0),
)
def test_word_mixture_is_distribution_everywhere(default_world, x, y) -> None:
    mixture = default_world.word_mixture_at(x, y)
    assert mixture.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(mixture >= 0)


@pytest.fixture(scope="module")
def tiny_world_file(tmp_path_factory):
    """A 3x2-cell world with two habitats and four words, saved once;
    returns its directory and its parsed payload."""
    world = generate_world(WorldConfig(width_m=3.0, height_m=2.0, n_habitats=2, vocab_size=4, snap_rates_per_s=(1.0, 0.0)), seed=1)
    directory = tmp_path_factory.mktemp("tiny_world")
    world.save(directory / "world.json")
    return directory, json.loads((directory / "world.json").read_text())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_world_load_with_one_leaf_of_another_type_loads_or_is_data_error(tiny_world_file, data) -> None:
    directory, payload = tiny_world_file
    path = data.draw(st.sampled_from(leaf_paths(payload)))
    new = data.draw(OTHER_JSON_VALUES.filter(lambda v: other_type(leaf(payload, path), v)))
    world_path = directory / "corrupt.json"
    world_path.write_text(json.dumps(replace_leaf(payload, path, new)))
    try:
        GridWorld.load(world_path)
    except DataError:
        pass
