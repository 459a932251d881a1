from __future__ import annotations

import dataclasses
import multiprocessing
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reefsim import analysis, mission
from reefsim.analysis import (
    analyze_log,
    cooccurrence,
    fit_shrimp_habitat,
    habitat_preference,
    occupancy_histogram,
    pearson,
    predict_snap_rate,
)
from reefsim.errors import ConfigError, DataError, DegenerateDataError
from reefsim.mission import MissionConfig, execute, load_log, plan_lawnmower, save_log
from reefsim.topics import TopicModel, TopicsConfig
from reefsim.vehicle import NoiseConfig, VehicleConfig
from reefsim.world import WorldConfig, generate_world


def simplex_rows(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    raw = rng.dirichlet(np.ones(k), size=n)
    return raw


class TestFitShrimpHabitat:
    def test_exact_linear_relation_recovered(self) -> None:
        rng = np.random.default_rng(0)
        x = rng.uniform(0.0, 1.0, size=(100, 3))  # well-conditioned design
        y = 2.0 * x[:, 0] + 0.5  # exactly linear in topics
        fit = fit_shrimp_habitat(x, y)
        residuals = fit.normalize(y) - fit.predictions
        assert np.max(np.abs(residuals)) <= 1e-9

    def test_exact_recovery_survives_collinear_mixtures(self) -> None:
        # Simplex rows are exactly collinear with the intercept; the ridge
        # must still fit the relation essentially perfectly.
        rng = np.random.default_rng(0)
        x = simplex_rows(rng, 30, 3)
        y = 2.0 * x[:, 0] + 0.5
        fit = fit_shrimp_habitat(x, y)
        residuals = fit.normalize(y) - fit.predictions
        assert np.max(np.abs(residuals)) <= 1e-7

    def test_matches_brute_force_normal_equations(self) -> None:
        # Oracle: independent dense solve of the same ridged normal equations.
        rng = np.random.default_rng(1)
        x = rng.uniform(0.0, 1.0, size=(25, 4))
        y = x[:, 1] * 3.0 + rng.normal(0, 0.1, 25)
        fit = fit_shrimp_habitat(x, y)
        y_norm = (y - y.min()) / (y.max() - y.min())
        design = np.hstack([x, np.ones((25, 1))])
        gram = design.T @ design + 1e-8 * np.eye(5)
        oracle = np.linalg.inv(gram) @ design.T @ y_norm
        np.testing.assert_allclose(np.append(fit.coefficients, fit.intercept), oracle, atol=1e-8)

    def test_mean_residual_is_zero(self) -> None:
        rng = np.random.default_rng(2)
        x = simplex_rows(rng, 40, 3)
        y = x[:, 2] + rng.normal(0, 0.05, 40)
        fit = fit_shrimp_habitat(x, y)
        residuals = fit.normalize(y) - fit.predictions
        assert abs(residuals.mean()) <= 1e-9

    def test_residuals_orthogonal_to_design(self) -> None:
        rng = np.random.default_rng(3)
        x = simplex_rows(rng, 40, 3)
        y = 0.7 * x[:, 0] - 0.2 * x[:, 1] + rng.normal(0, 0.1, 40)
        fit = fit_shrimp_habitat(x, y)
        residuals = fit.normalize(y) - fit.predictions
        design = np.hstack([x, np.ones((40, 1))])
        assert np.max(np.abs(design.T @ residuals)) <= 1e-8 * max(1.0, np.abs(residuals).sum())

    def test_constant_rates_rejected(self) -> None:
        rng = np.random.default_rng(4)
        x = simplex_rows(rng, 20, 3)
        with pytest.raises(DegenerateDataError):
            fit_shrimp_habitat(x, np.full(20, 2.0))

    def test_too_few_windows_rejected(self) -> None:
        rng = np.random.default_rng(5)
        x = simplex_rows(rng, 4, 3)
        with pytest.raises(ValueError):
            fit_shrimp_habitat(x, np.arange(4.0))

    def test_rates_normalized_to_unit_interval(self) -> None:
        rng = np.random.default_rng(6)
        x = simplex_rows(rng, 20, 3)
        y = rng.uniform(10, 50, 20)
        fit = fit_shrimp_habitat(x, y)
        normalized = fit.normalize(y)
        assert normalized.min() == pytest.approx(0.0)
        assert normalized.max() == pytest.approx(1.0)


class TestPredictSnapRate:
    def test_zero_coefficients_give_constant_intercept(self) -> None:
        rng = np.random.default_rng(7)
        x = simplex_rows(rng, 20, 3)
        fit = fit_shrimp_habitat(x, rng.uniform(0, 1, 20))
        fit.coefficients[:] = 0.0
        predicted = predict_snap_rate(fit, x)
        np.testing.assert_allclose(predicted, fit.intercept)

    def test_equals_design_times_coefficients(self) -> None:
        rng = np.random.default_rng(8)
        x = simplex_rows(rng, 15, 3)
        fit = fit_shrimp_habitat(x, rng.uniform(0, 1, 15))
        x_new = simplex_rows(rng, 7, 3)
        predicted = predict_snap_rate(fit, x_new)
        oracle = np.asarray([sum(x_new[i, k] * fit.coefficients[k] for k in range(3)) + fit.intercept for i in range(7)])
        np.testing.assert_allclose(predicted, oracle, atol=1e-12)

    def test_dimension_mismatch_rejected(self) -> None:
        rng = np.random.default_rng(9)
        x = simplex_rows(rng, 15, 3)
        fit = fit_shrimp_habitat(x, rng.uniform(0, 1, 15))
        with pytest.raises(ValueError):
            predict_snap_rate(fit, simplex_rows(rng, 5, 4))


class TestPearson:
    def test_identical_series_gives_one(self) -> None:
        a = np.asarray([1.0, 2.0, 5.0, 3.0])
        assert pearson(a, a) == pytest.approx(1.0)

    def test_negated_series_gives_minus_one(self) -> None:
        a = np.asarray([1.0, 2.0, 5.0, 3.0])
        assert pearson(a, -a) == pytest.approx(-1.0)

    def test_matches_direct_formula(self) -> None:
        # Oracle: covariance formula computed term by term.
        rng = np.random.default_rng(10)
        a = rng.normal(0, 1, 50)
        b = 0.4 * a + rng.normal(0, 0.5, 50)
        n = len(a)
        cov = sum((a[i] - a.mean()) * (b[i] - b.mean()) for i in range(n))
        var_a = sum((v - a.mean()) ** 2 for v in a)
        var_b = sum((v - b.mean()) ** 2 for v in b)
        assert pearson(a, b) == pytest.approx(cov / np.sqrt(var_a * var_b), abs=1e-12)

    def test_constant_input_rejected(self) -> None:
        with pytest.raises(DegenerateDataError):
            pearson(np.ones(10), np.arange(10.0))

    def test_short_input_rejected(self) -> None:
        with pytest.raises(ValueError):
            pearson(np.asarray([1.0, 2.0]), np.asarray([3.0, 4.0]))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_always_within_unit_interval(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        a = rng.normal(0, 1, 10)
        b = rng.normal(0, 1, 10)
        assert -1.0 <= pearson(a, b) <= 1.0


class TestOccupancyAndPreference:
    def test_track_in_pure_habitat_gives_point_mass(self) -> None:
        habitat_field = np.zeros((4, 4, 2))
        habitat_field[:, :, 0] = 1.0  # everything is habitat 0
        track = np.asarray([[0.5, 0.5], [1.5, 0.5], [2.5, 3.5]])
        preference = habitat_preference(track, habitat_field, 1.0)
        np.testing.assert_allclose(preference, [1.0, 0.0])

    def test_half_and_half_track_gives_even_preference(self) -> None:
        habitat_field = np.zeros((2, 2, 2))
        habitat_field[0, :, 0] = 1.0  # bottom row habitat 0
        habitat_field[1, :, 1] = 1.0  # top row habitat 1
        track = np.asarray([[0.5, 0.5], [1.5, 0.5], [0.5, 1.5], [1.5, 1.5]])
        preference = habitat_preference(track, habitat_field, 1.0)
        np.testing.assert_allclose(preference, [0.5, 0.5])

    def test_matches_brute_force_cell_sum(self) -> None:
        # Oracle: direct summation over cells of P(h | cell) * occupancy.
        rng = np.random.default_rng(11)
        habitat_field = rng.dirichlet(np.ones(3), size=(5, 5))
        track = rng.uniform(0, 5, size=(40, 2))
        preference = habitat_preference(track, habitat_field, 1.0)
        occupancy = occupancy_histogram(track, (5, 5), 1.0)
        oracle = np.zeros(3)
        for cell in range(25):
            oracle += occupancy[cell] * habitat_field[cell // 5, cell % 5]
        np.testing.assert_allclose(preference, oracle, atol=1e-12)
        assert preference.sum() == pytest.approx(1.0, abs=1e-9)

    def test_preference_invariant_under_track_reordering(self) -> None:
        rng = np.random.default_rng(12)
        habitat_field = rng.dirichlet(np.ones(3), size=(5, 5))
        track = rng.uniform(0, 5, size=(30, 2))
        shuffled = track[rng.permutation(30)]
        np.testing.assert_allclose(
            habitat_preference(track, habitat_field, 1.0),
            habitat_preference(shuffled, habitat_field, 1.0),
        )

    def test_empty_track_rejected(self) -> None:
        with pytest.raises(DegenerateDataError):
            habitat_preference(np.empty((0, 2)), np.ones((2, 2, 1)), 1.0)

    def test_track_outside_grid_rejected(self) -> None:
        habitat_field = np.ones((2, 2, 1))
        with pytest.raises(ValueError):
            habitat_preference(np.asarray([[5.0, 0.5]]), habitat_field, 1.0)


class TestCooccurrence:
    def test_disjoint_tracks_give_zero(self) -> None:
        a = np.asarray([[0.5, 0.5], [0.6, 0.4]])
        b = np.asarray([[3.5, 3.5], [3.2, 3.8]])
        assert cooccurrence(a, b, (4, 4), 1.0) == 0.0

    def test_identical_single_cell_tracks_give_one(self) -> None:
        a = np.asarray([[1.5, 1.5], [1.2, 1.8]])
        assert cooccurrence(a, a, (4, 4), 1.0) == pytest.approx(1.0)

    def test_symmetric_in_arguments(self) -> None:
        rng = np.random.default_rng(13)
        a = rng.uniform(0, 4, size=(20, 2))
        b = rng.uniform(0, 4, size=(25, 2))
        assert cooccurrence(a, b, (4, 4), 1.0) == pytest.approx(cooccurrence(b, a, (4, 4), 1.0))

    def test_matches_brute_force_inner_product(self) -> None:
        rng = np.random.default_rng(14)
        a = rng.uniform(0, 4, size=(20, 2))
        b = rng.uniform(0, 4, size=(25, 2))
        ha = occupancy_histogram(a, (4, 4), 1.0)
        hb = occupancy_histogram(b, (4, 4), 1.0)
        oracle = sum(float(ha[i]) * float(hb[i]) for i in range(16))
        assert cooccurrence(a, b, (4, 4), 1.0) == pytest.approx(oracle, abs=1e-12)


@pytest.fixture(scope="module")
def survey_log(make_audio_dir):
    """A short survey with snaps in one habitat, enough windows to regress."""
    world = generate_world(WorldConfig(width_m=16.0, height_m=16.0, snap_rates_per_s=(20.0, 0.0, 0.0)), seed=3)
    plan = plan_lawnmower((1.0, 1.0, 15.0, 15.0), 7.0, drift_duration_s=1.0, audio_fs_hz=48_000, waypoint_spacing_m=4.5)
    return execute(plan, world, VehicleConfig(), NoiseConfig(), MissionConfig(), seed=3, audio_dir=make_audio_dir())


def _raise_config_error(send, *args):
    raise ConfigError("topic fit failed")


def _no_worker(*args):
    raise AssertionError("the worker must not start")


def test_analyze_log_computes_each_record_mixture_once(survey_log, monkeypatch) -> None:
    calls = []
    record_mixture = TopicModel.record_mixture

    def counted(model, histogram):
        calls.append(1)
        return record_mixture(model, histogram)

    monkeypatch.setattr(TopicModel, "record_mixture", counted)
    report = analyze_log(survey_log, topics_config=TopicsConfig(gibbs_sweeps=2))
    assert len(calls) == len(survey_log.imaging_records()) == len(report.timeseries)


def test_load_log_reads_no_wav_and_analyze_log_reads_each_once(survey_log, tmp_path, monkeypatch) -> None:
    calls = []
    read_wav = mission.read_wav

    def counted(path):
        calls.append(Path(path).name)
        return read_wav(path)

    monkeypatch.setattr(mission, "read_wav", counted)
    save_log(survey_log, tmp_path / "mission_log.jsonl")
    log = load_log(tmp_path / "mission_log.jsonl")
    assert calls == []
    analyze_log(log, topics_config=TopicsConfig(gibbs_sweeps=2))
    assert calls == [record.audio.filename for record in log.drift_records()]


class TestAnalyzeLogWorker:
    """The topic fit runs in a worker process; detection stays here."""

    def test_no_worker_outlives_analyze_log(self, survey_log) -> None:
        report = analyze_log(survey_log, topics_config=TopicsConfig(gibbs_sweeps=2))
        assert report.model.token_count > 0
        assert multiprocessing.active_children() == []

    def test_detection_error_does_not_wait_for_the_fit(self, survey_log, monkeypatch) -> None:
        def fail(*args):
            raise DataError("detection failed")

        monkeypatch.setattr(analysis, "snap_rate_series", fail)
        start = time.perf_counter()
        with pytest.raises(DataError, match="detection failed"):
            # Thousands of sweeps: minutes if the error waited for them.
            analyze_log(survey_log, topics_config=TopicsConfig(gibbs_sweeps=5_000))
        assert time.perf_counter() - start < 20.0
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "keep, message",
        [(lambda r: False, "no drift windows"), (lambda r: r.words is None, "no imaging records"), (lambda r: r.words is not None, "no drift windows")],
        ids=["empty", "drift-only", "imaging-only"],
    )
    def test_empty_log_fails_before_the_worker_starts(self, survey_log, monkeypatch, keep, message) -> None:
        monkeypatch.setattr(analysis, "Worker", _no_worker)
        log = dataclasses.replace(survey_log, records=[r for r in survey_log.records if keep(r)])
        with pytest.raises(DataError, match=message):
            analyze_log(log)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork", reason="the patched worker target is seen only under fork"
    )
    def test_worker_exception_keeps_its_type(self, survey_log, monkeypatch) -> None:
        monkeypatch.setattr(analysis, "_fit_topics", _raise_config_error)
        with pytest.raises(ConfigError, match="topic fit failed"):
            analyze_log(survey_log)
        assert multiprocessing.active_children() == []
