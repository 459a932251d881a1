"""Statistical links between modalities.

The central fit maps per-window habitat (topic) mixtures to min-max
normalized snap rates by ordinary least squares with an intercept.  Because
topic mixtures sum to one, the design is collinear with the intercept; a
tiny ridge (1e-8) on the normal equations makes the solve deterministic
without visibly biasing the fit.  Also provides Pearson correlation, track
habitat preference, and track co-occurrence.

:func:`analyze_log` runs on two cores.  The topic fit (model construction,
streaming the imaging records, Gibbs refinement) runs in one worker process
from the records' ``(cell_id, words)`` and the seed, and returns the fitted
model.  Meanwhile this process detects snaps in the audio it already holds.
The report is byte-identical to running both halves in one process: the fit
draws only from the ``"topics"`` substream, detection draws nothing, and no
samples cross the pipe.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .acoustics import AcousticsConfig, SnapRateSeries, export_snap_rates_csv, snap_rate_series
from .errors import DataError, DegenerateDataError
from .rng import substream
from .topics import (
    TopicModel,
    TopicsConfig,
    aggregate_drift_legs,
    fit_log,
    habitat_timeseries,
    merge_groups_by_appearance,
)
from .worker import Worker


@dataclass
class RegressionFit:
    coefficients: np.ndarray  # one per topic, in topic-label order
    intercept: float
    topic_labels: list[int]
    residual_ss: float
    predictions: np.ndarray  # fitted values on the training windows
    rate_min: float
    rate_max: float
    ridge: float

    def normalize(self, rates: np.ndarray) -> np.ndarray:
        return (np.asarray(rates, dtype=np.float64) - self.rate_min) / (self.rate_max - self.rate_min)


def fit_shrimp_habitat(
    topic_vectors: np.ndarray,
    snap_rates: np.ndarray,
    topic_labels: list[int] | None = None,
    ridge: float = 1e-8,
) -> RegressionFit:
    """Least-squares fit of normalized snap rate onto topic mixtures.

    ``topic_vectors`` is (n_windows, n_topics); rates are min-max normalized
    to [0, 1] before fitting.  Raises :class:`DegenerateDataError` when the
    rates are constant or the ridged normal equations cannot be solved.
    """
    x = np.asarray(topic_vectors, dtype=np.float64)
    y = np.asarray(snap_rates, dtype=np.float64)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ValueError("topic_vectors must be (n, k) with matching rates")
    n, k = x.shape
    if n < k + 2:
        raise ValueError(f"need at least {k + 2} windows to fit {k} topics, got {n}")
    if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
        raise DegenerateDataError("non-finite values in regression inputs")

    rate_min, rate_max = float(y.min()), float(y.max())
    if rate_max - rate_min < 1e-12:
        raise DegenerateDataError("snap rates are constant; nothing to regress")
    y_norm = (y - rate_min) / (rate_max - rate_min)

    design = np.hstack([x, np.ones((n, 1))])
    gram = design.T @ design + ridge * np.eye(k + 1)
    try:
        solution = np.linalg.solve(gram, design.T @ y_norm)
    except np.linalg.LinAlgError as exc:
        raise DegenerateDataError(f"design is rank-deficient beyond ridge rescue: {exc}") from exc
    if not np.all(np.isfinite(solution)):
        raise DegenerateDataError("design is rank-deficient beyond ridge rescue")

    predictions = design @ solution
    residual_ss = float(np.sum((y_norm - predictions) ** 2))
    labels = list(topic_labels) if topic_labels is not None else list(range(k))
    if len(labels) != k:
        raise ValueError("topic_labels length must match topic dimension")
    return RegressionFit(
        coefficients=solution[:k],
        intercept=float(solution[k]),
        topic_labels=labels,
        residual_ss=residual_ss,
        predictions=predictions,
        rate_min=rate_min,
        rate_max=rate_max,
        ridge=ridge,
    )


def predict_snap_rate(fit: RegressionFit, topic_vectors: np.ndarray) -> np.ndarray:
    """Affine map of topic mixtures to the normalized-rate scale.  Values
    may leave [0, 1]; they are reported raw."""
    x = np.asarray(topic_vectors, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != len(fit.coefficients):
        raise ValueError("topic dimension does not match the fit")
    return x @ fit.coefficients + fit.intercept


def pearson(a, b) -> float:
    """Pearson correlation coefficient of two equal-length series."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("inputs must be equal-length 1-D series")
    if len(a) < 3:
        raise ValueError("need at least 3 points")
    da = a - a.mean()
    db = b - b.mean()
    denom = np.sqrt(np.sum(da**2) * np.sum(db**2))
    if denom < 1e-30:
        raise DegenerateDataError("correlation undefined for constant input")
    return float(np.clip(np.sum(da * db) / denom, -1.0, 1.0))


def occupancy_histogram(track_xy: np.ndarray, grid_shape: tuple[int, int], cell_size_m: float) -> np.ndarray:
    """Normalized visit-count histogram of a track over grid cells.

    ``grid_shape`` is (ny, nx); positions must lie inside the grid.
    """
    track = np.asarray(track_xy, dtype=np.float64)
    if track.ndim != 2 or track.shape[1] != 2 or len(track) == 0:
        raise DegenerateDataError("track must be a non-empty sequence of (x, y)")
    ny, nx = grid_shape
    ix = np.floor(track[:, 0] / cell_size_m).astype(int)
    iy = np.floor(track[:, 1] / cell_size_m).astype(int)
    ix = np.where((track[:, 0] >= nx * cell_size_m) & (ix == nx), nx - 1, ix)
    iy = np.where((track[:, 1] >= ny * cell_size_m) & (iy == ny), ny - 1, iy)
    if np.any((ix < 0) | (ix >= nx) | (iy < 0) | (iy >= ny)):
        raise ValueError("track leaves the grid")
    counts = np.zeros(ny * nx)
    np.add.at(counts, iy * nx + ix, 1.0)
    return counts / counts.sum()


def habitat_preference(track_xy: np.ndarray, habitat_field: np.ndarray, cell_size_m: float) -> np.ndarray:
    """Habitat distribution preferred by a tracked animal:
    sum_x P(habitat | x) P(x | track), with P(x | track) the empirical
    cell-occupancy histogram.  Sums to one."""
    habitat_field = np.asarray(habitat_field, dtype=np.float64)
    if habitat_field.ndim != 3:
        raise ValueError("habitat_field must be (ny, nx, H)")
    ny, nx, n_habitats = habitat_field.shape
    occupancy = occupancy_histogram(track_xy, (ny, nx), cell_size_m)
    return occupancy @ habitat_field.reshape(ny * nx, n_habitats)


def cooccurrence(track1_xy: np.ndarray, track2_xy: np.ndarray, grid_shape: tuple[int, int], cell_size_m: float) -> float:
    """Spatial co-occurrence of two independent tracks: the inner product of
    their normalized occupancy histograms."""
    h1 = occupancy_histogram(track1_xy, grid_shape, cell_size_m)
    h2 = occupancy_histogram(track2_xy, grid_shape, cell_size_m)
    return float(h1 @ h2)


# -- end-to-end report -------------------------------------------------------


@dataclass
class AnalysisReport:
    snap_series: SnapRateSeries
    timeseries: list  # (t, mixture) per imaging record
    topic_labels: list[int]
    fit: RegressionFit
    observed_normalized: np.ndarray
    predicted: np.ndarray
    window_times: list[float]
    pearson_r: float
    n_windows_used: int
    n_windows_skipped: int
    model: TopicModel = field(repr=False, default=None)


def analyze_log(
    log,
    acoustics_config: AcousticsConfig | None = None,
    topics_config: TopicsConfig | None = None,
    seed: int = 0,
    prune_below: float = 0.05,
    ridge: float = 1e-8,
) -> AnalysisReport:
    """Run the full audio-visual analysis on one mission log.

    Detects snaps per drift window, discovers habitats from the imaging
    records, pairs each drift window with the mean topic mixture of its
    transit leg, fits the habitat-to-snap-rate regression, and reports the
    correlation between observed and predicted normalized rates.

    Topics whose mean mixture weight over the paired windows falls below
    ``prune_below`` never reach meaningful prevalence (sampler debris, not
    habitats); they are dropped from the regression design so their
    near-zero columns cannot soak up residual noise.
    """
    acoustics_config = acoustics_config or AcousticsConfig()
    topics_config = topics_config or TopicsConfig()

    # Checked here, not in the worker, so that a log without drift windows
    # or images fails at once; drift windows are checked first.
    if not log.drift_records():
        raise DataError("mission log contains no drift windows")
    imaging = log.imaging_records()
    if not imaging:
        raise DataError("mission log has no imaging records")

    observations = [(record.cell_id, record.words) for record in imaging]
    shape = (len(imaging[0].words), log.grid_nx, log.grid_ny)
    with Worker(_fit_topics, observations, shape, topics_config, seed) as worker:
        series = snap_rate_series(log, acoustics_config)
        model = worker.result()

    raw_timeseries = habitat_timeseries(model, log)
    leg_records, leg_vectors = aggregate_drift_legs(model, log)

    # Habitats are defined by appearance: collapse duplicate-appearance
    # topics (split patches, sampler debris) into one column each.
    groups = merge_groups_by_appearance(model)
    merged_labels = [model.labels[members[0]] for members in groups]
    member_matrix = np.zeros((model.n_topics, len(groups)))
    for g, members in enumerate(groups):
        member_matrix[members, g] = 1.0
    leg_vectors = leg_vectors @ member_matrix
    timeseries = [(t, vector @ member_matrix) for t, vector in raw_timeseries]

    rate_by_time = {entry.t_start: entry.rate for entry in series.entries}
    rows = [
        (record.t, vector)
        for record, vector in zip(leg_records, leg_vectors)
        if record.t in rate_by_time  # skip saturated/omitted windows
    ]
    window_times = [t for t, _ in rows]
    topic_matrix = np.asarray([v for _, v in rows])
    rates = np.asarray([rate_by_time[t] for t in window_times])

    retained = np.flatnonzero(topic_matrix.mean(axis=0) >= prune_below) if len(rows) else np.arange(len(groups))
    if retained.size == 0:
        raise DataError("all topics fell below the prevalence threshold")
    # Renormalize over the retained set so rows stay exact mixtures; the
    # residual mass of pruned topics must not leak in as a spurious feature.
    topic_matrix = topic_matrix[:, retained]
    topic_matrix = topic_matrix / topic_matrix.sum(axis=1, keepdims=True)
    retained_labels = [merged_labels[i] for i in retained]
    if len(rows) < len(retained_labels) + 2:
        raise DataError("too few usable drift windows for the regression")

    fit = fit_shrimp_habitat(topic_matrix, rates, topic_labels=retained_labels, ridge=ridge)
    predicted = predict_snap_rate(fit, topic_matrix)
    observed_norm = fit.normalize(rates)
    r = pearson(observed_norm, predicted)

    return AnalysisReport(
        snap_series=series,
        timeseries=timeseries,
        topic_labels=merged_labels,
        fit=fit,
        observed_normalized=observed_norm,
        predicted=predicted,
        window_times=window_times,
        pearson_r=r,
        n_windows_used=len(rows),
        n_windows_skipped=len(series.skips),
        model=model,
    )


def _fit_topics(send, observations, shape, topics_config: TopicsConfig, seed: int) -> TopicModel:
    """The topic fit of :func:`analyze_log`, run in its worker: stream the
    imaging observations ``(cell_id, words)`` in log order, then refine.
    ``shape`` is ``(vocab_size, grid_nx, grid_ny)``."""
    model = TopicModel(*shape, topics_config)
    rng = substream(seed, "topics")
    fit_log(model, observations, rng)
    model.gibbs_refine(topics_config.gibbs_sweeps, rng)
    return model


def write_report(report: AnalysisReport, out_dir: str | Path) -> None:
    """Write the report bundle: CSVs, summary JSON, and the rate plot SVG."""
    from .svg import line_chart_svg

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    export_snap_rates_csv(report.snap_series, out / "snap_rates.csv")

    labels = report.topic_labels
    lines = ["t," + ",".join(f"topic_{label}" for label in labels)]
    for t, vector in report.timeseries:
        lines.append(f"{t}," + ",".join(repr(float(v)) for v in vector))
    (out / "topic_timeseries.csv").write_text("\n".join(lines) + "\n")

    lines = ["term,coefficient"]
    for label, coef in zip(report.fit.topic_labels, report.fit.coefficients):
        lines.append(f"topic_{label},{float(coef)!r}")
    lines.append(f"intercept,{report.fit.intercept!r}")
    (out / "coefficients.csv").write_text("\n".join(lines) + "\n")

    lines = ["t_start,observed_normalized,predicted"]
    for t, obs, pred in zip(report.window_times, report.observed_normalized, report.predicted):
        lines.append(f"{t},{float(obs)!r},{float(pred)!r}")
    (out / "observed_vs_predicted.csv").write_text("\n".join(lines) + "\n")

    summary = {
        "pearson_r": report.pearson_r,
        "n_windows_used": report.n_windows_used,
        "n_windows_skipped": report.n_windows_skipped,
        "n_topics": len(labels),
        "residual_ss": report.fit.residual_ss,
        "rate_min": report.fit.rate_min,
        "rate_max": report.fit.rate_max,
    }
    (out / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")

    if report.model is not None:
        report.model.save(out / "topic_model.json")

    chart = line_chart_svg(
        [
            ("observed", report.window_times, list(map(float, report.observed_normalized)), "stroke:#000000;fill:none;stroke-width:1.5"),
            ("predicted", report.window_times, list(map(float, report.predicted)), "stroke:#1f77b4;fill:none;stroke-width:1.5;stroke-dasharray:6 3"),
        ],
        x_label="time (s)",
        y_label="normalized snap rate",
    )
    (out / "snap_rate_fit.svg").write_text(chart)
