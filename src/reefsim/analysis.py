"""Statistical links between modalities.

The central fit maps per-window habitat (topic) mixtures to min-max
normalized snap rates by ordinary least squares with an intercept.  Because
topic mixtures sum to one, the design is collinear with the intercept; a
tiny ridge (1e-8) on the normal equations makes the solve deterministic
without visibly biasing the fit.  Also provides Pearson correlation.

:func:`analyze_log` runs on two cores.  The topic fit (model construction,
streaming the imaging records, Gibbs refinement) runs in one worker process
from the records' ``(cell_id, words)`` and the seed, and returns the fitted
model.  Meanwhile this process detects snaps, reading one drift window's WAV
at a time.  The report is byte-identical to running both halves in one
process: the fit draws only from the ``"topics"`` substream, detection draws
nothing, and no samples cross the pipe.

The mission log's layout is known here, not in :mod:`reefsim.topics`: the
worker streams the imaging records into the model, and :func:`analyze_log`
then walks the log once, computing each imaging record's topic mixture once
and pairing each drift window with the mean mixture of its transit leg.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .acoustics import AcousticsConfig, SnapRate, export_snap_rates_csv, snap_rate_series
from .errors import DataError, DegenerateDataError, check_section, write_csv
from .rng import substream
from .topics import TopicModel, TopicsConfig, merge_groups_by_appearance
from .worker import Worker

# Upper bound on the word tokens of a topic fit, checked before its worker
# starts.  The largest fit any test, benchmark or example runs is the
# criterion-1 site's 14,900 tokens (596 images of 25 words); this allows
# about 100 times that.  That fit took 0.44 s at the default 10 sweeps on a
# 2-vCPU x86_64 VM, so one at the budget runs for about 45 s.
MAX_FIT_TOKENS = 1_500_000

# Upper bound on the count slots a topic fit holds: one row per word and one
# per grid cell, each ``topics.max_topics`` wide.  The criterion-1 site's fit
# holds (30 words + 576 cells) x 20 topics = 12,120.  This allows any world
# ``world-gen`` accepts at the default cap of 20: (9,000 words + 360,000
# cells) x 20, the largest ``MAX_APPEARANCE_ENTRIES`` vocabulary with the
# largest ``MAX_GRID_CELLS`` grid.  A model of that size took 0.9 s to set up
# and peaked at 218 MB on a 2-vCPU x86_64 VM.
MAX_COUNT_SLOTS = 7_380_000


@dataclass(frozen=True)
class AnalysisConfig:
    ridge: float = 1e-8
    prune_below: float = 0.05

    def __post_init__(self) -> None:
        check_section(self, ("ridge", lambda: self.ridge >= 0, "must be non-negative"))


@dataclass
class RegressionFit:
    coefficients: np.ndarray  # one per topic, in topic-label order
    intercept: float
    topic_labels: list[int]
    residual_ss: float
    predictions: np.ndarray  # fitted values on the training windows
    rate_min: float
    rate_max: float

    def normalize(self, rates: np.ndarray) -> np.ndarray:
        return (np.asarray(rates, dtype=np.float64) - self.rate_min) / (self.rate_max - self.rate_min)


def fit_shrimp_habitat(
    topic_vectors: np.ndarray,
    snap_rates: np.ndarray,
    topic_labels: list[int] | None = None,
    ridge: float = AnalysisConfig.ridge,
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


# -- end-to-end report -------------------------------------------------------


@dataclass
class AnalysisReport:
    snap_rates: list[SnapRate]  # one row per drift window, in log order
    timeseries: list  # (t, mixture) per imaging record
    topic_labels: list[int]
    fit: RegressionFit
    observed_normalized: np.ndarray
    predicted: np.ndarray
    window_times: list[float]
    pearson_r: float
    n_windows_used: int
    n_windows_skipped: int
    model: TopicModel = field(repr=False)


def analyze_log(
    log,
    acoustics_config: AcousticsConfig | None = None,
    topics_config: TopicsConfig | None = None,
    seed: int = 0,
    analysis_config: AnalysisConfig | None = None,
) -> AnalysisReport:
    """Run the full audio-visual analysis on one mission log.

    Detects snaps per drift window, discovers habitats from the imaging
    records, pairs each drift window with the mean topic mixture of its
    transit leg, fits the habitat-to-snap-rate regression, and reports the
    correlation between observed and predicted normalized rates.

    Topics whose mean mixture weight over the paired windows falls below
    ``analysis_config.prune_below`` never reach meaningful prevalence
    (sampler debris, not habitats); they are dropped from the regression
    design so their near-zero columns cannot soak up residual noise.
    """
    acoustics_config = acoustics_config or AcousticsConfig()
    topics_config = topics_config or TopicsConfig()
    analysis_config = analysis_config or AnalysisConfig()

    # Checked here, not in the worker, so that a log without drift windows
    # or images, images without one vocabulary of at least two words, more
    # tokens or count slots than the fit's budgets, or a beta the sampler
    # cannot carry, fails at once; drift windows are checked first.
    if not log.drift_records():
        raise DataError("mission log contains no drift windows")
    imaging = log.imaging_records()
    if not imaging:
        raise DataError("mission log has no imaging records")
    vocab_size = len(imaging[0].words)
    if any(len(record.words) != vocab_size for record in imaging):
        raise DataError("imaging records hold word histograms of different lengths")
    if vocab_size < 2:
        raise DataError(f"imaging records hold {vocab_size}-word histograms; a vocabulary needs at least 2 words")

    observations = [(record.cell_id, record.words) for record in imaging]
    shape = (vocab_size, log.grid_nx, log.grid_ny)
    n_tokens = sum(sum(words) for _, words in observations)
    if n_tokens > MAX_FIT_TOKENS:
        raise DataError(f"mission log holds {n_tokens:,} word tokens; a topic fit takes at most {MAX_FIT_TOKENS:,}")
    n_slots = (vocab_size + log.grid_nx * log.grid_ny) * topics_config.max_topics
    if n_slots > MAX_COUNT_SLOTS:
        raise DataError(f"mission log needs {n_slots:,} topic count slots, (words + grid cells) x topics.max_topics; "
                        f"a topic fit takes at most {MAX_COUNT_SLOTS:,}")
    topics_config.check_beta(shape[0], n_tokens)
    with Worker(_fit_topics, observations, shape, topics_config, seed) as worker:
        snap_rates = snap_rate_series(log, acoustics_config)
        model = worker.result()

    # Habitats are defined by appearance: collapse duplicate-appearance
    # topics (split patches, sampler debris) into one column each.
    groups = merge_groups_by_appearance(model)
    merged_labels = [model.labels[members[0]] for members in groups]
    member_matrix = np.zeros((model.n_topics, len(groups)))
    for g, members in enumerate(groups):
        member_matrix[members, g] = 1.0

    # One walk over the log: each imaging record's mixture joins the
    # timeseries and its transit leg; a drift window takes its snap-rate row
    # and the mean mixture of the leg that ended at its waypoint (none for a
    # drift with no imaging record before it).
    timeseries, leg_windows, leg_means, leg = [], [], [], []
    windows = iter(snap_rates)
    for record in log.records:
        if record.words is not None:
            mixture = model.record_mixture(record.words)
            timeseries.append((record.t, mixture @ member_matrix))
            leg.append(mixture)
        else:
            window = next(windows)
            if leg:
                leg_windows.append(window)
                leg_means.append(np.mean(leg, axis=0))
            leg = []
    if not leg_means:
        raise DataError("no drift windows have a preceding imaging leg")
    leg_vectors = np.asarray(leg_means) @ member_matrix

    used = [i for i, window in enumerate(leg_windows) if window.rate is not None]  # saturated windows have none
    if not used:
        raise DataError("no drift window is left that is unsaturated and follows an imaging leg")
    window_times = [leg_windows[i].t_start for i in used]
    topic_matrix = leg_vectors[used]
    rates = np.asarray([leg_windows[i].rate for i in used])

    retained = np.flatnonzero(topic_matrix.mean(axis=0) >= analysis_config.prune_below)
    # One retained column would duplicate the intercept once renormalized.
    if retained.size < 2:
        raise DataError(f"fewer than two topics pass the prevalence threshold ({retained.size} of {len(merged_labels)})")
    # Renormalize over the retained set so rows stay exact mixtures; the
    # residual mass of pruned topics must not leak in as a spurious feature.
    topic_matrix = topic_matrix[:, retained]
    topic_matrix = topic_matrix / topic_matrix.sum(axis=1, keepdims=True)
    retained_labels = [merged_labels[i] for i in retained]
    if len(used) < len(retained_labels) + 2:
        raise DataError("too few usable drift windows for the regression")

    fit = fit_shrimp_habitat(topic_matrix, rates, topic_labels=retained_labels, ridge=analysis_config.ridge)
    predicted = predict_snap_rate(fit, topic_matrix)
    observed_norm = fit.normalize(rates)
    r = pearson(observed_norm, predicted)

    return AnalysisReport(
        snap_rates=snap_rates,
        timeseries=timeseries,
        topic_labels=merged_labels,
        fit=fit,
        observed_normalized=observed_norm,
        predicted=predicted,
        window_times=window_times,
        pearson_r=r,
        n_windows_used=len(used),
        n_windows_skipped=sum(window.rate is None for window in snap_rates),
        model=model,
    )


def _fit_topics(send, observations, shape, topics_config: TopicsConfig, seed: int) -> TopicModel:
    """The topic fit of :func:`analyze_log`, run in its worker: stream the
    imaging observations ``(cell_id, words)`` in log order, then refine.
    ``shape`` is ``(vocab_size, grid_nx, grid_ny)``."""
    model = TopicModel(*shape, topics_config)
    rng = substream(seed, "topics")
    for cell_id, words in observations:
        model.observe(cell_id, words, rng)
    model.gibbs_refine(topics_config.gibbs_sweeps, rng)
    return model


def write_report(report: AnalysisReport, out_dir: str | Path) -> None:
    """Write the report bundle: CSVs, summary JSON, and the rate plot SVG."""
    from .svg import line_chart_svg

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    export_snap_rates_csv(report.snap_rates, out / "snap_rates.csv")

    labels = report.topic_labels
    write_csv(out / "topic_timeseries.csv", ["t", *(f"topic_{label}" for label in labels)],
              ([t, *vector.tolist()] for t, vector in report.timeseries))
    fit = report.fit
    write_csv(out / "coefficients.csv", ["term", "coefficient"],
              [*zip((f"topic_{label}" for label in fit.topic_labels), fit.coefficients.tolist()), ("intercept", fit.intercept)])
    write_csv(out / "observed_vs_predicted.csv", ["t_start", "observed_normalized", "predicted"],
              zip(report.window_times, report.observed_normalized.tolist(), report.predicted.tolist()))

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
