"""Unsupervised habitat discovery over visual-word observations.

A spatially coupled Dirichlet-multinomial topic model with a capped
Chinese-restaurant growth rule: each word token is assigned a topic from

    P(z = k | w, c)  propto  (n[w,k] + beta) / (n[k] + V*beta) * (mN(c)[k] + alpha)

where ``mN(c)`` sums per-cell topic counts over the cell and its grid
4-neighborhood, and a fresh topic (while fewer than ``max_topics`` are
active) is drawn with weight ``gamma / V``.  New observations stream in
through :meth:`TopicModel.observe`; :meth:`TopicModel.gibbs_refine`
resamples existing assignments from the same conditional, retiring topics
that empty out (topic 0 always survives).

Topics are reported by stable labels assigned at creation; retirement
compacts internal indices but never reuses a label.

Both entry points share one sampling kernel, which mirrors the count rows
it touches into Python lists for the duration of a call and writes them
back at the end.  Every token draw consumes exactly one uniform and opening
a topic consumes none, so the uniforms of a whole call (one ``observe`` or
one refine sweep) are drawn up front with a single ``rng.random(n)``; the
stream is the same as one ``rng.random()`` per token.  The denominators and
neighborhood counts are updated by +-1 in place, never recomputed mid-call,
so every double matches the one-token-at-a-time formulation.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import DataError, finite

CHECKPOINT_FORMAT = "reefsim-topic-model-v1"


@dataclass(frozen=True)
class TopicsConfig:
    max_topics: int = 20
    alpha: float = 0.1  # spatial (cell-topic) concentration
    beta: float = 0.5  # word-topic concentration
    gamma: float = 0.05  # new-topic weight
    gibbs_sweeps: int = 50

    def validate(self) -> None:
        if not (finite(self.max_topics) and self.max_topics >= 1):
            raise ValueError("max_topics must be >= 1")
        if not (finite(self.alpha, self.beta, self.gamma) and min(self.alpha, self.beta, self.gamma) > 0):
            raise ValueError("concentration parameters must be positive and finite")
        if not (finite(self.gibbs_sweeps) and self.gibbs_sweeps >= 0):
            raise ValueError("gibbs_sweeps must be non-negative")


class TopicModel:
    """Streaming topic model over a ``grid_nx x grid_ny`` cell grid."""

    def __init__(self, vocab_size: int, grid_nx: int, grid_ny: int, config: TopicsConfig | None = None):
        if vocab_size < 2:
            raise ValueError("vocab_size must be >= 2")
        self.config = config or TopicsConfig()
        self.config.validate()
        self.vocab_size = vocab_size
        self.grid_nx = grid_nx
        self.grid_ny = grid_ny
        self.n_cells = grid_nx * grid_ny

        kmax = self.config.max_topics
        self._word_topic = np.zeros((vocab_size, kmax), dtype=np.float64)
        self._topic_total = np.zeros(kmax, dtype=np.float64)
        self._cell_topic = np.zeros((self.n_cells, kmax), dtype=np.float64)
        # Incrementally maintained mirror of topic_total + V*beta; derived,
        # only ever used as the conditional's denominator.
        self._denom = np.full(kmax, vocab_size * self.config.beta, dtype=np.float64)
        self.n_topics = 1  # topic 0 exists from the start and is never retired
        self.labels: list[int] = [0]
        self._next_label = 1

        self._tok_cell: list[int] = []
        self._tok_word: list[int] = []
        self._tok_topic: list[int] = []

        self._neighbors = [self._neighborhood(c) for c in range(self.n_cells)]

    # -- structure ----------------------------------------------------------

    def _neighborhood(self, cell: int) -> list[int]:
        """The cell plus its existing grid 4-neighbors."""
        ix, iy = cell % self.grid_nx, cell // self.grid_nx
        cells = [cell]
        if ix > 0:
            cells.append(cell - 1)
        if ix < self.grid_nx - 1:
            cells.append(cell + 1)
        if iy > 0:
            cells.append(cell - self.grid_nx)
        if iy < self.grid_ny - 1:
            cells.append(cell + self.grid_nx)
        return cells

    @property
    def token_count(self) -> int:
        return len(self._tok_word)

    def word_topic_counts(self) -> np.ndarray:
        """(V, K) word-topic count table for the active topics."""
        return self._word_topic[:, : self.n_topics].copy()

    def cell_topic_counts(self) -> np.ndarray:
        """(n_cells, K) cell-topic count table for the active topics."""
        return self._cell_topic[:, : self.n_topics].copy()

    def topic_totals(self) -> np.ndarray:
        return self._topic_total[: self.n_topics].copy()

    def validate_counts(self) -> None:
        k = self.n_topics
        if not 1 <= k <= self.config.max_topics:
            raise ValueError("active topic count out of range")
        if np.any(self._word_topic < 0) or np.any(self._cell_topic < 0):
            raise ValueError("negative counts")
        if not np.array_equal(self._word_topic[:, :k].sum(axis=0), self._topic_total[:k]):
            raise ValueError("word-topic table inconsistent with topic totals")
        if self._topic_total[:k].sum() != self.token_count:
            raise ValueError("topic totals inconsistent with token count")
        if self._cell_topic[:, :k].sum() != self.token_count:
            raise ValueError("cell-topic table inconsistent with token count")
        if np.any(self._word_topic[:, k:]) or np.any(self._cell_topic[:, k:]) or np.any(self._topic_total[k:]):
            raise ValueError("counts present beyond active topics")
        if not np.allclose(self._denom, self._topic_total + self.vocab_size * self.config.beta):
            raise ValueError("denominator mirror out of sync")

    # -- inference ----------------------------------------------------------

    def _sample_tokens(self, start: int, resample: bool, rng: np.random.Generator) -> None:
        """Draw a topic for every token from index ``start`` on, in order.

        With ``resample`` each token's current assignment is first removed
        from the counts; otherwise the token is new and its stored topic is
        a placeholder.  A draw of index ``n_topics`` opens a new topic.
        """
        cfg = self.config
        beta, alpha = cfg.beta, cfg.alpha
        new_weight = cfg.gamma / self.vocab_size
        unused_denom = self.vocab_size * beta
        tok_cell, tok_word, tok_topic = self._tok_cell, self._tok_word, self._tok_topic
        cells = set(tok_cell[start:])
        word_rows = {w: self._word_topic[w].tolist() for w in set(tok_word[start:])}
        cell_rows = {c: self._cell_topic[c].tolist() for c in {n for c in cells for n in self._neighbors[c]}}
        # denom and mn_alpha hold one entry per active topic, so zip() over
        # them ignores the unused columns of the full-width rows.
        denom = self._denom[: self.n_topics].tolist()

        current_cell = -1
        for i, u in enumerate(rng.random(len(tok_word) - start).tolist(), start):
            cell = tok_cell[i]
            if cell != current_cell:
                current_cell = cell
                cell_row = cell_rows[cell]
                neighborhood = zip(*(cell_rows[c] for c in self._neighbors[cell]))
                mn_alpha = [sum(col) + alpha for col in islice(neighborhood, len(denom))]
            row = word_rows[tok_word[i]]
            if resample:
                old = tok_topic[i]
                row[old] -= 1
                denom[old] -= 1
                cell_row[old] -= 1
                mn_alpha[old] -= 1

            total = 0.0
            cum = []
            for n, d, m in zip(row, denom, mn_alpha):
                total += (n + beta) / d * m
                cum.append(total)
            if len(cum) < cfg.max_topics:
                total += new_weight
                cum.append(total)
            k = bisect_right(cum, u * total)
            if k == self.n_topics:
                k = self._create_topic()
                denom.append(unused_denom)
                mn_alpha.append(alpha)  # no counts yet anywhere

            row[k] += 1
            denom[k] += 1
            cell_row[k] += 1
            mn_alpha[k] += 1
            tok_topic[i] = k

        for w, row in word_rows.items():
            self._word_topic[w] = row
        for c in cells:
            self._cell_topic[c] = cell_rows[c]
        self._topic_total[:] = self._word_topic.sum(axis=0)
        self._denom[: self.n_topics] = denom

    def _create_topic(self) -> int:
        k = self.n_topics
        self.n_topics += 1
        self.labels.append(self._next_label)
        self._next_label += 1
        return k

    def observe(self, cell_id: int, histogram, rng: np.random.Generator) -> None:
        """Assimilate one visual-word histogram observed in ``cell_id``.

        Each new token receives a topic from the streaming conditional and
        the count tables grow; existing assignments are untouched (use
        :meth:`gibbs_refine` to revisit them).
        """
        histogram = np.asarray(histogram)
        if histogram.shape != (self.vocab_size,):
            raise DataError(f"histogram length {histogram.shape} does not match vocabulary {self.vocab_size}")
        if not 0 <= cell_id < self.n_cells:
            raise ValueError(f"cell_id {cell_id} outside grid")

        words = np.repeat(np.arange(self.vocab_size), histogram).tolist()
        self._tok_cell.extend([cell_id] * len(words))
        self._tok_word.extend(words)
        self._tok_topic.extend([0] * len(words))
        self._sample_tokens(self.token_count - len(words), False, rng)

    def gibbs_refine(self, n_sweeps: int, rng: np.random.Generator) -> None:
        """Resample every token assignment ``n_sweeps`` times.

        Tokens are visited in observation order; each is removed from the
        counts, redrawn from the conditional (which may open a new topic),
        and re-added.  After each sweep, empty topics beyond topic 0 retire
        and indices compact; token counts are conserved throughout.
        """
        if self.token_count == 0:
            raise DataError("model has no tokens to refine")
        for _ in range(n_sweeps):
            self._sample_tokens(0, True, rng)
            self._retire_empty_topics()

    def _retire_empty_topics(self) -> None:
        k = self.n_topics
        keep = [0] + [j for j in range(1, k) if self._topic_total[j] > 0]
        if len(keep) == k:
            return
        remap = np.full(k, -1, dtype=int)
        for new, old in enumerate(keep):
            remap[old] = new
        n_keep = len(keep)
        self._word_topic[:, :n_keep] = self._word_topic[:, keep]
        self._word_topic[:, n_keep:k] = 0
        self._cell_topic[:, :n_keep] = self._cell_topic[:, keep]
        self._cell_topic[:, n_keep:k] = 0
        self._topic_total[:n_keep] = self._topic_total[keep]
        self._topic_total[n_keep:k] = 0
        self._denom[:] = self._topic_total + self.vocab_size * self.config.beta
        self.labels = [self.labels[j] for j in keep]
        self.n_topics = n_keep
        self._tok_topic[:] = [int(remap[t]) for t in self._tok_topic]

    # -- queries ------------------------------------------------------------

    def habitat_distribution(self, cell_id: int) -> np.ndarray:
        """Smoothed topic distribution of one cell: (m[c,k] + alpha) /
        (sum_k m[c,k] + K*alpha).  Uniform for unobserved cells."""
        if not 0 <= cell_id < self.n_cells:
            raise ValueError(f"cell_id {cell_id} outside grid")
        k = self.n_topics
        counts = self._cell_topic[cell_id, :k]
        return (counts + self.config.alpha) / (counts.sum() + k * self.config.alpha)

    def habitat_map(self) -> np.ndarray:
        """(ny, nx, K) topic distribution over the whole grid."""
        k = self.n_topics
        counts = self._cell_topic[:, :k]
        dist = (counts + self.config.alpha) / (counts.sum(axis=1, keepdims=True) + k * self.config.alpha)
        return dist.reshape(self.grid_ny, self.grid_nx, k)

    def dominant_topic_cells(self) -> np.ndarray:
        """(n_cells,) most-likely topic index per cell; -1 where unobserved."""
        k = self.n_topics
        counts = self._cell_topic[:, :k]
        dominant = np.argmax(counts, axis=1)
        dominant[counts.sum(axis=1) == 0] = -1
        return dominant

    def record_mixture(self, histogram) -> np.ndarray:
        """Posterior topic mixture of one observation given the current
        appearance model: each word votes with P(z | w) weighted by overall
        topic prevalence, so identical histograms always map to identical
        mixtures."""
        histogram = np.asarray(histogram, dtype=np.float64)
        if histogram.shape != (self.vocab_size,):
            raise DataError("histogram length does not match vocabulary")
        n = histogram.sum()
        k = self.n_topics
        if n == 0:
            return np.full(k, 1.0 / k)
        cfg = self.config
        phi = (self._word_topic[:, :k] + cfg.beta) / (self._topic_total[:k] + self.vocab_size * cfg.beta)
        post = phi * (self._topic_total[:k] + cfg.alpha)
        post /= post.sum(axis=1, keepdims=True)
        return histogram @ post / n

    # -- persistence --------------------------------------------------------

    def save(self, path: str | Path) -> None:
        payload = {
            "format": CHECKPOINT_FORMAT,
            "vocab_size": self.vocab_size,
            "grid_nx": self.grid_nx,
            "grid_ny": self.grid_ny,
            "config": {
                "max_topics": self.config.max_topics,
                "alpha": self.config.alpha,
                "beta": self.config.beta,
                "gamma": self.config.gamma,
                "gibbs_sweeps": self.config.gibbs_sweeps,
            },
            "n_topics": self.n_topics,
            "labels": self.labels,
            "next_label": self._next_label,
            "tokens": {
                "cell": self._tok_cell,
                "word": self._tok_word,
                "topic": self._tok_topic,
            },
        }
        Path(path).write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "TopicModel":
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise DataError(f"cannot read topic model checkpoint {path}: {exc}") from exc
        if payload.get("format") != CHECKPOINT_FORMAT:
            raise DataError(f"unsupported checkpoint format {payload.get('format')!r}")
        cfg = TopicsConfig(**payload["config"])
        model = cls(payload["vocab_size"], payload["grid_nx"], payload["grid_ny"], cfg)
        model.n_topics = int(payload["n_topics"])
        model.labels = [int(v) for v in payload["labels"]]
        model._next_label = int(payload["next_label"])
        tokens = payload["tokens"]
        model._tok_cell = [int(v) for v in tokens["cell"]]
        model._tok_word = [int(v) for v in tokens["word"]]
        model._tok_topic = [int(v) for v in tokens["topic"]]
        for cell, word, topic in zip(model._tok_cell, model._tok_word, model._tok_topic):
            model._word_topic[word, topic] += 1
            model._topic_total[topic] += 1
            model._cell_topic[cell, topic] += 1
        model._denom[:] = model._topic_total + model.vocab_size * model.config.beta
        model.validate_counts()
        return model


# -- log-level helpers -------------------------------------------------------


def fit_log(model: TopicModel, observations, rng: np.random.Generator) -> None:
    """Stream a mission log's imaging observations, ``(cell_id, words)`` in
    log order, into the model."""
    for cell_id, words in observations:
        model.observe(cell_id, np.asarray(words), rng)


def habitat_timeseries(model: TopicModel, log) -> list[tuple[float, np.ndarray]]:
    """Per imaging record: (t, posterior topic mixture of that record)."""
    records = log.imaging_records()
    if not records:
        raise DataError("mission log has no imaging records")
    return [(r.t, model.record_mixture(np.asarray(r.words))) for r in records]


def aggregate_drift_legs(model: TopicModel, log) -> tuple[list, np.ndarray]:
    """Pair each drift window with the mean topic mixture of the imaging
    records on the transit leg that ended at its waypoint.

    Drift windows with no preceding imaging records (e.g. a drift at the
    very first waypoint) are omitted.  Returns (drift records used, matrix
    of mean mixtures in the same order).
    """
    timeseries = {id(r): model.record_mixture(np.asarray(r.words)) for r in log.imaging_records()}
    used_records = []
    vectors = []
    leg: list[np.ndarray] = []
    for record in log.records:
        if record.mode == "TRANSIT" and record.words is not None:
            leg.append(timeseries[id(record)])
        elif record.mode == "DRIFT":
            if leg:
                used_records.append(record)
                vectors.append(np.mean(leg, axis=0))
            leg = []
    if not vectors:
        raise DataError("no drift windows have a preceding imaging leg")
    return used_records, np.asarray(vectors)


def perplexity(model: TopicModel, documents: list) -> float:
    """Held-out perplexity of (histogram, ...) documents under the model's
    appearance table, with each document's mixture inferred from its words."""
    cfg = model.config
    k = model.n_topics
    phi = (model._word_topic[:, :k] + cfg.beta) / (model._topic_total[:k] + model.vocab_size * cfg.beta)
    total_ll = 0.0
    total_tokens = 0
    for histogram in documents:
        histogram = np.asarray(histogram, dtype=np.float64)
        theta = model.record_mixture(histogram)
        word_probs = phi @ theta
        nz = histogram > 0
        total_ll += float(histogram[nz] @ np.log(word_probs[nz]))
        total_tokens += int(histogram.sum())
    if total_tokens == 0:
        raise DataError("held-out corpus is empty")
    return float(np.exp(-total_ll / total_tokens))


def appearance_distributions(model: TopicModel) -> np.ndarray:
    """(K, V) smoothed word distribution of each active topic."""
    k = model.n_topics
    cfg = model.config
    counts = model._word_topic[:, :k]
    return ((counts + cfg.beta) / (counts.sum(axis=0) + model.vocab_size * cfg.beta)).T


def merge_groups_by_appearance(
    model: TopicModel, tv_threshold: float = 0.5, min_tokens: int = 50
) -> list[list[int]]:
    """Group topics whose appearance models nearly coincide.

    The sampler can mint several topics for one habitat: disconnected
    patches of the same substrate, boundary blends, and short-lived debris
    that are duplicates (or mixtures) in appearance space even though the
    spatial coupling keeps them apart.

    Greedy leader clustering by size: topics are visited largest first;
    a topic joins the nearest existing representative when the
    total-variation distance of their appearance models is at most
    ``tv_threshold``, otherwise it founds a new group if it holds at least
    ``min_tokens`` tokens (a near-empty topic's smoothed appearance is
    close to uniform, which must not anchor a habitat).  Distances are
    measured to representatives only, so chains of intermediates cannot
    glue distinct habitats together.  Leftover small topics stay singleton
    groups for downstream prevalence pruning.

    Returns index groups, largest member first within each group, ordered
    by the representative's label.
    """
    k = model.n_topics
    phi = appearance_distributions(model)
    totals = model.topic_totals()

    order = sorted(range(k), key=lambda i: (-totals[i], model.labels[i]))
    representatives: list[int] = []
    groups: dict[int, list[int]] = {}
    for i in order:
        nearest = None
        nearest_tv = np.inf
        for rep in representatives:
            tv = 0.5 * float(np.abs(phi[i] - phi[rep]).sum())
            if tv < nearest_tv:
                nearest, nearest_tv = rep, tv
        if nearest is not None and nearest_tv <= tv_threshold:
            groups[nearest].append(i)
        elif totals[i] >= min_tokens:
            representatives.append(i)
            groups[i] = [i]
        else:
            groups[i] = [i]

    ordered = sorted(groups.values(), key=lambda members: model.labels[members[0]])
    return ordered


def match_accuracy(predicted: np.ndarray, truth: np.ndarray) -> float:
    """Best-permutation agreement between two labelings (Hungarian match on
    the confusion matrix).  Entries with predicted < 0 count as wrong."""
    from scipy.optimize import linear_sum_assignment

    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape:
        raise ValueError("labelings must have the same shape")
    valid = predicted >= 0
    if not valid.any():
        return 0.0
    n_pred = int(predicted[valid].max()) + 1
    n_true = int(truth.max()) + 1
    confusion = np.zeros((n_pred, n_true), dtype=int)
    for p, t in zip(predicted[valid], truth[valid]):
        confusion[p, t] += 1
    rows, cols = linear_sum_assignment(-confusion)
    return float(confusion[rows, cols].sum()) / len(predicted)
