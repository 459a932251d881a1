"""Unsupervised habitat discovery over visual-word observations.

A spatially coupled Dirichlet-multinomial topic model with a capped
Chinese-restaurant growth rule: each word token is assigned a topic from

    P(z = k | w, c)  propto  (n[w,k] + beta) / (n[k] + V*beta) * (mN(c)[k] + alpha)

where ``mN(c)`` sums per-cell topic counts over the cell and its grid
4-neighborhood, and a fresh topic (while fewer than ``max_topics`` are
active) is drawn with weight ``gamma / V``.  The concentrations are the
module constants ``ALPHA`` (0.1, spatial), ``BETA`` (0.5, word-topic) and
``GAMMA`` (0.05, new topic), the method's, calibrated with the acceptance
criteria; the config sets only the work sizes, ``max_topics`` and
``gibbs_sweeps`` (:class:`TopicsConfig`).  New observations stream in
through :meth:`TopicModel.observe`; :meth:`TopicModel.gibbs_refine`
resamples existing assignments from the same conditional, retiring topics
that empty out (topic 0 always survives).

Topics are reported by stable labels assigned at creation; retirement
compacts internal indices but never reuses a label.

The model's state is the token assignments and three count tables, kept
as plain Python lists of floats: ``n[w,k]`` (word-topic, one list per word),
``m[c,k]`` (cell-topic, one list per cell) and the topic totals ``n[k]``,
each ``max_topics`` wide with zeros past the active topics.  Floats, not
ints, keep ``n + beta`` on the interpreter's float path.  Every count is a
whole number far below ``2**53``, so the +-1 updates are exact.  Only the
queries build numpy arrays, from the lists.

Both entry points share one sampling kernel, which updates the rows it
touches in place.  Every token draw consumes exactly one uniform and opening
a topic consumes none, so the uniforms of a whole call (one ``observe`` or
one refine sweep) are drawn up front with a single ``rng.random(n)``; the
stream is the same as one ``rng.random()`` per token.  The denominators and
neighborhood counts are updated by +-1 in place, never recomputed mid-call,
so every double matches the one-token-at-a-time formulation.  A call derives
its denominators ``n[k] + V*beta`` from the exact totals when it starts.  At
``BETA`` = 0.5, ``V*beta`` is a multiple of 1/2 for every integer ``V``, so
each denominator and each of its +-1 updates is exact, and this gives the
same doubles as carrying the denominators from call to call.

The mission log's layout is not known here: :mod:`reefsim.analysis` streams
the imaging records in and pairs mixtures with drift windows.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import DataError, build, check_section, data_errors, json_object, write_json_lines

CHECKPOINT_FORMAT = "reefsim-topic-model-v3"

# The concentrations of the conditional (see the module docstring).
ALPHA = 0.1  # spatial (cell-topic)
BETA = 0.5  # word-topic
GAMMA = 0.05  # new topic

# merge_groups_by_appearance: the largest total-variation distance at which
# a topic joins a group, and the fewest tokens a topic founding one holds.
MERGE_TV_THRESHOLD = 0.5
MERGE_MIN_TOKENS = 50

# Upper bounds on a fit's work, checked before it starts: the topic cap,
# which sets the width of every count row (one per word and one per cell) and
# the weights each draw evaluates, and the refinement sweeps.  The largest
# fit any test, benchmark or example runs is the criterion-1 site's: 14,900
# tokens, the default cap of 20 and at most 50 sweeps (the sweep-count table
# in CHANGES.md).  Each budget allows 100 times that.  They bound each
# factor, not the product: a sweep of that fit took about 45 ms on a 2-vCPU
# x86_64 VM, so 5,000 sweeps of it run for about four minutes.
MAX_TOPICS = 2_000
MAX_GIBBS_SWEEPS = 5_000


@dataclass(frozen=True)
class TopicsConfig:
    max_topics: int = 20
    gibbs_sweeps: int = 10  # measured on the criterion-1 site: see the sweep-count table in CHANGES.md

    def __post_init__(self) -> None:
        check_section(self, ("max_topics", lambda: 1 <= self.max_topics <= MAX_TOPICS, f"must be in [1, {MAX_TOPICS:,}]"),
                      ("gibbs_sweeps", lambda: 0 <= self.gibbs_sweeps <= MAX_GIBBS_SWEEPS, f"must be in [0, {MAX_GIBBS_SWEEPS:,}]"))


@dataclass(frozen=True)
class _Tokens:
    cell: list[int]
    word: list[int]
    topic: list[int]


@dataclass(frozen=True)
class _Checkpoint:
    """A checkpoint file's fields: :meth:`TopicModel.save` writes one and
    :meth:`TopicModel.load` reads one through :func:`reefsim.errors.build`.
    It checks itself when built."""

    vocab_size: int
    grid_nx: int
    grid_ny: int
    max_topics: int
    n_topics: int
    labels: list[int]
    next_label: int
    tokens: _Tokens

    def __post_init__(self) -> None:
        labels, tokens = self.labels, self.tokens
        check_section(self, ("grid_nx", lambda: self.grid_nx >= 1, "must be at least 1"),
                      ("grid_ny", lambda: self.grid_ny >= 1, "must be at least 1"),
                      ("max_topics", lambda: 1 <= self.max_topics <= MAX_TOPICS, f"must be in [1, {MAX_TOPICS:,}]"),
                      ("n_topics", lambda: 1 <= self.n_topics <= self.max_topics, "must be in [1, max_topics]"),
                      ("labels", lambda: len(labels) == self.n_topics, "must hold one label per topic"),
                      ("labels", lambda: len(set(labels)) == len(labels), "must be distinct"),
                      ("next_label", lambda: self.next_label not in labels, "must not be a label in use"),
                      ("tokens", lambda: len(tokens.cell) == len(tokens.word) == len(tokens.topic), "cell, word and topic lists differ in length"))


class TopicModel:
    """Streaming topic model over a ``grid_nx x grid_ny`` cell grid."""

    def __init__(self, vocab_size: int, grid_nx: int, grid_ny: int, max_topics: int = TopicsConfig.max_topics):
        if vocab_size < 2 or max_topics < 1:
            raise ValueError("vocab_size must be >= 2 and max_topics >= 1")
        self.max_topics = max_topics
        self.vocab_size = vocab_size
        self.grid_nx = grid_nx
        self.grid_ny = grid_ny
        self.n_cells = grid_nx * grid_ny

        self._word_topic = [[0.0] * max_topics for _ in range(vocab_size)]
        self._cell_topic = [[0.0] * max_topics for _ in range(self.n_cells)]
        self._topic_total = [0.0] * max_topics
        self.n_topics = 1  # topic 0 exists from the start and is never retired
        self.labels: list[int] = [0]
        self._next_label = 1

        self._tok_cell: list[int] = []
        self._tok_word: list[int] = []
        self._tok_topic: list[int] = []

        self._neighbors = [self._neighborhood(c) for c in range(self.n_cells)]
        self._word_posterior: np.ndarray | None = None  # record_mixture's table; None once the counts change

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
        return np.array([row[: self.n_topics] for row in self._word_topic])

    def cell_topic_counts(self) -> np.ndarray:
        """(n_cells, K) cell-topic count table for the active topics."""
        return np.array([row[: self.n_topics] for row in self._cell_topic])

    def topic_totals(self) -> np.ndarray:
        """(K,) tokens per active topic: the column sums of the word-topic table."""
        return np.array(self._topic_total[: self.n_topics])

    def log_likelihood(self) -> float:
        """The collapsed ``log p(w | z)`` of the current assignments
        (Griffiths & Steyvers, PNAS 2004), over the active topics:

            K (lnG(V beta) - V lnG(beta)) + sum_k [sum_w lnG(n[w,k] + beta) - lnG(n[k] + V beta)]

        It reads only the count tables and draws nothing."""
        from scipy.special import gammaln

        beta, v = BETA, self.vocab_size
        per_topic = gammaln(self.word_topic_counts() + beta).sum(axis=0) - gammaln(self.topic_totals() + v * beta)
        return float(self.n_topics * (gammaln(v * beta) - v * gammaln(beta)) + per_topic.sum())

    def validate_counts(self) -> None:
        k = self.n_topics
        if not 1 <= k <= self.max_topics:
            raise ValueError("active topic count out of range")
        word_topic, cell_topic = np.array(self._word_topic), np.array(self._cell_topic)
        if np.any(word_topic < 0) or np.any(cell_topic < 0):
            raise ValueError("negative counts")
        if word_topic[:, :k].sum() != self.token_count:
            raise ValueError("word-topic table inconsistent with token count")
        if cell_topic[:, :k].sum() != self.token_count:
            raise ValueError("cell-topic table inconsistent with token count")
        if np.any(word_topic[:, k:]) or np.any(cell_topic[:, k:]):
            raise ValueError("counts present beyond active topics")
        if not np.array_equal(self._topic_total, word_topic.sum(axis=0)):
            raise ValueError("topic totals differ from the word-topic column sums")

    # -- inference ----------------------------------------------------------

    def _sample_tokens(self, start: int, resample: bool, rng: np.random.Generator) -> None:
        """Draw a topic for every token from index ``start`` on, in order.

        With ``resample`` each token's current assignment is first removed
        from the counts; otherwise the token is new and its stored topic is
        a placeholder.  A draw of index ``n_topics`` opens a new topic.
        """
        max_topics = self.max_topics
        beta, alpha = BETA, ALPHA
        new_weight = GAMMA / self.vocab_size
        unused_denom = self.vocab_size * beta
        tok_cell, tok_word, tok_topic = self._tok_cell, self._tok_word, self._tok_topic
        word_topic, cell_topic, totals, neighbors = self._word_topic, self._cell_topic, self._topic_total, self._neighbors
        # denom and mn_alpha hold one entry per active topic, so zip() over
        # them ignores the unused columns of the full-width rows.
        denom = [total + unused_denom for total in totals[: self.n_topics]]

        self._word_posterior = None
        current_cell = -1
        for i, u in enumerate(rng.random(len(tok_word) - start).tolist(), start):
            cell = tok_cell[i]
            if cell != current_cell:
                current_cell = cell
                cell_row = cell_topic[cell]
                neighborhood = zip(*(cell_topic[c] for c in neighbors[cell]))
                mn_alpha = [sum(col) + alpha for col in islice(neighborhood, len(denom))]
            row = word_topic[tok_word[i]]
            if resample:
                old = tok_topic[i]
                row[old] -= 1
                totals[old] -= 1
                denom[old] -= 1
                cell_row[old] -= 1
                mn_alpha[old] -= 1

            total = 0.0
            cum = []
            for n, d, m in zip(row, denom, mn_alpha):
                total += (n + beta) / d * m
                cum.append(total)
            if len(cum) < max_topics:
                total += new_weight
                cum.append(total)
            k = bisect_right(cum, u * total)
            if k == self.n_topics:
                k = self._create_topic()
                denom.append(unused_denom)
                mn_alpha.append(alpha)  # no counts yet anywhere

            row[k] += 1
            totals[k] += 1
            denom[k] += 1
            cell_row[k] += 1
            mn_alpha[k] += 1
            tok_topic[i] = k

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
        zeros = [0.0] * (self.max_topics - len(keep))
        for row in (*self._word_topic, *self._cell_topic, self._topic_total):
            row[:] = [row[j] for j in keep] + zeros
        self._word_posterior = None
        remap = {old: new for new, old in enumerate(keep)}
        self.labels = [self.labels[j] for j in keep]
        self.n_topics = len(keep)
        self._tok_topic[:] = [remap[t] for t in self._tok_topic]

    # -- queries ------------------------------------------------------------

    def habitat_distribution(self, cell_id: int) -> np.ndarray:
        """Smoothed topic distribution of one cell: (m[c,k] + alpha) /
        (sum_k m[c,k] + K*alpha).  Uniform for unobserved cells."""
        if not 0 <= cell_id < self.n_cells:
            raise ValueError(f"cell_id {cell_id} outside grid")
        k = self.n_topics
        counts = np.array(self._cell_topic[cell_id][:k])
        return (counts + ALPHA) / (counts.sum() + k * ALPHA)

    def dominant_topic_cells(self) -> np.ndarray:
        """(n_cells,) most-likely topic index per cell; -1 where unobserved."""
        counts = self.cell_topic_counts()
        dominant = np.argmax(counts, axis=1)
        dominant[counts.sum(axis=1) == 0] = -1
        return dominant

    def record_mixture(self, histogram) -> np.ndarray:
        """Posterior topic mixture of one observation given the current
        appearance model: each word votes with P(z | w) weighted by overall
        topic prevalence, so identical histograms always map to identical
        mixtures.  The (V, K) table of P(z | w) is built once per model
        state: sampling, retiring topics and loading clear it."""
        histogram = np.asarray(histogram, dtype=np.float64)
        if histogram.shape != (self.vocab_size,):
            raise DataError("histogram length does not match vocabulary")
        n = histogram.sum()
        if n == 0:
            return np.full(self.n_topics, 1.0 / self.n_topics)
        if self._word_posterior is None:
            phi, totals = self._appearance()
            post = phi * (totals + ALPHA)
            post /= post.sum(axis=1, keepdims=True)
            self._word_posterior = post
        return histogram @ self._word_posterior / n

    def _appearance(self) -> tuple[np.ndarray, np.ndarray]:
        """The (V, K) appearance table ``(n[w,k] + beta) / (n[k] + V*beta)``
        of the active topics, and the topic totals ``n[k]``."""
        totals = self.topic_totals()
        return (self.word_topic_counts() + BETA) / (totals + self.vocab_size * BETA), totals

    # -- persistence --------------------------------------------------------

    def save(self, path: str | Path) -> None:
        checkpoint = _Checkpoint(self.vocab_size, self.grid_nx, self.grid_ny, self.max_topics, self.n_topics, self.labels,
                                 self._next_label, _Tokens(self._tok_cell, self._tok_word, self._tok_topic))
        write_json_lines(path, [{"format": CHECKPOINT_FORMAT, **vars(checkpoint)}])

    @classmethod
    def load(cls, path: str | Path) -> "TopicModel":
        """Read a checkpoint; any way it can fail to be one raises
        :class:`DataError`."""
        with data_errors(f"topic model checkpoint {path}"):
            payload = json_object(Path(path).read_text())
            checkpoint_format = payload.pop("format", None)
            if checkpoint_format != CHECKPOINT_FORMAT:
                raise ValueError(f"unsupported checkpoint format {checkpoint_format!r}")
            checkpoint = build(_Checkpoint, payload)
            model = cls(checkpoint.vocab_size, checkpoint.grid_nx, checkpoint.grid_ny, checkpoint.max_topics)
            model.n_topics = checkpoint.n_topics
            model.labels = checkpoint.labels
            model._next_label = checkpoint.next_label
            model._tok_cell = checkpoint.tokens.cell
            model._tok_word = checkpoint.tokens.word
            model._tok_topic = checkpoint.tokens.topic
            for name, values, bound in (
                ("cell", model._tok_cell, model.n_cells),
                ("word", model._tok_word, model.vocab_size),
                ("topic", model._tok_topic, model.n_topics),
            ):
                if values and not 0 <= min(values) <= max(values) < bound:
                    raise ValueError(f"token {name} index outside [0, {bound})")
            model._word_topic = _count_rows(model._tok_word, model._tok_topic, model.vocab_size, model.max_topics)
            model._cell_topic = _count_rows(model._tok_cell, model._tok_topic, model.n_cells, model.max_topics)
            model._topic_total = [float(sum(column)) for column in zip(*model._word_topic)]
            model._word_posterior = None
            model.validate_counts()
        return model


def _count_rows(index: list[int], topic: list[int], n_rows: int, width: int) -> list[list[float]]:
    """``n_rows`` lists of ``width`` floats: entry ``[r][k]`` counts the
    tokens ``i`` with ``index[i] == r`` and ``topic[i] == k``."""
    flat = np.asarray(index, dtype=np.int64) * width + np.asarray(topic, dtype=np.int64)
    return np.bincount(flat, minlength=n_rows * width).reshape(n_rows, width).astype(np.float64).tolist()


def appearance_distributions(model: TopicModel) -> np.ndarray:
    """(K, V) smoothed word distribution of each active topic."""
    return model._appearance()[0].T


def merge_groups_by_appearance(model: TopicModel) -> list[list[int]]:
    """Group topics whose appearance models nearly coincide.

    The sampler can mint several topics for one habitat: disconnected
    patches of the same substrate, boundary blends, and short-lived debris
    that are duplicates (or mixtures) in appearance space even though the
    spatial coupling keeps them apart.

    Greedy leader clustering by size: topics are visited largest first;
    a topic joins the nearest existing representative when the
    total-variation distance of their appearance models is at most
    ``MERGE_TV_THRESHOLD``, otherwise it founds a new group if it holds at
    least ``MERGE_MIN_TOKENS`` tokens (a near-empty topic's smoothed
    appearance is close to uniform, which must not anchor a habitat).  Distances are
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
        if nearest is not None and nearest_tv <= MERGE_TV_THRESHOLD:
            groups[nearest].append(i)
        elif totals[i] >= MERGE_MIN_TOKENS:
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
