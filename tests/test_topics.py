from __future__ import annotations

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from json_leaves import OTHER_JSON_VALUES, leaf, leaf_paths, other_type, replace_leaf
from pins import golden_run, golden_stream, pinned, striped_world, survey_pass

from reefsim.errors import DataError
from reefsim.rng import substream
from reefsim.topics import (
    ALPHA,
    TopicModel,
    appearance_distributions,
    match_accuracy,
    merge_groups_by_appearance,
)
from reefsim.world import _block_appearance


def perplexity(model: TopicModel, documents: list) -> float:
    """Held-out perplexity of (histogram, ...) documents under the model's
    appearance table, with each document's mixture inferred from its words."""
    phi, _ = model._appearance()
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


class TestObserve:
    def test_first_token_lands_in_topic_zero_or_a_new_topic(self) -> None:
        model = TopicModel(10, 4, 1)
        hist = np.zeros(10, dtype=int)
        hist[3] = 1
        model.observe(0, hist, substream(0, "first"))
        assert model.n_topics >= 1
        assert model.token_count == 1
        model.validate_counts()

    def test_count_conservation_after_every_observe(self) -> None:
        model = TopicModel(12, 5, 5)
        rng = substream(1, "obs")
        for i in range(50):
            hist = rng.multinomial(8, np.full(12, 1 / 12))
            model.observe(int(rng.integers(25)), hist, rng)
            model.validate_counts()
            assert model.word_topic_counts().sum() == model.token_count

    def test_validate_counts_checks_the_topic_totals(self) -> None:
        model = TopicModel(12, 5, 5)
        rng = substream(2, "totals")
        for cell in range(25):
            model.observe(cell, rng.multinomial(8, np.full(12, 1 / 12)), rng)
        model.validate_counts()
        model._topic_total[0] += 1
        with pytest.raises(ValueError, match="topic totals"):
            model.validate_counts()

    def test_histogram_length_mismatch_rejected(self) -> None:
        model = TopicModel(10, 4, 1)
        with pytest.raises(DataError):
            model.observe(0, np.zeros(9, dtype=int), substream(0, "bad"))

    def test_two_separated_cells_discover_distinct_topics(self) -> None:
        # Repeated-seed experiment: disjoint point-mass vocabularies fed to
        # two far-apart cells must end with distinct dominant topics.
        wins = 0
        for seed in range(100):
            rng = substream(seed, "twocell")
            model = TopicModel(8, 10, 1)
            hist_a = np.zeros(8, dtype=int)
            hist_a[0] = 10
            hist_b = np.zeros(8, dtype=int)
            hist_b[4] = 10
            for _ in range(50):
                model.observe(0, hist_a, rng)
            for _ in range(50):
                model.observe(9, hist_b, rng)
            if model.n_topics >= 2:
                counts = model.cell_topic_counts()
                if np.argmax(counts[0]) != np.argmax(counts[9]):
                    wins += 1
        assert wins >= 95


class TestGibbsRefine:
    def test_single_token_model_keeps_one_token(self) -> None:
        model = TopicModel(6, 2, 1)
        hist = np.zeros(6, dtype=int)
        hist[2] = 1
        rng = substream(3, "single")
        model.observe(0, hist, rng)
        model.gibbs_refine(5, rng)
        assert model.token_count == 1
        model.validate_counts()

    def test_refine_conserves_token_count(self) -> None:
        model = TopicModel(10, 5, 2)
        rng = substream(4, "ref")
        for cell in range(10):
            model.observe(cell, rng.multinomial(15, np.full(10, 0.1)), rng)
        before = model.token_count
        model.gibbs_refine(10, rng)
        assert model.token_count == before
        model.validate_counts()

    def test_refine_on_empty_model_rejected(self) -> None:
        model = TopicModel(10, 2, 1)
        with pytest.raises(DataError):
            model.gibbs_refine(1, substream(0, "empty"))

    def test_retirement_keeps_labels_stable(self) -> None:
        appearance = _block_appearance(3, 24, 0.05)
        truth = striped_world()
        rng = substream(5, "labels")
        model = TopicModel(24, 10, 10)
        survey_pass(model, truth, appearance, rng)
        model.gibbs_refine(20, rng)
        assert len(set(model.labels)) == model.n_topics
        assert model.labels == sorted(model.labels)  # creation order preserved
        assert model.labels[0] == 0  # topic 0 never retires

    def test_perplexity_improves_with_sweeps(self) -> None:
        # Repeated-seed experiment on a striped synthetic corpus.
        appearance = _block_appearance(3, 24, 0.05)
        truth = striped_world()
        improved = 0
        n_seeds = 20
        for seed in range(n_seeds):
            rng = substream(seed, "perp")
            heldout = [rng.multinomial(20, appearance[truth[c]]) for c in range(0, 100, 7)]
            model = TopicModel(24, 10, 10)
            survey_pass(model, truth, appearance, rng, images_per_cell=2)
            before = perplexity(model, heldout)
            model.gibbs_refine(50, rng)
            after = perplexity(model, heldout)
            improved += after <= before
        assert improved >= 0.9 * n_seeds


class TestLogLikelihood:
    def test_matches_a_hand_worked_toy_model(self, tmp_path) -> None:
        # Two topics over three words with beta = 1/2: topic 0 holds words
        # (2, 1, 0), topic 1 holds (0, 0, 1), so V beta = 3/2.  With
        # G(1/2) = sqrt(pi), G(3/2) = sqrt(pi)/2, G(5/2) = 3 sqrt(pi)/4 and
        # G(9/2) = 105 sqrt(pi)/16, the sum
        #   2 [lnG(3/2) - 3 lnG(1/2)]
        #   + [lnG(5/2) + lnG(3/2) + lnG(1/2) - lnG(9/2)]
        #   + [2 lnG(1/2) + lnG(3/2) - lnG(5/2)]
        # = 4 lnG(3/2) - 3 lnG(1/2) - lnG(9/2) = (2 - 3/2 - 1/2) ln pi - ln 105 = -ln 105.
        path = tmp_path / "model.json"
        TopicModel(3, 1, 1).save(path)
        payload = json.loads(path.read_text())
        payload.update(n_topics=2, labels=[0, 1], next_label=2,
                       tokens={"cell": [0, 0, 0, 0], "word": [0, 0, 1, 2], "topic": [0, 0, 0, 1]})
        path.write_text(json.dumps(payload))
        assert TopicModel.load(path).log_likelihood() == pytest.approx(-np.log(105.0), rel=1e-12)


class TestGoldenStream:
    """Pinned sampler output: any change to the draw order, the arithmetic
    of the conditional or the number of uniforms consumed shows up here."""

    def test_at_the_topic_cap(self) -> None:
        expected = pinned("sampler")["at-the-topic-cap"]
        model, digest = golden_run(3)
        assert model.n_topics == 3  # at the cap, with no new-topic weight
        assert digest == expected

    def test_with_topic_creation_and_retirement(self) -> None:
        expected = pinned("sampler")["with-topic-creation-and-retirement"]
        model, digest = golden_run(20)
        assert model._next_label > model.n_topics  # some topic retired
        assert digest == expected

    def test_streaming_observes_with_refines_and_a_reload(self, tmp_path) -> None:
        expected = pinned("sampler")["streaming-observes-with-refines-and-a-reload"]
        _, kinds, digest = golden_stream(tmp_path)
        assert kinds == {"observe", "refine", "retire", "load"}
        assert digest == expected


class TestHabitatDistribution:
    def test_unobserved_cell_is_uniform(self) -> None:
        model = TopicModel(10, 3, 3)
        rng = substream(6, "uni")
        model.observe(0, np.asarray([5, 0, 0, 0, 0, 0, 0, 0, 0, 0]), rng)
        k = model.n_topics
        np.testing.assert_allclose(model.habitat_distribution(8), np.full(k, 1.0 / k))

    def test_matches_brute_force_recount_from_assignments(self) -> None:
        # Oracle: recompute the cell-topic counts from the raw assignment
        # list and apply the smoothing formula directly.
        model = TopicModel(12, 4, 4)
        rng = substream(8, "recount")
        for cell in [0, 3, 7, 9, 12, 15]:
            model.observe(cell, rng.multinomial(10, np.full(12, 1 / 12)), rng)
        model.gibbs_refine(3, rng)
        cell = 7
        counts = np.zeros(model.n_topics)
        for c, k in zip(model._tok_cell, model._tok_topic):
            if c == cell:
                counts[k] += 1
        alpha = ALPHA
        expected = (counts + alpha) / (counts.sum() + model.n_topics * alpha)
        np.testing.assert_allclose(model.habitat_distribution(cell), expected)

    def test_distribution_sums_to_one(self) -> None:
        model = TopicModel(10, 4, 4)
        rng = substream(9, "sum")
        for cell in range(16):
            model.observe(cell, rng.multinomial(6, np.full(10, 0.1)), rng)
        for cell in range(16):
            assert model.habitat_distribution(cell).sum() == pytest.approx(1.0, abs=1e-9)


class TestRecordMixture:
    def test_identical_histograms_give_identical_mixtures(self) -> None:
        model = TopicModel(10, 4, 4)
        rng = substream(10, "mix")
        for cell in range(16):
            model.observe(cell, rng.multinomial(12, np.full(10, 0.1)), rng)
        hist = np.asarray([3, 0, 1, 0, 0, 2, 0, 0, 0, 0])
        a = model.record_mixture(hist)
        b = model.record_mixture(hist)
        np.testing.assert_array_equal(a, b)
        assert a.sum() == pytest.approx(1.0, abs=1e-9)

    def test_follows_each_change_of_the_counts(self, tmp_path) -> None:
        """The table built on the first call is rebuilt after observing,
        refining (which may retire topics) and loading: each mixture equals
        that of a model freshly loaded from the same state, bit for bit."""
        model = TopicModel(10, 4, 4)
        rng = substream(11, "mix-state")
        hist = np.asarray([3, 0, 1, 0, 0, 2, 0, 0, 0, 4])
        previous = None
        for change in ("observe", "refine", "observe", "load"):
            if change == "observe":
                for cell in range(16):
                    model.observe(cell, rng.multinomial(12, np.full(10, 0.1)), rng)
            elif change == "refine":
                model.gibbs_refine(3, rng)
            model.save(tmp_path / "model.json")
            if change == "load":
                model = TopicModel.load(tmp_path / "model.json")
            mixture = model.record_mixture(hist)
            assert mixture.tobytes() == TopicModel.load(tmp_path / "model.json").record_mixture(hist).tobytes()
            if previous is not None and change != "load":
                assert mixture.tobytes() != previous.tobytes()  # the change did move the mixture
            previous = mixture


class TestTopicRecovery:
    def test_striped_world_recovered_after_survey_and_sweeps(self) -> None:
        # Well-separated vocabularies (TV = 0.95): dominant-topic labeling
        # of observed cells must match ground truth at >= 0.8 accuracy.
        appearance = _block_appearance(3, 30, 0.05)
        truth = striped_world()
        passes = 0
        n_seeds = 5
        for seed in range(n_seeds):
            rng = substream(seed, "recover")
            model = TopicModel(30, 10, 10)
            survey_pass(model, truth, appearance, rng)
            model.gibbs_refine(50, rng)
            accuracy = match_accuracy(model.dominant_topic_cells(), truth)
            passes += accuracy >= 0.8
        assert passes == n_seeds

    def test_vocabulary_permutation_does_not_change_accuracy(self) -> None:
        # Exchangeability smoke test: permuting word indices with a fixed
        # bijection leaves the achievable accuracy unchanged (within noise).
        appearance = _block_appearance(3, 24, 0.05)
        truth = striped_world()
        perm = np.random.default_rng(0).permutation(24)

        def run(app: np.ndarray, tag: str) -> float:
            accs = []
            for seed in range(3):
                rng = substream(seed, tag)
                model = TopicModel(24, 10, 10)
                survey_pass(model, truth, app, rng)
                model.gibbs_refine(30, rng)
                accs.append(match_accuracy(model.dominant_topic_cells(), truth))
            return float(np.mean(accs))

        base = run(appearance, "perm-base")
        permuted = run(appearance[:, perm], "perm-base")  # same seeds, permuted vocab
        assert abs(base - permuted) <= 0.05


class TestMergeGroups:
    def test_duplicate_appearance_topics_group_together(self) -> None:
        appearance = _block_appearance(2, 16, 0.02)
        model = TopicModel(16, 12, 1)
        rng = substream(11, "merge")
        # two far-apart stretches of the same habitat, plus one different
        for cell in (0, 1, 10, 11):
            for _ in range(20):
                model.observe(cell, rng.multinomial(12, appearance[0]), rng)
        for cell in (5, 6):
            for _ in range(20):
                model.observe(cell, rng.multinomial(12, appearance[1]), rng)
        model.gibbs_refine(10, rng)
        groups = merge_groups_by_appearance(model)
        phi = appearance_distributions(model)
        # within-group TV small, across representative TV large
        for members in groups:
            for m in members[1:]:
                assert 0.5 * np.abs(phi[members[0]] - phi[m]).sum() <= 0.5
        reps = [members[0] for members in groups]
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert 0.5 * np.abs(phi[reps[i]] - phi[reps[j]]).sum() > 0.5


class TestCheckpoint:
    def test_save_load_round_trip(self, tmp_path) -> None:
        model = TopicModel(10, 4, 4)
        rng = substream(12, "ckpt")
        for cell in range(16):
            model.observe(cell, rng.multinomial(9, np.full(10, 0.1)), rng)
        model.gibbs_refine(5, rng)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = TopicModel.load(path)
        assert loaded.n_topics == model.n_topics
        assert loaded.labels == model.labels
        np.testing.assert_array_equal(loaded.word_topic_counts(), model.word_topic_counts())
        np.testing.assert_array_equal(loaded.cell_topic_counts(), model.cell_topic_counts())

    def test_model_without_tokens_round_trips(self, tmp_path) -> None:
        path = tmp_path / "model.json"
        TopicModel(10, 3, 3).save(path)
        loaded = TopicModel.load(path)
        assert (loaded.token_count, loaded.n_topics, loaded.labels) == (0, 1, [0])

    def test_loaded_model_continues_refining(self, tmp_path) -> None:
        model = TopicModel(10, 4, 4)
        rng = substream(13, "ckpt2")
        for cell in range(16):
            model.observe(cell, rng.multinomial(9, np.full(10, 0.1)), rng)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = TopicModel.load(path)
        loaded.gibbs_refine(2, substream(14, "cont"))
        loaded.validate_counts()

    def test_reloaded_model_continues_like_the_one_in_memory(self, tmp_path) -> None:
        # Totals and denominators derive from the counts, so a checkpoint
        # taken part-way through a stream resumes exactly.
        appearance = _block_appearance(3, 12, 0.05)
        truth = striped_world(6, 6)
        model = TopicModel(12, 6, 6)
        rng = substream(16, "resume")
        survey_pass(model, truth, appearance, rng, images_per_cell=2)
        model.gibbs_refine(3, rng)
        path = tmp_path / "model.json"
        model.save(path)
        loaded, loaded_rng = TopicModel.load(path), copy.deepcopy(rng)
        for m, r in ((model, rng), (loaded, loaded_rng)):
            survey_pass(m, truth, appearance, r, images_per_cell=2)
            m.gibbs_refine(5, r)
        assert loaded._tok_topic == model._tok_topic
        assert loaded.labels == model.labels

    @pytest.mark.parametrize(
        "edit",
        [
            lambda payload: [payload],
            lambda payload: {k: v for k, v in payload.items() if k != "tokens"},
            lambda payload: {**payload, "config": {"max_topics": payload["max_topics"], "gibbs_sweeps": 10}},
            lambda payload: {**payload, "tokens": {**payload["tokens"], "word": [99] * len(payload["tokens"]["word"])}},
            lambda payload: {**payload, "n_topics": "many"},
            lambda payload: {**payload, "max_topics": 0},
            lambda payload: {**payload, "tokens": {**payload["tokens"], "word": [-1, *payload["tokens"]["word"][1:]]}},
            lambda payload: {**payload, "tokens": {**payload["tokens"], "cell": [-3, *payload["tokens"]["cell"][1:]]}},
            lambda payload: {**payload, "labels": payload["labels"][:-1]},
            lambda payload: {**payload, "tokens": {**payload["tokens"], "cell": [*payload["tokens"]["cell"], 0]}},
            lambda payload: {**payload, "tokens": {**payload["tokens"], "cell": [1.7, *payload["tokens"]["cell"][1:]]}},
            lambda payload: {**payload, "tokens": {**payload["tokens"], "word": ["3", *payload["tokens"]["word"][1:]]}},
            lambda payload: {**payload, "tokens": {**payload["tokens"], "topic": [False, *payload["tokens"]["topic"][1:]]}},
            lambda payload: {**payload, "next_label": max(payload["labels"])},
            lambda payload: {**payload, "labels": [payload["labels"][0]] * len(payload["labels"])},
            lambda payload: {**payload, "format": "reefsim-topic-model-v1", "config": {"max_topics": 20, "alpha": 0.1, "beta": 0.5, "gamma": 0.05}},
            lambda payload: {**{k: v for k, v in payload.items() if k != "max_topics"}, "format": "reefsim-topic-model-v2",
                             "config": {"max_topics": payload["max_topics"], "gibbs_sweeps": 10}},
        ],
        ids=[
            "not-a-mapping",
            "missing-key",
            "unknown-config-key",
            "word-outside-vocabulary",
            "wrong-type",
            "bad-config-value",
            "negative-word",
            "negative-cell",
            "short-labels",
            "ragged-tokens",
            "fractional-cell",
            "string-word",
            "bool-topic",
            "next-label-in-use",
            "duplicate-labels",
            "v1-checkpoint",
            "v2-checkpoint",
        ],
    )
    def test_malformed_checkpoint_is_data_error(self, tmp_path, edit) -> None:
        model = TopicModel(10, 4, 4)
        rng = substream(15, "ckpt3")
        for cell in range(16):
            model.observe(cell, rng.multinomial(9, np.full(10, 0.1)), rng)
        path = tmp_path / "model.json"
        model.save(path)
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(DataError, match="topic model checkpoint") as caught:
            TopicModel.load(path)
        assert "\n" not in str(caught.value)


class TestMatchAccuracy:
    def test_perfect_relabeling_scores_one(self) -> None:
        truth = np.asarray([0, 0, 1, 1, 2, 2])
        predicted = np.asarray([2, 2, 0, 0, 1, 1])  # pure permutation
        assert match_accuracy(predicted, truth) == 1.0

    def test_unobserved_cells_count_as_wrong(self) -> None:
        truth = np.asarray([0, 0, 1, 1])
        predicted = np.asarray([0, 0, 1, -1])
        assert match_accuracy(predicted, truth) == pytest.approx(0.75)


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    """A model of 12 tokens on a 2x2 grid with four words, saved once;
    returns its directory and its parsed payload."""
    model = TopicModel(4, 2, 2)
    rng = substream(3, "tiny-checkpoint")
    for cell in range(4):
        model.observe(cell, rng.multinomial(3, np.full(4, 0.25)), rng)
    directory = tmp_path_factory.mktemp("tiny_checkpoint")
    model.save(directory / "model.json")
    return directory, json.loads((directory / "model.json").read_text())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_checkpoint_load_with_one_leaf_of_another_type_loads_or_is_data_error(tiny_checkpoint, data) -> None:
    directory, payload = tiny_checkpoint
    path = data.draw(st.sampled_from(leaf_paths(payload)))
    new = data.draw(OTHER_JSON_VALUES.filter(lambda v: other_type(leaf(payload, path), v)))
    checkpoint_path = directory / "corrupt.json"
    checkpoint_path.write_text(json.dumps(replace_leaf(payload, path, new)))
    try:
        TopicModel.load(checkpoint_path)
    except DataError:
        pass
