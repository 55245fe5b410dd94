import itertools
import json
import math
import re
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimaug import synth
from claimaug.crf import (
    BOS,
    CrfModel,
    TrainConfig,
    dataset_nll,
    decode,
    extract_features,
    nll_and_gradient,
    train,
    viterbi,
    _compile,
    _emissions,
    _feature_ids,
    _forward_backward,
    _length_chunks,
    _sentence_gradient,
)
from claimaug.errors import TrainingDiverged, ValidationError
from claimaug.senttok import split_sentences


def present_feature_ids(model, texts):
    """Per position, the ids of the feature strings the model knows, in feature order."""
    index = model.feature_index
    return [[index[f] for f in feats if f in index] for feats in extract_features(texts)]


def reference_emissions(model, fids):
    """[n, L] emission scores: each position sums its feature rows in the given order."""
    out = np.zeros((len(fids), model.n_labels))
    for i, rows in enumerate(fids):
        if rows:
            out[i] = model.emission_weights[rows].sum(axis=0)
    return out


# The emission oracle: ids straight from `extract_features` and the feature
# index, summed the way `_emissions` summed them before its gather became
# feature-major, so it shares no code with `_feature_ids` or `_emissions`.

def oracle_feature_ids(model, texts):
    """int [n, 14] ids of `extract_features(texts)`, -1 where the model lacks a feature."""
    index = model.feature_index
    ids = [[index.get(f, -1) for f in feats] for feats in extract_features(texts)]
    return np.array(ids, dtype=np.intp).reshape(-1, 14)


def oracle_emissions(model, ids):
    """[..., n, L] emissions of ids [..., n, 14]: the zero-padded [..., n, 14, L] summed over -2."""
    rows = model.emission_weights[ids]
    rows[ids < 0] = 0.0
    return rows.sum(axis=-2)


def all_sequence_scores(model, texts):
    """Brute-force score of every label sequence, in lexicographic order."""
    emissions = oracle_emissions(model, oracle_feature_ids(model, texts))
    transitions = model.transitions
    n, L = emissions.shape
    seqs = np.array(list(itertools.product(range(L), repeat=n)), dtype=np.intp)
    scores = emissions[np.arange(n), seqs].sum(axis=1)
    if n > 1:
        scores = scores + transitions[seqs[:, :-1], seqs[:, 1:]].sum(axis=1)
    return seqs, scores


def brute_log_partition(model, texts):
    _, scores = all_sequence_scores(model, texts)
    m = scores.max()
    return float(m + np.log(np.exp(scores - m).sum()))


def brute_viterbi(model, texts):
    """The best label sequence; among equal scores, the earlier label from the last position back."""
    seqs, scores = all_sequence_scores(model, texts)
    best = scores.max()
    path = min(tuple(seq[::-1]) for seq, score in zip(seqs.tolist(), scores) if score == best)
    return [model.labels[i] for i in reversed(path)]


def brute_marginals(model, texts):
    """[n, L] label marginals by summing the probability of every sequence."""
    seqs, scores = all_sequence_scores(model, texts)
    probs = np.exp(scores - brute_log_partition(model, texts))
    out = np.zeros((len(texts), model.n_labels))
    for i in range(len(texts)):
        np.add.at(out[i], seqs[:, i], probs)
    return out


def brute_gradient(model, texts, gold_labels):
    """The NLL gradient at l2 = 0 by enumeration: expected minus observed feature counts."""
    seqs, scores = all_sequence_scores(model, texts)
    probs = np.exp(scores - brute_log_partition(model, texts))
    y = [model.labels.index(label) for label in gold_labels]
    F, L = len(model.feature_index), model.n_labels
    grad = np.zeros_like(model.weights)
    unary = brute_marginals(model, texts)
    unary[np.arange(len(y)), y] -= 1.0
    emission_grad = grad[:F * L].reshape(F, L)
    for ids, row in zip(oracle_feature_ids(model, texts), unary):
        np.add.at(emission_grad, ids[ids >= 0], row)
    transition_grad = grad[F * L:].reshape(L, L)
    for i in range(1, len(texts)):
        np.add.at(transition_grad, (seqs[:, i - 1], seqs[:, i]), probs)
        transition_grad[y[i - 1], y[i]] -= 1.0
    return grad


def first_label_nll(model, texts):
    """NLL of labelling every token with the first label: `all_sequence_scores` row 0.

    It is log Z minus that row's score, so it checks log Z against enumeration.
    """
    return nll_and_gradient(model, texts, [model.labels[0]] * len(texts))[0]


def random_instance(rng, n_max=5, l_max=4, scale=1.0):
    vocabulary = ["80", "%", "IBS", "gut", "the", "Helped", "slept", "a", "B12"]
    n = rng.randint(1, n_max)
    n_labels = rng.randint(1, l_max)
    labels = [f"L{i}" for i in range(n_labels)]
    texts = [rng.choice(vocabulary) for _ in range(n)]
    model = CrfModel.build(labels, [texts])
    weights_rng = np.random.default_rng(rng.randrange(2 ** 31))
    model.weights = weights_rng.normal(0.0, scale, size=model.weights.shape)
    return model, texts, labels


# One-character, digit, all-caps and mixed tokens, plus the boundary symbol
# itself as a literal token.
TOKENS = ["a", "%", "7", "80", "IBS", "B12", "gut", "Helped", "the", BOS]


@st.composite
def tiny_models(draw):
    """A model with 1-4 labels and a 1-5 token sentence, for enumeration.

    Half the models get Gaussian weights. The other half get small integer
    weights: equal scores are common. The Gaussian weights are rounded to
    multiples of 2**-20, so every score sums exactly in any order, as the
    integer ones do. Unrounded, two sequences that tie exactly (a repeated
    token can swap labels between positions with the same features) can sum
    one ulp apart in `all_sequence_scores` and in `viterbi`, and the
    tie-break then follows the rounding, not the label order.
    """
    labels = [f"L{i}" for i in range(draw(st.integers(1, 4)))]
    seen = draw(st.lists(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=4),
                         min_size=1, max_size=3))
    model = CrfModel.build(labels, seen)
    size = model.weights.size
    if draw(st.booleans()):
        values = draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size))
        model.weights = np.array(values, dtype=np.float64)
    else:
        weights_rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        model.weights = np.round(weights_rng.normal(0.0, 1.0, size=size) * 2.0 ** 20) / 2.0 ** 20
    texts = draw(st.lists(st.sampled_from(TOKENS + ["unseen", "ZZ"]), min_size=1, max_size=5))
    return model, texts


class TestFeatures:
    def test_word_shape_features(self):
        feats = extract_features(["Sibo"])[0]
        for expected in ("w=Sibo", "suf1=o", "suf2=bo", "suf3=ibo",
                         "capInit=1", "allCap=0", "digit=0"):
            assert expected in feats

    def test_digit_flag(self):
        assert "digit=1" in extract_features(["80"])[0]

    def test_short_word_suffix_falls_back_to_word(self):
        feats = extract_features(["ab"])[0]
        assert "suf3=ab" in feats

    def test_position_zero_bigrams_use_boundary(self):
        feats = extract_features(["Sibo"])[0]
        assert "bw=<BOS>|Sibo" in feats
        assert "bcapInit=<BOS>|1" in feats

    def test_bigrams_conjoin_previous_values(self):
        feats = extract_features(["have", "Sibo"])[1]
        assert "bw=have|Sibo" in feats
        assert "bsuf2=ve|bo" in feats

    def test_deterministic(self):
        assert extract_features(["a", "b"]) == extract_features(["a", "b"])


class TestLogPartition:
    """log Z, read off the NLL of the all-first-label labelling."""

    def test_zero_weights_closed_form(self):
        # Every labelling scores 0, so its NLL is log Z.
        model = CrfModel.build(["A", "B", "C"], [["x", "y", "z"]])
        assert first_label_nll(model, ["x", "y", "z"]) == pytest.approx(3 * math.log(3))

    def test_single_label(self):
        rng = random.Random(0)
        for _ in range(10):
            model, texts, _ = random_instance(rng, l_max=1)
            seqs, scores = all_sequence_scores(model, texts)
            assert first_label_nll(model, texts) + scores[0] == pytest.approx(float(scores[0]))

    @settings(max_examples=150, deadline=None)
    @given(tiny_models())
    def test_matches_brute_force(self, instance):
        model, texts = instance
        _, scores = all_sequence_scores(model, texts)
        expected = brute_log_partition(model, texts) - scores[0]
        assert first_label_nll(model, texts) == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_sequence_probabilities_in_unit_interval(self):
        rng = random.Random(2)
        for _ in range(30):
            model, texts, _ = random_instance(rng)
            seqs, scores = all_sequence_scores(model, texts)
            log_z = first_label_nll(model, texts) + scores[0]
            probs = np.exp(scores - log_z)
            assert np.all(probs > 0) and np.all(probs <= 1 + 1e-12)
            assert probs.sum() == pytest.approx(1.0, rel=1e-9)


class TestMarginals:
    """The marginals, read off the gradient: expected minus observed counts."""

    def test_rows_sum_to_one(self):
        # A feature's gradient row adds, per position holding it, the label
        # marginals minus the gold label's one, and a transition gradient adds
        # the pairwise marginals minus the gold pair's one. At l2 = 0 each
        # sums to 0 exactly when the marginals sum to 1.
        rng = random.Random(3)
        for _ in range(30):
            model, texts, _ = random_instance(rng)
            _, grad = nll_and_gradient(model, texts, [model.labels[0]] * len(texts))
            split = len(model.feature_index) * model.n_labels
            emission_grad = grad[:split].reshape(-1, model.n_labels)
            np.testing.assert_allclose(emission_grad.sum(axis=1), 0.0, atol=1e-9)
            np.testing.assert_allclose(grad[split:].sum(), 0.0, atol=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(tiny_models())
    def test_match_enumeration(self, instance):
        model, texts = instance
        gold = [model.labels[0]] * len(texts)
        np.testing.assert_allclose(nll_and_gradient(model, texts, gold)[1],
                                   brute_gradient(model, texts, gold), rtol=1e-9, atol=1e-12)


class TestGradient:
    def test_zero_weight_closed_form(self):
        # At w=0 with no l2 the expectation is uniform, so an emission
        # coordinate touched only at position 0 gets (1/L - is_gold).
        labels = ["A", "B"]
        texts = ["only", "two"]
        model = CrfModel.build(labels, [texts])
        _, grad = nll_and_gradient(model, texts, ["A", "B"])
        L = len(labels)
        fids = present_feature_ids(model, texts)
        emission_grad = grad[:len(model.feature_index) * L].reshape(-1, L)
        first_only = set(fids[0]) - set(fids[1])
        assert first_only
        for fid in first_only:
            assert emission_grad[fid, 0] == pytest.approx(1 / L - 1)
            assert emission_grad[fid, 1] == pytest.approx(1 / L)

    def test_l2_only_component(self):
        model = CrfModel.build(["A", "B"], [["x"]])
        rng = np.random.default_rng(0)
        model.weights = rng.normal(size=model.weights.shape)
        # "y" shares no features with the training vocabulary beyond shape
        # flags; transition/emission coordinates not touched by the example
        # must come out as exactly l2 * w.
        _, grad = nll_and_gradient(model, ["x"], ["A"], l2=0.5)
        fids = set(present_feature_ids(model, ["x"])[0])
        L = 2
        for fid in range(len(model.feature_index)):
            if fid not in fids:
                for l in range(L):
                    i = fid * L + l
                    assert grad[i] == pytest.approx(0.5 * model.weights[i])

    def test_matches_finite_differences(self):
        rng = random.Random(4)
        for _ in range(5):
            model, texts, labels = random_instance(rng, scale=0.5)
            gold = [model.labels[rng.randrange(len(model.labels))] for _ in texts]
            _, grad = nll_and_gradient(model, texts, gold, l2=0.1)
            coords = rng.sample(range(model.weights.size),
                                min(20, model.weights.size))
            h = 1e-5
            for coord in coords:
                model.weights[coord] += h
                up = nll_and_gradient(model, texts, gold, l2=0.1)[0]
                model.weights[coord] -= 2 * h
                down = nll_and_gradient(model, texts, gold, l2=0.1)[0]
                model.weights[coord] += h
                numeric = (up - down) / (2 * h)
                denom = max(abs(numeric), abs(grad[coord]), 1e-8)
                assert abs(grad[coord] - numeric) / denom < 1e-4


def reference_viterbi(model, texts):
    """Viterbi with numpy per position, as it ran before the scalar recursion."""
    if not texts:
        return []
    emissions = oracle_emissions(model, oracle_feature_ids(model, texts))
    transitions = model.transitions
    n, L = emissions.shape
    delta = emissions[0]
    back = np.zeros((n, L), dtype=np.intp)
    for i in range(1, n):
        scores = delta[:, None] + transitions
        back[i] = np.argmax(scores, axis=0)
        delta = scores[back[i], np.arange(L)] + emissions[i]
    best = int(np.argmax(delta))
    path = [best]
    for i in range(n - 1, 0, -1):
        best = int(back[i, best])
        path.append(best)
    path.reverse()
    return [model.labels[i] for i in path]


@st.composite
def tied_models(draw):
    """Tiny models with small integer weights, so that equal scores are common."""
    labels = [f"L{i}" for i in range(draw(st.integers(1, 4)))]
    seen = draw(st.lists(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=4),
                         min_size=1, max_size=3))
    model = CrfModel.build(labels, seen)
    values = draw(st.lists(st.integers(-2, 2), min_size=model.weights.size,
                           max_size=model.weights.size))
    model.weights = np.array(values, dtype=np.float64)
    texts = draw(st.lists(st.sampled_from(TOKENS + ["unseen", "ZZ"]), min_size=1, max_size=7))
    return model, texts


class TestFeatureIds:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=5), min_size=1,
                    max_size=4),
           st.lists(st.lists(st.sampled_from(TOKENS + ["unseen", "Q", "NEW", "42"]),
                             min_size=1, max_size=6), min_size=1, max_size=4))
    def test_match_extract_features(self, seen, queries):
        model = CrfModel.build(["A", "B"], seen)
        index = model.feature_index
        # `build` fills the memo for the tokens it saw; queries add their own.
        seen_tokens = {t for texts in seen for t in texts}
        assert set(model._token_memo) == seen_tokens
        for memo in ("cold", "warm"):  # the first pass fills the memo, the second reads it
            for texts in queries:
                expected = [[index.get(f, -1) for f in feats]
                            for feats in extract_features(texts)]
                ids = _feature_ids(model, texts)
                assert ids.dtype == np.int32
                assert ids.tolist() == expected
            assert set(model._token_memo) == seen_tokens | {t for texts in queries for t in texts}

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=5), min_size=1,
                    max_size=4),
           st.sampled_from(TOKENS + ["unseen"]),
           st.lists(st.sampled_from(TOKENS + ["unseen", "Q"]), min_size=2, max_size=4,
                    unique=True))
    def test_same_token_after_different_tokens(self, seen, token, previous):
        """A token's bigram ids depend on the token before it, or the sentence start."""
        queries = [[token], [token, token]]
        queries += [[before, token] for before in previous]  # after each, at position 1
        queries.append([token] + [t for before in previous for t in (before, token)])
        queries.append([t for before in reversed(previous) for t in (before, token)])
        built = CrfModel.build(["A", "B"], seen)
        index = built.feature_index
        fresh = CrfModel(labels=built.labels, feature_index=index, weights=built.weights)
        for model in (fresh, built):  # an empty memo, and one that `build` filled
            for memo in ("cold", "warm"):
                for texts in queries:
                    expected = [[index.get(f, -1) for f in feats]
                                for feats in extract_features(texts)]
                    ids = _feature_ids(model, texts)
                    assert ids.dtype == np.int32 and ids.shape == (len(texts), 14)
                    assert not ids.flags.writeable
                    assert ids.tolist() == expected

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=6), min_size=1,
                    max_size=5))
    def test_build_ids_follow_first_appearance(self, seqs):
        model = CrfModel.build(["A", "B"], seqs)
        listed = [f for texts in seqs for feats in extract_features(texts) for f in feats]
        first_seen = list(dict.fromkeys(listed))
        assert list(model.feature_index.items()) == [(f, i) for i, f in enumerate(first_seen)]

    def test_memo_is_not_serialized(self, tmp_path):
        model = CrfModel.build(["A", "B"], [["Gut", "feels", "80", "%"]])
        before = json.dumps(model.to_dict())
        viterbi(model, ["Gut", "feels", "fine"])
        assert set(model._token_memo) == {"Gut", "feels", "80", "%", "fine"}
        assert json.dumps(model.to_dict()) == before
        path = tmp_path / "model.json"
        model.save(str(path))
        assert path.read_text(encoding="utf-8") == before
        loaded = CrfModel.load(str(path))
        assert loaded._token_memo == {}
        assert "_token_memo" not in repr(loaded)

    def test_read_path_shares_equal_id_groups(self, tmp_path):
        """After a load, equal packed groups in the memos are one bytes object."""
        train_set, _ = synth.generate(sizes={"CLA": 4, "EXP": 6, "O": 20, "PER": 8, "QUE": 6},
                                      seed=3)
        unseen, _ = synth.generate(sizes={"CLA": 4, "EXP": 6, "O": 20, "PER": 8, "QUE": 6},
                                   seed=4)
        path = tmp_path / "model.json"
        CrfModel.build(train_set.schema.labels, [d.texts for d in train_set.documents]
                       ).save(str(path))
        model = CrfModel.load(str(path))
        index = model.feature_index
        for doc in unseen.documents + train_set.documents:
            expected = [[index.get(f, -1) for f in feats]
                        for feats in extract_features(doc.texts)]
            assert _feature_ids(model, doc.texts).tolist() == expected
        groups = list(model._start_pairs.values())
        for _, unigram_ids, _, pairs in model._token_memo.values():
            groups += [unigram_ids, *pairs.values()]
        assert len(set(groups)) < len(groups)  # some groups repeat
        assert len({id(group) for group in groups}) == len(set(groups))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=6), min_size=1,
                    max_size=5))
    def test_build_leaves_every_training_sequence_in_the_memos(self, seqs):
        """After `build`, a training sequence's ids are all memo hits: nothing grows."""
        model = CrfModel.build(["A", "B"], seqs)

        def sizes():
            return (len(model.feature_index), len(model._token_memo), len(model._start_pairs),
                    [len(entry[3]) for entry in model._token_memo.values()])

        assert set(model._token_memo) == {token for texts in seqs for token in texts}
        assert set(model._start_pairs) == {texts[0] for texts in seqs}
        before = sizes()
        for texts in seqs:
            expected = [[model.feature_index[f] for f in feats]
                        for feats in extract_features(texts)]
            assert _feature_ids(model, texts).tolist() == expected
        assert sizes() == before


class TestViterbi:
    @settings(max_examples=200, deadline=None)
    @given(tied_models())
    def test_matches_numpy_reference_with_ties(self, instance):
        model, texts = instance
        assert viterbi(model, texts) == reference_viterbi(model, texts)

    @settings(max_examples=200, deadline=None)
    @given(tiny_models())
    def test_matches_enumeration(self, instance):
        model, texts = instance
        assert viterbi(model, texts) == brute_viterbi(model, texts)

    def test_empty_sequence(self):
        model = CrfModel.build(["A", "B"], [["x"]])
        assert viterbi(model, []) == []

    def test_single_label_constant(self):
        model = CrfModel.build(["A"], [["x", "y"]])
        assert viterbi(model, ["x", "y"]) == ["A", "A"]

    def test_zero_weights_first_label(self):
        model = CrfModel.build(["A", "B", "C"], [["x", "y"]])
        assert viterbi(model, ["x", "y"]) == ["A", "A"]

    def test_decoded_score_is_maximal(self):
        rng = random.Random(6)
        for _ in range(20):
            model, texts, _ = random_instance(rng)
            decoded = viterbi(model, texts)
            _, scores = all_sequence_scores(model, texts)
            # A labelling's score is log Z minus its NLL.
            score = brute_log_partition(model, texts) - nll_and_gradient(model, texts, decoded)[0]
            assert score == pytest.approx(float(scores.max()))


def separable_data():
    # "aa"-words take label A, "bb"-words take label B.
    rng = random.Random(0)
    data = []
    for _ in range(12):
        n = rng.randint(1, 4)
        texts, labels = [], []
        for _ in range(n):
            if rng.random() < 0.5:
                texts.append(rng.choice(["aapple", "aanchor", "aamber"]))
                labels.append("A")
            else:
                texts.append(rng.choice(["bbanana", "bbeacon", "bbarrel"]))
                labels.append("B")
        data.append((texts, labels))
    return data


class TestTrain:
    def test_separable_toy_reaches_full_accuracy(self):
        data = separable_data()
        model = CrfModel.build(["A", "B"], [t for t, _ in data])
        train(model, data, TrainConfig(epochs=20, learning_rate=0.5, seed=0))
        for texts, labels in data:
            assert viterbi(model, texts) == labels

    def test_single_sequence_nll_to_zero(self):
        data = [(["aapple", "bbanana"], ["A", "B"])]
        model = CrfModel.build(["A", "B"], [data[0][0]])
        history = train(model, data, TrainConfig(epochs=200, learning_rate=1.0, seed=0))
        assert history[-1] < 1e-3

    def test_same_seed_same_weights(self):
        data = separable_data()
        weights = []
        for _ in range(2):
            model = CrfModel.build(["A", "B"], [t for t, _ in data])
            train(model, data, TrainConfig(epochs=3, learning_rate=0.2, seed=42))
            weights.append(model.weights.copy())
        assert np.array_equal(weights[0], weights[1])

    def test_nll_non_increasing_on_smoke_fixture(self):
        data = separable_data()
        model = CrfModel.build(["A", "B"], [t for t, _ in data])
        history = train(model, data,
                        TrainConfig(epochs=8, learning_rate=0.05, decay=0.01, seed=1))
        for before, after in zip(history, history[1:]):
            assert after <= before + 1e-9

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts(self):
        # A step this large overflows the emission scores to inf, making the
        # NLL non-finite.
        data = [(["aapple"], ["A"])]
        model = CrfModel.build(["A", "B"], [data[0][0]])
        with pytest.raises(TrainingDiverged):
            train(model, data, TrainConfig(epochs=5, learning_rate=1e308, seed=0))

    def test_reported_history_matches_dataset_nll(self):
        data = separable_data()
        model = CrfModel.build(["A", "B"], [t for t, _ in data])
        history = train(model, data, TrainConfig(epochs=2, learning_rate=0.1, seed=0))
        assert history[-1] == dataset_nll(model, data)

    @pytest.mark.parametrize("data", [[(["aapple"], ["A", "B"])],
                                      [(["aapple"], ["A"]), ([], [])]],
                             ids=["length-mismatch", "empty-sequence"])
    def test_malformed_sequence_rejected(self, data):
        model = CrfModel.build(["A", "B"], [["aapple"]])
        with pytest.raises(ValidationError):
            train(model, data, TrainConfig(epochs=1, seed=0))

    @pytest.mark.parametrize("l2", [-0.001, math.nan, math.inf])
    def test_config_rejects_bad_l2(self, l2):
        with pytest.raises(ValidationError, match=re.escape(f"l2 must be finite and >= 0, "
                                                            f"got {l2!r}")):
            TrainConfig(l2=l2)

    @pytest.mark.parametrize("name", ["learning_rate", "decay"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_config_rejects_non_finite_setting(self, name, value):
        with pytest.raises(ValidationError, match=f"^{name} must be finite, got {value!r}$"):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("l2", [0.0, 0.1])
    def test_l2_is_read_from_the_config(self, l2):
        data = separable_data()
        model = CrfModel.build(["A", "B"], [t for t, _ in data])
        config = TrainConfig(epochs=1, learning_rate=0.5, seed=0, l2=l2)
        history = train(model, data, config)
        penalty = 0.5 * l2 * float(np.dot(model.weights, model.weights))
        assert history[-1] == dataset_nll(model, data, l2)
        assert history[-1] == pytest.approx(dataset_nll(model, data) + penalty, rel=1e-12)


def _reference_logsumexp(a, axis=None):
    m = np.max(a, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis) if axis is not None else out.reshape(())


def reference_nll_and_gradient(model, texts, gold_labels, l2):
    """Dense per-sentence gradient: one F*L vector, filled position by position."""
    fids = present_feature_ids(model, texts)
    emissions = reference_emissions(model, fids)
    transitions = model.transitions
    y = [model.labels.index(label) for label in gold_labels]
    n, L = emissions.shape
    F = len(model.feature_index)
    alpha = np.empty_like(emissions)
    alpha[0] = emissions[0]
    for i in range(1, n):
        alpha[i] = _reference_logsumexp(alpha[i - 1][:, None] + transitions, axis=0) + emissions[i]
    beta = np.zeros_like(emissions)
    for i in range(n - 2, -1, -1):
        beta[i] = _reference_logsumexp(transitions + (emissions[i + 1] + beta[i + 1])[None, :],
                                       axis=1)
    log_z = float(_reference_logsumexp(alpha[-1]))
    unary = np.exp(alpha + beta - log_z)
    gold = float(sum(emissions[i, yi] for i, yi in enumerate(y)))
    gold += float(sum(transitions[a, b] for a, b in zip(y, y[1:])))
    nll = log_z - gold + 0.5 * l2 * float(np.dot(model.weights, model.weights))
    grad = l2 * model.weights
    emission_grad = grad[:F * L].reshape(F, L)
    for i, fid_list in enumerate(fids):
        if fid_list:
            row = unary[i].copy()
            row[y[i]] -= 1.0
            emission_grad[fid_list] += row
    transition_grad = grad[F * L:].reshape(L, L)
    for i in range(1, n):
        transition_grad += np.exp(alpha[i - 1][:, None] + transitions
                                  + (emissions[i] + beta[i])[None, :] - log_z)
        transition_grad[y[i - 1], y[i]] -= 1.0
    return nll, grad


def reference_train(model, data, config):
    """Per-sentence SGD on a dense F*L + L*L gradient, in `train`'s shuffled order.

    Each step's gradient comes from `_sentence_gradient`, so comparing with
    `train` checks only the sparse update bookkeeping, and that exactly.
    """
    compiled = _compile(model, data)
    rng = random.Random(config.seed)
    order = list(range(len(data)))
    F, L = len(model.feature_index), model.n_labels
    step = 0
    for _ in range(config.epochs):
        rng.shuffle(order)
        for idx in order:
            _, rows, emission_grad, transition_grad = _sentence_gradient(
                model.emission_weights, model.transitions, config.l2, compiled[idx])
            grad = config.l2 * model.weights
            grad[:F * L].reshape(F, L)[rows] = emission_grad
            grad[F * L:] = transition_grad.ravel()
            lr = config.learning_rate / (1.0 + config.decay * step)
            model.weights -= lr * grad
            step += 1


def fixture_data():
    dataset, _ = synth.generate(sizes={"CLA": 3, "EXP": 3, "O": 6, "PER": 4, "QUE": 3}, seed=11)
    sentences = [s for doc in dataset.documents
                 for s in split_sentences(doc, dataset.schema)]
    return dataset.schema.labels, [(list(s.texts), list(s.token_labels)) for s in sentences]


# The recursion against the log-space oracles: float agreement, not bits.
RTOL, ATOL = 1e-9, 1e-12


class TestMatchesDenseReference:
    """Sparse training steps give bit-identical weights to the dense loop."""

    def _assert_same_weights(self, labels, data, config):
        models = [CrfModel.build(labels, [t for t, _ in data]) for _ in range(2)]
        train(models[0], data, config)
        reference_train(models[1], data, config)
        assert np.array_equal(models[0].weights, models[1].weights)

    def test_separable_data(self):
        self._assert_same_weights(["A", "B"], separable_data(),
                                  TrainConfig(epochs=3, learning_rate=0.5, decay=0.01, seed=0))

    def test_fixture_with_repeated_tokens(self):
        labels, data = fixture_data()
        tokens = [token for texts, _ in data for token in texts]
        assert len(set(tokens)) < len(tokens)
        self._assert_same_weights(labels, data,
                                  TrainConfig(epochs=2, learning_rate=0.5, decay=0.01, seed=7))

    def test_with_l2(self):
        labels, data = fixture_data()
        self._assert_same_weights(labels, data[:20],
                                  TrainConfig(epochs=1, learning_rate=0.5, seed=3, l2=0.1))

    def test_gradient_with_l2_and_unseen_features(self):
        rng = random.Random(8)
        for _ in range(20):
            model, texts, labels = random_instance(rng, scale=0.5)
            texts = texts + ["unseen"]
            gold = [labels[rng.randrange(len(labels))] for _ in texts]
            nll, grad = nll_and_gradient(model, texts, gold, l2=0.1)
            expected_nll, expected_grad = reference_nll_and_gradient(model, texts, gold, 0.1)
            np.testing.assert_allclose(grad, expected_grad, rtol=RTOL, atol=ATOL)
            assert nll == pytest.approx(expected_nll, rel=RTOL, abs=ATOL)


class TestScaledRecursion:
    """Edge cases of the scaled forward-backward recursion."""

    def test_one_label(self):
        # One label path: log Z is its score, every marginal is 1 and the gradient is 0.
        texts = ["gut", "felt", "fine", "unseen"]
        model = CrfModel.build(["A"], [texts[:3]])
        model.weights = np.random.default_rng(0).normal(0.0, 2.0, size=model.weights.shape)
        gold = ["A"] * len(texts)
        nll, grad = nll_and_gradient(model, texts, gold)
        assert nll == pytest.approx(0.0, abs=ATOL)
        np.testing.assert_allclose(grad, 0.0, atol=ATOL)

    def test_one_token(self):
        model = CrfModel.build(["A", "B", "C"], [["gut"]])
        model.weights = np.random.default_rng(1).normal(0.0, 2.0, size=model.weights.shape)
        emissions = oracle_emissions(model, oracle_feature_ids(model, ["gut"]))
        log_z, unary, moves = _forward_backward(emissions, model.transitions)
        assert log_z == pytest.approx(_oracle_logsumexp(emissions[0]), rel=RTOL)
        np.testing.assert_allclose(unary, np.exp(emissions - log_z), rtol=RTOL)
        assert np.array_equal(moves, np.zeros((3, 3)))

    @pytest.mark.parametrize("level", [700.0, -700.0])
    def test_transitions_near_700(self, level):
        # exp(+-700) is near the ends of float64; the shifts keep the recursion in range.
        rng = np.random.default_rng(2)
        for _ in range(10):
            model, texts, _ = random_instance(random.Random(int(rng.integers(1000))))
            model.transitions[:] = level + rng.normal(0.0, 2.0, size=model.transitions.shape)
            _, scores = all_sequence_scores(model, texts)
            gold = [model.labels[0]] * len(texts)
            nll, grad = nll_and_gradient(model, texts, gold)
            assert nll == pytest.approx(brute_log_partition(model, texts) - scores[0],
                                        rel=RTOL, abs=ATOL)
            np.testing.assert_allclose(grad, brute_gradient(model, texts, gold),
                                       rtol=RTOL, atol=ATOL)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("emissions", [
        [[0.0, -1000.0], [-1000.0, 0.0]],
        [[[0.0, 0.0], [0.0, 0.0]], [[0.0, -1000.0], [-1000.0, 0.0]]],
        [[0.0, 0.0], [math.nan, 0.0]],
    ], ids=["underflow", "underflow-in-batch", "nan"])
    def test_zero_or_non_finite_scale_raises(self, emissions):
        # In the underflow cases only label 0 and then label 1 has a probability
        # above 0, and that move weighs exp(-1000) == 0; NaN fails the scale test.
        transitions = np.array([[0.0, -1000.0], [-1000.0, 0.0]])
        with pytest.raises(TrainingDiverged, match="forward scale at position 1 is zero "
                                                   "or not finite"):
            _forward_backward(np.array(emissions), transitions)

    @pytest.mark.filterwarnings("error")
    def test_underflow_in_training_names_epoch_and_step(self):
        # With lr = 1000 the second epoch's step on the two-token sentence
        # meets a model under which all its label paths underflow.
        data = [(["Aa"], ["A"]), (["Aa", "bb"], ["B", "B"])]
        model = CrfModel.build(["A", "B"], [texts for texts, _ in data])
        with pytest.raises(TrainingDiverged, match=r"^forward scale at position 1 is zero or "
                                                   r"not finite at epoch 1, step 3 \(lr=1000"):
            train(model, data, TrainConfig(epochs=2, learning_rate=1000.0, decay=0.0, seed=0))


# Oracles: the build pass as it ran before `build` filled the id memos, which
# the current code must match bit for bit, and the log-space forward-backward
# recursion and SGD step that the scaled recursion replaced, which it must
# match to RTOL and ATOL.

def oracle_build(labels, token_seqs):
    """`CrfModel.build` that lists every feature string of every position."""
    index = {}
    for texts in token_seqs:
        for feats in extract_features(texts):
            for feat in feats:
                if feat not in index:
                    index[feat] = len(index)
    n = len(index) * len(labels) + len(labels) ** 2
    return CrfModel(labels=tuple(labels), feature_index=index,
                    weights=np.zeros(n, dtype=np.float64))


def _oracle_logsumexp(a):
    m = a.max(axis=-1)
    return m + np.log(np.exp(a - m[..., None]).sum(axis=-1))


def oracle_forward(emissions, transitions):
    alpha = np.empty_like(emissions)
    alpha[..., 0, :] = emissions[..., 0, :]
    for i in range(1, emissions.shape[-2]):
        a = alpha[..., i - 1, :, None] + transitions
        m = a.max(axis=-2)
        alpha[..., i, :] = (m + np.log(np.exp(a - m[..., None, :]).sum(axis=-2))
                            + emissions[..., i, :])
    return alpha


def oracle_backward(emissions, transitions):
    beta = np.zeros_like(emissions)
    for i in range(len(emissions) - 2, -1, -1):
        a = transitions + (emissions[i + 1] + beta[i + 1])
        m = a.max(axis=1)
        beta[i] = m + np.log(np.exp(a - m[:, None]).sum(axis=1))
    return beta


def oracle_sentence_gradient(model, ids, y, l2):
    """`(nll, rows, emission_grad, transition_grad)` of one compiled sentence."""
    weights = model.emission_weights
    transitions = model.transitions
    emissions = oracle_emissions(model, ids)
    alpha = oracle_forward(emissions, transitions)
    beta = oracle_backward(emissions, transitions)
    log_z = _oracle_logsumexp(alpha[-1])
    gold = np.take_along_axis(emissions, y[..., None], axis=-1)[..., 0].sum(axis=-1)
    gold = gold + transitions[y[..., :-1], y[..., 1:]].sum(axis=-1)
    nll = float(log_z - gold)

    unary = np.exp(alpha + beta - log_z)
    unary[np.arange(len(y)), y] -= 1.0
    rows, local = np.unique(ids, return_inverse=True)
    emission_grad = l2 * weights[rows]
    np.add.at(emission_grad, local.reshape(ids.shape), unary[:, None, :])
    first = 1 if rows[0] < 0 else 0

    pairwise = np.exp(alpha[:-1, :, None] + transitions
                      + (emissions[1:] + beta[1:])[:, None, :] - log_z)
    transition_grad = l2 * transitions
    for i in range(1, len(y)):
        transition_grad += pairwise[i - 1]
        transition_grad[y[i - 1], y[i]] -= 1.0
    return nll, rows[first:], emission_grad[first:], transition_grad


def assert_same_bits(got, expected):
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(expected).tobytes()


# Tokens whose suffixes and shape flags collide, so features repeat across tokens.
BUILD_TOKENS = TOKENS + ["Gut", "guts", "ut", "t", "IBSs", "1980"]


@st.composite
def step_instances(draw):
    """A model with 1-9 labels and random weights, a 1-12 token sentence to score, and an l2.

    The query draws from tokens the model never saw, so some ids are -1.
    """
    labels = [f"L{i}" for i in range(draw(st.integers(1, 9)))]
    seen = draw(st.lists(st.lists(st.sampled_from(BUILD_TOKENS), min_size=1, max_size=6),
                         min_size=1, max_size=3))
    model = CrfModel.build(labels, seen)
    l2 = draw(st.sampled_from([0.0, 0.1]))
    weights_rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    model.weights = weights_rng.normal(0.0, draw(st.sampled_from([0.5, 3.0])),
                                       size=model.weights.shape)
    texts = draw(st.lists(st.sampled_from(BUILD_TOKENS + ["unseen", "ZZ"]),
                          min_size=1, max_size=12))
    y = draw(st.lists(st.integers(0, len(labels) - 1), min_size=len(texts),
                      max_size=len(texts)))
    return model, texts, np.array(y, dtype=np.intp), l2


class TestMatchesOracles:
    @settings(max_examples=300, deadline=None)
    @given(step_instances())
    def test_sentence_gradient(self, instance):
        model, texts, y, l2 = instance
        ids = _feature_ids(model, texts)
        sentence = _compile(model, [(texts, [model.labels[i] for i in y])])[0]
        rows, local, _, _ = sentence
        assert local.dtype == np.int32
        assert np.array_equal(rows[local].T, ids)
        got = _sentence_gradient(model.emission_weights, model.transitions, l2, sentence)
        expected = oracle_sentence_gradient(model, ids, y, l2)
        assert got[0] == pytest.approx(expected[0], rel=RTOL, abs=ATOL)
        assert np.array_equal(got[1], expected[1])
        for array, oracle in zip(got[2:], expected[2:]):
            assert array.shape == oracle.shape
            np.testing.assert_allclose(array, oracle, rtol=RTOL, atol=ATOL)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 9), st.integers(1, 12), st.integers(1, 4),
           st.integers(0, 2 ** 32 - 1))
    def test_forward_and_backward(self, n_labels, n, batch, seed):
        rng = np.random.default_rng(seed)
        emissions = rng.normal(0.0, 3.0, size=(batch, n, n_labels))
        transitions = rng.normal(0.0, 3.0, size=(n_labels, n_labels))
        log_z = _oracle_logsumexp(oracle_forward(emissions, transitions)[:, -1])
        np.testing.assert_allclose(_forward_backward(emissions, transitions), log_z,
                                   rtol=RTOL, atol=ATOL)
        one = emissions[0]
        alpha, beta = oracle_forward(one, transitions), oracle_backward(one, transitions)
        pairwise = np.exp(alpha[:-1, :, None] + transitions
                          + (one[1:] + beta[1:])[:, None, :] - log_z[0])
        got_z, unary, moves = _forward_backward(one, transitions)
        assert got_z == pytest.approx(log_z[0], rel=RTOL, abs=ATOL)
        np.testing.assert_allclose(unary, np.exp(alpha + beta - log_z[0]), rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(moves, pairwise.sum(axis=0), rtol=RTOL, atol=ATOL)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(BUILD_TOKENS), max_size=8), max_size=6),
           st.integers(1, 5))
    def test_build(self, seqs, n_labels):
        labels = [f"L{i}" for i in range(n_labels)]
        model = CrfModel.build(labels, seqs)
        expected = oracle_build(labels, seqs)
        assert list(model.feature_index.items()) == list(expected.feature_index.items())
        assert_same_bits(model.weights, expected.weights)
        assert model.labels == expected.labels
        for texts in seqs:
            ids = [[expected.feature_index[f] for f in feats] for feats in extract_features(texts)]
            assert _feature_ids(model, texts).tolist() == ids

    def test_build_on_fixture(self):
        labels, data = fixture_data()
        seqs = [texts for texts, _ in data]
        model = CrfModel.build(labels, seqs)
        expected = oracle_build(labels, seqs)
        assert list(model.feature_index.items()) == list(expected.feature_index.items())


# Tokens that hold the separators of the feature strings, so a bigram key
# joined at the wrong place would name another feature.
SEPARATOR_TOKENS = ["a|b", "|", "=", "w=a", "b|", "=|=", "|a"]


@st.composite
def emission_instances(draw):
    """A model with 1-9 labels and a batch of 1-4 equal-length sentences.

    The sentences draw from tokens the model never saw, so some ids are -1.
    Integer weights times a random sign put -0.0 among the weights.
    """
    labels = [f"L{i}" for i in range(draw(st.integers(1, 9)))]
    vocabulary = BUILD_TOKENS + SEPARATOR_TOKENS
    seen = draw(st.lists(st.lists(st.sampled_from(vocabulary), min_size=1, max_size=6),
                         min_size=1, max_size=3))
    model = CrfModel.build(labels, seen)
    weights_rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        model.weights = weights_rng.normal(0.0, 2.0, size=model.weights.shape)
    else:
        model.weights = (weights_rng.integers(-1, 2, size=model.weights.shape)
                         * weights_rng.choice([-1.0, 1.0], size=model.weights.shape))
    n = draw(st.integers(1, 8))
    queries = vocabulary + ["unseen", "ZZ", "x|y", "=7"]
    batch = draw(st.lists(st.lists(st.sampled_from(queries), min_size=n, max_size=n),
                          min_size=1, max_size=4))
    return model, batch


@settings(max_examples=300, deadline=None)
@given(emission_instances())
def test_emissions_match_oracle(instance):
    model, batch = instance
    weights = model.emission_weights
    expected_ids = np.array([oracle_feature_ids(model, texts) for texts in batch])
    ids = np.array([_feature_ids(model, texts) for texts in batch])
    assert ids.dtype == np.int32 and ids.tolist() == expected_ids.tolist()
    for one, expected in zip(ids, expected_ids):
        assert_same_bits(_emissions(weights, one), oracle_emissions(model, expected))
    assert_same_bits(_emissions(weights, ids), oracle_emissions(model, expected_ids))


@st.composite
def mixed_length_datasets(draw):
    vocabulary = ["80", "%", "IBS", "gut", "the", "Helped", "slept", "a", "B12"]
    labels = [f"L{i}" for i in range(draw(st.integers(2, 4)))]
    sequences = draw(st.lists(st.integers(1, 6), min_size=1, max_size=10))
    data = [([draw(st.sampled_from(vocabulary)) for _ in range(n)],
             [draw(st.sampled_from(labels)) for _ in range(n)]) for n in sequences]
    # Building on a prefix leaves later sequences with features the model lacks.
    seen = draw(st.integers(1, len(data)))
    model = CrfModel.build(labels, [texts for texts, _ in data[:seen]])
    l2 = draw(st.sampled_from([0.0, 0.1]))
    weights_rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
    model.weights = weights_rng.normal(0.0, 1.0, size=model.weights.shape)
    return model, data, l2


@settings(max_examples=60, deadline=None)
@given(mixed_length_datasets())
def test_batched_dataset_nll_matches_per_sequence_sum(instance):
    model, data, l2 = instance
    expected = sum(nll_and_gradient(model, texts, labels)[0] for texts, labels in data)
    expected += 0.5 * l2 * float(np.dot(model.weights, model.weights))
    assert dataset_nll(model, data, l2) == pytest.approx(expected, rel=1e-12, abs=0)


# More sentences of one length than one `_length_chunks` chunk holds.
CROWD = 65


@st.composite
def decode_batches(draw):
    """A `tiny_models` model and sentences of mixed lengths, some tokens unseen.

    A crowd of 65-70 sentences of one length fills one 64-sentence chunk
    and leaves the rest, with any other sentences of that length, to a
    second. A one-token sentence is always among them.
    """
    model, texts = draw(tiny_models())
    tokens = st.sampled_from(TOKENS + ["unseen", "ZZ"])
    crowd_length = draw(st.integers(1, 5))
    seqs = [texts, [draw(tokens)]]
    seqs += draw(st.lists(st.lists(tokens, min_size=1, max_size=5), max_size=10))
    seqs += draw(st.lists(st.lists(tokens, min_size=crowd_length, max_size=crowd_length),
                          min_size=CROWD, max_size=CROWD + 5))
    return model, draw(st.permutations(seqs))


@st.composite
def compile_batches(draw):
    """A model over some sentences, and labelled sentences to compile against it."""
    model, seqs = draw(decode_batches())
    labels = [[model.labels[draw(st.integers(0, model.n_labels - 1))] for _ in texts]
              for texts in seqs]
    return model, list(zip(seqs, labels))


def reference_compiled(model, texts, labels):
    """One sentence's `(rows, local, gold, pairs)` by `np.unique`, as `_compile` once made them."""
    ids = oracle_feature_ids(model, texts).astype(np.int32)
    rows, local = np.unique(ids.T, return_inverse=True)
    y = np.array([model.labels.index(label) for label in labels], dtype=np.int32)
    n_labels = model.n_labels
    return (rows, local.reshape(ids.T.shape).astype(np.int32),
            np.arange(len(y), dtype=np.int32) * n_labels + y, y[:-1] * n_labels + y[1:])


class TestLengthChunks:
    @settings(max_examples=60, deadline=None)
    @given(decode_batches())
    def test_decode_matches_viterbi(self, instance):
        model, seqs = instance
        assert decode(model, seqs) == [viterbi(model, texts) for texts in seqs]

    def test_decode_empty_input(self):
        model = CrfModel.build(["A", "B"], [["x"]])
        assert decode(model, []) == []
        assert decode(model, [["x"], []]) == [viterbi(model, ["x"]), []]

    @settings(max_examples=60, deadline=None)
    @given(compile_batches())
    def test_compile_matches_per_sentence_unique(self, instance):
        model, data = instance
        compiled = _compile(model, data)
        expected = [reference_compiled(model, texts, labels) for texts, labels in data]
        for k, sentence in enumerate(expected):
            for got, want in zip(compiled[k], sentence):
                assert_same_bits(got, want)
        chunks = list(_length_chunks([len(texts) for texts, _ in data]))
        assert len(chunks) == len(compiled.chunks)
        for (n, members), (ids, gold, pairs) in zip(chunks, compiled.chunks):
            assert len(members) <= 64 and all(len(data[k][0]) == n for k in members)
            assert_same_bits(ids, np.array([oracle_feature_ids(model, data[k][0])
                                            for k in members], dtype=np.int32))
            offsets = np.arange(len(members))[:, None] * n * model.n_labels
            assert gold.tolist() == (np.array([expected[k][2] for k in members])
                                     + offsets).tolist()
            assert_same_bits(pairs, np.array([expected[k][3] for k in members],
                                             dtype=np.int32).reshape(len(members), n - 1))

    def test_chunks_keep_first_appearance_order(self):
        lengths = [3, 1, 3] + [2] * 130 + [1]
        chunks = list(_length_chunks(lengths))
        assert [(n, len(members)) for n, members in chunks] == [(3, 2), (1, 2), (2, 64),
                                                                (2, 64), (2, 2)]
        assert sorted(k for _, members in chunks for k in members) == list(range(len(lengths)))
        assert all(members == sorted(members) for _, members in chunks)

    @pytest.mark.parametrize("data, message", [
        ([(["a"], ["A"]), (["a"], ["Z"]), ([], [])], "label 'Z' not in model label set"),
        ([(["a"], ["A"]), ([], []), (["a"], ["Z"])], "sequence 1 is empty"),
        ([(["a", ""], ["A", "A"]), (["a"], ["A", "B"])], "empty token"),
        ([(["a"], ["A", "B"]), (["a", ""], ["A", "A"])], "sequence 0: 1 tokens vs 2 labels"),
    ], ids=["label-before-empty", "empty-before-label", "token-before-mismatch",
            "mismatch-before-token"])
    def test_first_bad_sequence_raises(self, data, message):
        model = CrfModel.build(["A", "B"], [["a"]])
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            _compile(model, data)


class TestSerialization:
    def test_round_trip_preserves_predictions(self, tmp_path):
        rng = random.Random(7)
        model, texts, _ = random_instance(rng)
        path = str(tmp_path / "model.json")
        model.save(path)
        loaded = CrfModel.load(path)
        assert loaded.labels == model.labels
        assert np.array_equal(loaded.weights, model.weights)
        assert viterbi(loaded, texts) == viterbi(model, texts)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weights_rejected(self, tmp_path, bad):
        model = CrfModel.build(["A", "B"], [["x"]])
        model.weights[3] = bad
        path = str(tmp_path / "model.json")
        model.save(path)
        with pytest.raises(ValidationError, match="finite"):
            CrfModel.load(path)

    def test_unknown_version_rejected(self):
        with pytest.raises(ValidationError):
            CrfModel.from_dict({"format_version": 99})

    @pytest.mark.parametrize("data", [[], "model", None])
    def test_non_object_rejected(self, data):
        with pytest.raises(ValidationError, match="unsupported model format"):
            CrfModel.from_dict(data)

    @pytest.mark.parametrize("ids", [[0, 5], [1, 1]], ids=["out-of-range", "duplicate"])
    def test_feature_ids_must_be_dense(self, ids):
        model = CrfModel.build(["A", "B"], [["x"]])
        data = model.to_dict()
        names = list(data["feature_index"])[:2]
        data["feature_index"] = dict(zip(names, ids))
        data["weights"] = [0.0] * (2 * 2 + 2 * 2)
        with pytest.raises(ValidationError):
            CrfModel.from_dict(data)

    @pytest.mark.parametrize("field, value", [
        ("labels", []), ("labels", ["A", "A"]), ("labels", ["A", 1]), ("labels", "AB"),
        ("feature_index", [["w=x", 0]]), ("weights", "many"), ("weights", [[0.0], [0.0, 1.0]]),
    ], ids=["no-labels", "duplicate-labels", "non-string-label", "labels-not-a-list",
            "index-not-an-object", "weights-not-numbers", "ragged-weights"])
    def test_malformed_field_rejected(self, field, value):
        data = CrfModel.build(["A", "B"], [["x"]]).to_dict()
        data[field] = value
        with pytest.raises(ValidationError):
            CrfModel.from_dict(data)

    @pytest.mark.parametrize("weights, message", [
        (lambda n: ["0"] * n, "model weights must hold only numbers, found str"),
        (lambda n: [True] * n, "model weights must hold only numbers, found bool"),
        (lambda n: [True] + [0.5] * (n - 1), "model weights must hold only numbers, found bool"),
        (lambda n: [0.5] * (n - 1) + [None], "model weights must hold only numbers, "
                                             "found NoneType"),
        (lambda n: [[0.0] * n], "model weights must be a 1-d list of numbers, "
                                "got lists nested 2 or more deep"),
        (lambda n: [0.0] * (n - 1) + [[0.0]], "model weights must be a 1-d list of numbers, "
                                              "got lists nested 2 or more deep"),
        (lambda n: {"0": 0.0}, "model weights must be a 1-d list of numbers, got a dict"),
        (lambda n: [10 ** 400] * n, "model weights holds a number too large for a float"),
    ], ids=["strings", "booleans", "boolean-among-floats", "null-among-floats", "nested",
            "one-nested-entry", "object", "huge-integer"])
    def test_weights_must_be_json_numbers(self, weights, message):
        data = CrfModel.build(["A", "B"], [["x", "y"]]).to_dict()
        data["weights"] = weights(len(data["weights"]))
        with pytest.raises(ValidationError, match=re.escape(message)):
            CrfModel.from_dict(data)

    def test_integer_weights_load(self):
        data = CrfModel.build(["A", "B"], [["x", "y"]]).to_dict()
        data["weights"] = [1] * len(data["weights"])
        model = CrfModel.from_dict(data)
        assert model.weights.dtype == np.float64 and (model.weights == 1.0).all()

    @pytest.mark.parametrize("field", ["labels", "feature_index", "weights"])
    def test_missing_field_rejected(self, field):
        data = CrfModel.build(["A", "B"], [["x"]]).to_dict()
        del data[field]
        with pytest.raises(ValidationError, match=field):
            CrfModel.from_dict(data)

    def test_integer_l2_loads(self):
        # Files written before l2 left the model carry it; no decoder reads it.
        model = CrfModel.build(["A", "B"], [["x", "y"]])
        model.weights = np.arange(model.weights.size, dtype=np.float64)
        data = model.to_dict()
        assert "l2" not in data
        loaded = CrfModel.from_dict({**data, "l2": 1})
        assert loaded.to_dict() == data
        assert loaded.predict(["y", "x"]) == model.predict(["y", "x"])

    @pytest.mark.parametrize("l2", [-0.1, math.nan, math.inf, "0.1", True],
                             ids=["negative", "nan", "inf", "string", "bool"])
    def test_stale_l2_of_any_value_loads(self, l2):
        data = CrfModel.build(["A", "B"], [["x"]]).to_dict()
        assert CrfModel.from_dict({**data, "l2": l2}).to_dict() == data


class TestEmptyToken:
    def test_predict_rejects_an_empty_token(self):
        model = CrfModel.build(["A", "B"], [["x"]])
        with pytest.raises(ValidationError, match="empty token"):
            model.predict(["x", ""])

    def test_build_rejects_an_empty_token(self):
        with pytest.raises(ValidationError, match="empty token"):
            CrfModel.build(["A", "B"], [["x", ""]])

    @pytest.mark.parametrize("texts", [[""], ["x", ""], ["", "x"], ["x", "y", ""]])
    def test_rejected_with_a_warm_memo(self, texts):
        model = CrfModel.build(["A", "B"], [["x", "y"], ["y", "x"]])
        model.predict(["x", "y", "x", "z"])
        with pytest.raises(ValidationError, match="empty token"):
            model.predict(texts)
        assert "" not in model._token_memo and "" not in model._start_pairs
        assert all("" not in entry[3] for entry in model._token_memo.values())
