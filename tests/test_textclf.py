import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimaug.errors import ParseError, TrainingDiverged, ValidationError
from claimaug.textclf import (
    AdvConfig,
    ClfTrainConfig,
    EmbeddingTable,
    SoftmaxClassifier,
    embed_sentence,
    example_gradients,
    example_loss,
    fgsm_perturb,
    softmax,
    train_classifier,
)
from claimaug.util import derive_seed

# Marks a model key that `test_malformed_model_rejected` deletes.
MISSING = object()

@pytest.fixture
def table():
    return EmbeddingTable.random(["a", "b", "c"], dim=4, seed=3)


class TestEmbedding:
    def test_single_known_token_is_its_row(self, table):
        np.testing.assert_array_equal(embed_sentence(["a"], table),
                                      table.matrix[table.vocab["a"]])

    def test_two_tokens_midpoint(self, table):
        expected = (table.matrix[table.vocab["a"]] + table.matrix[table.vocab["b"]]) / 2
        np.testing.assert_allclose(embed_sentence(["a", "b"], table), expected)

    def test_all_oov_is_oov_row(self, table):
        np.testing.assert_array_equal(embed_sentence(["zzz", "yyy"], table), table.oov)

    def test_empty_sentence_zero_vector(self, table):
        np.testing.assert_array_equal(embed_sentence([], table), np.zeros(4))

    def test_text_format_round_trip(self):
        text = "cat 1.0 2.0\ndog 3.0 -1.5\n<OOV> 0.5 0.5\n"
        table = EmbeddingTable.from_text(text)
        np.testing.assert_array_equal(embed_sentence(["dog"], table), [3.0, -1.5])
        np.testing.assert_array_equal(table.oov, [0.5, 0.5])

    def test_text_format_dimension_mismatch(self):
        with pytest.raises(ParseError):
            EmbeddingTable.from_text("cat 1.0 2.0\ndog 3.0\n")

    def test_random_table_seeded(self):
        a = EmbeddingTable.random(["x", "y"], dim=8, seed=5)
        b = EmbeddingTable.random(["x", "y"], dim=8, seed=5)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from("abcde"), max_size=4, unique=True),
           st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=12),
           st.integers(1, 9), st.integers(0, 2 ** 31))
    def test_matches_mean_of_row_list(self, vocabulary, texts, dim, seed):
        # The oracle is the earlier implementation: a list of row views, then np.mean.
        table = EmbeddingTable.random(vocabulary, dim=dim, seed=seed)
        rows = [table.matrix[table.vocab[t]] if t in table.vocab else table.oov for t in texts]
        expected = np.mean(rows, axis=0)
        got = embed_sentence(texts, table)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


class TestFgsm:
    def test_epsilon_zero_identity(self):
        x = np.array([1.0, -2.0])
        np.testing.assert_array_equal(fgsm_perturb(x, np.array([3.0, -4.0]), 0.0), x)

    def test_all_positive_gradient_adds_epsilon(self):
        x = np.zeros(3)
        out = fgsm_perturb(x, np.array([0.5, 2.0, 1e-9]), 0.1)
        np.testing.assert_allclose(out, [0.1, 0.1, 0.1])

    def test_linf_magnitude_bounded_and_tight(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.normal(size=6)
            grad = rng.normal(size=6)
            out = fgsm_perturb(x, grad, 0.25)
            assert np.max(np.abs(out - x)) <= 0.25 + 1e-15
            if np.all(grad != 0):
                np.testing.assert_allclose(np.abs(out - x), 0.25)

    def test_zero_gradient_coordinate_unchanged(self):
        x = np.array([1.0, 2.0])
        out = fgsm_perturb(x, np.array([0.0, 1.0]), 0.5)
        assert out[0] == 1.0

    def test_loss_does_not_drop_at_perturbed_point(self):
        # Local-linearity check on a fixture with nonzero gradient.
        rng = np.random.default_rng(1)
        for _ in range(25):
            weights = rng.normal(size=(3, 5))
            bias = rng.normal(size=3)
            x = rng.normal(size=5)
            y = 1
            _, _, db = example_gradients(weights, bias, x, y)
            dx = weights.T @ db
            if np.all(dx == 0):
                continue
            x_adv = fgsm_perturb(x, dx, 1e-3)
            before = example_loss(weights, bias, x, y)
            after = example_loss(weights, bias, x_adv, y)
            assert after >= before - 1e-6

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValidationError):
            fgsm_perturb(np.zeros(2), np.ones(2), -0.1)


class TestSoftmax:
    def test_sums_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            p = softmax(rng.normal(scale=10, size=7))
            assert p.sum() == pytest.approx(1.0, abs=1e-9)

    def test_shift_invariant_predictions(self):
        logits = np.array([0.3, -1.2, 2.0])
        np.testing.assert_allclose(softmax(logits), softmax(logits + 123.4), atol=1e-12)


def toy_data(n=40, seed=0):
    rng = random.Random(seed)
    seqs, labels = [], []
    for _ in range(n):
        if rng.random() < 0.5:
            seqs.append([rng.choice(["alpha", "apex", "arc"]) for _ in range(rng.randint(2, 5))])
            labels.append("A")
        else:
            seqs.append([rng.choice(["beta", "bog", "bay"]) for _ in range(rng.randint(2, 5))])
            labels.append("B")
    return seqs, labels


class TestTraining:
    def test_separable_toy_full_accuracy(self):
        seqs, labels = toy_data()
        model = train_classifier(seqs, labels, ("A", "B"),
                                 ClfTrainConfig(epochs=20, learning_rate=0.5, dim=16, seed=0))
        assert all(model.predict(s) == l for s, l in zip(seqs, labels))

    def test_adv_weight_zero_bitwise_equals_clean(self):
        seqs, labels = toy_data()
        config = ClfTrainConfig(epochs=5, learning_rate=0.3, dim=8, seed=1)
        clean = train_classifier(seqs, labels, ("A", "B"), config)
        mixed = train_classifier(seqs, labels, ("A", "B"), config,
                                 adv=AdvConfig(epsilon=0.1, adv_weight=0.0))
        assert np.array_equal(clean.weights, mixed.weights)
        assert np.array_equal(clean.bias, mixed.bias)

    def test_epsilon_zero_bitwise_equals_clean(self):
        seqs, labels = toy_data()
        config = ClfTrainConfig(epochs=5, learning_rate=0.3, dim=8, seed=1)
        clean = train_classifier(seqs, labels, ("A", "B"), config)
        adv = train_classifier(seqs, labels, ("A", "B"), config,
                               adv=AdvConfig(epsilon=0.0, adv_weight=0.5))
        assert np.array_equal(clean.weights, adv.weights)

    def test_adversarial_training_changes_weights(self):
        seqs, labels = toy_data()
        config = ClfTrainConfig(epochs=5, learning_rate=0.3, dim=8, seed=1)
        clean = train_classifier(seqs, labels, ("A", "B"), config)
        adv = train_classifier(seqs, labels, ("A", "B"), config,
                               adv=AdvConfig(epsilon=0.5, adv_weight=0.5))
        assert not np.array_equal(clean.weights, adv.weights)

    def test_same_seed_identical_models(self):
        seqs, labels = toy_data()
        config = ClfTrainConfig(epochs=3, learning_rate=0.5, dim=8, seed=9)
        a = train_classifier(seqs, labels, ("A", "B"), config)
        b = train_classifier(seqs, labels, ("A", "B"), config)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.table.matrix, b.table.matrix)

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            train_classifier([["a"], ["b"]], ["A", "A"], ("A", "B"),
                             ClfTrainConfig(seed=0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts(self):
        # The weights overflow within the first epoch; the check after it names it.
        seqs, labels = toy_data()
        with pytest.raises(TrainingDiverged, match=r"^weights became non-finite in epoch 0$"):
            train_classifier(seqs, labels, ("A", "B"),
                             ClfTrainConfig(epochs=50, learning_rate=1e308, seed=0))


class TestGradients:
    def check_against_fd(self, adv):
        rng = np.random.default_rng(4)
        weights = rng.normal(size=(3, 6))
        bias = rng.normal(size=3)
        x = rng.normal(size=6)
        y = 2
        _, dW, db = example_gradients(weights, bias, x, y, adv)
        h = 1e-5
        flat_params = [("W", i, j) for i in range(3) for j in range(6)] \
            + [("b", i, None) for i in range(3)]
        coords = [flat_params[i]
                  for i in rng.choice(len(flat_params), 20, replace=False)]
        for kind, i, j in coords:
            target = weights if kind == "W" else bias
            index = (i, j) if kind == "W" else i
            target[index] += h
            up = example_loss(weights, bias, x, y, adv)
            target[index] -= 2 * h
            down = example_loss(weights, bias, x, y, adv)
            target[index] += h
            numeric = (up - down) / (2 * h)
            analytic = dW[i, j] if kind == "W" else db[i]
            denom = max(abs(numeric), abs(analytic), 1e-8)
            assert abs(analytic - numeric) / denom < 1e-4, (kind, i, j)

    def test_clean_gradient_matches_fd(self):
        self.check_against_fd(None)

    def test_adversarial_gradient_matches_fd(self):
        self.check_against_fd(AdvConfig(epsilon=0.05, adv_weight=0.4))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        seqs, labels = toy_data(n=10)
        model = train_classifier(seqs, labels, ("A", "B"),
                                 ClfTrainConfig(epochs=2, learning_rate=0.3, dim=4, seed=0))
        path = str(tmp_path / "clf.json")
        model.save(path)
        loaded = SoftmaxClassifier.load(path)
        for seq in seqs:
            np.testing.assert_allclose(loaded.predict_proba(seq), model.predict_proba(seq))

    def test_unknown_version_rejected(self):
        with pytest.raises(ValidationError):
            SoftmaxClassifier.from_dict({"format_version": 0})

    def test_empty_vocabulary_round_trip(self):
        model = train_classifier([[], []], ["A", "B"], ("A", "B"),
                                 ClfTrainConfig(epochs=1, dim=3, seed=0))
        loaded = SoftmaxClassifier.from_dict(model.to_dict())
        assert loaded.table.matrix.shape == (0, 3)
        np.testing.assert_array_equal(loaded.predict_proba([]), model.predict_proba([]))

    @pytest.mark.parametrize("key,value", [
        ("weights", [[0.1, 0.2, 0.0], [0.3, 0.4, 0.0]]),
        ("weights", [[0.1, 0.2]]),
        ("bias", [0.0]),
        ("vocab", {"a": 0, "b": 1, "c": 3}),
        ("vocab", {"a": 0, "b": 0, "c": 2}),
        ("vocab", {"a": 0, "b": 1, "c": "2"}),
        ("vocab", {"a": 0, "b": 1}),
        ("matrix", [[1.0, 0.0, 0.0]] * 3),
        ("oov", [0.0, 0.0, 0.0]),
        ("weights", [[float("nan"), 0.2], [0.3, 0.4]]),
        ("bias", [0.0, float("inf")]),
        ("matrix", [[1.0, 0.0], [0.0, float("nan")], [1.0, 1.0]]),
        ("oov", [float("-inf"), 0.0]),
        ("classes", ["A", "A"]),
        ("classes", ["A", 1]),
        ("oov", MISSING),
        (None, ["A", "B"]),
        ("weights", [[0.1], [0.2, 0.3]]),
        ("oov", "xy"),
        ("vocab", 5),
        ("vocab", [["a", 0], ["b", 1], ["c", 2]]),
    ])
    def test_malformed_model_rejected(self, key, value):
        """`value` replaces `key`; MISSING deletes it, and key None replaces the whole model."""
        valid = {"format_version": 1, "classes": ["A", "B"],
                 "weights": [[0.1, 0.2], [0.3, 0.4]], "bias": [0.0, 0.5],
                 "vocab": {"a": 0, "b": 1, "c": 2},
                 "matrix": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], "oov": [0.0, 0.0]}
        assert SoftmaxClassifier.from_dict(valid).predict(["a", "zzz"]) in ("A", "B")
        data = value if key is None else {**valid, key: value}
        if value is MISSING:
            del data[key]
        with pytest.raises(ValidationError):
            SoftmaxClassifier.from_dict(data)


def reference_loss_and_grads(weights, bias, x, y):
    """The original textclf step: loss plus gradients w.r.t. weights, bias and input."""
    p = softmax(weights @ x + bias)
    loss = -float(np.log(max(p[y], 1e-300)))
    dlogits = p.copy()
    dlogits[y] -= 1.0
    return loss, np.outer(dlogits, x), dlogits, weights.T @ dlogits


def reference_example_gradients(weights, bias, x, y, adv=None):
    """The original `example_gradients`, kept as the bit-identity oracle."""
    clean, dW, db, dx = reference_loss_and_grads(weights, bias, x, y)
    if adv is None or not adv.active:
        return clean, dW, db, dx
    x_adv = fgsm_perturb(x, dx, adv.epsilon)
    adv_loss, dW_a, db_a, dx_a = reference_loss_and_grads(weights, bias, x_adv, y)
    w = adv.adv_weight
    loss = (1.0 - w) * clean + w * adv_loss
    return (loss, (1.0 - w) * dW + w * dW_a, (1.0 - w) * db + w * db_a,
            (1.0 - w) * dx + w * dx_a)


def reference_train(seqs, labels, classes, config, adv):
    """`train_classifier` as a dense loop over the reference step."""
    table = EmbeddingTable.random([t for seq in seqs for t in seq], config.dim,
                                  seed=derive_seed(config.seed, "embeddings"))
    xs = [embed_sentence(seq, table) for seq in seqs]
    ys = [classes.index(l) for l in labels]
    weights = np.zeros((len(classes), config.dim))
    bias = np.zeros(len(classes))
    rng = random.Random(derive_seed(config.seed, "shuffle"))
    order = list(range(len(xs)))
    for _ in range(config.epochs):
        rng.shuffle(order)
        for idx in order:
            _, dW, db, _ = reference_example_gradients(weights, bias, xs[idx], ys[idx], adv)
            weights = weights - config.learning_rate * dW
            bias = bias - config.learning_rate * db
    return weights, bias


ADV_SETTINGS = st.one_of(
    st.none(),
    st.builds(AdvConfig, epsilon=st.floats(0.0, 1.0), adv_weight=st.floats(0.0, 1.0)),
    st.builds(AdvConfig, epsilon=st.just(0.0), adv_weight=st.floats(0.0, 1.0)),
)


class TestBitIdentity:
    """The training step keeps the reference's float64 arithmetic exactly."""

    @settings(max_examples=300, deadline=None)
    @given(C=st.integers(2, 6), d=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([0.0, 0.1, 1.0, 10.0, 300.0]), data=st.data(),
           adv=ADV_SETTINGS)
    def test_step_equals_reference(self, C, d, seed, scale, data, adv):
        rng = np.random.default_rng(seed)
        weights = rng.normal(scale=scale, size=(C, d))
        bias = rng.normal(scale=scale, size=C)
        x = rng.normal(size=d)
        y = data.draw(st.integers(0, C - 1))
        loss, dW, db = example_gradients(weights, bias, x, y, adv)
        ref_loss, ref_dW, ref_db, _ = reference_example_gradients(weights, bias, x, y, adv)
        assert np.array_equal(loss, ref_loss)
        assert np.array_equal(dW, ref_dW)
        assert np.array_equal(db, ref_db)

    @pytest.mark.parametrize("adv", [AdvConfig(epsilon=0.05, adv_weight=0.4),
                                     AdvConfig(epsilon=0.01, adv_weight=1.0)])
    def test_training_equals_reference_loop(self, adv):
        seqs, labels = toy_data()
        config = ClfTrainConfig(epochs=5, learning_rate=0.3, dim=8, seed=1)
        model = train_classifier(seqs, labels, ("A", "B"), config, adv=adv)
        weights, bias = reference_train(seqs, labels, ("A", "B"), config, adv)
        assert np.array_equal(model.weights, weights)
        assert np.array_equal(model.bias, bias)

    @settings(max_examples=200, deadline=None)
    @given(C=st.integers(2, 6), d=st.integers(1, 40), epochs=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1), n=st.integers(2, 30),
           learning_rate=st.sampled_from([0.05, 0.5, 3.0]), adv=st.one_of(
               st.none(),
               st.builds(AdvConfig, epsilon=st.just(0.0), adv_weight=st.floats(0.0, 1.0)),
               st.builds(AdvConfig, epsilon=st.floats(0.0, 1.0), adv_weight=st.just(0.0)),
               st.builds(AdvConfig, epsilon=st.floats(0.0, 1.0), adv_weight=st.just(1.0)),
               st.builds(AdvConfig, epsilon=st.floats(1e-6, 1.0),
                         adv_weight=st.floats(1e-6, 1.0))))
    def test_training_equals_reference_over_draws(self, C, d, epochs, seed, n,
                                                  learning_rate, adv):
        rng = random.Random(seed)
        classes = tuple(f"L{i}" for i in range(C))
        seqs = [[rng.choice("abcdefghij") for _ in range(rng.randint(0, 6))]
                for _ in range(n)]
        labels = [classes[0], classes[1]] + [rng.choice(classes) for _ in range(n - 2)]
        config = ClfTrainConfig(epochs=epochs, learning_rate=learning_rate, dim=d, seed=seed)
        model = train_classifier(seqs, labels, classes, config, adv=adv)
        weights, bias = reference_train(seqs, labels, classes, config, adv)
        assert np.array_equal(model.weights, weights)
        assert np.array_equal(model.bias, bias)
