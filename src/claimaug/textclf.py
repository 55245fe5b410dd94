"""Bag-of-embeddings sentence classifier with optional adversarial training.

A sentence is the mean of its token embeddings; a softmax layer on top
predicts the class. Adversarial training perturbs the sentence embedding by
a signed-gradient step of magnitude epsilon and mixes the clean and
adversarial losses. Everything is plain numpy so gradients can be checked
exactly against finite differences.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ParseError, TrainingDiverged, ValidationError
from .util import atomic_write_text, check_model_dict, derive_seed

FORMAT_VERSION = 1


@dataclass
class EmbeddingTable:
    vocab: dict[str, int]
    matrix: np.ndarray
    oov: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[1]) if self.matrix.size else int(self.oov.shape[0])

    @classmethod
    def random(cls, tokens: Sequence[str], dim: int, seed: int) -> "EmbeddingTable":
        vocab = {t: i for i, t in enumerate(sorted(set(tokens)))}
        rng = np.random.default_rng(seed)
        scale = 1.0 / np.sqrt(dim)
        matrix = rng.normal(0.0, scale, size=(len(vocab), dim))
        oov = rng.normal(0.0, scale, size=dim)
        return cls(vocab=vocab, matrix=matrix, oov=oov)

    @classmethod
    def from_text(cls, text: str) -> "EmbeddingTable":
        """Parse `token v1 v2 ... vd` lines; a `<OOV>` row, if present, seeds the OOV vector."""
        vocab: dict[str, int] = {}
        rows = []
        oov = None
        dim = None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            if not raw.strip():
                continue
            parts = raw.split()
            if len(parts) < 2:
                raise ParseError("expected 'token v1 ... vd'", line=lineno)
            token = parts[0]
            try:
                vector = np.array([float(x) for x in parts[1:]])
            except ValueError:
                raise ParseError(f"non-numeric embedding value for {token!r}", line=lineno)
            if dim is None:
                dim = vector.shape[0]
            elif vector.shape[0] != dim:
                raise ParseError(f"dimension mismatch for {token!r}", line=lineno)
            if token == "<OOV>":
                oov = vector
                continue
            if token in vocab:
                raise ParseError(f"duplicate token {token!r}", line=lineno)
            vocab[token] = len(rows)
            rows.append(vector)
        if not rows:
            raise ParseError("no embedding rows")
        matrix = np.vstack(rows)
        if oov is None:
            oov = np.zeros(dim)
        if not (np.all(np.isfinite(matrix)) and np.all(np.isfinite(oov))):
            raise ParseError("embedding values must be finite")
        return cls(vocab=vocab, matrix=matrix, oov=oov)


def embed_sentence(texts: Sequence[str], table: EmbeddingTable) -> np.ndarray:
    """Mean of token embedding rows; OOV row for unknowns, zeros when empty."""
    if not texts:
        return np.zeros(table.dim)
    ids = np.array([table.vocab.get(t, -1) for t in texts], dtype=np.intp)
    # Id -1 reads the last row (an empty vocabulary has none); the OOV row replaces it.
    rows = table.matrix[ids] if table.vocab else np.empty((len(ids), table.dim))
    rows[ids < 0] = table.oov
    return rows.mean(axis=0)


def fgsm_perturb(embedding: np.ndarray, loss_gradient: np.ndarray,
                 epsilon: float) -> np.ndarray:
    """x + epsilon * sign(grad); coordinates with zero gradient stay put."""
    if epsilon < 0:
        raise ValidationError("epsilon must be >= 0")
    return embedding + epsilon * np.sign(loss_gradient)


@dataclass(frozen=True)
class AdvConfig:
    epsilon: float = 0.0
    adv_weight: float = 0.0

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValidationError("epsilon must be >= 0")
        if not 0.0 <= self.adv_weight <= 1.0:
            raise ValidationError("adv_weight must be in [0, 1]")

    @property
    def active(self) -> bool:
        return self.epsilon > 0 and self.adv_weight > 0


@dataclass(frozen=True)
class ClfTrainConfig:
    epochs: int = 15
    learning_rate: float = 0.5
    dim: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.learning_rate <= 0 or self.dim < 1:
            raise ValidationError("hyperparameters must be positive")


def softmax(logits: np.ndarray) -> np.ndarray:
    exp = np.exp(logits - logits.max())
    return exp / exp.sum()


@dataclass
class SoftmaxClassifier:
    """Linear softmax over sentence embeddings; class order follows the schema."""

    classes: tuple[str, ...]
    weights: np.ndarray  # (C, d)
    bias: np.ndarray     # (C,)
    table: EmbeddingTable

    def predict_proba(self, texts: Sequence[str]) -> np.ndarray:
        x = embed_sentence(texts, self.table)
        return softmax(self.weights @ x + self.bias)

    def predict(self, texts: Sequence[str]) -> str:
        return self.classes[int(np.argmax(self.predict_proba(texts)))]

    def to_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "classes": list(self.classes),
            "weights": self.weights.tolist(),
            "bias": self.bias.tolist(),
            "vocab": self.table.vocab,
            "matrix": self.table.matrix.tolist(),
            "oov": self.table.oov.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SoftmaxClassifier":
        check_model_dict(data, FORMAT_VERSION,
                         {"classes", "weights", "bias", "vocab", "matrix", "oov"}, "classes")
        try:
            weights, bias, matrix, oov = [np.asarray(data[key], dtype=np.float64)
                                          for key in ("weights", "bias", "matrix", "oov")]
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"model arrays must be numbers: {exc}") from exc
        if type(data["vocab"]) is not dict:
            raise ValidationError("model vocab must be an object")
        if matrix.size == 0:
            matrix = matrix.reshape(0, oov.size)  # an empty vocabulary saves as []
        model = cls(classes=tuple(data["classes"]), weights=weights, bias=bias,
                    table=EmbeddingTable(vocab=dict(data["vocab"]), matrix=matrix, oov=oov))
        ids = list(model.table.vocab.values())
        if not all(type(i) is int for i in ids) or sorted(ids) != list(range(len(ids))):
            raise ValidationError("vocab ids must be exactly 0..V-1, each used once")
        C, V, d = len(model.classes), len(ids), oov.size
        arrays = {"weights": (model.weights, (C, d)), "bias": (model.bias, (C,)),
                  "matrix": (matrix, (V, d)), "oov": (oov, (d,))}
        for name, (array, shape) in arrays.items():
            if array.shape != shape:
                raise ValidationError(f"{name} has shape {array.shape}, expected {shape} "
                                      f"for {C} classes, {V} words and width {d}")
            if not np.isfinite(array).all():
                raise ValidationError(f"{name} must be finite")
        return model

    def save(self, path: str) -> None:
        atomic_write_text(path, json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path: str) -> "SoftmaxClassifier":
        with open(path, encoding="utf-8") as f:
            return cls.from_dict(json.load(f))


def _nll(p_y: float) -> float:
    return -float(np.log(max(p_y, 1e-300)))


class _SgdStep:
    """One example's gradient and SGD update, in arrays allocated once per training run.

    Row 0 of each buffer is the clean point, row 1 the adversarial point. The
    inputs carry a constant 1 after the d embedding values, so the outer
    product's last column is the logit gradient itself: `grad[:, :d]` is the
    weight gradient and `grad[:, d]` the bias gradient. Every float64
    operation is the one the plain formulas do, in the same order, so the
    weights come out with the same bits. Scalars are 0-d arrays and views
    are taken once, because converting a scalar or slicing an array costs as
    much as a ufunc call on these sizes.
    """

    def __init__(self, n_classes: int, dim: int, adv: AdvConfig | None,
                 learning_rate: float = 1.0):
        self.adv = adv if adv is not None and adv.active else None
        self.learning_rate = np.array(learning_rate)
        self.total = np.empty(())
        self.dlogits = np.empty((2, n_classes))
        self.inputs = np.ones((2, dim + 1))
        self.outer = np.empty((2, n_classes, dim + 1))
        self.grad = np.empty((n_classes, dim + 1))
        self.d0, self.d1 = self.dlogits
        self.x0, self.x1 = self.inputs[:, :dim]
        self.d0_col = self.dlogits[0, :, None]
        self.dW, self.db = self.grad[:, :dim], self.grad[:, dim]
        if self.adv is not None:
            self.epsilon = np.array(adv.epsilon)
            self.dx = np.empty(dim)
            self.d_col = self.dlogits[:, :, None]
            self.inputs_row = self.inputs[:, None, :]
            self.outer0, self.outer1 = self.outer
            self.mix = np.array([1.0 - adv.adv_weight, adv.adv_weight])[:, None, None]

    def _dlogits(self, weights: np.ndarray, bias: np.ndarray, x: np.ndarray, y: int,
                 out: np.ndarray) -> float:
        """Write softmax(weights @ x + bias) minus one-hot(y) into `out`; return p[y]."""
        np.dot(weights, x, out=out)
        np.add(out, bias, out=out)
        # The max is exact however it is found; indexing at argmax is the cheapest way.
        np.subtract(out, out[out.argmax()], out=out)
        np.exp(out, out=out)
        np.add.reduce(out, out=self.total)
        np.divide(out, self.total, out=out)
        p_y = out[y]
        out[y] = p_y - 1.0
        return p_y

    def gradients(self, weights: np.ndarray, bias: np.ndarray, x: np.ndarray,
                  y: int) -> tuple[float, float | None]:
        """Write the (mixed) gradients into `grad`; return p[y] clean and adversarial.

        The adversarial p[y] is None when adversarial training is off.
        """
        self.x0[:] = x
        p_y = self._dlogits(weights, bias, self.x0, y, self.d0)
        if self.adv is None:
            np.multiply(self.d0_col, self.inputs[0], out=self.grad)
            return p_y, None
        # FGSM: x + epsilon * sign(input gradient at the clean point).
        dx = self.dx
        np.dot(weights.T, self.d0, out=dx)
        np.sign(dx, out=dx)
        np.multiply(dx, self.epsilon, out=dx)
        np.add(self.x0, dx, out=self.x1)
        p_adv_y = self._dlogits(weights, bias, self.x1, y, self.d1)
        np.multiply(self.d_col, self.inputs_row, out=self.outer)
        np.multiply(self.outer, self.mix, out=self.outer)
        np.add(self.outer0, self.outer1, out=self.grad)
        return p_y, p_adv_y

    def __call__(self, weights: np.ndarray, bias: np.ndarray, x: np.ndarray,
                 y: int) -> tuple[float, float | None]:
        """Update `weights` and `bias` in place by one SGD step; return the two p[y]."""
        p = self.gradients(weights, bias, x, y)
        np.multiply(self.grad, self.learning_rate, out=self.grad)
        np.subtract(weights, self.dW, out=weights)
        np.subtract(bias, self.db, out=bias)
        return p


def example_gradients(weights: np.ndarray, bias: np.ndarray, x: np.ndarray, y: int,
                      adv: AdvConfig | None = None,
                      ) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss and the weight and bias gradients for one example.

    With adversarial training active the perturbation direction, the input
    gradient at the clean point, is treated as constant (standard
    signed-gradient practice), so the mixture gradient is the weighted sum
    of the clean and adversarial-point gradients. Training runs the same
    arithmetic through `_SgdStep`.
    """
    step = _SgdStep(*weights.shape, adv)
    p_y, p_adv_y = step.gradients(weights, bias, x, y)
    loss = _nll(p_y)
    if p_adv_y is not None:
        w = adv.adv_weight
        loss = (1.0 - w) * loss + w * _nll(p_adv_y)
    return loss, step.dW, step.db


def example_loss(weights: np.ndarray, bias: np.ndarray, x: np.ndarray, y: int,
                 adv: AdvConfig | None = None) -> float:
    """The per-example training objective, including the adversarial mixture."""
    return example_gradients(weights, bias, x, y, adv)[0]


def train_classifier(token_seqs: Sequence[Sequence[str]], labels: Sequence[str],
                     classes: Sequence[str], config: ClfTrainConfig,
                     adv: AdvConfig | None = None,
                     table: EmbeddingTable | None = None) -> SoftmaxClassifier:
    """Cross-entropy SGD over sentences; seeded and fully deterministic.

    The embedding table defaults to a seeded Gaussian over the training
    vocabulary; it is never updated.
    """
    if len(token_seqs) != len(labels):
        raise ValidationError("token_seqs and labels differ in length")
    present = set(labels)
    if len(present) < 2:
        raise ValidationError("training needs at least 2 distinct classes present")
    if not present.issubset(classes):
        raise ValidationError(f"labels {sorted(present - set(classes))} not in class list")

    if table is None:
        all_tokens = [t for seq in token_seqs for t in seq]
        table = EmbeddingTable.random(all_tokens, config.dim,
                                      seed=derive_seed(config.seed, "embeddings"))
    classes = tuple(classes)
    class_ids = {c: i for i, c in enumerate(classes)}
    d = table.dim
    weights = np.zeros((len(classes), d))
    bias = np.zeros(len(classes))

    xs = [embed_sentence(seq, table) for seq in token_seqs]
    ys = [class_ids[l] for l in labels]
    rng = random.Random(derive_seed(config.seed, "shuffle"))
    order = list(range(len(xs)))
    step = _SgdStep(len(classes), d, adv, config.learning_rate)
    for epoch in range(config.epochs):
        rng.shuffle(order)
        for idx in order:
            step(weights, bias, xs[idx], ys[idx])
        # A non-finite logit makes every entry of the step's gradient NaN, so a
        # divergence anywhere in the epoch leaves the weights non-finite.
        if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
            raise TrainingDiverged(f"weights became non-finite in epoch {epoch}")
    return SoftmaxClassifier(classes=classes, weights=weights, bias=bias, table=table)
