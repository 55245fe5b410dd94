"""Linear-chain CRF with hand-rolled features, exact inference, and SGD training.

Features per position: the word itself, suffixes of length 1..3, an
uppercase-initial flag, an all-uppercase flag, a digit flag, and a bigram
conjunction of each with the previous token's value (a boundary symbol at
position 0). Feature strings map to indices through an explicit dictionary,
so scores are exactly reproducible. All dynamic programming is in log space.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import TrainingDiverged, ValidationError
from .util import atomic_write_text

BOS = "<BOS>"

FORMAT_VERSION = 1


_TEMPLATES = ("w", "suf1", "suf2", "suf3", "capInit", "allCap", "digit")


def _values(token: str) -> tuple[str, ...]:
    """The token's value for each feature template, in `_TEMPLATES` order."""
    return (token, token[-1:], token[-2:], token[-3:],
            "1" if token[0].isupper() else "0",
            "1" if token.isupper() else "0",
            "1" if token.isdigit() else "0")


_BOUNDARY = (BOS,) * len(_TEMPLATES)


def extract_features(texts: Sequence[str]) -> list[list[str]]:
    """Feature strings for each position: unigrams plus previous-token bigrams."""
    out = []
    previous = _BOUNDARY
    for token in texts:
        current = _values(token)
        feats = [f"{name}={value}" for name, value in zip(_TEMPLATES, current)]
        feats += [f"b{name}={prev}|{value}"
                  for name, prev, value in zip(_TEMPLATES, previous, current)]
        out.append(feats)
        previous = current
    return out


@dataclass
class CrfModel:
    """Label set, feature dictionary, and one dense weight vector.

    Weights are laid out as F*L emission weights (feature-major) followed by
    L*L transition weights. `_token_memo` caches each token's template values
    and unigram feature ids for `_feature_ids`; it is never serialized.
    """

    labels: tuple[str, ...]
    feature_index: dict[str, int]
    weights: np.ndarray
    l2: float = 0.0
    _token_memo: dict[str, tuple[tuple[str, ...], list[int]]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def build(cls, labels: Sequence[str], token_seqs: Sequence[Sequence[str]],
              l2: float = 0.0) -> "CrfModel":
        index: dict[str, int] = {}
        for texts in token_seqs:
            for feats in extract_features(texts):
                for feat in feats:
                    if feat not in index:
                        index[feat] = len(index)
        n = len(index) * len(labels) + len(labels) ** 2
        return cls(labels=tuple(labels), feature_index=index,
                   weights=np.zeros(n, dtype=np.float64), l2=l2)

    @property
    def n_labels(self) -> int:
        return len(self.labels)

    @property
    def emission_weights(self) -> np.ndarray:
        """[F, L] view of the emission weights."""
        return self.weights[:len(self.feature_index) * self.n_labels].reshape(-1, self.n_labels)

    @property
    def transitions(self) -> np.ndarray:
        L = self.n_labels
        return self.weights[len(self.feature_index) * L:].reshape(L, L)

    def label_ids(self, labels: Sequence[str]) -> list[int]:
        table = {label: i for i, label in enumerate(self.labels)}
        try:
            return [table[l] for l in labels]
        except KeyError as exc:
            raise ValidationError(f"label {exc.args[0]!r} not in model label set")

    def predict(self, texts: Sequence[str]) -> list[str]:
        return viterbi(self, texts)

    def to_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "labels": list(self.labels),
            "l2": self.l2,
            "feature_index": self.feature_index,
            "weights": self.weights.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CrfModel":
        if data.get("format_version") != FORMAT_VERSION:
            raise ValidationError(f"unsupported model format {data.get('format_version')!r}")
        model = cls(labels=tuple(data["labels"]), feature_index=dict(data["feature_index"]),
                    weights=np.asarray(data["weights"], dtype=np.float64), l2=float(data["l2"]))
        ids = list(model.feature_index.values())
        if not all(type(i) is int for i in ids) or sorted(ids) != list(range(len(ids))):
            raise ValidationError("feature ids must be exactly 0..F-1, each used once")
        expected = len(model.feature_index) * model.n_labels + model.n_labels ** 2
        if model.weights.shape != (expected,):
            raise ValidationError(f"weight vector has {model.weights.size} entries, "
                                  f"index implies {expected}")
        if not np.isfinite(model.weights).all():
            raise ValidationError("model weights must be finite")
        return model

    def save(self, path: str) -> None:
        atomic_write_text(path, json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path: str) -> "CrfModel":
        with open(path, encoding="utf-8") as f:
            return cls.from_dict(json.load(f))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 5
    learning_rate: float = 0.1
    decay: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.learning_rate <= 0 or self.decay < 0:
            raise ValidationError("hyperparameters must be positive (decay >= 0)")


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log sum exp over the last axis, stable in log space."""
    m = a.max(axis=-1)
    return m + np.log(np.exp(a - m[..., None]).sum(axis=-1))


def _forward(emissions: np.ndarray, transitions: np.ndarray) -> np.ndarray:
    """Forward log scores for emissions [..., n, L]: one sentence or a batch of equal length."""
    alpha = np.empty_like(emissions)
    alpha[..., 0, :] = emissions[..., 0, :]
    for i in range(1, emissions.shape[-2]):
        a = alpha[..., i - 1, :, None] + transitions
        m = a.max(axis=-2)
        alpha[..., i, :] = m + np.log(np.exp(a - m[..., None, :]).sum(axis=-2)) + emissions[..., i, :]
    return alpha


def _backward(emissions: np.ndarray, transitions: np.ndarray) -> np.ndarray:
    beta = np.zeros_like(emissions)
    for i in range(len(emissions) - 2, -1, -1):
        a = transitions + (emissions[i + 1] + beta[i + 1])
        m = a.max(axis=1)
        beta[i] = m + np.log(np.exp(a - m[:, None]).sum(axis=1))
    return beta


def _gold_score(emissions: np.ndarray, transitions: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Score of the label path y [..., n] under emissions [..., n, L]."""
    unary = np.take_along_axis(emissions, y[..., None], axis=-1)[..., 0].sum(axis=-1)
    return unary + transitions[y[..., :-1], y[..., 1:]].sum(axis=-1)


@dataclass(frozen=True)
class _Compiled:
    """Sentences compiled against one model's feature index and label set.

    `feature_ids[k]` is an int32 [n, 14] array holding the id of each
    position's feature strings, -1 where the model lacks the feature;
    `label_ids[k]` holds the n gold label ids.
    """

    feature_ids: list[np.ndarray]
    label_ids: list[np.ndarray]


def _feature_ids(model: CrfModel, texts: Sequence[str]) -> np.ndarray:
    """int32 [n, 14] ids of each position's feature strings, -1 where the model lacks one.

    The ids are those of `extract_features(texts)`. A token's values and
    unigram ids come from the model's memo; only the bigrams are looked up.
    """
    get = model.feature_index.get
    memo = model._token_memo
    rows = []
    previous = _BOUNDARY
    for token in texts:
        entry = memo.get(token)
        if entry is None:
            values = _values(token)
            entry = memo[token] = (values, [get(f"{name}={value}", -1)
                                            for name, value in zip(_TEMPLATES, values)])
        current, unigram_ids = entry
        rows.append(unigram_ids + [get(f"b{name}={prev}|{value}", -1)
                                   for name, prev, value in zip(_TEMPLATES, previous, current)])
        previous = current
    return np.array(rows, dtype=np.int32)


def _compile(model: CrfModel,
             data: Sequence[tuple[Sequence[str], Sequence[str]]]) -> _Compiled:
    """Map each (texts, labels) pair to feature-id and label-id arrays, once."""
    feature_ids, label_ids = [], []
    for k, (texts, labels) in enumerate(data):
        if len(texts) != len(labels):
            raise ValidationError(f"sequence {k}: {len(texts)} tokens vs {len(labels)} labels")
        if not texts:
            raise ValidationError(f"sequence {k} is empty")
        feature_ids.append(_feature_ids(model, texts))
        label_ids.append(np.array(model.label_ids(labels), dtype=np.intp))
    return _Compiled(feature_ids, label_ids)


def _emissions(emission_weights: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Emission scores [..., n, L] of compiled feature ids [..., n, 14]; id -1 adds nothing."""
    rows = emission_weights[ids]
    rows[ids < 0] = 0.0
    return rows.sum(axis=-2)


def log_partition(model: CrfModel, texts: Sequence[str]) -> float:
    """log Z by the forward recursion, stable in log space."""
    emissions = _emissions(model.emission_weights, _feature_ids(model, texts))
    alpha = _forward(emissions, model.transitions)
    return float(_logsumexp(alpha[-1]))


def sequence_score(model: CrfModel, texts: Sequence[str], labels: Sequence[str]) -> float:
    compiled = _compile(model, [(texts, labels)])
    emissions = _emissions(model.emission_weights, compiled.feature_ids[0])
    return float(_gold_score(emissions, model.transitions, compiled.label_ids[0]))


def posterior_marginals(model: CrfModel, texts: Sequence[str]) -> np.ndarray:
    """Per-position label marginals; each row sums to 1."""
    emissions = _emissions(model.emission_weights, _feature_ids(model, texts))
    transitions = model.transitions
    alpha = _forward(emissions, transitions)
    beta = _backward(emissions, transitions)
    log_z = _logsumexp(alpha[-1])
    return np.exp(alpha + beta - log_z)


def _sentence_gradient(model: CrfModel, ids: np.ndarray, y: np.ndarray
                       ) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """NLL of one compiled sentence, without the L2 term, and its gradient.

    Returns `(nll, rows, emission_grad, transition_grad)`. The gradient is
    model expectations (forward-backward marginals) minus empirical counts,
    plus l2 * weights; outside the feature ids `rows` and the transition
    block it is just l2 * weights. Each coordinate adds its terms position
    by position, in sentence order: per-sentence SGD amplifies rounding, so
    another summation order would train a different model.
    """
    weights = model.emission_weights
    transitions = model.transitions
    emissions = _emissions(weights, ids)
    alpha = _forward(emissions, transitions)
    beta = _backward(emissions, transitions)
    log_z = _logsumexp(alpha[-1])
    nll = float(log_z - _gold_score(emissions, transitions, y))

    unary = np.exp(alpha + beta - log_z)
    unary[np.arange(len(y)), y] -= 1.0
    rows, local = np.unique(ids, return_inverse=True)
    emission_grad = model.l2 * weights[rows]
    np.add.at(emission_grad, local.reshape(ids.shape), unary[:, None, :])
    first = 1 if rows[0] < 0 else 0  # id -1 stands for features the model lacks

    pairwise = np.exp(alpha[:-1, :, None] + transitions
                      + (emissions[1:] + beta[1:])[:, None, :] - log_z)
    transition_grad = model.l2 * transitions
    for i in range(1, len(y)):
        transition_grad += pairwise[i - 1]
        transition_grad[y[i - 1], y[i]] -= 1.0
    return nll, rows[first:], emission_grad[first:], transition_grad


def _dense_gradient(model: CrfModel, rows: np.ndarray, emission_grad: np.ndarray,
                    transition_grad: np.ndarray) -> np.ndarray:
    grad = model.l2 * model.weights
    split = len(model.feature_index) * model.n_labels
    grad[:split].reshape(-1, model.n_labels)[rows] = emission_grad
    grad[split:] = transition_grad.ravel()
    return grad


def nll_and_gradient(model: CrfModel, texts: Sequence[str],
                     gold_labels: Sequence[str]) -> tuple[float, np.ndarray]:
    """Negative log-likelihood with an L2 term, and its exact dense gradient.

    Gradient = model expectations (forward-backward marginals) minus
    empirical counts, plus l2 * weights.
    """
    compiled = _compile(model, [(texts, gold_labels)])
    nll, *sparse = _sentence_gradient(model, compiled.feature_ids[0], compiled.label_ids[0])
    nll += 0.5 * model.l2 * float(np.dot(model.weights, model.weights))
    return nll, _dense_gradient(model, *sparse)


def viterbi(model: CrfModel, texts: Sequence[str]) -> list[str]:
    """Highest-scoring label sequence; ties resolve to the earlier label index.

    The recursion runs over Python floats: with a handful of labels that is
    cheaper than numpy calls per position, and the adds are the same float64
    adds in the same order, so the path is the one numpy would find.
    """
    if not texts:
        return []
    emissions = _emissions(model.emission_weights, _feature_ids(model, texts)).tolist()
    columns = model.transitions.T.tolist()  # columns[j][i]: score of moving from i to j
    labels = range(model.n_labels)
    delta = emissions[0]
    back = []
    for row in emissions[1:]:
        pointers = []
        scores = []
        for column, emission in zip(columns, row):
            best = 0
            best_score = delta[0] + column[0]
            for i in labels[1:]:
                score = delta[i] + column[i]
                if score > best_score:
                    best, best_score = i, score
            pointers.append(best)
            scores.append(best_score + emission)
        back.append(pointers)
        delta = scores
    best = max(labels, key=delta.__getitem__)
    path = [best]
    for pointers in reversed(back):
        best = pointers[best]
        path.append(best)
    path.reverse()
    return [model.labels[i] for i in path]


def dataset_nll(model: CrfModel,
                data: Sequence[tuple[Sequence[str], Sequence[str]]] | _Compiled) -> float:
    """NLL of every sequence plus the L2 term.

    `data` is (texts, labels) pairs or their `_compile` result. One
    forward recursion runs per sequence length, over all sequences of that
    length at once.
    """
    if not isinstance(data, _Compiled):
        data = _compile(model, data)
    by_length: dict[int, list[int]] = {}
    for k, y in enumerate(data.label_ids):
        by_length.setdefault(len(y), []).append(k)
    weights = model.emission_weights
    transitions = model.transitions
    total = 0.0
    for members in by_length.values():
        emissions = _emissions(weights, np.stack([data.feature_ids[k] for k in members]))
        y = np.stack([data.label_ids[k] for k in members])
        log_z = _logsumexp(_forward(emissions, transitions)[:, -1])
        total += float(np.sum(log_z - _gold_score(emissions, transitions, y)))
    return total + 0.5 * model.l2 * float(np.dot(model.weights, model.weights))


def train(model: CrfModel, data: Sequence[tuple[Sequence[str], Sequence[str]]],
          config: TrainConfig) -> list[float]:
    """Per-sequence SGD with a 1/(1 + decay*t) learning-rate schedule.

    Mutates the model in place (single-threaded) and returns the full-dataset
    NLL before training and after each epoch. The data is compiled once; with
    l2 = 0 a step updates only the sequence's feature rows and the
    transitions, the only weights with a nonzero gradient.
    """
    if not data:
        raise ValidationError("empty training set")
    compiled = _compile(model, data)
    rng = random.Random(config.seed)
    order = list(range(len(data)))
    history = [dataset_nll(model, compiled)]
    emission_weights = model.emission_weights
    transitions = model.transitions
    step = 0
    for epoch in range(config.epochs):
        rng.shuffle(order)
        for idx in order:
            nll, rows, emission_grad, transition_grad = _sentence_gradient(
                model, compiled.feature_ids[idx], compiled.label_ids[idx])
            if not np.isfinite(nll):
                raise TrainingDiverged(
                    f"NLL became non-finite at epoch {epoch}, step {step} "
                    f"(lr={config.learning_rate}, decay={config.decay})")
            lr = config.learning_rate / (1.0 + config.decay * step)
            if model.l2:
                model.weights -= lr * _dense_gradient(model, rows, emission_grad, transition_grad)
            else:
                emission_weights[rows] -= lr * emission_grad
                transitions -= lr * transition_grad
            step += 1
        epoch_nll = dataset_nll(model, compiled)
        if not np.isfinite(epoch_nll):
            raise TrainingDiverged(f"NLL became non-finite after epoch {epoch}")
        history.append(epoch_nll)
    return history
