"""Linear-chain CRF with hand-rolled features, exact inference, and SGD training.

Features per position: the word itself, suffixes of length 1..3, an
uppercase-initial flag, an all-uppercase flag, a digit flag, and a bigram
conjunction of each with the previous token's value (a boundary symbol at
position 0). Feature strings map to indices through an explicit dictionary,
so scores are exactly reproducible. All dynamic programming is in log space.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import TrainingDiverged, ValidationError
from .util import atomic_write_text, check_model_dict

BOS = "<BOS>"

FORMAT_VERSION = 1


_TEMPLATES = ("w", "suf1", "suf2", "suf3", "capInit", "allCap", "digit")
# Features per position: a unigram and a bigram per template.
_N_FEATURES = 2 * len(_TEMPLATES)


def _values(token: str) -> tuple[str, ...]:
    """The token's value for each feature template, in `_TEMPLATES` order."""
    return (token, token[-1:], token[-2:], token[-3:],
            "1" if token[0].isupper() else "0",
            "1" if token.isupper() else "0",
            "1" if token.isdigit() else "0")


def _bigram_prefixes(values: Sequence[str]) -> tuple[str, ...]:
    """The bigram strings of a token as the previous one, up to the next token's value.

    A bigram feature is `prefix + value`, one prefix and value per template.
    """
    return tuple(f"b{name}={value}|" for name, value in zip(_TEMPLATES, values))


# The prefixes of the boundary before position 0.
_BOUNDARY_PREFIXES = _bigram_prefixes((BOS,) * len(_TEMPLATES))


def extract_features(texts: Sequence[str]) -> list[list[str]]:
    """Feature strings for each position: unigrams plus previous-token bigrams.

    This is the definition of the features; `CrfModel.build` and
    `_feature_ids` give the ids of exactly these strings without listing them.
    """
    out = []
    prefixes = _BOUNDARY_PREFIXES
    for token in texts:
        current = _values(token)
        feats = [f"{name}={value}" for name, value in zip(_TEMPLATES, current)]
        feats += [prefix + value for prefix, value in zip(prefixes, current)]
        out.append(feats)
        prefixes = _bigram_prefixes(current)
    return out


_MemoEntry = tuple[tuple[str, ...], list[int], tuple[str, ...]]


def _memo_entry(token: str, feature_id: Callable[[str], int]) -> _MemoEntry:
    """A `_token_memo` entry: the token's values, unigram ids and bigram prefixes.

    `feature_id` maps a unigram string to its id. Only a memo miss comes
    here, so this is where an empty token is rejected.
    """
    if not token:
        raise ValidationError("empty token")
    values = _values(token)
    return (values, [feature_id(f"{name}={value}") for name, value in zip(_TEMPLATES, values)],
            _bigram_prefixes(values))


@dataclass
class CrfModel:
    """Label set, feature dictionary, and one dense weight vector.

    Weights are laid out as F*L emission weights (feature-major) followed by
    L*L transition weights. Two memos are never serialized. `_token_memo`
    maps each distinct token to `(values, unigram_ids, bigram_prefixes)`:
    its seven template values, the ids of its seven unigram strings, and the
    seven bigram strings it starts as the previous token, each missing only
    the next token's value. It depends on the feature index, never on the
    weights, which `train` and callers change in place. `_sequence_ids`
    holds the feature-id array of each token sequence `build` saw, keyed by
    `tuple(texts)`, until `train` has compiled it.
    """

    labels: tuple[str, ...]
    feature_index: dict[str, int]
    weights: np.ndarray
    l2: float = 0.0
    _token_memo: dict[str, _MemoEntry] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _sequence_ids: dict[tuple[str, ...], np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def build(cls, labels: Sequence[str], token_seqs: Sequence[Sequence[str]],
              l2: float = 0.0) -> "CrfModel":
        """A zero-weight model over the features of `token_seqs`, in one pass.

        Ids follow first appearance in `extract_features` order: position by
        position, a position's unigrams and then its bigrams, each in
        `_TEMPLATES` order. A token's `_token_memo` entry is made once, so
        its unigram strings and bigram prefixes are formatted once; a bigram
        is the previous token's prefix plus this token's value.
        """
        model = cls(labels=tuple(labels), feature_index={}, weights=np.zeros(0), l2=l2)
        index = model.feature_index
        add = index.setdefault
        memo = model._token_memo
        sequence_ids = model._sequence_ids
        for texts in token_seqs:
            key = tuple(texts)
            if key in sequence_ids:
                continue
            flat: list[int] = []
            prefixes = _BOUNDARY_PREFIXES
            for token in key:
                entry = memo.get(token)
                if entry is None:
                    entry = memo[token] = _memo_entry(
                        token, lambda feature: add(feature, len(index)))
                values, unigram_ids, following = entry
                flat += unigram_ids
                flat += [add(prefix + value, len(index))
                         for prefix, value in zip(prefixes, values)]
                prefixes = following
            sequence_ids[key] = np.array(flat, np.int32).reshape(-1, _N_FEATURES)
        model.weights = np.zeros(len(index) * model.n_labels + model.n_labels ** 2)
        return model

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
        check_model_dict(data, FORMAT_VERSION, {"labels", "l2", "feature_index", "weights"},
                         "labels")
        labels, l2, index = data["labels"], data["l2"], data["feature_index"]
        if type(l2) not in (int, float) or not 0.0 <= l2 < math.inf:
            raise ValidationError(f"model l2 must be finite and >= 0, got {l2!r}")
        ids = list(index.values()) if type(index) is dict else None
        if (ids is None or not all(type(i) is int for i in ids)
                or sorted(ids) != list(range(len(ids)))):
            raise ValidationError("feature ids must be exactly 0..F-1, each used once")
        try:
            weights = np.asarray(data["weights"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"model weights must be numbers: {exc}") from exc
        model = cls(labels=tuple(labels), feature_index=dict(index), weights=weights,
                    l2=float(l2))
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
    m = np.maximum.reduce(a, axis=-1)
    return m + np.log(np.add.reduce(np.exp(a - m[..., None]), axis=-1))


def _forward(emissions: np.ndarray, transitions: np.ndarray) -> np.ndarray:
    """Forward log scores for emissions [n, L] of one sentence or [B, n, L] of B of equal length.

    Every position reuses the same buffers, passed as the ufuncs' positional
    `out`. `scores[a, ..., b]` scores the move from label a to label b, so
    the sum over a runs over axis 0, which numpy adds row by row, and for a
    batch the rest of the buffer is one contiguous block. Summing over a
    contiguous axis instead would add pairwise and round differently once
    L >= 8.
    """
    add, subtract, exp, log = np.add, np.subtract, np.exp, np.log
    maximum, total_of = np.maximum.reduce, np.add.reduce
    n_labels = transitions.shape[0]
    batch = emissions.shape[:-2]
    alpha = np.empty_like(emissions)
    # Position-major views: `positions` is [n, ..., L], `columns` holds each
    # position's scores as [L, ..., 1].
    positions = alpha.swapaxes(-2, 0)
    columns = alpha.T.swapaxes(0, 1)[..., None]
    by_position = emissions.swapaxes(-2, 0)
    positions[0] = by_position[0]
    moves = transitions.reshape((n_labels,) + (1,) * len(batch) + (n_labels,))
    scores = np.empty((n_labels,) + batch + (n_labels,))
    m = np.empty(batch + (n_labels,))
    total = np.empty_like(m)
    for previous, emission, out in zip(columns, by_position[1:], positions[1:]):
        add(previous, moves, scores)
        maximum(scores, 0, None, m)
        subtract(scores, m, scores)
        exp(scores, scores)
        total_of(scores, 0, None, total)
        log(total, total)
        add(m, total, total)
        add(total, emission, out)
    return alpha


def _backward(emissions: np.ndarray, transitions: np.ndarray) -> np.ndarray:
    """Backward log scores of one sentence's emissions [n, L], reusing buffers like `_forward`.

    The sum runs over axis 1, the contiguous one, as it always has.
    """
    add, subtract, exp, log = np.add, np.subtract, np.exp, np.log
    maximum, total_of = np.maximum.reduce, np.add.reduce
    beta = np.zeros_like(emissions)
    scores = np.empty_like(transitions)
    ahead = np.empty_like(emissions[0])
    m = np.empty_like(ahead)
    m_column = m[:, None]
    # Position i reads emissions[i + 1] and beta[i + 1] and writes beta[i], for i = n-2 .. 0.
    for emission, following, out in zip(emissions[:0:-1], beta[:0:-1], beta[-2::-1]):
        add(emission, following, ahead)
        add(transitions, ahead, scores)
        maximum(scores, 1, None, m)
        subtract(scores, m_column, scores)
        exp(scores, scores)
        total_of(scores, 1, None, out)
        log(out, out)
        add(m, out, out)
    return beta


def _gold_score(emissions: np.ndarray, transitions: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Score of the label path y [..., n] under emissions [..., n, L]."""
    unary = emissions.reshape(-1, emissions.shape[-1])[np.arange(y.size), y.ravel()]
    return unary.reshape(y.shape).sum(axis=-1) + transitions[y[..., :-1], y[..., 1:]].sum(axis=-1)


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

    The ids are those of `extract_features(texts)`. A token's values,
    unigram ids and bigram prefixes come from the model's memo, so each
    bigram key is one concatenation of the previous token's prefix and this
    token's value. The ids go into one flat list and one array.
    """
    get = model.feature_index.get
    memo = model._token_memo
    flat: list[int] = []
    prefixes = _BOUNDARY_PREFIXES
    for token in texts:
        entry = memo.get(token)
        if entry is None:
            entry = memo[token] = _memo_entry(token, lambda feature: get(feature, -1))
        values, unigram_ids, following = entry
        flat += unigram_ids
        flat += [get(prefix + value, -1) for prefix, value in zip(prefixes, values)]
        prefixes = following
    return np.array(flat, np.int32).reshape(-1, _N_FEATURES)


def _compile(model: CrfModel,
             data: Sequence[tuple[Sequence[str], Sequence[str]]]) -> _Compiled:
    """Map each (texts, labels) pair to feature-id and label-id arrays, once.

    A sequence that `build` already mapped takes its ids from the model's memo.
    """
    known = model._sequence_ids
    feature_ids, label_ids = [], []
    for k, (texts, labels) in enumerate(data):
        if len(texts) != len(labels):
            raise ValidationError(f"sequence {k}: {len(texts)} tokens vs {len(labels)} labels")
        if not texts:
            raise ValidationError(f"sequence {k} is empty")
        ids = known.get(tuple(texts))
        feature_ids.append(_feature_ids(model, texts) if ids is None else ids)
        label_ids.append(np.array(model.label_ids(labels), dtype=np.intp))
    return _Compiled(feature_ids, label_ids)


def _emissions(emission_weights: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Emission scores [..., n, L] of compiled feature ids [..., n, 14]; id -1 adds nothing.

    The gather is feature-major, `[14, n, ..., L]`, so the sum over
    features is 13 adds of whole `[n, ..., L]` blocks in feature order,
    not n·14 short inner loops, and its bits are those of the sum over
    axis -2 of `[..., n, 14, L]`. `swapaxes` puts the positions back in
    front of the labels.
    """
    by_feature = ids.T
    rows = emission_weights[by_feature]
    rows[by_feature < 0] = 0.0
    return np.add.reduce(rows, 0).swapaxes(0, -2)


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


def _sentence_gradient(emission_weights: np.ndarray, transitions: np.ndarray, l2: float,
                       ids: np.ndarray, y: np.ndarray
                       ) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """NLL of one compiled sentence, without the L2 term, and its gradient.

    Returns `(nll, rows, emission_grad, transition_grad)`. The gradient is
    model expectations (forward-backward marginals) minus empirical counts,
    plus l2 * weights; outside the feature ids `rows` and the transition
    block it is just l2 * weights. Each coordinate adds its terms position
    by position, in sentence order: per-sentence SGD amplifies rounding, so
    another summation order would train a different model.
    """
    rows, local = np.unique(ids, return_inverse=True)
    local = local.reshape(ids.shape)
    table = emission_weights[rows]
    emission_grad = l2 * table
    first = 1 if rows[0] < 0 else 0  # id -1 stands for features the model lacks
    if first:
        table[0] = 0.0
    emissions = table[local].sum(axis=-2)
    alpha = _forward(emissions, transitions)
    beta = _backward(emissions, transitions)
    log_z = _logsumexp(alpha[-1])
    nll = float(log_z - _gold_score(emissions, transitions, y))

    unary = np.exp(alpha + beta - log_z)
    unary[np.arange(len(y)), y] -= 1.0
    np.add.at(emission_grad, local, unary[:, None, :])

    # transition_grad = l2*T + p_0 + g_0 + p_1 + g_1 + ..., added left to right,
    # where p_i are the pairwise marginals of positions (i, i+1) and g_i is
    # -1 at the gold pair and -0.0 elsewhere (x + -0.0 == x for every x).
    # `accumulate` adds strictly in order; `reduce` would add pairwise when
    # L = 1 leaves the stack one-dimensional.
    pairwise = alpha[:-1, :, None] + transitions
    pairwise += (emissions[1:] + beta[1:])[:, None, :]
    pairwise -= log_z
    np.exp(pairwise, out=pairwise)
    terms = np.full((2 * len(y) - 1,) + transitions.shape, -0.0)
    np.multiply(l2, transitions, out=terms[0])
    terms[1::2] = pairwise
    terms[2::2][np.arange(len(y) - 1), y[:-1], y[1:]] = -1.0
    transition_grad = np.add.accumulate(terms, axis=0)[-1]
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
    nll, *sparse = _sentence_gradient(model.emission_weights, model.transitions, model.l2,
                                      compiled.feature_ids[0], compiled.label_ids[0])
    nll += 0.5 * model.l2 * float(np.dot(model.weights, model.weights))
    return nll, _dense_gradient(model, *sparse)


def viterbi(model: CrfModel, texts: Sequence[str]) -> list[str]:
    """Highest-scoring label sequence; ties resolve to the earlier label index.

    The recursion runs over Python floats: with a handful of labels that is
    cheaper than numpy calls per position, and the adds are the same float64
    adds in the same order, so the path is the one numpy would find. Per
    position and label it scans the previous labels with a strict `>`, so
    the first best one wins; the last position's best label is the first
    maximum, `delta.index(max(delta))`.
    """
    if not texts:
        return []
    emissions = _emissions(model.emission_weights, _feature_ids(model, texts)).tolist()
    columns = model.transitions.T.tolist()  # columns[j][i]: score of moving from i to j
    rest = range(1, model.n_labels)
    delta = emissions[0]
    back = []
    for row in emissions[1:]:
        pointers = []
        scores = []
        first = delta[0]
        for column, emission in zip(columns, row):
            best = 0
            best_score = first + column[0]
            for i in rest:
                score = delta[i] + column[i]
                if score > best_score:
                    best = i
                    best_score = score
            pointers.append(best)
            scores.append(best_score + emission)
        back.append(pointers)
        delta = scores
    best = delta.index(max(delta))
    path = [best]
    for pointers in reversed(back):
        best = pointers[best]
        path.append(best)
    path.reverse()
    labels = model.labels
    return [labels[i] for i in path]


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
        emissions = _emissions(weights, np.array([data.feature_ids[k] for k in members]))
        y = np.array([data.label_ids[k] for k in members])
        log_z = _logsumexp(_forward(emissions, transitions)[:, -1])
        total += float(np.sum(log_z - _gold_score(emissions, transitions, y)))
    return total + 0.5 * model.l2 * float(np.dot(model.weights, model.weights))


def train(model: CrfModel, data: Sequence[tuple[Sequence[str], Sequence[str]]],
          config: TrainConfig) -> list[float]:
    """Per-sequence SGD with a 1/(1 + decay*t) learning-rate schedule.

    Mutates the model in place (single-threaded) and returns the full-dataset
    NLL before training and after each epoch. The data is compiled once,
    which empties the model's per-sequence id memo; with l2 = 0 a step
    updates only the sequence's feature rows and the transitions, the only
    weights with a nonzero gradient.
    """
    if not data:
        raise ValidationError("empty training set")
    compiled = _compile(model, data)
    model._sequence_ids.clear()
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
                emission_weights, transitions, model.l2,
                compiled.feature_ids[idx], compiled.label_ids[idx])
            if not math.isfinite(nll):
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
