"""Linear-chain CRF with hand-rolled features, exact inference, and SGD training.

Features per position: the word itself, suffixes of length 1..3, an
uppercase-initial flag, an all-uppercase flag, a digit flag, and a bigram
conjunction of each with the previous token's value (a boundary symbol at
position 0). Feature strings map to indices through an explicit dictionary,
so scores are exactly reproducible. Training and the marginals run one scaled
forward-backward recursion in probability space; Viterbi decoding adds scores.
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
    `tuple(texts)`, until `_compile` takes it.
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


def _forward_backward(emissions: np.ndarray, transitions: np.ndarray,
                      marginals: bool = False):
    """The scaled forward-backward recursion (Rabiner 1989) over one sentence's emissions.

    `emissions` is [n, L], or [B, n, L] for B sentences of equal length. The
    recursion runs in probability space: `p = exp(emissions - row max)` and
    `moves = exp(transitions - max)` are taken once, and each forward
    position is one vector-matrix product, one multiply, one sum (the scale
    c_i) and one divide, so every alpha row sums to 1. log Z is the sum of
    log c_i plus the shifts put back. A scale that is zero (every label path
    underflowed) or not finite raises TrainingDiverged; there is no fallback
    to log space.

    Returns log Z, one per sentence. With `marginals` (one sentence only) it
    returns `(log_z, unary, expected_moves)`: the [n, L] label marginals and
    the [L, L] pairwise marginals summed over positions. The backward pass
    keeps `ahead[i] = p[i] * beta[i] / c_i`, from which both come.
    """
    dot, multiply, divide = np.dot, np.multiply, np.divide
    total_of, smallest = np.add.reduce, np.minimum.reduce
    shift = np.maximum.reduce(emissions, -1, None, None, True)
    p = np.exp(emissions - shift)
    top = np.maximum.reduce(transitions, None)
    moves = np.exp(transitions - top)
    by_position = p.swapaxes(-2, 0)  # [n, ..., L]
    batch = p.ndim > 2
    alpha = np.empty(by_position.shape)
    scales = np.empty(by_position.shape[:-1] + (1,))
    alpha[0] = by_position[0]
    previous = None
    for i, (out, emission, scale) in enumerate(zip(alpha, by_position, scales)):
        if previous is not None:
            dot(previous, moves, out)
            multiply(out, emission, out)
        total_of(out, -1, None, scale, True)
        if not (smallest(scale, None) if batch else scale[0]) > 0.0:
            raise TrainingDiverged(f"forward scale at position {i} is zero or not finite")
        divide(out, scale, out)
        previous = out
    n = len(alpha)
    log_z = (total_of(np.log(scales), 0) + total_of(shift, -2))[..., 0] + (n - 1) * top
    if not marginals:
        return log_z
    ahead = divide(p, scales, p)
    beta = np.empty_like(p)
    beta[-1] = 1.0
    # Position i reads ahead[i + 1], writes beta[i] and then ahead[i], for i = n-2 .. 0.
    for following, out, current in zip(ahead[:0:-1], beta[-2::-1], ahead[-2::-1]):
        dot(moves, following, out)
        multiply(current, out, current)
    expected_moves = dot(alpha[:-1].T, ahead[1:])
    multiply(expected_moves, moves, expected_moves)
    return log_z, multiply(alpha, beta, beta), expected_moves


def _gold_score(emissions: np.ndarray, transitions: np.ndarray, gold: np.ndarray,
                pairs: np.ndarray) -> float:
    """Total score of the gold paths: `gold` and `pairs` index the flattened arrays."""
    total_of = np.add.reduce
    return float(total_of(emissions.take(gold), None) + total_of(transitions.take(pairs), None))


@dataclass(frozen=True)
class _Compiled:
    """Sentences compiled against one model, everything an SGD step needs but the weights.

    Sentence k's arrays sit at index k of four lists; `compiled[k]` gives
    them as one tuple. Numpy arrays are not tracked by the garbage
    collector, so compiling adds no long-lived objects for it to walk.
    `rows[k]` are its distinct feature ids, sorted, -1 first if the model
    lacks a feature; `local[k]` (int32 [14, n], feature-major like
    `_emissions`) indexes them, so `rows[k][local[k]].T` are the `[n, 14]`
    ids of each position's feature strings. `gold[k][i] = i*L + y_i` and
    `pairs[k][i] = y_i*L + y_(i+1)` index the gold labels in the flattened
    [n, L] emissions and the gold moves in the flattened [L, L] transitions.
    """

    rows: list[np.ndarray]
    local: list[np.ndarray]
    gold: list[np.ndarray]
    pairs: list[np.ndarray]

    def __getitem__(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return self.rows[k], self.local[k], self.gold[k], self.pairs[k]


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
    """Compile each (texts, labels) pair into the arrays an SGD step reads, once.

    A sequence that `build` already mapped takes its ids out of the model's
    memo, so the ids and their compiled form are not both held for long.
    Everything here depends only on the sentence, so `train` does it once
    rather than on every step of every epoch.
    """
    known = model._sequence_ids
    n_labels = model.n_labels
    compiled = _Compiled([], [], [], [])
    for k, (texts, labels) in enumerate(data):
        if len(texts) != len(labels):
            raise ValidationError(f"sequence {k}: {len(texts)} tokens vs {len(labels)} labels")
        if not texts:
            raise ValidationError(f"sequence {k} is empty")
        ids = known.pop(tuple(texts), None)
        if ids is None:
            ids = _feature_ids(model, texts)
        rows, local = np.unique(ids.T, return_inverse=True)
        y = np.array(model.label_ids(labels), dtype=np.int32)
        compiled.rows.append(rows)
        compiled.local.append(local.reshape(ids.T.shape).astype(np.int32))
        compiled.gold.append(np.arange(len(y), dtype=np.int32) * n_labels + y)
        compiled.pairs.append(y[:-1] * n_labels + y[1:])
    return compiled


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
    """log Z by the scaled forward recursion."""
    emissions = _emissions(model.emission_weights, _feature_ids(model, texts))
    return float(_forward_backward(emissions, model.transitions))


def sequence_score(model: CrfModel, texts: Sequence[str], labels: Sequence[str]) -> float:
    rows, local, gold, pairs = _compile(model, [(texts, labels)])[0]
    emissions = _emissions(model.emission_weights, rows[local].T)
    return _gold_score(emissions, model.transitions, gold, pairs)


def posterior_marginals(model: CrfModel, texts: Sequence[str]) -> np.ndarray:
    """Per-position label marginals; each row sums to 1."""
    emissions = _emissions(model.emission_weights, _feature_ids(model, texts))
    return _forward_backward(emissions, model.transitions, marginals=True)[1]


def _sentence_gradient(emission_weights: np.ndarray, transitions: np.ndarray, l2: float,
                       sentence: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
                       ) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """NLL of one compiled sentence, `_Compiled[k]`, without the L2 term, and its gradient.

    Returns `(nll, rows, emission_grad, transition_grad)`. The gradient is
    model expectations (forward-backward marginals) minus empirical counts,
    plus l2 * weights; outside the feature ids `rows` and the transition
    block it is just l2 * weights.
    """
    rows, local, gold, pairs = sentence
    table = emission_weights[rows]
    emission_grad = l2 * table
    first = 1 if rows[0] < 0 else 0  # id -1 stands for features the model lacks
    if first:
        table[0] = 0.0
    emissions = np.add.reduce(table[local], 0)
    log_z, unary, transition_grad = _forward_backward(emissions, transitions, marginals=True)
    nll = float(log_z) - _gold_score(emissions, transitions, gold, pairs)
    np.subtract.at(unary.reshape(-1), gold, 1.0)
    np.add.at(emission_grad, local, unary)
    if l2:
        transition_grad += l2 * transitions
    np.subtract.at(transition_grad.reshape(-1), pairs, 1.0)
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
    sentence = _compile(model, [(texts, gold_labels)])[0]
    nll, *sparse = _sentence_gradient(model.emission_weights, model.transitions, model.l2,
                                      sentence)
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


# Sequences per batched forward recursion in `dataset_nll`.
_NLL_BATCH = 64


def dataset_nll(model: CrfModel,
                data: Sequence[tuple[Sequence[str], Sequence[str]]] | _Compiled) -> float:
    """NLL of every sequence plus the L2 term.

    `data` is (texts, labels) pairs or their `_compile` result. One
    forward recursion runs over up to `_NLL_BATCH` sequences of one length
    at once; the bound keeps the `[14, n, B, L]` emission gather small.
    """
    if not isinstance(data, _Compiled):
        data = _compile(model, data)
    by_length: dict[int, list[int]] = {}
    for k, gold in enumerate(data.gold):
        by_length.setdefault(len(gold), []).append(k)
    weights = model.emission_weights
    transitions = model.transitions
    total = 0.0
    for n, group in by_length.items():
        for start in range(0, len(group), _NLL_BATCH):
            members = group[start:start + _NLL_BATCH]
            ids = np.array([data.rows[k][data.local[k]].T for k in members])
            emissions = _emissions(weights, ids)
            # Offset each sentence's gold indices to its block of the flattened batch.
            offsets = np.arange(0, emissions.size, n * model.n_labels)[:, None]
            gold = np.array([data.gold[k] for k in members]) + offsets
            pairs = np.array([data.pairs[k] for k in members])
            total += (float(np.add.reduce(_forward_backward(emissions, transitions)))
                      - _gold_score(emissions, transitions, gold, pairs))
    return total + 0.5 * model.l2 * float(np.dot(model.weights, model.weights))


def train(model: CrfModel, data: Sequence[tuple[Sequence[str], Sequence[str]]],
          config: TrainConfig) -> list[float]:
    """Per-sequence SGD with a 1/(1 + decay*t) learning-rate schedule.

    Mutates the model in place (single-threaded) and returns the full-dataset
    NLL before training and after each epoch. The data is compiled once,
    which empties the model's per-sequence id memo; with l2 = 0 a step
    updates only the sequence's feature rows and the transitions, the only
    weights with a nonzero gradient. A step whose forward scale is zero or
    not finite, or whose NLL is not finite, raises TrainingDiverged naming
    the epoch and the step; the NLL after an epoch, naming the epoch.
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
            try:
                nll, rows, emission_grad, transition_grad = _sentence_gradient(
                    emission_weights, transitions, model.l2, compiled[idx])
                if not math.isfinite(nll):
                    raise TrainingDiverged("NLL became non-finite")
            except TrainingDiverged as exc:
                raise TrainingDiverged(
                    f"{exc} at epoch {epoch}, step {step} "
                    f"(lr={config.learning_rate}, decay={config.decay})") from None
            lr = config.learning_rate / (1.0 + config.decay * step)
            if model.l2:
                model.weights -= lr * _dense_gradient(model, rows, emission_grad, transition_grad)
            else:
                emission_weights[rows] -= lr * emission_grad
                transitions -= lr * transition_grad
            step += 1
        try:
            history.append(dataset_nll(model, compiled))
            if not math.isfinite(history[-1]):
                raise TrainingDiverged("NLL became non-finite")
        except TrainingDiverged as exc:
            raise TrainingDiverged(f"{exc} after epoch {epoch}") from None
    return history
