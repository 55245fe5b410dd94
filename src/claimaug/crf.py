"""Linear-chain CRF with hand-rolled features, exact inference, and SGD training.

Features per position: the word itself, suffixes of length 1..3, an
uppercase-initial flag, an all-uppercase flag, a digit flag, and a bigram
conjunction of each with the previous token's value (a boundary symbol at
position 0). Feature strings map to indices through an explicit dictionary,
so scores are exactly reproducible. As CRFsuite stores each item's
attributes once as integer ids, a per-model memo keeps the ids of each
distinct token and of each distinct token pair packed as int32 bytes, so a
sequence's [n, 14] ids are one join of memo entries. Training and the
marginals run one scaled forward-backward recursion in probability space;
Viterbi decoding adds scores. Compilation, the epoch NLL and `decode` work
in chunks of up to 64 sentences of one length; `viterbi` decodes one.
"""

from __future__ import annotations

import json
import math
import random
import struct
from dataclasses import dataclass, field
from operator import concat
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import TrainingDiverged, ValidationError
from .util import atomic_write_text, check_model_dict, number_array

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


# A packed id group: the ids of one position's seven unigrams or seven
# bigrams as standard-size ("=") int32 values in native byte order, which
# `np.frombuffer` reads as `np.int32` on every platform.
_pack_ids = struct.Struct(f"={len(_TEMPLATES)}i").pack

# The id `_feature_ids` gives each of a group's strings that the model lacks.
_ABSENT = (-1,) * len(_TEMPLATES)

# A packer maps a group's seven feature strings to their packed ids.
_Packer = Callable[[Iterable[str]], bytes]

# A `_token_memo` entry: (values, packed unigram ids, bigram prefixes, pairs),
# where pairs maps a next token to the packed ids of the bigrams the two form.
_MemoEntry = tuple[tuple[str, ...], bytes, tuple[str, ...], dict[str, bytes]]


def _memo_entry(token: str, pack: _Packer) -> _MemoEntry:
    """A new `_token_memo` entry for `token`, with no pairs yet.

    `pack` gives the ids of the unigram strings. Only a memo miss comes
    here, so this is where an empty token is rejected.
    """
    if not token:
        raise ValidationError("empty token")
    values = _values(token)
    return (values, pack(f"{name}={value}" for name, value in zip(_TEMPLATES, values)),
            _bigram_prefixes(values), {})


@dataclass
class CrfModel:
    """Label set, feature dictionary, and one dense weight vector.

    Weights are laid out as F*L emission weights (feature-major) followed by
    L*L transition weights. Three memos are never serialized. `_token_memo`
    maps each distinct token to `(values, unigram_ids, bigram_prefixes,
    pairs)`: its seven template values, the packed int32 ids of its seven
    unigram strings, the seven bigram strings it starts as the previous
    token (each missing only the next token's value), and a dict from each
    token seen after it to the packed ids of the seven bigrams of that pair.
    `_start_pairs` is the same pairs dict for the sentence start. `_groups`
    maps each packed id group `_feature_ids` makes to its first bytes
    object, so equal groups in the other two are one object; `build` makes
    new ids, so its groups are not shared. All three hold ids, never
    weights, which `train` and callers change in place; they grow by about
    100 bytes per distinct token pair and go with the model.
    After `build` they hold every token and token pair of its sequences, so
    `_feature_ids` on a training sequence formats no feature string.
    """

    labels: tuple[str, ...]
    feature_index: dict[str, int]
    weights: np.ndarray
    _token_memo: dict[str, _MemoEntry] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _start_pairs: dict[str, bytes] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _groups: dict[bytes, bytes] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def build(cls, labels: Sequence[str], token_seqs: Sequence[Sequence[str]]) -> "CrfModel":
        """A zero-weight model over the features of `token_seqs`, in one pass.

        Ids follow first appearance in `extract_features` order: position by
        position, a position's unigrams and then its bigrams, each in
        `_TEMPLATES` order. `_packed_ids` assigns them as it fills the
        memos, so each distinct token's unigram strings and each distinct
        token pair's bigram strings are formatted and looked up once. The
        packed ids are dropped: what `build` keeps is the index and the
        memos, from which `_compile` reads each sequence's ids again.
        """
        model = cls(labels=tuple(labels), feature_index={}, weights=np.zeros(0))
        index = model.feature_index
        add = index.setdefault

        def pack(features: Iterable[str]) -> bytes:
            return _pack_ids(*[add(feature, len(index)) for feature in features])

        for texts in token_seqs:
            _packed_ids(model, texts, pack)
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

    def predict(self, texts: Sequence[str]) -> list[str]:
        return viterbi(self, texts)

    def to_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "labels": list(self.labels),
            "feature_index": self.feature_index,
            "weights": self.weights.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CrfModel":
        check_model_dict(data, FORMAT_VERSION, {"labels", "feature_index", "weights"}, "labels")
        labels, index = data["labels"], data["feature_index"]
        ids = list(index.values()) if type(index) is dict else None
        if (ids is None or not all(type(i) is int for i in ids)
                or sorted(ids) != list(range(len(ids)))):
            raise ValidationError("feature ids must be exactly 0..F-1, each used once")
        weights = number_array(data["weights"], "weights", 1)
        model = cls(labels=tuple(labels), feature_index=dict(index), weights=weights)
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
    l2: float = 0.0

    def __post_init__(self):
        for name in ("learning_rate", "decay"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.epochs < 1 or self.learning_rate <= 0 or self.decay < 0:
            raise ValidationError("hyperparameters must be positive (decay >= 0)")
        if not 0.0 <= self.l2 < math.inf:
            raise ValidationError(f"l2 must be finite and >= 0, got {self.l2!r}")


def _forward_backward(emissions: np.ndarray, transitions: np.ndarray):
    """The scaled forward-backward recursion (Rabiner 1989) over one sentence's emissions.

    `emissions` is [n, L], or [B, n, L] for B sentences of equal length. The
    recursion runs in probability space: `p = exp(emissions - row max)` and
    `moves = exp(transitions - max)` are taken once, and each forward
    position is one vector-matrix product, one multiply, one sum (the scale
    c_i) and one divide, so every alpha row sums to 1. log Z is the sum of
    log c_i plus the shifts put back. A scale that is zero (every label path
    underflowed) or not finite raises TrainingDiverged; there is no fallback
    to log space.

    A batch gets log Z, one per sentence. One sentence gets `(log_z, unary,
    expected_moves)`: the [n, L] label marginals and the [L, L] pairwise
    marginals summed over positions. The backward pass keeps
    `ahead[i] = p[i] * beta[i] / c_i`, from which both come.
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
    if batch:
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
    `chunks` holds `(ids, gold, pairs)` for each `_length_chunks` chunk of B
    sentences of length n: their int32 [B, n, 14] ids, the [B, n] gold
    indices into the flattened [B, n, L] emissions, and their [B, n - 1]
    pairs. `dataset_nll` reads only these.
    """

    rows: list[np.ndarray]
    local: list[np.ndarray]
    gold: list[np.ndarray]
    pairs: list[np.ndarray]
    chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]]

    def __getitem__(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return self.rows[k], self.local[k], self.gold[k], self.pairs[k]


def _packed_ids(model: CrfModel, texts: Sequence[str], pack: _Packer) -> bytes:
    """The ids of `extract_features(texts)` as packed int32 bytes, 14 per position.

    The one loop over a sequence's tokens: `build` passes a `pack` that
    adds missing strings to the index, `_feature_ids` one that gives -1. Per
    position it joins two packed groups: the token's unigram ids from its
    `_token_memo` entry, and the bigram ids of the pair it forms with the
    previous token (or the sentence start), from the previous entry's pairs.
    A missing entry or pair is made once and kept, so a string is only
    formatted and looked up the first time its token or pair appears.
    """
    memo = model._token_memo
    parts: list[bytes] = []
    append = parts.append
    prefixes, pairs = _BOUNDARY_PREFIXES, model._start_pairs
    for token in texts:
        entry = memo.get(token)
        if entry is None:
            entry = memo[token] = _memo_entry(token, pack)
        values, unigram_ids, following, next_pairs = entry
        bigram_ids = pairs.get(token)
        if bigram_ids is None:
            bigram_ids = pairs[token] = pack(map(concat, prefixes, values))
        append(unigram_ids)
        append(bigram_ids)
        prefixes, pairs = following, next_pairs
    return b"".join(parts)


def _feature_ids(model: CrfModel, texts: Sequence[str]) -> np.ndarray:
    """int32 [n, 14] ids of each position's feature strings, -1 where the model lacks one.

    The ids are those of `extract_features(texts)`, read from the model's
    memos by `_packed_ids`. The array is a read-only view of one bytes
    object; nothing writes to it.
    """
    get = model.feature_index.get
    share = model._groups.setdefault

    def pack(features: Iterable[str]) -> bytes:
        group = _pack_ids(*map(get, features, _ABSENT))
        return share(group, group)

    packed = _packed_ids(model, texts, pack)
    return np.frombuffer(packed, np.int32).reshape(-1, _N_FEATURES)


# Sentences per chunk of `_length_chunks`. The bound keeps a chunk's
# `[14, n, B, L]` emission gather small.
_CHUNK = 64


def _length_chunks(lengths: Sequence[int]) -> Iterator[tuple[int, list[int]]]:
    """`(n, members)`: the indices of up to `_CHUNK` sequences of length n at a time.

    Lengths come in order of first appearance, and each length's indices in
    increasing order, so a sum over the chunks adds in one fixed order.
    """
    by_length: dict[int, list[int]] = {}
    for k, n in enumerate(lengths):
        by_length.setdefault(n, []).append(k)
    for n, group in by_length.items():
        for start in range(0, len(group), _CHUNK):
            yield n, group[start:start + _CHUNK]


def _compile(model: CrfModel,
             data: Sequence[tuple[Sequence[str], Sequence[str]]]) -> _Compiled:
    """Compile each (texts, labels) pair into the arrays an SGD step reads, once.

    Each sequence's ids come from `_feature_ids`; on the sequences `build`
    saw, every token and token pair is a memo hit. Everything here depends
    only on the sentence, so `train` does it once rather than on every step
    of every epoch. A first pass checks each pair and takes its ids and
    label ids, in order, so the first bad pair raises. Each `_length_chunks`
    chunk then gives every member's `rows` and `local` at once: an argsort
    of each sentence's feature-major ids, a mark where a run of equal ids
    starts and a cumulative sum number the runs, which are `np.unique`'s
    sorted values and inverse. Equal ids get one run number in any order,
    so the sort need not be stable.
    """
    n_labels = model.n_labels
    table = {label: i for i, label in enumerate(model.labels)}
    sequence_ids, label_ids = [], []
    for k, (texts, labels) in enumerate(data):
        if len(texts) != len(labels):
            raise ValidationError(f"sequence {k}: {len(texts)} tokens vs {len(labels)} labels")
        if not texts:
            raise ValidationError(f"sequence {k} is empty")
        sequence_ids.append(_feature_ids(model, texts))
        try:
            label_ids.append([table[label] for label in labels])
        except KeyError as exc:
            raise ValidationError(f"label {exc.args[0]!r} not in model label set")
    size = len(sequence_ids)
    compiled = _Compiled([None] * size, [None] * size, [None] * size, [None] * size, [])
    for n, members in _length_chunks([len(y) for y in label_ids]):
        ids = np.array([sequence_ids[k] for k in members])  # [B, n, 14]
        y = np.array([label_ids[k] for k in members], dtype=np.int32)  # [B, n]
        width = _N_FEATURES * n
        by_feature = ids.swapaxes(1, 2).reshape(len(members), width)
        order = np.argsort(by_feature, 1)
        ordered = np.take_along_axis(by_feature, order, 1)
        starts = np.empty(ordered.shape, bool)
        starts[:, 0] = True
        np.not_equal(ordered[:, 1:], ordered[:, :-1], starts[:, 1:])
        runs = np.cumsum(starts, 1, np.int32)
        runs -= 1
        local = np.empty_like(runs)
        np.put_along_axis(local, order, runs, 1)
        distinct = ordered[starts]
        bounds = [0, *np.cumsum(runs[:, -1] + 1).tolist()]
        gold = np.arange(n, dtype=np.int32) * n_labels + y
        pairs = y[:, :-1] * n_labels + y[:, 1:]
        for b, k in enumerate(members):
            compiled.rows[k] = distinct[bounds[b]:bounds[b + 1]]
            compiled.local[k] = local[b].reshape(_N_FEATURES, n)
            compiled.gold[k] = gold[b]
            compiled.pairs[k] = pairs[b]
        # Offset each sentence's gold indices to its block of the flattened chunk.
        offsets = np.arange(0, len(members) * n * n_labels, n * n_labels)[:, None]
        compiled.chunks.append((ids, gold + offsets, pairs))
    return compiled


def _emissions(emission_weights: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Emission scores [..., n, L] of compiled feature ids [..., n, 14]; id -1 adds nothing.

    The gather is feature-major, `[14, n, ..., L]`, so the sum over
    features is 13 adds of whole `[n, ..., L]` blocks in feature order,
    not n·14 short inner loops, and its bits are those of the sum over
    axis -2 of `[..., n, 14, L]`. `swapaxes` puts the positions back in
    front of the labels.

    The gather stays fancy indexing, not `emission_weights.take(ids.T, 0)`.
    With one label numpy lays the indexed result out position-major
    (strides `(8, 112, 8)` for n = 7), so the reduce runs over a contiguous
    axis with pairwise summation, which gives the bits of the sum over axis
    -2. `take` returns C order and sums sequentially, which
    `test_emissions_match_oracle` catches on a one-label model; with five
    labels its bits agree and it cut the gather over 7,006 sentences from
    0.101 to 0.075 s.
    """
    by_feature = ids.T
    rows = emission_weights[by_feature]
    rows[by_feature < 0] = 0.0
    return np.add.reduce(rows, 0).swapaxes(0, -2)


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
    log_z, unary, transition_grad = _forward_backward(emissions, transitions)
    nll = float(log_z) - _gold_score(emissions, transitions, gold, pairs)
    np.subtract.at(unary.reshape(-1), gold, 1.0)
    np.add.at(emission_grad, local, unary)
    if l2:
        transition_grad += l2 * transitions
    np.subtract.at(transition_grad.reshape(-1), pairs, 1.0)
    return nll, rows[first:], emission_grad[first:], transition_grad


def _dense_gradient(model: CrfModel, l2: float, rows: np.ndarray, emission_grad: np.ndarray,
                    transition_grad: np.ndarray) -> np.ndarray:
    grad = l2 * model.weights
    split = len(model.feature_index) * model.n_labels
    grad[:split].reshape(-1, model.n_labels)[rows] = emission_grad
    grad[split:] = transition_grad.ravel()
    return grad


def nll_and_gradient(model: CrfModel, texts: Sequence[str], gold_labels: Sequence[str],
                     l2: float = 0.0) -> tuple[float, np.ndarray]:
    """Negative log-likelihood with an L2 term, and its exact dense gradient.

    Gradient = model expectations (forward-backward marginals) minus
    empirical counts, plus l2 * weights.
    """
    sentence = _compile(model, [(texts, gold_labels)])[0]
    nll, *sparse = _sentence_gradient(model.emission_weights, model.transitions, l2, sentence)
    nll += 0.5 * l2 * float(np.dot(model.weights, model.weights))
    return nll, _dense_gradient(model, l2, *sparse)


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


def decode(model: CrfModel, seqs: Sequence[Sequence[str]]) -> list[list[str]]:
    """`viterbi` of every sequence, run over `_length_chunks` chunks of one length at once.

    Per position a chunk takes one `[B, L, L]` add of the previous scores
    and the transitions, the first-index `argmax` over the previous label
    and the `[B, L]` add of the emissions: the float64 adds of `viterbi`, in
    its order, with its tie rule, so the paths are its paths. A numpy
    recursion costs more than the scalar one on a single sentence, which is
    why `CrfModel.predict` stays on `viterbi`.
    """
    ids = [_feature_ids(model, texts) for texts in seqs]
    weights = model.emission_weights
    transitions = model.transitions
    labels = model.labels
    decoded: list[list[str]] = [[] for _ in ids]
    for n, members in _length_chunks([len(x) for x in ids]):
        if not n:
            continue
        emissions = _emissions(weights, np.array([ids[k] for k in members]))  # [B, n, L]
        delta = emissions[:, 0]
        back = []
        for i in range(1, n):
            scores = delta[:, :, None] + transitions  # [B, previous, next]
            pointers = np.argmax(scores, 1)
            back.append(pointers)
            delta = np.take_along_axis(scores, pointers[:, None], 1)[:, 0] + emissions[:, i]
        best = np.argmax(delta, 1)
        path = [best]
        chunk = np.arange(len(members))
        for pointers in reversed(back):
            best = pointers[chunk, best]
            path.append(best)
        for k, row in zip(members, np.array(path[::-1]).T.tolist()):
            decoded[k] = [labels[i] for i in row]
    return decoded


def dataset_nll(model: CrfModel, data: Sequence[tuple[Sequence[str], Sequence[str]]] | _Compiled,
                l2: float = 0.0) -> float:
    """NLL of every sequence plus the L2 term.

    `data` is (texts, labels) pairs or their `_compile` result. One
    forward recursion runs over each `_length_chunks` chunk of sequences of
    one length, from the ids `_compile` stacked for it.
    """
    if not isinstance(data, _Compiled):
        data = _compile(model, data)
    weights = model.emission_weights
    transitions = model.transitions
    total = 0.0
    for ids, gold, pairs in data.chunks:
        emissions = _emissions(weights, ids)
        total += (float(np.add.reduce(_forward_backward(emissions, transitions)))
                  - _gold_score(emissions, transitions, gold, pairs))
    return total + 0.5 * l2 * float(np.dot(model.weights, model.weights))


def train(model: CrfModel, data: Sequence[tuple[Sequence[str], Sequence[str]]],
          config: TrainConfig) -> list[float]:
    """Per-sequence SGD with a 1/(1 + decay*t) learning-rate schedule.

    Mutates the model in place (single-threaded) and returns the full-dataset
    NLL before training and after each epoch. The data is compiled once,
    from the ids of the memos `build` filled; with l2 = 0 a step updates
    only the sequence's feature rows and the transitions, the only
    weights with a nonzero gradient. A step whose forward scale is zero or
    not finite, or whose NLL is not finite, raises TrainingDiverged naming
    the epoch and the step; the NLL after an epoch, naming the epoch.
    """
    if not data:
        raise ValidationError("empty training set")
    compiled = _compile(model, data)
    rng = random.Random(config.seed)
    order = list(range(len(data)))
    history = [dataset_nll(model, compiled, config.l2)]
    emission_weights = model.emission_weights
    transitions = model.transitions
    step = 0
    for epoch in range(config.epochs):
        rng.shuffle(order)
        for idx in order:
            try:
                nll, rows, emission_grad, transition_grad = _sentence_gradient(
                    emission_weights, transitions, config.l2, compiled[idx])
                if not math.isfinite(nll):
                    raise TrainingDiverged("NLL became non-finite")
            except TrainingDiverged as exc:
                raise TrainingDiverged(
                    f"{exc} at epoch {epoch}, step {step} "
                    f"(lr={config.learning_rate}, decay={config.decay})") from None
            lr = config.learning_rate / (1.0 + config.decay * step)
            if config.l2:
                model.weights -= lr * _dense_gradient(model, config.l2, rows, emission_grad,
                                                      transition_grad)
            else:
                emission_weights[rows] -= lr * emission_grad
                transitions -= lr * transition_grad
            step += 1
        try:
            history.append(dataset_nll(model, compiled, config.l2))
            if not math.isfinite(history[-1]):
                raise TrainingDiverged("NLL became non-finite")
        except TrainingDiverged as exc:
            raise TrainingDiverged(f"{exc} after epoch {epoch}") from None
    return history
