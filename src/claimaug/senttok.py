"""Sentence splitting, majority-label assignment, and label projection.

The splitter is rule based: a boundary is placed after a token that ends in
sentence-final punctuation (. ! ?) unless the word carrying it, or the word
before a detached punctuation token, is on the abbreviation list. A versioned
abbreviation list ships with the package (one entry per line, case-sensitive).
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Sequence

from .corpus import Document, LabelSchema
from .errors import ValidationError

_TERMINALS = ".!?"


@dataclass(frozen=True)
class LabeledSentence:
    """A sentence slice of a document plus its derived majority label."""

    doc_id: str
    sent_index: int
    texts: tuple[str, ...]
    token_labels: tuple[str, ...]
    sentence_label: str

    def __post_init__(self):
        object.__setattr__(self, "texts", tuple(self.texts))
        object.__setattr__(self, "token_labels", tuple(self.token_labels))
        if len(self.texts) != len(self.token_labels) or not self.texts:
            raise ValidationError("sentence needs equally many tokens and labels, at least one")


@dataclass(frozen=True)
class PurityStats:
    n_sentences: int
    n_uniform: int
    per_class: dict[str, int]

    @property
    def uniform_fraction(self) -> float:
        return self.n_uniform / self.n_sentences if self.n_sentences else 0.0


@functools.cache
def default_abbreviations() -> frozenset[str]:
    """The bundled abbreviation list, read from the package once per process."""
    text = resources.files("claimaug").joinpath("data/abbreviations.txt").read_text("utf-8")
    return frozenset(line.strip() for line in text.splitlines() if line.strip())


def _is_boundary(texts: Sequence[str], i: int, abbreviations: frozenset[str]) -> bool:
    """Whether token i, which ends in terminal punctuation, ends its sentence."""
    text = texts[i]
    stem = text.rstrip(_TERMINALS)
    if stem:
        return stem not in abbreviations
    # Detached punctuation token: the word before it decides.
    if i == 0:
        return True
    prev = texts[i - 1]
    prev_stem = prev.rstrip(_TERMINALS) or prev
    return prev_stem not in abbreviations


def split_sentences(document: Document, schema: LabelSchema) -> list[LabeledSentence]:
    """Split a document into sentences; tokens are conserved exactly.

    Every token lands in exactly one sentence, in the original order, so the
    concatenation of the returned sentences equals the document.
    """
    texts = document.texts
    if not texts:
        raise ValidationError(f"document {document.id} has no tokens")
    abbreviations = default_abbreviations()
    last = len(texts) - 1
    ends = [i for i, text in enumerate(texts)
            if text[-1] in _TERMINALS and i < last and _is_boundary(texts, i, abbreviations)]
    ends.append(last)
    sentences = []
    start = 0
    for end in ends:
        labels = document.token_labels[start:end + 1]
        sentences.append(LabeledSentence(
            doc_id=document.id,
            sent_index=len(sentences),
            texts=texts[start:end + 1],
            token_labels=labels,
            sentence_label=majority_label(labels, schema),
        ))
        start = end + 1
    return sentences


def majority_label(token_labels: Sequence[str], schema: LabelSchema) -> str:
    """The most frequent label; ties go to the rarest class by training frequency.

    Remaining ties fall back to schema order (categories as declared, outside
    label last), which makes the result deterministic.
    """
    if not token_labels:
        raise ValidationError("majority_label needs a non-empty label sequence")
    first = token_labels[0]
    if 2 * token_labels.count(first) > len(token_labels):
        return first  # on more than half the tokens, so no other label ties it
    counts = Counter(token_labels)
    best_count = max(counts.values())
    tied = [label for label, c in counts.items() if c == best_count]
    if len(tied) == 1:
        return tied[0]
    return min(tied, key=lambda l: (schema.freq(l), schema.tie_order(l)))


def project_labels(sentence_label: str, n_tokens: int) -> tuple[str, ...]:
    """Broadcast a sentence label onto each of its tokens."""
    if n_tokens < 1:
        raise ValidationError("n_tokens must be >= 1")
    return (sentence_label,) * n_tokens


def purity_stats(sentences: Iterable[LabeledSentence]) -> PurityStats:
    n_sentences = 0
    n_uniform = 0
    per_class: Counter[str] = Counter()
    for sent in sentences:
        n_sentences += 1
        per_class[sent.sentence_label] += 1
        if len(set(sent.token_labels)) == 1:
            n_uniform += 1
    return PurityStats(n_sentences=n_sentences, n_uniform=n_uniform, per_class=dict(per_class))
