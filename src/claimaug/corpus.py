"""Token-labeled corpus model, file formats, and dataset statistics.

File formats:
  * token-label file: UTF-8, one `token<TAB>label` per line, blank line
    between documents (CoNLL style).
  * schema config: `key = value` lines declaring `outside`, `categories`
    (comma separated) and optional `freq.<label>` token counts.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, NoReturn, Protocol, Sequence

from .errors import ParseError, SchemaError, ValidationError
from .util import decode_text, parse_kv_config


@dataclass(frozen=True)
class LabelSchema:
    """Label inventory: the outside label plus ordered category names.

    `train_freq` holds per-label token counts from training data, used to
    break majority-vote ties in favor of the rarest class. Labels without a
    recorded frequency are treated as infinitely frequent so a recorded
    minority always wins the tie.
    """

    outside_label: str
    categories: tuple[str, ...]
    train_freq: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "categories", tuple(self.categories))
        if not self.categories:
            raise SchemaError("schema needs at least one category")
        if not self.outside_label or "" in self.categories:
            raise SchemaError("schema labels must not be empty, got outside "
                              f"{self.outside_label!r} and categories {self.categories}")
        if len(set(self.categories)) != len(self.categories):
            raise SchemaError(f"duplicate categories: {self.categories}")
        if self.outside_label in self.categories:
            raise SchemaError(f"outside label {self.outside_label!r} also listed as category")
        for label, freq in self.train_freq.items():
            if label not in self.labels:
                raise SchemaError(f"frequency for unknown label {label!r}")
            if freq < 0:
                raise SchemaError(f"negative frequency for {label!r}")

    @property
    def labels(self) -> tuple[str, ...]:
        return (self.outside_label,) + self.categories

    def check(self, label: str) -> None:
        if label != self.outside_label and label not in self.categories:
            raise SchemaError(f"unknown label {label!r} (schema: {', '.join(self.labels)})")

    def freq(self, label: str) -> float:
        return self.train_freq.get(label, math.inf)

    def tie_order(self, label: str) -> int:
        # Categories in declared order, outside label last.
        if label == self.outside_label:
            return len(self.categories)
        return self.categories.index(label)

    def with_train_freq(self, train_freq: Mapping[str, int]) -> "LabelSchema":
        return replace(self, train_freq=dict(train_freq))


@dataclass(frozen=True)
class Document:
    """One block of a token-label file: token strings and their labels."""

    id: str
    texts: tuple[str, ...]
    token_labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "texts", tuple(self.texts))
        object.__setattr__(self, "token_labels", tuple(self.token_labels))
        if len(self.texts) != len(self.token_labels):
            raise ValidationError(
                f"document {self.id}: {len(self.texts)} tokens vs {len(self.token_labels)} labels"
            )

    def validate_against(self, schema: LabelSchema) -> None:
        for label in self.token_labels:
            schema.check(label)


@dataclass(frozen=True)
class Dataset:
    schema: LabelSchema
    documents: tuple[Document, ...]

    def __post_init__(self):
        object.__setattr__(self, "documents", tuple(self.documents))
        labels = frozenset(self.schema.labels)
        for doc in self.documents:
            if not labels.issuperset(doc.token_labels):
                doc.validate_against(self.schema)


@dataclass(frozen=True)
class CorpusStats:
    n_texts: int
    n_unique_words: int
    max_length: int
    label_dist: Mapping[str, int]


def parse_schema_config(text: str) -> LabelSchema:
    """Parse the schema sidecar config into a LabelSchema."""
    entries = parse_kv_config(text)
    if "outside" not in entries:
        raise ParseError("schema config missing 'outside'")
    if "categories" not in entries:
        raise ParseError("schema config missing 'categories'")
    outside = entries.pop("outside")
    categories = tuple(c.strip() for c in entries.pop("categories").split(",") if c.strip())
    freq: dict[str, int] = {}
    for key, value in entries.items():
        if not key.startswith("freq."):
            raise ParseError(f"unknown schema config key {key!r}")
        try:
            freq[key[len("freq."):]] = int(value)
        except ValueError:
            raise ParseError(f"frequency {key!r} must be an integer, got {value!r}")
    return LabelSchema(outside_label=outside, categories=categories, train_freq=freq)


def format_schema_config(schema: LabelSchema) -> str:
    lines = [
        f"outside = {schema.outside_label}",
        f"categories = {', '.join(schema.categories)}",
    ]
    for label in schema.labels:
        if label in schema.train_freq:
            lines.append(f"freq.{label} = {schema.train_freq[label]}")
    return "\n".join(lines) + "\n"


_WHITESPACE = re.compile(r"\s")
# Second argument of `map(operator.contains, lines, _TABS)`: "\t" for every line.
_TABS = itertools.repeat("\t")


def parse_token_label_file(data: bytes, schema: LabelSchema) -> Dataset:
    """Parse a token-label file into a Dataset, one Document per block.

    Token text must be non-empty and free of whitespace. A corpus enters the
    program here, so this is where the check lives, with the line number.
    Each block is checked as a whole: its lines joined by tabs must split
    into token, label pairs, one per line. Only a block that fails is read
    line by line, to raise the first fault with its line number. The bytes
    are decoded by `decode_text`. Equal token texts and labels
    across the whole file are one string object each, so a corpus holds one
    string per distinct token or label rather than one per token.

    The text is split at each pair of line feeds (LF LF) and read one chunk
    at a time, so only one chunk's lines are held as strings at once. A
    file whose blocks are separated only by CR LF CR LF holds no LF LF: it
    is one chunk, parsed the same but with every line held at once.
    """
    text = decode_text(data)
    known = frozenset(schema.labels)
    documents: list[Document] = []
    # Maps each text to its first string object, so equal texts share one.
    shared: dict[str, str] = {}
    first_line = 1
    for chunk in text.split("\n\n"):
        # The chunk with its "\n\n" put back: its lines, then the empty line
        # that ends its last block (after the last chunk, a sentinel).
        lines = (chunk + "\n\n").splitlines()
        start = 0
        # A blank or whitespace-only line ends a block.
        for end, raw in enumerate(lines):
            if raw and not raw.isspace():
                continue
            if end > start:
                block = lines[start:end]
                fields = "\t".join(block).split("\t")
                texts, labels = fields[0::2], fields[1::2]
                if (len(fields) != 2 * len(block)
                        or not all(map(operator.contains, block, _TABS))
                        or not all(texts) or _WHITESPACE.search("".join(texts))
                        or not known.issuperset(labels)):
                    _raise_first_fault(block, first_line + start, known)
                documents.append(Document(id=f"d{len(documents)}",
                                          texts=tuple(map(shared.setdefault, texts, texts)),
                                          token_labels=tuple(map(shared.setdefault, labels,
                                                                 labels))))
            start = end + 1
        first_line += len(lines)
    return Dataset(schema=schema, documents=tuple(documents))


def _raise_first_fault(block: Sequence[str], first_line: int,
                       known: frozenset[str]) -> NoReturn:
    """Raise the error of the first bad line of `block`, whose first line is `first_line`."""
    for lineno, raw in enumerate(block, start=first_line):
        fields = raw.split("\t")
        if len(fields) != 2:
            raise ParseError(f"expected 'token<TAB>label', got {len(fields)} fields", line=lineno)
        token_text, label = fields
        if not token_text or _WHITESPACE.search(token_text):
            raise ParseError(f"bad token text {token_text!r}", line=lineno)
        if label not in known:
            raise SchemaError(f"line {lineno}: unknown label {label!r}")
    raise AssertionError("block check failed on a block with no bad line")


class TokenLabelBlock(Protocol):
    texts: Sequence[str]
    token_labels: Sequence[str]


def serialize_token_label_file(blocks: Iterable[TokenLabelBlock]) -> bytes:
    """Token-label file bytes, one block per document or sentence; inverse of the parser."""
    body = "\n\n".join("\n".join(f"{text}\t{label}"
                                  for text, label in zip(block.texts, block.token_labels))
                        for block in blocks)
    return (body + "\n").encode("utf-8") if body else b""


def label_counts(dataset: Dataset) -> dict[str, int]:
    """Tokens per label, every schema label listed (zero if absent)."""
    dist = Counter({label: 0 for label in dataset.schema.labels})
    for doc in dataset.documents:
        dist.update(doc.token_labels)
    return dict(dist)


def dataset_stats(dataset: Dataset) -> CorpusStats:
    """Texts / unique words / max length / per-label token counts.

    Unique words are distinct raw token strings, case-sensitive.
    """
    words = set()
    for doc in dataset.documents:
        words.update(doc.texts)
    return CorpusStats(
        n_texts=len(dataset.documents),
        n_unique_words=len(words),
        max_length=max((len(doc.texts) for doc in dataset.documents), default=0),
        label_dist=label_counts(dataset),
    )
