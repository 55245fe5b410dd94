"""Augmentation operators and the minority-class scheduler.

Five operators produce label-preserving variants of a labeled sentence:
punctuation insertion, verb replacement (random or antonym), entity
replacement, and LLM contradiction. Each consumes an explicit RNG so a
produced sample is a pure function of (source sentence, seed), and each
builds it with `_sample`, which keeps the source's ids and sentence label.
Verbs come from the bundled lexicon and entities from one pattern-based
annotator. The scheduler derives all seeds from one master seed, which makes
whole corpora bit-reproducible regardless of worker count.
"""

from __future__ import annotations

import random
import re
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Sequence

from . import morph
from .errors import (
    AugmentationError,
    AugmentationFailed,
    ConfigurationError,
    LlmTransportError,
    ValidationError,
)
from .llmclient import PROMPT_TEMPLATES, LlmClient
from .senttok import LabeledSentence
from .util import derive_seed

PUNCTUATION_MARKS = (".", ";", "?", ":", "!", ",")


class Method(Enum):
    AEDA = "aeda"
    VR_RANDOM = "vr-random"
    VR_ANTONYM = "vr-antonym"
    ER = "er"
    LLM = "llm"


@dataclass(frozen=True)
class AugmentedSample:
    """One augmentation result; the sentence keeps its source's ids and label."""

    sentence: LabeledSentence
    method: Method
    seed: int
    detail: dict = field(default_factory=dict)

    @property
    def source_id(self) -> tuple[str, int]:
        return self.sentence.doc_id, self.sentence.sent_index


@dataclass(frozen=True)
class AugmentConfig:
    target_class: str
    method: Method
    n_samples: int = 100
    per_sentence: int = 1
    master_seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1:
            raise ConfigurationError("n_samples must be >= 1")
        if self.per_sentence < 1:
            raise ConfigurationError("per_sentence must be >= 1")
        if self.method is Method.LLM and self.per_sentence > 1:
            raise ConfigurationError(
                f"per_sentence must be 1 for method llm, got {self.per_sentence}: the LLM "
                "client takes no seed, so every copy of a sentence would be the same")


@dataclass(frozen=True)
class EntityDictionary:
    """Entity surface forms per category; multi-token entities kept as token tuples."""

    entries: dict[str, tuple[tuple[str, ...], ...]]

    def __post_init__(self):
        for category, forms in self.entries.items():
            if not forms:
                raise ValidationError(f"entity category {category!r} has no entries")
            if len(set(forms)) != len(forms):
                raise ValidationError(f"entity category {category!r} has duplicates")


@dataclass(frozen=True)
class EntitySpan:
    token_start: int
    token_end: int
    category: str


_NUMBER_RE = re.compile(r"^\d+([.,]\d+)?$")
_ATTACHED_PERCENT_RE = re.compile(r"^\d+(\.\d+)?%$")


def _sample(source: LabeledSentence, texts: Sequence[str], labels: Sequence[str],
            method: Method, seed: int, detail: dict) -> AugmentedSample:
    """A sample of `source` with new tokens; the ids and sentence label are the source's."""
    sentence = LabeledSentence(doc_id=source.doc_id, sent_index=source.sent_index,
                               texts=texts, token_labels=labels,
                               sentence_label=source.sentence_label)
    return AugmentedSample(sentence, method, seed, detail)


def aeda(sentence: LabeledSentence, rng: random.Random, seed: int = 0) -> AugmentedSample:
    """Insert 1..max(1, n//3) punctuation marks at distinct gaps between tokens.

    Inserted tokens carry the sentence label, so deleting the tokens at the
    recorded insertion positions restores the source exactly.
    """
    n = len(sentence.texts)
    k = rng.randint(1, max(1, n // 3))
    gaps = sorted(rng.sample(range(n + 1), k))
    marks = [rng.choice(PUNCTUATION_MARKS) for _ in gaps]

    texts = list(sentence.texts)
    labels = list(sentence.token_labels)
    positions = []
    for offset, (gap, mark) in enumerate(zip(gaps, marks)):
        position = gap + offset
        texts.insert(position, mark)
        labels.insert(position, sentence.sentence_label)
        positions.append(position)

    return _sample(sentence, texts, labels, Method.AEDA, seed,
                   {"insert_positions": positions, "marks": marks})


@dataclass
class OperatorMemo:
    """What an operator derives from its fixed inputs, kept across its trials.

    `per_texts` maps a sentence's token texts to what depends on them alone
    (its eligible verbs, or its checked entity spans); `candidates` maps a
    (base, tense) or (category, surface) pair to its replacement list. The
    entries hold only for the lexicon, replacement source and dictionary
    they were computed with, so one memo serves one operator of one run.
    """

    per_texts: dict = field(default_factory=dict)
    candidates: dict = field(default_factory=dict)


def _cached(table: dict, key, compute: Callable):
    value = table.get(key)
    if value is None:
        value = table[key] = compute()
    return value


def _eligible_verbs(texts: Sequence[str],
                    lexicon: morph.VerbLexicon) -> list[tuple[int, str, morph.Tense]]:
    eligible = []
    for i, text in enumerate(texts):
        detected = morph.detect_verb(text, lexicon)
        if detected is not None:
            eligible.append((i, detected[0], detected[1]))
    return eligible


def _verb_candidates(base: str, tense: morph.Tense, lexicon: morph.VerbLexicon,
                     replacement_source: Sequence[str] | morph.AntonymLexicon,
                     mode: Method) -> list[tuple[str, str]]:
    """(new base, surface at `tense`) for every replacement that re-detects at `tense`.

    Every base comes from the lexicon: a pool base is a detected verb, and
    every bundled antonym is a lexicon base.
    """
    bases = replacement_source if mode is Method.VR_RANDOM else replacement_source.get(base)
    candidates = []
    for new_base in bases:
        if new_base != base:
            surface = morph.conjugate(new_base, tense, lexicon)
            detected = morph.detect_verb(surface, lexicon)
            if detected is not None and detected[1] is tense:
                candidates.append((new_base, surface))
    return candidates


def verb_replace(sentence: LabeledSentence, lexicon: morph.VerbLexicon,
                 replacement_source: Sequence[str] | morph.AntonymLexicon,
                 mode: Method, rng: random.Random, seed: int = 0,
                 memo: OperatorMemo | None = None) -> AugmentedSample | None:
    """Replace one verb, conjugating the replacement to the original's tense.

    Random mode draws the new base from the training-verb pool (minus the
    original); antonym mode draws from the original base's antonym list.
    Candidates whose conjugated surface would not be detected back at the
    same tense are skipped, so tense is preserved under re-detection too.
    Every replacement base must be a lexicon base (`morph.conjugate`).
    Returns None when the sentence has no eligible verb or no candidate
    replacement exists. A `memo` shared by calls with the same lexicon,
    source and mode spares them the repeated lookups; the sample is the same.
    """
    if mode not in (Method.VR_RANDOM, Method.VR_ANTONYM):
        raise ConfigurationError(f"verb_replace mode must be vr-random or vr-antonym, got {mode}")
    memo = memo if memo is not None else OperatorMemo()
    eligible = _cached(memo.per_texts, sentence.texts,
                       lambda: _eligible_verbs(sentence.texts, lexicon))
    if not eligible:
        return None
    index, base, tense = eligible[rng.randrange(len(eligible))]

    candidates = _cached(memo.candidates, (base, tense), lambda: _verb_candidates(
        base, tense, lexicon, replacement_source, mode))
    if not candidates:
        return None
    new_base, surface = candidates[rng.randrange(len(candidates))]
    if sentence.texts[index][0].isupper():
        surface = surface[0].upper() + surface[1:]

    texts = list(sentence.texts)
    original = texts[index]
    texts[index] = surface
    return _sample(sentence, texts, sentence.token_labels, mode, seed,
                   {"replaced_index": index, "original": original, "replacement": surface,
                    "original_base": base, "replacement_base": new_base,
                    "tense": tense.value})


def default_entity_annotator(texts: Sequence[str]) -> list[EntitySpan]:
    """Pattern-based entity spans: PERCENT, CARDINAL, and PROPER runs, in one scan.

    A number token followed by "%"/"percent" is a PERCENT span over both
    tokens, an attached "80%"-style token is PERCENT, and any other number
    token is CARDINAL. A token after the first that starts with an upper-case
    letter opens a PROPER run, which extends over the tokens after it that do
    the same. A number starts with a decimal digit (`str.isdecimal` is
    exactly the patterns' `\\d`) and a PROPER token with a letter, so each
    token is claimed by at most one rule and the spans come out
    non-overlapping and in order.
    """
    spans: list[EntitySpan] = []
    n = len(texts)
    i = 0
    while i < n:
        text = texts[i]
        first = text[:1]
        start, category = i, None
        i += 1
        if first.isdecimal():
            if _NUMBER_RE.match(text):
                if i < n and texts[i] in ("%", "percent"):
                    category, i = "PERCENT", i + 1
                else:
                    category = "CARDINAL"
            elif _ATTACHED_PERCENT_RE.match(text):
                category = "PERCENT"
        elif start and first.isalpha() and first.isupper():
            category = "PROPER"
            while i < n and texts[i][:1].isalpha() and texts[i][:1].isupper():
                i += 1
        if category is not None:
            spans.append(EntitySpan(start, i, category))
    return spans


def build_entity_dictionary(sentences: Iterable[LabeledSentence]) -> EntityDictionary:
    """Collect every annotated entity surface form per category, deduplicated.

    Forms keep the order of their first appearance, as do the categories.
    """
    collected: dict[str, dict[tuple[str, ...], None]] = {}
    for sentence in sentences:
        for span in default_entity_annotator(sentence.texts):
            surface = tuple(sentence.texts[span.token_start:span.token_end])
            collected.setdefault(span.category, {})[surface] = None
    return EntityDictionary(entries={c: tuple(forms) for c, forms in collected.items()})


def build_verb_pool(sentences: Iterable[LabeledSentence],
                    lexicon: morph.VerbLexicon) -> list[str]:
    """Distinct verb bases detected in the given sentences, sorted.

    Detection depends on the token text alone, so each distinct text is
    looked up once.
    """
    texts = {text for sentence in sentences for text in sentence.texts}
    detected = (morph.detect_verb(text, lexicon) for text in texts)
    return sorted({found[0] for found in detected if found is not None})


def _checked_spans(texts: Sequence[str], dictionary: EntityDictionary) -> list[EntitySpan]:
    """The annotator's spans of `texts`; each category must be in `dictionary`.

    A dictionary read from an `--entities` file may lack a category.
    """
    spans = default_entity_annotator(texts)
    for span in spans:
        if span.category not in dictionary.entries:
            raise ConfigurationError(f"entity dictionary has no category {span.category!r}")
    return spans


def entity_replace(sentence: LabeledSentence, dictionary: EntityDictionary,
                   rng: random.Random, seed: int = 0,
                   memo: OperatorMemo | None = None) -> AugmentedSample | None:
    """Swap one entity of `default_entity_annotator` for a same-category one.

    The replacement comes from the dictionary, and its tokens all take the
    label of the replaced span's first token. Returns None when the sentence
    has no entities or the dictionary offers no alternative to the original
    surface form. A `memo` shared by calls with the same dictionary spares
    them the repeated annotation; the sample is the same.
    """
    memo = memo if memo is not None else OperatorMemo()
    spans = _cached(memo.per_texts, sentence.texts,
                    lambda: _checked_spans(sentence.texts, dictionary))
    if not spans:
        return None
    span = spans[rng.randrange(len(spans))]
    original = tuple(sentence.texts[span.token_start:span.token_end])
    candidates = _cached(memo.candidates, (span.category, original), lambda: [
        form for form in dictionary.entries[span.category] if form != original])
    if not candidates:
        return None
    replacement = candidates[rng.randrange(len(candidates))]

    label = sentence.token_labels[span.token_start]
    texts = list(sentence.texts[:span.token_start]) + list(replacement) \
        + list(sentence.texts[span.token_end:])
    labels = list(sentence.token_labels[:span.token_start]) + [label] * len(replacement) \
        + list(sentence.token_labels[span.token_end:])
    return _sample(sentence, texts, labels, Method.ER, seed,
                   {"span_start": span.token_start, "span_end": span.token_end,
                    "category": span.category, "original": list(original),
                    "replacement": list(replacement)})


# Pause before the k-th retry (k = 0, 1, ...): half of
# min(LLM_BACKOFF_CAP_S, LLM_BACKOFF_BASE_S * 2**k), plus a jitter of up to
# the other half, so the pauses of one call add up to at most
# (retries - 1) * LLM_BACKOFF_CAP_S.
LLM_BACKOFF_BASE_S = 0.5
LLM_BACKOFF_CAP_S = 4.0


def llm_contradict(sentence_text: str, client: LlmClient, prompt_variant: int,
                   retries: int = 3, *, seed: int = 0,
                   sleep: Callable[[float], object] = time.sleep) -> str:
    """Ask the client to contradict the sentence using one of the two prompts.

    The client is tried up to `retries` times. Transport errors (timeouts,
    connection errors, 5xx) are retried after an exponential backoff whose
    jitter comes from `random.Random(seed)`, then re-raised; any other
    error, such as the ConfigurationError of an HTTP 4xx answer, ends the
    call at once. `sleep` does the waiting. An empty completion raises
    AugmentationFailed.
    """
    if prompt_variant not in PROMPT_TEMPLATES:
        raise ConfigurationError(f"prompt_variant must be 1 or 2, got {prompt_variant}")
    prompt = PROMPT_TEMPLATES[prompt_variant].format(sentence=sentence_text)
    jitter = random.Random(seed)
    last_error: LlmTransportError | None = None
    for attempt in range(max(1, retries)):
        if attempt:  # only a transport error comes back round
            half = min(LLM_BACKOFF_CAP_S, LLM_BACKOFF_BASE_S * 2 ** (attempt - 1)) / 2
            sleep(half + half * jitter.random())
        try:
            reply = client.complete(prompt)
            break
        except LlmTransportError as exc:
            last_error = exc
    else:
        raise last_error
    reply = reply.strip()
    if not reply:
        raise AugmentationFailed("LLM returned an empty completion")
    return reply


def _llm_sample(sentence: LabeledSentence, client: LlmClient, variant: int,
                seed: int) -> AugmentedSample:
    reply = llm_contradict(" ".join(sentence.texts), client, variant, seed=seed)
    texts = reply.split()
    labels = [sentence.sentence_label] * len(texts)
    return _sample(sentence, texts, labels, Method.LLM, seed, {"prompt_variant": variant})


def _make_operator(sentences: Sequence[LabeledSentence], config: AugmentConfig,
                   entities: EntityDictionary | None, llm_client: LlmClient | None):
    """Bind the chosen operator to its inputs, building only those.

    Returns fn(sentence, rng, seed, trial) -> sample or None. The verb and
    entity operators share one memo across the run's trials, since every
    source sentence is tried once per cycle.
    """
    method = config.method
    if method is Method.AEDA:
        return lambda s, rng, seed, trial: aeda(s, rng, seed=seed)
    memo = OperatorMemo()
    if method in (Method.VR_RANDOM, Method.VR_ANTONYM):
        lexicon = morph.load_default_verb_lexicon()
        if method is Method.VR_RANDOM:
            source = build_verb_pool(sentences, lexicon)
            if not source:
                raise ConfigurationError("vr-random needs a non-empty verb pool")
        else:
            source = morph.load_default_antonyms()
        return lambda s, rng, seed, trial: verb_replace(
            s, lexicon, source, method, rng, seed=seed, memo=memo)
    if method is Method.ER:
        dictionary = entities if entities is not None else build_entity_dictionary(sentences)
        return lambda s, rng, seed, trial: entity_replace(
            s, dictionary, rng, seed=seed, memo=memo)
    # Method.LLM
    if llm_client is None:
        raise ConfigurationError("llm augmentation needs a client (--offline or --llm-endpoint)")
    half = (config.n_samples + 1) // 2

    def run(s, rng, seed, trial):
        variant = 1 if trial < half else 2
        return _llm_sample(s, llm_client, variant, seed)

    return run


_FAIL_REASON = {
    Method.AEDA: "operator_returned_none",
    Method.VR_RANDOM: "no_eligible_verb_or_replacement",
    Method.VR_ANTONYM: "no_eligible_verb_or_antonym",
    Method.ER: "no_entity_or_candidate",
    Method.LLM: "empty_completion",
}


def augment_minority(sentences: Sequence[LabeledSentence], config: AugmentConfig, *,
                     entities: EntityDictionary | None = None,
                     llm_client: LlmClient | None = None,
                     workers: int = 1) -> list[AugmentedSample]:
    """Produce `n_samples * per_sentence` augmentations of the target class.

    Source sentences are taken in seeded-shuffle order without replacement,
    cycling with replacement once exhausted. A source whose operator yields
    nothing is skipped and the next one is tried; once `n_available`
    trials in a row yield nothing, AugmentationError is raised with the
    reason histogram. The outcome of every trial is a pure function of
    (master seed, source, cycle), and each batch runs no more trials than
    are still needed, so the result and the operator calls made are the
    same for any worker count. Only `llm` trials, which wait on the client,
    run on `workers` threads; the other operators are CPU-bound and run in
    the calling thread. Once a trial raises, no further trial starts, so an
    endpoint that refuses requests sees at most `workers` of them.
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    targets = [s for s in sentences if s.sentence_label == config.target_class]
    if not targets:
        raise ConfigurationError(f"no sentences with label {config.target_class!r}")
    order = list(targets)
    random.Random(derive_seed(config.master_seed, "source-order", config.target_class)
                  ).shuffle(order)
    operator = _make_operator(sentences, config, entities, llm_client)
    n_available = len(order)
    # Set by the first trial that raises. The error ends the run, so queued
    # trials return at once instead of sending requests nobody will read.
    stopped = threading.Event()

    def run_trial(trial: int) -> list[AugmentedSample] | None:
        if stopped.is_set():
            return None
        source = order[trial % n_available]
        cycle = trial // n_available
        samples = []
        for copy in range(config.per_sentence):
            seed = derive_seed(config.master_seed, source.doc_id, source.sent_index,
                               cycle, copy)
            try:
                sample = operator(source, random.Random(seed), seed, trial)
            except AugmentationFailed:
                return None
            except BaseException:
                stopped.set()
                raise
            if sample is None:
                return None
            samples.append(sample)
        return samples

    def run_batches(run_all) -> list[AugmentedSample]:
        produced: list[AugmentedSample] = []
        reasons: Counter[str] = Counter()
        successes = failed_in_a_row = trial = 0
        while successes < config.n_samples:
            # A batch ends no later than the trial that meets the request or
            # hits the bound, so it runs no trial the sequential order would not.
            size = min(8 * workers, config.n_samples - successes, n_available - failed_in_a_row)
            for result in run_all(run_trial, range(trial, trial + size)):
                if result is None:
                    reasons[_FAIL_REASON[config.method]] += 1
                    failed_in_a_row += 1
                else:
                    produced.extend(result)
                    successes += 1
                    failed_in_a_row = 0
            if failed_in_a_row == n_available:
                raise AugmentationError(
                    f"no {config.method.value} augmentation in {n_available} trials "
                    f"in a row over the {config.target_class!r} sentences", reasons)
            trial += size
        return produced

    if workers == 1 or config.method is not Method.LLM:
        return run_batches(map)
    # Imported here: only llm runs with more than one worker start a pool.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return run_batches(pool.map)
