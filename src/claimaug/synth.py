"""Synthetic imbalanced corpus generator with self-recorded oracle statistics.

Sentences are drawn from class-conditional keyword/verb/entity distributions,
so the class signal is learnable but imperfect: the two claim-like classes
share a small vocabulary, and every class shares subjects and filler words.
The generator tallies its own statistics while emitting tokens; those
tallies serve as an independent oracle for the corpus and purity statistics.

Every draw goes through `getrandbits` and `random()` of one
`random.Random(seed)`, the Mersenne Twister stream itself, with the
`choice`, `randint`, `sample` and `shuffle` algorithms written out here. So
the corpus depends only on the seed's stream, not on how a Python version
implements those methods.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import morph
from .corpus import Dataset, Document, LabelSchema

SCHEMA = LabelSchema(outside_label="O", categories=("CLA", "EXP", "PER", "QUE"))

DEFAULT_SIZES = {"CLA": 40, "EXP": 192, "O": 1983, "PER": 782, "QUE": 506}

SUBJECTS = ("I", "We", "They", "People", "Patients", "Folks", "Everyone", "Somebody")

FILLER = ("the", "a", "of", "to", "and", "in", "for", "with", "on", "that",
          "it", "this", "as", "at", "by", "about", "after", "before", "some", "my")

# Words both claim-like classes use, to keep them confusable.
CLAIMY = ("relief", "improvement", "connection", "link", "effect", "impact")

KEYWORDS = {
    "CLA": ("toxin", "gluten", "dairy", "sugar", "caffeine", "remedy", "supplement",
            "detox", "cleanse", "miracle", "evidence", "dosage", "parasite",
            "inflammation", "bacteria", "microbiome", "acidity", "enzyme",
            "histamine", "cortisol", "serotonin", "magnesium", "zinc", "turmeric",
            "probiotic", "antioxidant", "fructose", "lectin", "mold", "yeast",
            "candida", "oxalate", "sulfite", "nitrate", "aspartame", "soy") + CLAIMY,
    "EXP": ("bloating", "fatigue", "cramps", "nausea", "flare", "diary", "journal",
            "elimination", "reaction", "brainfog", "energy", "mood", "digestion",
            "appetite", "routine", "habit", "mornings", "evenings", "workouts",
            "stretches", "meals", "snacks", "portions", "hydration") + CLAIMY,
    "O": ("weather", "coffee", "morning", "weekend", "dog", "phone", "music",
          "game", "movie", "traffic", "work", "office", "garden", "dinner",
          "recipe", "vacation", "book", "shirt", "kitchen", "neighbor", "shower",
          "laundry", "grocery", "park"),
    "PER": ("doctor", "clinic", "appointment", "prescription", "pharmacy",
            "insurance", "hospital", "nurse", "specialist", "therapist", "surgery",
            "scan", "bloodwork", "results", "referral", "copay", "refill",
            "checkup", "ward", "waitlist", "chart", "gown", "lobby", "parking"),
    "QUE": ("anyone", "anybody", "advice", "question", "thoughts", "ideas",
            "recommendations", "suggestions", "opinions", "options",
            "alternatives", "brands", "worth", "safe", "normal", "typical",
            "common", "similar", "risks", "concerns", "tips", "sources",
            "stories", "input"),
}

VERBS = {
    "CLA": ("cause", "cure", "prevent", "trigger", "heal", "reduce", "eliminate",
            "boost", "worsen", "improve"),
    "EXP": ("notice", "feel", "experience", "find", "realize", "observe",
            "discover", "learn", "react", "respond"),
    "O": ("go", "say", "see", "come", "want", "know", "think", "get", "make", "take"),
    "PER": ("try", "use", "start", "stop", "switch", "visit", "call", "wait",
            "schedule", "walk"),
    "QUE": ("wonder", "ask", "suggest", "recommend", "advise", "consider",
            "compare", "clarify", "explain", "confirm"),
}

PROPER_NAMES = ("Zenadol", "Biovita", "Normix", "Flovana", "Gastrix", "Culvita",
                "Merrin", "Dolvex", "Panrex", "Veltra")

# Share of non-outside sentences whose final token is labelled outside.
IMPURE_FRAC = 0.12

_TENSES = (morph.Tense.BASE, morph.Tense.PRESENT_3SG, morph.Tense.PAST)


@dataclass(frozen=True)
class Bookkeeping:
    """Tallies recorded while generating, independent of the corpus code."""

    n_texts: int
    n_sentences: int
    n_uniform: int
    per_class_sentences: dict[str, int]
    label_token_dist: dict[str, int]
    n_unique_words: int
    max_length: int


def _draws(rng: random.Random):
    """`below(n)`, `sample` and `shuffle` drawn on `rng` through its
    `getrandbits` only. They run CPython's algorithms for `randrange(n)`,
    `sample` and `shuffle`, so they give those methods' results."""
    getrandbits = rng.getrandbits

    def below(n: int) -> int:
        # CPython's Random._randbelow_with_getrandbits: a uniform int in [0, n).
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    def sample(population: tuple[str, ...], k: int) -> list[str]:
        # random.Random.sample for k <= 5, where its small-set size is 21: a
        # shrinking pool for populations of up to 21 items, rejection of
        # repeated indexes above. Every k drawn here is at most 4, so the
        # branches for larger k are not ported.
        n = len(population)
        result = []
        if n <= 21:
            pool = list(population)
            for i in range(k):
                j = below(n - i)
                result.append(pool[j])
                pool[j] = pool[n - i - 1]
        else:
            selected: set[int] = set()
            for _ in range(k):
                j = below(n)
                while j in selected:
                    j = below(n)
                selected.add(j)
                result.append(population[j])
        return result

    def shuffle(items: list) -> None:
        # random.Random.shuffle's Fisher-Yates loop.
        for i in range(len(items) - 1, 0, -1):
            j = below(i + 1)
            items[i], items[j] = items[j], items[i]

    return below, sample, shuffle


def generate(sizes: dict[str, int] | None = None, seed: int = 0) -> tuple[Dataset, Bookkeeping]:
    """Generate an imbalanced corpus; returns it with the generator's own tallies."""
    sizes = dict(DEFAULT_SIZES if sizes is None else sizes)
    for label in sizes:
        SCHEMA.check(label)
    rng = random.Random(seed)
    below, sample, shuffle = _draws(rng)
    uniform01 = rng.random
    lexicon = morph.load_default_verb_lexicon()
    # Each drawn label's verb forms, indexed [verb][tense].
    forms = {label: [[morph.conjugate(verb, tense, lexicon) for tense in _TENSES]
                     for verb in VERBS[label]]
             for label in sizes}

    sentence_pool: list[tuple[list[str], list[str]]] = []
    per_class = {label: 0 for label in SCHEMA.labels}
    label_dist = {label: 0 for label in SCHEMA.labels}
    words: set[str] = set()
    n_uniform = 0
    outside = SCHEMA.outside_label
    for label in sorted(sizes):
        keywords, verb_forms = KEYWORDS[label], forms[label]
        for _ in range(sizes[label]):
            # The draw order is part of the corpus: the count before the
            # sample, the verb before the tense.
            middle = sample(keywords, 2 + below(2))
            verb = verb_forms[below(len(verb_forms))][below(len(_TENSES))]
            middle += sample(FILLER, 2 + below(3))
            shuffle(middle)
            texts = [SUBJECTS[below(len(SUBJECTS))], verb] + middle
            if uniform01() < 0.5:
                kind = below(3)
                if kind == 0:
                    entity = [str(5 + below(95)), "%"]
                elif kind == 1:
                    entity = [str(2 + below(499))]
                else:
                    entity = [PROPER_NAMES[below(len(PROPER_NAMES))]]
                at = 1 + below(len(texts))
                texts[at:at] = entity
            texts.append("?" if label == "QUE" else ("!" if uniform01() < 0.1 else "."))

            labels = [label] * len(texts)
            if label != outside and uniform01() < IMPURE_FRAC:
                labels[-1] = outside
                label_dist[outside] += 1
                label_dist[label] += len(texts) - 1
            else:
                n_uniform += 1
                label_dist[label] += len(texts)
            sentence_pool.append((texts, labels))
            per_class[label] += 1
            words.update(texts)
    shuffle(sentence_pool)

    documents = []
    max_length = 0
    i = 0
    while i < len(sentence_pool):
        take = 1 + below(4)
        group = sentence_pool[i:i + take]
        i += take
        texts = [t for sent_texts, _ in group for t in sent_texts]
        labels = [l for _, sent_labels in group for l in sent_labels]
        max_length = max(max_length, len(texts))
        documents.append(Document(
            id=f"syn{len(documents)}",
            texts=texts,
            token_labels=labels,
        ))

    dataset = Dataset(schema=SCHEMA.with_train_freq(label_dist), documents=tuple(documents))
    bookkeeping = Bookkeeping(
        n_texts=len(documents),
        n_sentences=len(sentence_pool),
        n_uniform=n_uniform,
        per_class_sentences=per_class,
        label_token_dist=label_dist,
        n_unique_words=len(words),
        max_length=max_length,
    )
    return dataset, bookkeeping
