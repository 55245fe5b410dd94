"""Synthetic imbalanced corpus generator with self-recorded oracle statistics.

Sentences are drawn from class-conditional keyword/verb/entity distributions,
so the class signal is learnable but imperfect: the two claim-like classes
share a small vocabulary, and every class shares subjects and filler words.
The generator tallies its own statistics while emitting tokens; those
tallies serve as an independent oracle for the corpus and purity statistics.
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

    def to_dict(self) -> dict:
        return {
            "n_texts": self.n_texts,
            "n_sentences": self.n_sentences,
            "n_uniform": self.n_uniform,
            "per_class_sentences": self.per_class_sentences,
            "label_token_dist": self.label_token_dist,
            "n_unique_words": self.n_unique_words,
            "max_length": self.max_length,
        }


def _make_sentence(label: str, rng: random.Random, lexicon: morph.VerbLexicon,
                   impure_frac: float) -> tuple[list[str], list[str], bool]:
    keywords = rng.sample(KEYWORDS[label], rng.randint(2, 3))
    verb = morph.conjugate(rng.choice(VERBS[label]), rng.choice(_TENSES), lexicon)
    middle = keywords + rng.sample(FILLER, rng.randint(2, 4))
    rng.shuffle(middle)
    texts = [rng.choice(SUBJECTS), verb] + middle
    if rng.random() < 0.5:
        kind = rng.randrange(3)
        if kind == 0:
            entity = [str(rng.randint(5, 99)), "%"]
        elif kind == 1:
            entity = [str(rng.randint(2, 500))]
        else:
            entity = [rng.choice(PROPER_NAMES)]
        at = rng.randint(1, len(texts))
        texts[at:at] = entity
    texts.append("?" if label == "QUE" else ("!" if rng.random() < 0.1 else "."))

    labels = [label] * len(texts)
    uniform = True
    if label != SCHEMA.outside_label and rng.random() < impure_frac:
        labels[-1] = SCHEMA.outside_label
        uniform = False
    return texts, labels, uniform


def generate(sizes: dict[str, int] | None = None, seed: int = 0,
             impure_frac: float = 0.12) -> tuple[Dataset, Bookkeeping]:
    """Generate an imbalanced corpus; returns it with the generator's own tallies."""
    sizes = dict(DEFAULT_SIZES if sizes is None else sizes)
    for label in sizes:
        SCHEMA.check(label)
    rng = random.Random(seed)
    lexicon = morph.load_default_verb_lexicon()

    sentence_pool: list[tuple[list[str], list[str]]] = []
    per_class = {label: 0 for label in SCHEMA.labels}
    label_dist = {label: 0 for label in SCHEMA.labels}
    words: set[str] = set()
    n_uniform = 0
    for label in sorted(sizes):
        for _ in range(sizes[label]):
            texts, labels, uniform = _make_sentence(label, rng, lexicon, impure_frac)
            sentence_pool.append((texts, labels))
            per_class[label] += 1
            n_uniform += uniform
            for t, l in zip(texts, labels):
                words.add(t)
                label_dist[l] += 1
    rng.shuffle(sentence_pool)

    documents = []
    max_length = 0
    i = 0
    while i < len(sentence_pool):
        take = rng.randint(1, 4)
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
