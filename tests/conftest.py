"""Shared fixtures and random-sentence builders for the test suite."""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

import claimaug
from claimaug import morph
from claimaug.corpus import LabelSchema
from claimaug.errors import LlmTransportError
from claimaug.senttok import LabeledSentence


@pytest.fixture(scope="session")
def schema() -> LabelSchema:
    return LabelSchema(
        outside_label="O",
        categories=("CLA", "EXP", "PER", "QUE"),
        train_freq={"CLA": 8183, "EXP": 33358, "O": 316676, "PER": 138359, "QUE": 51707},
    )


@pytest.fixture(scope="session")
def lexicon() -> morph.VerbLexicon:
    return morph.load_default_verb_lexicon()


@pytest.fixture(scope="session")
def antonyms() -> morph.AntonymLexicon:
    return morph.load_default_antonyms()


def last_line_in_fresh_interpreter(code: str) -> str:
    """Run `code` in a new Python process that imports this package; returns
    the last line it prints. A test process has loaded modules of its own."""
    package_root = os.path.dirname(os.path.dirname(claimaug.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1]


class ScriptedRng:
    """Stand-in RNG that replays queued return values per method."""

    def __init__(self, **script: list):
        self.script = {name: list(values) for name, values in script.items()}

    def _pop(self, name):
        if not self.script.get(name):
            raise AssertionError(f"unexpected rng call {name}")
        return self.script[name].pop(0)

    def randint(self, a, b):
        value = self._pop("randint")
        assert a <= value <= b, f"scripted randint {value} outside [{a}, {b}]"
        return value

    def randrange(self, n):
        value = self._pop("randrange")
        assert 0 <= value < n, f"scripted randrange {value} outside [0, {n})"
        return value

    def sample(self, population, k):
        value = self._pop("sample")
        assert len(value) == k
        return list(value)

    def choice(self, seq):
        value = self._pop("choice")
        assert value in seq, f"scripted choice {value!r} not in population"
        return value


class MockLlmClient:
    """Offline stand-in: replays canned replies and records every prompt.

    `fail_times` makes the first N calls raise a transport error, for retry
    testing. With a list of replies they are consumed in order; a single
    string is repeated forever.
    """

    def __init__(self, reply: str = "", replies: list[str] | None = None, fail_times: int = 0):
        self.reply = reply
        self.replies = list(replies) if replies is not None else None
        self.fail_times = fail_times
        self.prompts: list[str] = []
        self._calls = 0

    def complete(self, prompt: str) -> str:
        self._calls += 1
        if self._calls <= self.fail_times:
            raise LlmTransportError("mock transport failure")
        self.prompts.append(prompt)
        if self.replies is not None:
            if not self.replies:
                return ""
            return self.replies.pop(0)
        return self.reply


WORDS = ("the", "a", "of", "and", "people", "gut", "diet", "sleep", "water",
         "stress", "fiber", "bread", "salad", "tea", "yoga", "doctor", "nurse")
VERB_BASES = ("cause", "help", "reduce", "improve", "diagnose", "have", "take",
              "eat", "go", "feel", "notice", "try", "increase", "walk", "treat")
NAMES = ("Sibo", "IBS", "Gerd", "Advil", "Zantac")
ALL_TENSES = tuple(morph.Tense)


def make_sentence(rng: random.Random, lexicon: morph.VerbLexicon, label: str = "CLA",
                  with_verb: bool = True, with_entity: bool = False,
                  doc_id: str = "doc", sent_index: int = 0) -> LabeledSentence:
    """A random labeled sentence for property tests."""
    texts = [rng.choice(WORDS).capitalize()]
    texts += [rng.choice(WORDS) for _ in range(rng.randint(2, 6))]
    if with_verb:
        base = rng.choice(VERB_BASES)
        tense = rng.choice(ALL_TENSES)
        texts.insert(rng.randint(1, len(texts)), morph.conjugate(base, tense, lexicon))
    if with_entity:
        kind = rng.randrange(3)
        if kind == 0:
            entity = [str(rng.randint(1, 99)), "%"]
        elif kind == 1:
            entity = [str(rng.randint(1, 999))]
        else:
            entity = [rng.choice(NAMES)]
        at = rng.randint(1, len(texts))
        texts[at:at] = entity
    texts.append(rng.choice([".", "!", "?"]))
    labels = [label] * len(texts)
    if rng.random() < 0.2:
        labels[-1] = "O"
    return LabeledSentence(
        doc_id=doc_id, sent_index=sent_index,
        texts=tuple(texts), token_labels=tuple(labels),
        sentence_label=label,
    )
