"""Verb lexicon, tense detection, and tense-preserving conjugation.

Detection is lexicon driven rather than tagger driven: a token counts as a
verb exactly when its lowercased form is in the lexicon's reverse index and
not stoplisted. Noun/verb homographs therefore resolve as verbs; that noise
is accepted by design.

Lexicon TSV: `base<TAB>3sg<TAB>past<TAB>gerund<TAB>past_participle`, where
`-` asks for the regular rule-generated form. Antonym TSV:
`base<TAB>antonym1,antonym2,...`. Stoplist: one surface form per line.
"""

from __future__ import annotations

import functools
import re
from dataclasses import astuple, dataclass
from enum import Enum
from importlib import resources
from typing import Iterable

from .errors import ParseError, ValidationError


class Tense(Enum):
    BASE = "base"
    PRESENT_3SG = "present_3sg"
    PAST = "past"
    GERUND = "gerund"
    PAST_PARTICIPLE = "past_participle"


# Ambiguous surface forms resolve to the first matching tense in this order.
DETECT_PRIORITY = (
    Tense.PAST,
    Tense.PRESENT_3SG,
    Tense.GERUND,
    Tense.PAST_PARTICIPLE,
    Tense.BASE,
)

_VOWELS = "aeiou"
_WHITESPACE = re.compile(r"\s")

# Bases that double their final consonant before -ed / -ing.
DOUBLING = frozenset("""
admit ban bar beg blur bob brag bug chat chop clap clip clog commit compel
control cram crop dim dip dot drag drip drop drum equip fan fit flag flap
flip flop fog format gag grab grin grip gut hop hug hum jam jog jot kidnap
knot lag log lug man map mob mop mug nab nag net nod occur omit pad pat peg
permit pet pin pit plan plod plot plop plug pop pot prefer prod program prop
quiz ram rap refer regret rig rim rip rob rot rub sag scam scan scar scrap
scrub ship shop shred shrug shun sin sip skim skip slam slap slim slip
slop slot slug snag snap snub sob spam span spar spot spur squat stab star
stem step stir stop strap strip stun submit sum swab swap swat swig tag tan
tap thin throb tip top tot transfer transmit trap trek trim trip trot tug
whip wrap zap zigzag zip
""".split())


@dataclass(frozen=True)
class VerbForms:
    present_3sg: str
    past: str
    gerund: str
    past_participle: str

    def form(self, base: str, tense: Tense) -> str:
        if tense is Tense.BASE:
            return base
        return getattr(self, tense.value)


def _third_person(base: str) -> str:
    if base.endswith("y") and len(base) > 1 and base[-2] not in _VOWELS:
        return base[:-1] + "ies"
    if base.endswith(("s", "x", "z", "ch", "sh", "o")):
        return base + "es"
    return base + "s"


def _past(base: str) -> str:
    if base in DOUBLING:
        return base + base[-1] + "ed"
    if base.endswith("e"):
        return base + "d"
    if base.endswith("y") and len(base) > 1 and base[-2] not in _VOWELS:
        return base[:-1] + "ied"
    return base + "ed"


def _gerund(base: str) -> str:
    if base in DOUBLING:
        return base + base[-1] + "ing"
    if base.endswith("ie"):
        return base[:-2] + "ying"
    if base.endswith("e") and not base.endswith(("ee", "oe", "ye")):
        return base[:-1] + "ing"
    return base + "ing"


def regular_forms(base: str) -> VerbForms:
    """Rule-generated forms for a regular verb base."""
    if not base:
        raise ValidationError("empty verb base")
    past = _past(base)
    return VerbForms(
        present_3sg=_third_person(base),
        past=past,
        gerund=_gerund(base),
        past_participle=past,
    )


@dataclass(frozen=True)
class VerbLexicon:
    entries: dict[str, VerbForms]
    reverse: dict[str, tuple[tuple[str, Tense], ...]]
    stoplist: frozenset[str]


@dataclass(frozen=True)
class AntonymLexicon:
    entries: dict[str, tuple[str, ...]]

    def __post_init__(self):
        for base, antonyms in self.entries.items():
            if base != base.lower():
                raise ValidationError(f"antonym key must be lowercase: {base!r}")
            if base in antonyms:
                raise ValidationError(f"{base!r} listed as its own antonym")

    def get(self, base: str) -> tuple[str, ...]:
        return self.entries.get(base, ())


def _build_reverse(entries: dict[str, VerbForms]) -> dict[str, tuple[tuple[str, Tense], ...]]:
    """Surface form -> its (base, tense) readings in detection priority, then base order."""
    reverse: dict[str, list[tuple[str, Tense]]] = {}
    bases = sorted(entries)
    for tense in DETECT_PRIORITY:
        surfaces = bases if tense is Tense.BASE else [
            getattr(entries[base], tense.value) for base in bases]
        for base, surface in zip(bases, surfaces):
            reverse.setdefault(surface, []).append((base, tense))
    return {surface: tuple(pairs) for surface, pairs in reverse.items()}


def load_stoplist(text: str) -> frozenset[str]:
    return frozenset(line.strip().lower() for line in text.splitlines()
                     if line.strip() and not line.startswith("#"))


def load_verb_lexicon(text: str, stoplist: frozenset[str] | None = None) -> VerbLexicon:
    """Parse the 5-column verb TSV; `-` cells are filled by the regular rules."""
    entries: dict[str, VerbForms] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != 5:
            raise ParseError(f"expected 5 tab-separated columns, got {len(cols)}", line=lineno)
        base = cols[0].strip()
        if not base or base != base.lower() or _WHITESPACE.search(base):
            raise ParseError(f"bad verb base {base!r}", line=lineno)
        if base in entries:
            raise ParseError(f"duplicate base {base!r}", line=lineno)
        rules = regular_forms(base)
        cells = [c.strip() for c in cols[1:]]
        defaults = [rules.present_3sg, rules.past, rules.gerund, rules.past_participle]
        filled = [cell if cell != "-" else default for cell, default in zip(cells, defaults)]
        if any(not f or _WHITESPACE.search(f) for f in filled):
            raise ParseError(f"bad form in row for {base!r}", line=lineno)
        entries[base] = VerbForms(*filled)
    return VerbLexicon(entries=entries, reverse=_build_reverse(entries),
                       stoplist=stoplist or frozenset())


def format_verb_lexicon(lexicon: VerbLexicon, bases: Iterable[str]) -> str:
    """The verb TSV rows of `bases`, in the given order, with every form spelt out."""
    return "".join("\t".join((base, *astuple(lexicon.entries[base]))) + "\n" for base in bases)


def load_antonyms(text: str) -> AntonymLexicon:
    entries: dict[str, tuple[str, ...]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != 2:
            raise ParseError("expected 'base<TAB>antonym1,antonym2,...'", line=lineno)
        base = cols[0].strip()
        antonyms = tuple(a.strip() for a in cols[1].split(",") if a.strip())
        if not antonyms:
            raise ParseError(f"no antonyms listed for {base!r}", line=lineno)
        if base in entries:
            raise ParseError(f"duplicate base {base!r}", line=lineno)
        entries[base] = antonyms
    return AntonymLexicon(entries=entries)


def _data_text(name: str) -> str:
    return resources.files("claimaug").joinpath(f"data/{name}").read_text("utf-8")


def load_default_stoplist() -> frozenset[str]:
    return load_stoplist(_data_text("stoplist.txt"))


@functools.cache
def load_default_verb_lexicon() -> VerbLexicon:
    """The bundled verb lexicon with the bundled stoplist, read once per process.

    Every caller gets the same object, so no caller may mutate it.
    """
    return load_verb_lexicon(_data_text("verbs.tsv"), stoplist=load_default_stoplist())


@functools.cache
def load_default_antonyms() -> AntonymLexicon:
    """The bundled antonym lexicon, read once per process.

    Every caller gets the same object, so no caller may mutate it.
    """
    return load_antonyms(_data_text("antonyms.tsv"))


def detect_verb(token_text: str, lexicon: VerbLexicon) -> tuple[str, Tense] | None:
    """Look up a token as a verb form; None for non-verbs and stoplisted forms."""
    surface = token_text.lower()
    if surface in lexicon.stoplist:
        return None
    candidates = lexicon.reverse.get(surface)
    if not candidates:
        return None
    for base, tense in candidates:
        if base not in lexicon.stoplist:
            return base, tense
    return None


def conjugate(base: str, tense: Tense, lexicon: VerbLexicon) -> str:
    if base not in lexicon.entries:
        raise ValidationError(f"unknown verb base {base!r}")
    return lexicon.entries[base].form(base, tense)
