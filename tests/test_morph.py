import importlib.util
import os
import random
import string
from importlib import resources

import pytest
from hypothesis import given
from hypothesis import strategies as st

from claimaug.errors import ParseError, ValidationError
from claimaug.morph import (
    Tense,
    conjugate,
    detect_verb,
    format_verb_lexicon,
    load_antonyms,
    load_default_stoplist,
    load_default_verb_lexicon,
    load_verb_lexicon,
    regular_forms,
)


class TestLoad:
    def test_regular_row_uses_rules(self):
        lex = load_verb_lexicon("walk\t-\t-\t-\t-\n")
        forms = lex.entries["walk"]
        assert (forms.present_3sg, forms.past, forms.gerund, forms.past_participle) \
            == ("walks", "walked", "walking", "walked")

    def test_irregular_row_reverse_index(self):
        lex = load_verb_lexicon("have\thas\thad\thaving\thad\n")
        assert lex.reverse["had"] == (("have", Tense.PAST), ("have", Tense.PAST_PARTICIPLE))

    def test_duplicate_base_rejected(self):
        with pytest.raises(ParseError):
            load_verb_lexicon("walk\t-\t-\t-\t-\nwalk\t-\t-\t-\t-\n")

    def test_malformed_row_reports_line(self):
        with pytest.raises(ParseError) as exc:
            load_verb_lexicon("walk\t-\t-\t-\t-\nrun\t-\t-\n")
        assert exc.value.line == 2

    def test_antonyms_reject_self(self):
        with pytest.raises(ValidationError):
            load_antonyms("raise\traise\n")

    def test_antonyms_parse(self):
        ant = load_antonyms("raise\tlower,drop\n")
        assert ant.get("raise") == ("lower", "drop")
        assert ant.get("unknown") == ()


BUNDLED_BASES = sorted(load_default_verb_lexicon().entries)


@given(st.lists(st.sampled_from(BUNDLED_BASES), unique=True, max_size=40))
def test_formatted_lexicon_loads_the_same_forms(bases):
    lexicon = load_default_verb_lexicon()
    loaded = load_verb_lexicon(format_verb_lexicon(lexicon, bases))
    assert list(loaded.entries) == bases
    assert all(loaded.entries[base] == lexicon.entries[base] for base in bases)


class TestRegularRules:
    @pytest.mark.parametrize("base,p3,past,gerund", [
        ("try", "tries", "tried", "trying"),
        ("stop", "stops", "stopped", "stopping"),
        ("love", "loves", "loved", "loving"),
        ("die", "dies", "died", "dying"),
        ("fix", "fixes", "fixed", "fixing"),
        ("watch", "watches", "watched", "watching"),
        ("agree", "agrees", "agreed", "agreeing"),
        ("play", "plays", "played", "playing"),
        ("echo", "echoes", "echoed", "echoing"),
        ("occur", "occurs", "occurred", "occurring"),
    ])
    def test_forms(self, base, p3, past, gerund):
        forms = regular_forms(base)
        assert (forms.present_3sg, forms.past, forms.gerund) == (p3, past, gerund)
        assert forms.past_participle == past

    def test_total_over_random_ascii_bases(self):
        rng = random.Random(5)
        for _ in range(500):
            base = "".join(rng.choice(string.ascii_lowercase)
                           for _ in range(rng.randint(1, 12)))
            forms = regular_forms(base)
            assert all(f for f in (forms.present_3sg, forms.past,
                                   forms.gerund, forms.past_participle))


class TestDetect:
    def test_lexicon_past(self, lexicon):
        assert detect_verb("diagnosed", lexicon) == ("diagnose", Tense.PAST)

    def test_unknown_token(self, lexicon):
        assert detect_verb("banana", lexicon) is None

    def test_stoplisted_form(self, lexicon):
        assert "is" in lexicon.stoplist
        assert detect_verb("is", lexicon) is None

    def test_priority_past_over_participle(self, lexicon):
        assert detect_verb("had", lexicon) == ("have", Tense.PAST)

    def test_case_insensitive(self, lexicon):
        assert detect_verb("Diagnosed", lexicon) == ("diagnose", Tense.PAST)

    def test_never_returns_stoplisted_base(self, lexicon):
        for form in load_default_stoplist():
            assert detect_verb(form, lexicon) is None


class TestConjugate:
    def test_base_form(self, lexicon):
        assert conjugate("cause", Tense.BASE, lexicon) == "cause"

    def test_regular_gerund(self, lexicon):
        assert conjugate("walk", Tense.GERUND, lexicon) == "walking"

    def test_irregular_past(self, lexicon):
        assert conjugate("have", Tense.PAST, lexicon) == "had"

    def test_unknown_base_rejected(self, lexicon):
        with pytest.raises(ValidationError):
            conjugate("blorfle", Tense.PAST, lexicon)

    def test_round_trip_whole_lexicon(self, lexicon):
        # detect(conjugate(b, t)) re-conjugates to the same surface form.
        for base in lexicon.entries:
            for tense in Tense:
                surface = conjugate(base, tense, lexicon)
                if surface.lower() in lexicon.stoplist:
                    continue
                detected = detect_verb(surface, lexicon)
                assert detected is not None, (base, tense, surface)
                got_base, got_tense = detected
                assert conjugate(got_base, got_tense, lexicon) == surface, \
                    (base, tense, surface, detected)


class TestBundledData:
    def test_antonym_bases_all_in_lexicon(self, lexicon, antonyms):
        for base, values in antonyms.entries.items():
            assert base in lexicon.entries
            for value in values:
                assert value in lexicon.entries, (base, value)

    def test_table_pair_present(self, antonyms):
        assert "abstain" in antonyms.get("have")

    def test_lexicon_size(self, lexicon):
        assert len(lexicon.entries) >= 800

    def test_no_stoplisted_bases(self, lexicon):
        assert not set(lexicon.entries) & lexicon.stoplist


def test_lexicon_generator_writes_the_bundled_files(tmp_path, monkeypatch, capsys):
    """`tools/make_lexicon_data.py` gives the bundled verbs.tsv and antonyms.tsv byte for byte.

    So a hand edit of either file, which the generator would undo, fails here.
    """
    tool = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "make_lexicon_data.py")
    spec = importlib.util.spec_from_file_location("make_lexicon_data", tool)
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    (tmp_path / "src" / "claimaug" / "data").mkdir(parents=True)
    monkeypatch.chdir(tmp_path)
    generator.main()
    assert capsys.readouterr().out.startswith("wrote ")
    bundled = resources.files("claimaug") / "data"
    for name in ("verbs.tsv", "antonyms.tsv"):
        written = (tmp_path / "src" / "claimaug" / "data" / name).read_bytes()
        assert written == (bundled / name).read_bytes(), name
