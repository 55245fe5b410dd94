import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from claimaug.corpus import Document
from claimaug.errors import ValidationError
from claimaug.senttok import (
    LabeledSentence,
    default_abbreviations,
    majority_label,
    project_labels,
    purity_stats,
    split_sentences,
)


def make_doc(texts, labels=None, doc_id="d0"):
    labels = labels if labels is not None else ["O"] * len(texts)
    return Document(id=doc_id, texts=texts, token_labels=labels)


def make_sent(labels, schema):
    texts = [f"t{i}" for i in range(len(labels))]
    return LabeledSentence(doc_id="d0", sent_index=0, texts=texts,
                           token_labels=tuple(labels),
                           sentence_label=majority_label(labels, schema))


class TestSplit:
    def test_two_terminal_periods(self, schema):
        doc = make_doc(["I", "ran", ".", "It", "helped", "."])
        sentences = split_sentences(doc, schema)
        assert [len(s.texts) for s in sentences] == [3, 3]
        assert [s.sent_index for s in sentences] == [0, 1]

    def test_abbreviation_suppresses_boundary(self, schema):
        assert "Dr" in default_abbreviations()
        doc = make_doc(["Dr", ".", "Smith", "agreed", "."])
        assert len(split_sentences(doc, schema)) == 1

    def test_attached_abbreviation_period(self, schema):
        doc = make_doc(["Dr.", "Smith", "agreed", "."])
        assert len(split_sentences(doc, schema)) == 1

    def test_attached_terminal_punctuation(self, schema):
        doc = make_doc(["It", "helped.", "Really", "helped."])
        assert [len(s.texts) for s in split_sentences(doc, schema)] == [2, 2]

    def test_no_terminal_punctuation_single_sentence(self, schema):
        doc = make_doc(["no", "punctuation", "here"])
        sentences = split_sentences(doc, schema)
        assert len(sentences) == 1
        assert sentences[0].texts == doc.texts

    def test_empty_document_rejected(self, schema):
        doc = Document(id="d0", texts=(), token_labels=())
        with pytest.raises(ValidationError):
            split_sentences(doc, schema)

    @given(st.lists(st.tuples(
        st.sampled_from(["word", "Dr", ".", "!", "?", "etc", "gut", "IBS", "a.m", "Mr.",
                         "e.g.", "ok!", "?!", "no."]),
        st.sampled_from(["O", "CLA", "EXP", "PER", "QUE"])), min_size=1, max_size=40))
    def test_token_conservation_random_docs(self, schema, rows):
        # No token lost, duplicated, or reordered; every sentence but the last
        # ends at terminal punctuation and carries its majority label.
        doc = make_doc([t for t, _ in rows], [l for _, l in rows])
        sentences = split_sentences(doc, schema)
        assert tuple(t for s in sentences for t in s.texts) == doc.texts
        assert tuple(l for s in sentences for l in s.token_labels) == doc.token_labels
        assert [s.sent_index for s in sentences] == list(range(len(sentences)))
        for sentence in sentences:
            assert sentence.sentence_label == majority_label(sentence.token_labels, schema)
        for sentence in sentences[:-1]:
            assert sentence.texts[-1][-1] in ".!?"

    def test_abbreviation_list_read_once(self, schema):
        default_abbreviations.cache_clear()
        for i in range(3):
            split_sentences(make_doc(["Dr", ".", "Smith", "agreed", "."], doc_id=f"d{i}"), schema)
        assert default_abbreviations.cache_info().misses == 1

    def test_deterministic(self, schema):
        doc = make_doc(["One", ".", "Two", "."])
        first = split_sentences(doc, schema)
        second = split_sentences(doc, schema)
        assert [s.texts for s in first] == [s.texts for s in second]


class TestLabeledSentence:
    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            LabeledSentence(doc_id="d0", sent_index=0, texts=(), token_labels=(),
                            sentence_label="O")

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            LabeledSentence(doc_id="d0", sent_index=0, texts=("a", "b"),
                            token_labels=("O",), sentence_label="O")


class TestMajority:
    def test_strict_majority(self, schema):
        assert majority_label(["CLA", "CLA", "O"], schema) == "CLA"

    def test_all_outside(self, schema):
        assert majority_label(["O", "O", "O", "O"], schema) == "O"

    def test_tie_goes_to_rarest_class(self, schema):
        # CLA has the smallest training frequency, so it wins a 1-1 tie with O.
        assert schema.train_freq["CLA"] < schema.train_freq["O"]
        assert majority_label(["CLA", "O"], schema) == "CLA"
        assert majority_label(["O", "CLA"], schema) == "CLA"

    def test_tie_without_frequencies_uses_category_order(self, schema):
        bare = schema.with_train_freq({})
        assert majority_label(["QUE", "CLA"], bare) == "CLA"
        assert majority_label(["O", "QUE"], bare) == "QUE"

    def test_permutation_invariant(self, schema):
        rng = random.Random(3)
        labels = ["CLA"] * 3 + ["O"] * 3 + ["QUE"] * 2
        expected = majority_label(labels, schema)
        for _ in range(50):
            rng.shuffle(labels)
            assert majority_label(labels, schema) == expected

    @given(st.lists(st.sampled_from(["O", "CLA", "EXP", "PER", "QUE"]), min_size=1,
                    max_size=12), st.booleans())
    def test_matches_the_full_count(self, schema, labels, with_freq):
        schema = schema if with_freq else schema.with_train_freq({})
        counts = Counter(labels)
        best = max(counts.values())
        expected = min((l for l, c in counts.items() if c == best),
                       key=lambda l: (schema.freq(l), schema.tie_order(l)))
        assert majority_label(labels, schema) == expected

    def test_empty_rejected(self, schema):
        with pytest.raises(ValidationError):
            majority_label([], schema)


class TestProject:
    def test_basic(self):
        assert project_labels("QUE", 3) == ("QUE", "QUE", "QUE")
        assert project_labels("O", 1) == ("O",)

    def test_round_trip_with_majority(self, schema):
        for label in schema.labels:
            for n in (1, 2, 5):
                assert majority_label(project_labels(label, n), schema) == label

    def test_zero_rejected(self):
        with pytest.raises(ValidationError):
            project_labels("O", 0)


class TestPurity:
    def test_seven_of_eight_uniform(self, schema):
        sentences = [make_sent(["CLA", "CLA"], schema) for _ in range(7)]
        sentences.append(make_sent(["CLA", "O"], schema))
        stats = purity_stats(sentences)
        assert (stats.n_sentences, stats.n_uniform) == (8, 7)
        assert stats.uniform_fraction == pytest.approx(0.875)
        assert stats.per_class["CLA"] == 8

    def test_empty(self):
        stats = purity_stats([])
        assert (stats.n_sentences, stats.n_uniform) == (0, 0)
        assert stats.uniform_fraction == 0.0
