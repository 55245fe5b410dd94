import re
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from claimaug import corpus, morph
from claimaug.corpus import (
    Dataset,
    Document,
    LabelSchema,
    dataset_stats,
    format_schema_config,
    parse_schema_config,
    parse_token_label_file,
    serialize_token_label_file,
)
from claimaug.errors import ParseError, SchemaError, ValidationError


def make_doc(texts, labels, doc_id="d0"):
    return Document(id=doc_id, texts=texts, token_labels=labels)


class TestSchema:
    def test_outside_cannot_be_category(self):
        with pytest.raises(SchemaError):
            LabelSchema(outside_label="O", categories=("O", "CLA"))

    def test_duplicate_categories_rejected(self):
        with pytest.raises(SchemaError):
            LabelSchema(outside_label="O", categories=("CLA", "CLA"))

    def test_negative_frequency_rejected(self):
        with pytest.raises(SchemaError):
            LabelSchema(outside_label="O", categories=("CLA",), train_freq={"CLA": -1})

    def test_config_round_trip(self, schema):
        parsed = parse_schema_config(format_schema_config(schema))
        assert parsed == schema

    def test_config_parse(self):
        schema = parse_schema_config("outside = O\ncategories = CLA, EXP\nfreq.CLA = 10\n")
        assert schema.outside_label == "O"
        assert schema.categories == ("CLA", "EXP")
        assert schema.train_freq == {"CLA": 10}

    def test_config_unknown_key(self):
        with pytest.raises(ParseError):
            parse_schema_config("outside = O\ncategories = CLA\nbogus = 1\n")

    def test_config_repeated_key(self):
        text = "outside = O\ncategories = CLA\nfreq.CLA = 10\n# again\nfreq.CLA = 12\n"
        with pytest.raises(ParseError, match=r"^line 5: key 'freq.CLA' repeats line 3$"):
            parse_schema_config(text)


# Labels from characters that the schema config writes and reads back
# unchanged: no whitespace, comma, `=` or `#`.
LABELS = st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_-.",
                 min_size=1, max_size=6)


@st.composite
def schemas(draw):
    labels = draw(st.lists(LABELS, min_size=2, max_size=6, unique=True))
    counted = draw(st.lists(st.sampled_from(labels), unique=True))
    freq = {label: draw(st.integers(min_value=0, max_value=10**9)) for label in counted}
    return LabelSchema(outside_label=labels[0], categories=tuple(labels[1:]), train_freq=freq)


@given(schemas())
def test_schema_config_round_trips(schema):
    assert parse_schema_config(format_schema_config(schema)) == schema


class TestTokenLabelFile:
    def test_two_blocks(self, schema):
        data = b"I\tO\nran\tO\n.\tO\n\nIt\tCLA\nhelped\tCLA\n"
        dataset = parse_token_label_file(data, schema)
        assert len(dataset.documents) == 2
        assert [d.texts for d in dataset.documents] == [("I", "ran", "."), ("It", "helped")]
        assert dataset.documents[1].token_labels == ("CLA", "CLA")

    def test_empty_file(self, schema):
        dataset = parse_token_label_file(b"", schema)
        assert dataset.documents == ()
        assert serialize_token_label_file(dataset.documents) == b""

    def test_wrong_column_count_reports_line(self, schema):
        data = b"I\tO\nhave\tCLA\textra\n"
        with pytest.raises(ParseError) as exc:
            parse_token_label_file(data, schema)
        assert exc.value.line == 2

    def test_empty_token_reports_line(self, schema):
        with pytest.raises(ParseError) as exc:
            parse_token_label_file(b"I\tO\n\n\tO\n", schema)
        assert exc.value.line == 3

    def test_token_with_space_reports_line(self, schema):
        with pytest.raises(ParseError) as exc:
            parse_token_label_file(b"I\tO\nran away\tO\n", schema)
        assert exc.value.line == 2

    def test_unknown_label(self, schema):
        with pytest.raises(SchemaError):
            parse_token_label_file(b"I\tBOGUS\n", schema)

    def test_round_trip_bytes(self, schema):
        data = b"I\tO\nran\tO\n\nIt\tCLA\n"
        dataset = parse_token_label_file(data, schema)
        assert serialize_token_label_file(dataset.documents) == data

    def test_serializes_sentences_too(self, schema):
        from claimaug.senttok import split_sentences
        dataset = parse_token_label_file(b"I\tO\nran\tO\n.\tO\nIt\tCLA\n", schema)
        sentences = split_sentences(dataset.documents[0], schema)
        assert serialize_token_label_file(sentences) == b"I\tO\nran\tO\n.\tO\n\nIt\tCLA\n"

    def test_double_blank_lines_tolerated(self, schema):
        dataset = parse_token_label_file(b"a\tO\n\n\n\nb\tO\n", schema)
        assert len(dataset.documents) == 2


# Any character but whitespace (line breaks included) and lone surrogates.
TOKENS = st.text(alphabet=st.characters(blacklist_categories=("Cs",)).filter(
    lambda c: not c.isspace()), min_size=1, max_size=6)
BLOCKS = st.lists(st.lists(st.tuples(TOKENS, st.sampled_from(("O", "CLA", "QUE"))),
                           min_size=1, max_size=8), max_size=5)


@given(BLOCKS)
def test_serialize_then_parse_round_trips(blocks):
    schema = LabelSchema(outside_label="O", categories=("CLA", "QUE"))
    documents = [Document(id=f"d{i}", texts=[t for t, _ in block],
                          token_labels=[l for _, l in block])
                 for i, block in enumerate(blocks)]
    parsed = parse_token_label_file(serialize_token_label_file(documents), schema)
    assert parsed.documents == tuple(documents)


# Whitespace that does not end a line, so the token stays on its line; a tab
# would add a field instead.
INNER_WHITESPACE = [c for c in map(chr, range(sys.maxunicode + 1))
                    if c.isspace() and c != "\t" and len(f"a{c}b".splitlines()) == 1]


@given(BLOCKS, st.data())
def test_whitespace_in_a_token_is_reported_at_its_line(blocks, data):
    rows = [row for block in blocks for row in block]
    if not rows:
        return
    bad = data.draw(st.integers(0, len(rows) - 1))
    space = data.draw(st.sampled_from(INNER_WHITESPACE))
    at = data.draw(st.integers(0, len(rows[bad][0])))
    documents, lines, line_of, n = [], 0, {}, 0
    for i, block in enumerate(blocks):
        texts = []
        for token, _ in block:
            line_of[n] = lines + len(texts) + 1
            texts.append(token[:at] + space + token[at:] if n == bad else token)
            n += 1
        documents.append(Document(id=f"d{i}", texts=texts, token_labels=[l for _, l in block]))
        lines += len(block) + 1
    schema = LabelSchema(outside_label="O", categories=("CLA", "QUE"))
    with pytest.raises(ParseError) as exc:
        parse_token_label_file(serialize_token_label_file(documents), schema)
    assert exc.value.line == line_of[bad]
    assert str(exc.value).startswith(f"line {line_of[bad]}: bad token text ")


def test_whitespace_search_agrees_with_isspace_on_every_code_point():
    # The token-label parser and the verb lexicon loader both test for
    # whitespace with one `\s` search instead of `str.isspace` per character.
    assert corpus._WHITESPACE.pattern == morph._WHITESPACE.pattern == r"\s"
    search = re.compile(r"\s").search
    disagree = [hex(cp) for cp in range(sys.maxunicode + 1)
                if (search(chr(cp)) is not None) != chr(cp).isspace()]
    assert disagree == []


def test_dataset_names_the_first_unknown_label(schema):
    with pytest.raises(SchemaError, match="unknown label 'BOGUS'"):
        Dataset(schema=schema, documents=[make_doc(["a", "b"], ["O", "CLA"]),
                                          make_doc(["c", "d"], ["QUE", "BOGUS"], "d1")])


class TestDatasetStats:
    def test_single_doc(self, schema):
        dataset = Dataset(schema=schema, documents=(make_doc(["a", "b", "a"], ["O"] * 3),))
        stats = dataset_stats(dataset)
        assert (stats.n_texts, stats.n_unique_words, stats.max_length) == (1, 2, 3)

    def test_unique_words_case_sensitive(self, schema):
        dataset = Dataset(schema=schema, documents=(make_doc(["A", "a"], ["O", "O"]),))
        assert dataset_stats(dataset).n_unique_words == 2

    def test_label_dist_sums_to_token_count(self, schema):
        docs = (make_doc(["a", "b"], ["CLA", "O"]), make_doc(["c"], ["QUE"], "d1"))
        stats = dataset_stats(Dataset(schema=schema, documents=docs))
        assert sum(stats.label_dist.values()) == 3
        assert stats.label_dist["CLA"] == 1

    def test_empty_document_changes_only_n_texts(self, schema):
        base = (make_doc(["a", "b"], ["CLA", "O"]),)
        with_empty = base + (Document(id="d9", texts=(), token_labels=()),)
        s1 = dataset_stats(Dataset(schema=schema, documents=base))
        s2 = dataset_stats(Dataset(schema=schema, documents=with_empty))
        assert s2.n_texts == s1.n_texts + 1
        assert (s2.n_unique_words, s2.max_length, s2.label_dist) == \
            (s1.n_unique_words, s1.max_length, s1.label_dist)

    def test_document_fields_become_tuples(self):
        doc = make_doc(["a", "b"], ["CLA", "O"])
        assert doc.texts == ("a", "b") and doc.token_labels == ("CLA", "O")
        hash(doc)

    def test_mismatched_labels_rejected(self, schema):
        with pytest.raises(ValidationError):
            make_doc(["a", "b"], ["O"])
