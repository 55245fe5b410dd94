import random
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimaug import morph, synth
from claimaug.corpus import (
    Dataset,
    Document,
    dataset_stats,
    format_schema_config,
    serialize_token_label_file,
)
from claimaug.senttok import purity_stats, split_sentences


def split_all(dataset):
    return [s for doc in dataset.documents
            for s in split_sentences(doc, dataset.schema)]


class TestGenerator:
    def test_stats_match_bookkeeping(self):
        dataset, bookkeeping = synth.generate(seed=3)
        stats = dataset_stats(dataset)
        assert stats.n_texts == bookkeeping.n_texts
        assert stats.n_unique_words == bookkeeping.n_unique_words
        assert stats.max_length == bookkeeping.max_length
        assert stats.label_dist == bookkeeping.label_token_dist

    def test_purity_matches_bookkeeping(self):
        dataset, bookkeeping = synth.generate(seed=4)
        stats = purity_stats(split_all(dataset))
        assert stats.n_sentences == bookkeeping.n_sentences
        assert stats.n_uniform == bookkeeping.n_uniform
        for label, count in bookkeeping.per_class_sentences.items():
            assert stats.per_class.get(label, 0) == count

    def test_default_sizes_are_imbalanced(self):
        dataset, bookkeeping = synth.generate(seed=5)
        counts = bookkeeping.per_class_sentences
        assert counts["CLA"] == 40
        minority_share = counts["CLA"] / bookkeeping.n_sentences
        assert minority_share < 0.02

    def test_fixed_seed_reproducible(self):
        a, _ = synth.generate(seed=6)
        b, _ = synth.generate(seed=6)
        assert serialize_token_label_file(a.documents) == serialize_token_label_file(b.documents)

    def test_custom_sizes(self):
        dataset, bookkeeping = synth.generate(sizes={"CLA": 3, "O": 7}, seed=7)
        assert bookkeeping.per_class_sentences["CLA"] == 3
        assert bookkeeping.per_class_sentences["O"] == 7
        assert bookkeeping.n_sentences == 10

    def test_schema_carries_token_frequencies(self):
        dataset, bookkeeping = synth.generate(sizes={"CLA": 5, "O": 20}, seed=8)
        assert dataset.schema.train_freq == bookkeeping.label_token_dist


# The generator as it was written on `random.Random`'s own sample, choice,
# randint and shuffle: the oracle for the draws `synth.generate` makes itself.
def reference_sentence(label, rng, lexicon, impure_frac):
    keywords = rng.sample(synth.KEYWORDS[label], rng.randint(2, 3))
    verb = morph.conjugate(rng.choice(synth.VERBS[label]), rng.choice(synth._TENSES), lexicon)
    middle = keywords + rng.sample(synth.FILLER, rng.randint(2, 4))
    rng.shuffle(middle)
    texts = [rng.choice(synth.SUBJECTS), verb] + middle
    if rng.random() < 0.5:
        kind = rng.randrange(3)
        if kind == 0:
            entity = [str(rng.randint(5, 99)), "%"]
        elif kind == 1:
            entity = [str(rng.randint(2, 500))]
        else:
            entity = [rng.choice(synth.PROPER_NAMES)]
        at = rng.randint(1, len(texts))
        texts[at:at] = entity
    texts.append("?" if label == "QUE" else ("!" if rng.random() < 0.1 else "."))

    labels = [label] * len(texts)
    uniform = True
    if label != synth.SCHEMA.outside_label and rng.random() < impure_frac:
        labels[-1] = synth.SCHEMA.outside_label
        uniform = False
    return texts, labels, uniform


def reference_generate(sizes, seed, impure_frac=0.12):
    rng = random.Random(seed)
    lexicon = morph.load_default_verb_lexicon()
    sentence_pool = []
    per_class = {label: 0 for label in synth.SCHEMA.labels}
    label_dist = {label: 0 for label in synth.SCHEMA.labels}
    words = set()
    n_uniform = 0
    for label in sorted(sizes):
        for _ in range(sizes[label]):
            texts, labels, uniform = reference_sentence(label, rng, lexicon, impure_frac)
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
        documents.append(Document(id=f"syn{len(documents)}", texts=texts,
                                  token_labels=labels))

    dataset = Dataset(schema=synth.SCHEMA.with_train_freq(label_dist),
                      documents=tuple(documents))
    bookkeeping = synth.Bookkeeping(
        n_texts=len(documents),
        n_sentences=len(sentence_pool),
        n_uniform=n_uniform,
        per_class_sentences=per_class,
        label_token_dist=label_dist,
        n_unique_words=len(words),
        max_length=max_length,
    )
    return dataset, bookkeeping


SIZES = st.dictionaries(st.sampled_from(synth.SCHEMA.labels), st.integers(0, 40))


class TestDrawsMatchRandomRandom:
    @settings(deadline=None)
    @given(seed=st.integers(0, 2**64), sizes=SIZES)
    def test_generate_gives_the_reference_corpus(self, seed, sizes):
        dataset, bookkeeping = synth.generate(sizes=sizes, seed=seed)
        expected, expected_bookkeeping = reference_generate(sizes, seed)
        assert (serialize_token_label_file(dataset.documents)
                == serialize_token_label_file(expected.documents))
        assert format_schema_config(dataset.schema) == format_schema_config(expected.schema)
        assert asdict(bookkeeping) == asdict(expected_bookkeeping)

    # random.Random.sample takes its pool path up to 21 items and its
    # rejection-set path above, for every k <= 5.
    @pytest.mark.parametrize("n", [4, 20, 21, 22, 24, 42])
    @pytest.mark.parametrize("k", range(5))
    def test_sample_takes_both_paths_of_random_sample(self, n, k):
        population = tuple(range(100, 100 + n))
        for seed in range(40):
            ours, theirs = random.Random(seed), random.Random(seed)
            _, sample, _ = synth._draws(ours)
            assert sample(population, k) == theirs.sample(population, k)
            # Both consumed the same stretch of the stream.
            assert ours.getrandbits(32) == theirs.getrandbits(32)

    def test_shuffle_and_below_are_random_shuffle_and_randrange(self):
        for seed in range(40):
            ours, theirs = random.Random(seed), random.Random(seed)
            below, _, shuffle = synth._draws(ours)
            for length in range(12):
                items, expected = list(range(length)), list(range(length))
                shuffle(items)
                theirs.shuffle(expected)
                assert items == expected
            for n in (1, 2, 3, 4, 95, 499, 2**31 + 1):
                assert below(n) == theirs.randrange(n)
            assert ours.getrandbits(32) == theirs.getrandbits(32)
