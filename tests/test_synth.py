from claimaug import synth
from claimaug.corpus import dataset_stats, serialize_token_label_file
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
