"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import os
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from claimaug import morph, senttok, synth, textclf
from claimaug.augment import (
    AugmentConfig,
    EntityDictionary,
    Method,
    aeda,
    augment_minority,
    build_entity_dictionary,
    entity_replace,
    llm_contradict,
    verb_replace,
)
from claimaug.cli import main as cli_main
from claimaug.corpus import LabelSchema, dataset_stats, parse_token_label_file
from claimaug.crf import nll_and_gradient
from claimaug.metrics import ClassMetrics, MetricsReport, compare, score
from claimaug.senttok import purity_stats, split_sentences
from conftest import MockLlmClient, ScriptedRng, make_sentence

from test_crf import (all_sequence_scores, brute_gradient, brute_log_partition, brute_viterbi,
                      random_instance)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE C{number} FAIL - {description}")
        raise
    print(f"\nACCEPTANCE C{number} PASS - {description}")


def test_c1_crf_exactness():
    with criterion(1, "CRF NLL, gradient and Viterbi match enumeration on 200 instances"):
        rng = random.Random(101)
        started = time.perf_counter()
        for _ in range(200):
            model, texts, _ = random_instance(rng, n_max=5, l_max=4)
            # The all-first-label labelling is enumeration row 0; its NLL is log Z minus its score.
            gold = [model.labels[0]] * len(texts)
            got, grad = nll_and_gradient(model, texts, gold)
            _, scores = all_sequence_scores(model, texts)
            expected = brute_log_partition(model, texts) - scores[0]
            assert abs(got - expected) <= 1e-9 * max(1.0, abs(expected))
            expected_grad = brute_gradient(model, texts, gold)
            largest = np.abs(expected_grad).max()
            assert np.abs(grad - expected_grad).max() <= 1e-9 * max(1.0, largest)
            assert model.predict(texts) == brute_viterbi(model, texts)
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def _fd_check(loss_fn, flat_view, grad, coords, h=1e-5):
    for coord in coords:
        flat_view[coord] += h
        up = loss_fn()
        flat_view[coord] -= 2 * h
        down = loss_fn()
        flat_view[coord] += h
        numeric = (up - down) / (2 * h)
        denom = max(abs(numeric), abs(grad[coord]), 1e-8)
        assert abs(grad[coord] - numeric) / denom < 1e-4, coord


def test_c2_gradient_checks():
    with criterion(2, "CRF and classifier gradients match central finite differences"):
        rng = random.Random(202)
        model, texts, _ = random_instance(rng, scale=0.5)
        gold = [model.labels[rng.randrange(len(model.labels))] for _ in texts]
        _, grad = nll_and_gradient(model, texts, gold, l2=0.05)
        coords = rng.sample(range(model.weights.size), min(25, model.weights.size))
        _fd_check(lambda: nll_and_gradient(model, texts, gold, l2=0.05)[0],
                  model.weights, grad, coords)

        np_rng = np.random.default_rng(203)
        weights = np_rng.normal(size=(4, 8))
        bias = np_rng.normal(size=4)
        x = np_rng.normal(size=8)
        y = 3
        for config in (textclf.ClfTrainConfig(),
                       textclf.ClfTrainConfig(epsilon=0.05, adv_weight=0.4)):
            _, dW, db = textclf.example_gradients(weights, bias, x, y, config)
            flat_grad = np.concatenate([dW.ravel(), db])
            params = np.concatenate([weights.ravel(), bias])

            def loss_of_flat():
                w = params[:32].reshape(4, 8)
                b = params[32:]
                return textclf.example_gradients(w, b, x, y, config)[0]

            coords = list(np_rng.choice(params.size, 20, replace=False))
            _fd_check(loss_of_flat, params, flat_grad, coords)


GOLD_SOURCE = "80% of people diagnosed with IBS have Sibo."
ATTACHED = ("80%", "of", "people", "diagnosed", "with", "IBS", "have", "Sibo.")
DETACHED = ("80", "%", "of", "people", "diagnosed", "with", "IBS", "have", "Sibo", ".")


def golden_sentence(texts):
    return senttok.LabeledSentence(doc_id="g", sent_index=0, texts=texts,
                                   token_labels=("CLA",) * len(texts),
                                   sentence_label="CLA")


def test_c3_golden_augmentations():
    with criterion(3, "golden augmentation rows reproduced byte for byte"):
        lexicon = morph.load_default_verb_lexicon()
        antonyms = morph.load_default_antonyms()

        sample = aeda(golden_sentence(ATTACHED),
                      ScriptedRng(randint=[1], sample=[[6]], choice=["!"]))
        assert " ".join(sample.sentence.texts) \
            == "80% of people diagnosed with IBS ! have Sibo."

        pool = ["cause", "diagnose", "have", "help"]
        sample = verb_replace(golden_sentence(DETACHED), lexicon, pool,
                              Method.VR_RANDOM, ScriptedRng(randrange=[1, 0]))
        assert " ".join(sample.sentence.texts) \
            == "80 % of people diagnosed with IBS cause Sibo ."

        sample = verb_replace(golden_sentence(DETACHED), lexicon, antonyms,
                              Method.VR_ANTONYM, ScriptedRng(randrange=[1, 0]))
        assert " ".join(sample.sentence.texts) \
            == "80 % of people diagnosed with IBS abstain Sibo ."

        dictionary = EntityDictionary(entries={
            "PERCENT": (("80%",), ("100", "percent")),
            "PROPER": (("IBS",), ("Sibo.",)),
        })
        sample = entity_replace(golden_sentence(ATTACHED), dictionary,
                                ScriptedRng(randrange=[0, 0]))
        assert " ".join(sample.sentence.texts) \
            == "100 percent of people diagnosed with IBS have Sibo."

        canned = ("Only a small fraction of those diagnosed with IBS actually "
                  "have Small Intestinal Bacterial Overgrowth (SIBO).")
        client = MockLlmClient(reply=canned)
        assert llm_contradict(GOLD_SOURCE, client, 1) == canned
        assert client.prompts == [
            f'Contradict this sentence with colorful words "{GOLD_SOURCE}"']


def _sample_key(sample):
    return (sample.source_id, sample.seed, sample.sentence.texts,
            sample.sentence.token_labels)


def test_c4_operator_invariants():
    with criterion(4, "operator invariants hold on 1000+ random sentences each"):
        lexicon = morph.load_default_verb_lexicon()
        antonyms = morph.load_default_antonyms()
        rng = random.Random(404)
        labels = ("CLA", "EXP", "PER", "QUE", "O")

        def fresh(with_entity=False):
            return make_sentence(rng, lexicon, label=rng.choice(labels),
                                 with_entity=with_entity)

        # Punctuation insertion: reversible, label preserving, deterministic.
        for i in range(1000):
            src = fresh()
            sample = aeda(src, random.Random(i), seed=i)
            again = aeda(src, random.Random(i), seed=i)
            assert _sample_key(sample) == _sample_key(again)
            assert sample.sentence.sentence_label == src.sentence_label
            texts = list(sample.sentence.texts)
            for position in sorted(sample.detail["insert_positions"], reverse=True):
                del texts[position]
            assert tuple(texts) == src.texts

        # Verb replacement, random pool: tense preserved under re-detection.
        pool = ["cause", "help", "reduce", "improve", "diagnose", "have", "take",
                "eat", "go", "feel", "notice", "try", "increase", "walk", "treat"]
        produced = 0
        attempts = 0
        while produced < 1000:
            attempts += 1
            assert attempts < 5000
            src = fresh()
            sample = verb_replace(src, lexicon, pool, Method.VR_RANDOM,
                                  random.Random(attempts), seed=attempts)
            if sample is None:
                continue
            again = verb_replace(src, lexicon, pool, Method.VR_RANDOM,
                                 random.Random(attempts), seed=attempts)
            assert _sample_key(sample) == _sample_key(again)
            assert sample.sentence.sentence_label == src.sentence_label
            replaced = sample.sentence.texts[sample.detail["replaced_index"]]
            detected = morph.detect_verb(replaced, lexicon)
            assert detected is not None
            assert detected[1].value == sample.detail["tense"]
            produced += 1

        # Verb replacement, antonym mode: replacement from the antonym list.
        produced = 0
        attempts = 0
        while produced < 1000:
            attempts += 1
            assert attempts < 20000
            src = fresh()
            sample = verb_replace(src, lexicon, antonyms, Method.VR_ANTONYM,
                                  random.Random(attempts), seed=attempts)
            if sample is None:
                continue
            assert sample.sentence.sentence_label == src.sentence_label
            assert sample.detail["replacement_base"] \
                in antonyms.get(sample.detail["original_base"])
            replaced = sample.sentence.texts[sample.detail["replaced_index"]]
            assert morph.detect_verb(replaced, lexicon)[1].value == sample.detail["tense"]
            produced += 1

        # Entity replacement: category preserved, dictionary membership.
        seed_sentences = [fresh(with_entity=True) for _ in range(300)]
        dictionary = build_entity_dictionary(seed_sentences)
        produced = 0
        attempts = 0
        while produced < 1000:
            attempts += 1
            assert attempts < 5000
            src = fresh(with_entity=True)
            sample = entity_replace(src, dictionary, random.Random(attempts), seed=attempts)
            if sample is None:
                continue
            again = entity_replace(src, dictionary, random.Random(attempts), seed=attempts)
            assert _sample_key(sample) == _sample_key(again)
            assert sample.sentence.sentence_label == src.sentence_label
            category = sample.detail["category"]
            assert tuple(sample.detail["replacement"]) in dictionary.entries[category]
            produced += 1

        # LLM contradiction through the offline mock.
        client = MockLlmClient(reply="Certainly not true at all.")
        for i in range(1000):
            src = fresh()
            reply = llm_contradict(" ".join(src.texts), client, 1 if i % 2 else 2)
            assert reply == "Certainly not true at all."


def _pipeline_f1(train_sentences, dev_pairs, schema, seed):
    config = textclf.ClfTrainConfig(epochs=12, learning_rate=0.25, dim=64, seed=seed)
    model = textclf.train_classifier(
        [list(s.texts) for s in train_sentences],
        [s.sentence_label for s in train_sentences],
        schema.labels, config)
    gold, pred = [], []
    for doc, sentences in dev_pairs:
        gold.extend(doc.token_labels)
        for sentence in sentences:
            pred.extend(senttok.project_labels(model.predict(list(sentence.texts)),
                                               len(sentence.texts)))
    return score(gold, pred, schema).per_class["CLA"].f1


def test_c5_augmentation_lifts_minority_f1():
    with criterion(5, "400 verb-replacement augmentations lift minority F1 by >= 5 points"):
        started = time.perf_counter()
        deltas = []
        for seed in range(1, 6):
            train, _ = synth.generate(seed=1000 + seed)
            dev, _ = synth.generate(seed=2000 + seed)
            schema = train.schema
            train_sentences = [s for d in train.documents
                               for s in split_sentences(d, schema)]
            dev_pairs = [(d, split_sentences(d, schema)) for d in dev.documents]

            baseline = _pipeline_f1(train_sentences, dev_pairs, schema, seed)
            config = AugmentConfig(target_class="CLA", n_samples=400,
                                   method=Method.VR_RANDOM, master_seed=seed)
            samples = augment_minority(train_sentences, config)
            assert len(samples) == 400
            boosted = _pipeline_f1(train_sentences + [s.sentence for s in samples],
                                   dev_pairs, schema, seed)
            deltas.append(boosted - baseline)
        elapsed = time.perf_counter() - started
        mean_delta = sum(deltas) / len(deltas)
        print(f"\nminority F1 deltas: {[round(d, 1) for d in deltas]} "
              f"(mean {mean_delta:.1f}, {elapsed:.0f}s)")
        assert mean_delta >= 5.0
        assert elapsed < 120.0


REFERENCE_TRAIN_TEXTS = 5016
REFERENCE_UNIQUE_WORDS = 39685
REFERENCE_MAX_LENGTH = 1777
REFERENCE_SENTENCES = {"CLA": 401, "EXP": 1917, "O": 19826, "PER": 7824, "QUE": 5064}


def test_c6_real_dataset_reproduction():
    data_path = os.environ.get("CLAIMAUG_REDHOT_TRAIN")
    schema_path = os.environ.get("CLAIMAUG_REDHOT_SCHEMA")
    if not data_path or not os.path.exists(data_path):
        print("\nACCEPTANCE C6 SKIP - set CLAIMAUG_REDHOT_TRAIN (token-label TSV) "
              "and CLAIMAUG_REDHOT_SCHEMA to run against the real training split")
        pytest.skip("real training split not supplied")
    with criterion(6, "supplied training split reproduces the reference statistics"):
        if schema_path:
            with open(schema_path, encoding="utf-8") as f:
                from claimaug.corpus import parse_schema_config
                schema = parse_schema_config(f.read())
        else:
            schema = LabelSchema(outside_label="O",
                                 categories=("CLA", "EXP", "PER", "QUE"))
        with open(data_path, "rb") as f:
            dataset = parse_token_label_file(f.read(), schema)
        stats = dataset_stats(dataset)
        assert stats.n_texts == REFERENCE_TRAIN_TEXTS
        print(f"\nunique words: {stats.n_unique_words} "
              f"(reference {REFERENCE_UNIQUE_WORDS}, tokenizer dependent)")
        print(f"max length: {stats.max_length} (reference {REFERENCE_MAX_LENGTH})")
        schema = schema.with_train_freq(stats.label_dist)
        sentences = [s for d in dataset.documents for s in split_sentences(d, schema)]
        purity = purity_stats(sentences)
        print(f"uniform sentences: {100.0 * purity.uniform_fraction:.1f}%")
        for label, reference in REFERENCE_SENTENCES.items():
            got = purity.per_class.get(label, 0)
            print(f"sentences {label}: {got} (reference {reference}, "
                  f"difference {got - reference:+d})")


def test_c7_metrics_fixture():
    with criterion(7, "hand-computed confusion and tie marking reproduced"):
        schema = LabelSchema(outside_label="O", categories=("CLA",))
        report = score(["CLA", "CLA", "O", "O"], ["CLA", "O", "O", "O"], schema)
        cla = report.per_class["CLA"]
        outside = report.per_class["O"]
        assert abs(cla.precision - 100.0) <= 0.1
        assert abs(cla.recall - 50.0) <= 0.1
        assert abs(cla.f1 - 66.7) <= 0.1
        assert abs(outside.precision - 66.7) <= 0.1
        assert abs(outside.recall - 100.0) <= 0.1
        assert abs(outside.f1 - 80.0) <= 0.1

        def fake_report(cla_f1, macro_f1):
            per_class = {label: ClassMetrics(50.0, 50.0, 50.0, 5)
                         for label in schema.labels}
            per_class["CLA"] = ClassMetrics(cla_f1, cla_f1, cla_f1, 5)
            return MetricsReport(per_class=per_class, macro_precision=macro_f1,
                                 macro_recall=macro_f1, macro_f1=macro_f1)

        comparison = compare({
            "vr-random": fake_report(27.9, 54.5),
            "chat": fake_report(26.2, 54.5),
            "er": fake_report(27.9, 53.6),
            "aeda": fake_report(25.5, 53.1),
        })
        assert comparison.marks["vr-random"]["f1"] == "best"
        assert comparison.marks["chat"]["f1"] == "best"
        assert comparison.marks["aeda"]["f1"] == "worst"


def test_c8_worker_determinism(tmp_path):
    with criterion(8, "augment command output identical with 1 and 4 workers"):
        fixture_dir = str(tmp_path / "fx")
        assert cli_main(["make-fixture", "--seed", "8", "--out", fixture_dir,
                         "--sizes", "CLA=60,EXP=80,O=200,PER=80,QUE=60"]) == 0
        outputs = {}
        for workers in ("1", "4"):
            out = str(tmp_path / f"aug{workers}")
            code = cli_main([
                "augment",
                "--data", os.path.join(fixture_dir, "corpus.tsv"),
                "--schema", os.path.join(fixture_dir, "schema.cfg"),
                "--method", "vr-random", "--target-class", "CLA",
                "--n-samples", "50", "--per-sentence", "2",
                "--seed", "77", "--out", out, "--workers", workers, "--offline"])
            assert code == 0
            with open(os.path.join(out, "augmented.tsv"), "rb") as f:
                corpus = f.read()
            with open(os.path.join(out, "manifest.jsonl"), "rb") as f:
                manifest = f.read()
            outputs[workers] = (corpus, manifest)
        assert outputs["1"] == outputs["4"]
        assert len(outputs["1"][1].splitlines()) == 100
