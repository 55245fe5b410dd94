import concurrent.futures
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimaug import augment as aug
from claimaug import morph, synth
from claimaug.augment import (
    AugmentConfig,
    EntityDictionary,
    EntitySpan,
    Method,
    aeda,
    augment_minority,
    build_entity_dictionary,
    build_verb_pool,
    default_entity_annotator,
    entity_replace,
    llm_contradict,
    verb_replace,
)
from claimaug.errors import (
    AugmentationError,
    AugmentationFailed,
    ConfigurationError,
)
from claimaug.senttok import split_sentences
from conftest import MockLlmClient, make_sentence


def sentence_from(texts, label="CLA", doc_id="doc", sent_index=0):
    from claimaug.senttok import LabeledSentence
    return LabeledSentence(doc_id=doc_id, sent_index=sent_index, texts=texts,
                           token_labels=(label,) * len(texts), sentence_label=label)


class TestAeda:
    def test_reversible_any_seed(self, lexicon):
        rng = random.Random(0)
        for seed in range(50):
            src = make_sentence(rng, lexicon)
            sample = aeda(src, random.Random(seed), seed=seed)
            texts = list(sample.sentence.texts)
            for position in sorted(sample.detail["insert_positions"], reverse=True):
                del texts[position]
            assert tuple(texts) == src.texts

    def test_single_token_gets_one_insertion(self):
        src = sentence_from(["word"])
        sample = aeda(src, random.Random(1))
        assert len(sample.sentence.texts) == 2
        assert len(sample.detail["insert_positions"]) == 1

    def test_insertion_count_bounds(self):
        src = sentence_from([f"w{i}" for i in range(12)])
        for seed in range(30):
            sample = aeda(src, random.Random(seed))
            k = len(sample.detail["insert_positions"])
            assert 1 <= k <= 4

    def test_inserted_tokens_carry_sentence_label(self):
        src = sentence_from(["a", "b", "c"], label="QUE")
        sample = aeda(src, random.Random(3))
        for position in sample.detail["insert_positions"]:
            assert sample.sentence.token_labels[position] == "QUE"


class TestVerbReplace:
    def test_no_verb_returns_none(self, lexicon, antonyms):
        src = sentence_from(["quiet", "banana", "forest"])
        assert verb_replace(src, lexicon, ["cause"], Method.VR_RANDOM,
                            random.Random(0)) is None

    def test_random_mode_excludes_original(self, lexicon):
        src = sentence_from(["They", "walked", "home", "."])
        for seed in range(20):
            sample = verb_replace(src, lexicon, ["walk", "cause", "treat"],
                                  Method.VR_RANDOM, random.Random(seed))
            assert sample.detail["replacement_base"] != "walk"

    def test_tense_preserved_on_redetect(self, lexicon):
        src = sentence_from(["They", "walked", "home", "."])
        pool = ["cause", "treat", "go", "have"]
        sample = verb_replace(src, lexicon, pool, Method.VR_RANDOM, random.Random(1))
        new_token = sample.sentence.texts[sample.detail["replaced_index"]]
        assert morph.detect_verb(new_token, lexicon)[1] is morph.Tense.PAST

    def test_antonym_mode_uses_antonym_list(self, lexicon, antonyms):
        src = sentence_from(["Prices", "increased", "again", "."])
        sample = verb_replace(src, lexicon, antonyms, Method.VR_ANTONYM, random.Random(0))
        assert sample.detail["original_base"] == "increase"
        assert sample.detail["replacement_base"] in antonyms.get("increase")

    def test_no_antonym_returns_none(self, lexicon):
        src = sentence_from(["They", "walked", "home", "."])
        empty = morph.AntonymLexicon(entries={})
        assert verb_replace(src, lexicon, empty, Method.VR_ANTONYM,
                            random.Random(0)) is None

    def test_capitalization_preserved(self, lexicon):
        src = sentence_from(["Walked", "home", "."])
        sample = verb_replace(src, lexicon, ["cause", "treat"],
                              Method.VR_RANDOM, random.Random(2))
        replacement = sample.sentence.texts[sample.detail["replaced_index"]]
        assert replacement[0].isupper()

    def test_labels_unchanged(self, lexicon):
        src = sentence_from(["They", "walked", "home", "."], label="EXP")
        sample = verb_replace(src, lexicon, ["cause"], Method.VR_RANDOM, random.Random(0))
        assert sample.sentence.token_labels == src.token_labels

    def test_every_replacement_base_conjugates(self, lexicon, antonyms):
        # Candidates are conjugated by `morph.conjugate`, which knows only lexicon
        # bases, so every pool base must be one, and so must every bundled antonym
        # (asserted for the data in test_morph.py).
        every_surface = sentence_from(sorted(lexicon.reverse))
        assert set(build_verb_pool([every_surface], lexicon)) <= set(lexicon.entries)
        for base in antonyms.entries:
            for tense in morph.Tense:
                for _, surface in aug._verb_candidates(
                        base, tense, lexicon, antonyms, Method.VR_ANTONYM):
                    assert morph.detect_verb(surface, lexicon)[1] is tense


class TestDefaultAnnotator:
    def test_percent_two_tokens(self):
        spans = default_entity_annotator(["80", "%", "of", "people"])
        assert EntitySpan(0, 2, "PERCENT") in spans

    def test_percent_word_form(self):
        spans = default_entity_annotator(["80", "percent", "of", "people"])
        assert EntitySpan(0, 2, "PERCENT") in spans

    def test_percent_attached(self):
        spans = default_entity_annotator(["80%", "of", "people"])
        assert EntitySpan(0, 1, "PERCENT") in spans

    def test_proper_non_initial(self):
        spans = default_entity_annotator(["I", "have", "IBS"])
        assert spans == [EntitySpan(2, 3, "PROPER")]

    def test_proper_excludes_sentence_initial(self):
        assert default_entity_annotator(["Hello", "there"]) == []

    def test_proper_maximal_run(self):
        spans = default_entity_annotator(["the", "Mayo", "Clinic", "says"])
        assert spans == [EntitySpan(1, 3, "PROPER")]

    def test_cardinal_standalone_number(self):
        spans = default_entity_annotator(["took", "20", "pills"])
        assert spans == [EntitySpan(1, 2, "CARDINAL")]

    def test_lowercase_digit_free_no_spans(self):
        assert default_entity_annotator(["all", "lower", "case", "words"]) == []

    def test_spans_never_overlap(self):
        rng = random.Random(9)
        vocabulary = ["80", "%", "percent", "IBS", "Sibo", "low", "20", "the", "Mayo"]
        for _ in range(300):
            texts = [rng.choice(vocabulary) for _ in range(rng.randint(1, 12))]
            spans = default_entity_annotator(texts)
            # In start order, each span ending before the next one starts.
            for prev, cur in zip(spans, spans[1:]):
                assert cur.token_start >= prev.token_end


def reference_annotator(texts):
    """`default_entity_annotator` as it was before its early exit, kept as the reference."""
    spans = []
    taken = [False] * len(texts)

    def claim(start, end, category):
        spans.append(EntitySpan(start, end, category))
        for i in range(start, end):
            taken[i] = True

    i = 0
    while i < len(texts):
        if not taken[i] and aug._NUMBER_RE.match(texts[i]) and i + 1 < len(texts) \
                and texts[i + 1] in ("%", "percent"):
            claim(i, i + 2, "PERCENT")
            i += 2
            continue
        if not taken[i] and aug._ATTACHED_PERCENT_RE.match(texts[i]):
            claim(i, i + 1, "PERCENT")
        i += 1
    for i, text in enumerate(texts):
        if not taken[i] and aug._NUMBER_RE.match(text):
            claim(i, i + 1, "CARDINAL")
    run_start = None
    for i in range(len(texts) + 1):
        capitalized = (i < len(texts) and i > 0 and not taken[i]
                       and texts[i][0].isalpha() and texts[i][0].isupper())
        if capitalized and run_start is None:
            run_start = i
        elif not capitalized and run_start is not None:
            claim(run_start, i, "PROPER")
            run_start = None
    return sorted(spans, key=lambda s: s.token_start)


# '٣' is a decimal digit outside ASCII; '²' is a digit but not decimal, and
# 'Ⅷ' is upper case but not a letter. 'Percent' is capitalized but not a
# percent word; '1,5' is a number with a comma, which an attached percent may
# not have; '7.5%' is an attached percent; '5%%' and '12a' start with a digit
# but match no pattern; the titlecase letter 'ǅ' is not upper case.
ANNOTATOR_TOKENS = st.sampled_from([
    "0", "7", "42", "٣", "²", "%", "percent", "Percent", "80%", "7.5%", "5%%", "3.5",
    "1,5", "12a", "Sibo", "IBS", "Mayo", "Ⅷ", "ǅ", "the", "low", "of", "ran", ".",
])


@given(st.lists(ANNOTATOR_TOKENS, max_size=12))
def test_annotator_equals_the_reference(texts):
    assert default_entity_annotator(texts) == reference_annotator(texts)


def test_decimal_digits_are_the_number_patterns_digits():
    # The annotator's first-character gate tests `str.isdecimal` where its patterns use `\d`.
    disagree = [hex(cp) for cp in range(sys.maxunicode + 1)
                if (aug._NUMBER_RE.match(chr(cp)) is not None) != chr(cp).isdecimal()]
    assert disagree == []


def test_verb_pool_equals_a_per_token_loop(lexicon):
    dataset, _ = synth.generate(sizes={"CLA": 20, "EXP": 20, "O": 60, "PER": 20, "QUE": 20},
                                seed=11)
    sentences = [s for doc in dataset.documents for s in split_sentences(doc, dataset.schema)]
    # A verb that only opens a sentence, in a case no fixture sentence uses.
    sentences.append(sentence_from(["ZIGZAGGED", "home"]))
    pool = set()
    for sentence in sentences:
        for text in sentence.texts:
            detected = morph.detect_verb(text, lexicon)
            if detected is not None:
                pool.add(detected[0])
    assert len(pool) > 10 and "zigzag" in pool
    assert build_verb_pool(sentences, lexicon) == sorted(pool)


class TestEntityReplace:
    dictionary = EntityDictionary(entries={
        "PERCENT": (("80", "%"), ("100", "percent")),
        "CARDINAL": (("20",), ("7",)),
        "PROPER": (("IBS",), ("Sibo",)),
    })

    def test_entity_free_returns_none(self):
        src = sentence_from(["no", "entities", "here"])
        assert entity_replace(src, self.dictionary, random.Random(0)) is None

    def test_single_candidate_returns_none(self):
        src = sentence_from(["about", "80", "%", "sure"])
        single = EntityDictionary(entries={"PERCENT": (("80", "%"),),
                                           "CARDINAL": (("20",),),
                                           "PROPER": (("IBS",),)})
        assert entity_replace(src, single, random.Random(0)) is None

    def test_missing_category_is_configuration_error(self):
        src = sentence_from(["about", "80", "%", "sure"])
        missing = EntityDictionary(entries={"PROPER": (("IBS",),)})
        with pytest.raises(ConfigurationError):
            entity_replace(src, missing, random.Random(0))

    def test_replacement_swaps_and_relabels(self):
        src = sentence_from(["about", "80", "%", "sure"], label="EXP")
        sample = entity_replace(src, self.dictionary, random.Random(0))
        assert sample.detail["category"] == "PERCENT"
        assert sample.detail["replacement"] == ["100", "percent"]
        assert sample.sentence.texts == ("about", "100", "percent", "sure")
        assert set(sample.sentence.token_labels) == {"EXP"}


class TestLlm:
    def test_prompt_template_variant_one(self):
        client = MockLlmClient(reply="The opposite.")
        reply = llm_contradict("IBS is common.", client, 1)
        assert reply == "The opposite."
        assert client.prompts == ['Contradict this sentence with colorful words "IBS is common."']

    def test_prompt_template_variant_two(self):
        client = MockLlmClient(reply="x")
        llm_contradict("IBS is common.", client, 2)
        assert client.prompts[0].startswith("Without using despite, while, and although, ")

    def test_retries_then_succeeds(self):
        client = MockLlmClient(reply="ok", fail_times=2)
        pauses = []
        assert llm_contradict("s", client, 1, retries=3, sleep=pauses.append) == "ok"
        assert len(pauses) == 2

    def test_exhausted_retries_raise(self):
        from claimaug.errors import LlmTransportError
        client = MockLlmClient(reply="ok", fail_times=5)
        pauses = []
        with pytest.raises(LlmTransportError):
            llm_contradict("s", client, 1, retries=3, sleep=pauses.append)
        assert len(pauses) == 2

    def test_empty_completion_fails(self):
        client = MockLlmClient(reply="   ")
        with pytest.raises(AugmentationFailed):
            llm_contradict("s", client, 1)

    def test_bad_variant_rejected(self):
        with pytest.raises(ConfigurationError):
            llm_contradict("s", MockLlmClient(reply="x"), 3)


def fleet(n, lexicon, label="CLA", with_entity=False, seed=0):
    rng = random.Random(seed)
    return [make_sentence(rng, lexicon, label=label, with_entity=with_entity,
                          doc_id=f"d{i}", sent_index=i % 3) for i in range(n)]


class TestScheduler:
    def test_400_of_401_sources_distinct(self, lexicon):
        sentences = fleet(401, lexicon)
        config = AugmentConfig(target_class="CLA", n_samples=400,
                               method=Method.AEDA, master_seed=9)
        samples = augment_minority(sentences, config)
        assert len(samples) == 400
        assert len(set(s.source_id for s in samples)) == 400

    def test_100_samples(self, lexicon):
        sentences = fleet(401, lexicon)
        config = AugmentConfig(target_class="CLA", n_samples=100,
                               method=Method.AEDA, master_seed=9)
        samples = augment_minority(sentences, config)
        assert len(samples) == 100

    def test_per_sentence_four_yields_1600(self, lexicon):
        sentences = fleet(401, lexicon)
        config = AugmentConfig(target_class="CLA", n_samples=400, per_sentence=4,
                               method=Method.AEDA, master_seed=9)
        samples = augment_minority(sentences, config)
        assert len(samples) == 1600

    def test_cycles_with_replacement_when_short(self, lexicon):
        sentences = fleet(5, lexicon)
        config = AugmentConfig(target_class="CLA", n_samples=12,
                               method=Method.AEDA, master_seed=4)
        samples = augment_minority(sentences, config)
        assert len(samples) == 12
        assert len(set((s.source_id, s.seed) for s in samples)) == 12

    def test_zero_producible_raises_with_histogram(self):
        sentences = [sentence_from(["plain", "words", "only"], doc_id=f"d{i}")
                     for i in range(4)]
        config = AugmentConfig(target_class="CLA", n_samples=3,
                               method=Method.ER, master_seed=1)
        with pytest.raises(AugmentationError) as exc:
            augment_minority(sentences, config)
        assert exc.value.reasons.get("no_entity_or_candidate", 0) > 0

    def test_missing_target_class(self, lexicon):
        sentences = fleet(3, lexicon, label="EXP")
        config = AugmentConfig(target_class="CLA", n_samples=1,
                               method=Method.AEDA, master_seed=1)
        with pytest.raises(ConfigurationError):
            augment_minority(sentences, config)

    def test_deterministic_same_seed(self, lexicon):
        sentences = fleet(30, lexicon, with_entity=True)
        client = MockLlmClient(reply="Not so.")
        for method in (Method.AEDA, Method.VR_RANDOM, Method.VR_ANTONYM,
                       Method.ER, Method.LLM):
            config = AugmentConfig(target_class="CLA", n_samples=10,
                                   method=method, master_seed=11)
            first = augment_minority(sentences, config, llm_client=client)
            second = augment_minority(sentences, config, llm_client=client)
            assert [(s.source_id, s.seed, s.sentence.texts, s.sentence.token_labels)
                    for s in first] \
                == [(s.source_id, s.seed, s.sentence.texts, s.sentence.token_labels)
                    for s in second], method

    def test_workers_do_not_change_output(self, lexicon):
        sentences = fleet(50, lexicon, with_entity=True)
        config = AugmentConfig(target_class="CLA", n_samples=30,
                               method=Method.VR_RANDOM, master_seed=2)
        serial = augment_minority(sentences, config, workers=1)
        threaded = augment_minority(sentences, config, workers=4)
        assert [(s.source_id, s.seed, s.sentence.texts) for s in serial] \
            == [(s.source_id, s.seed, s.sentence.texts) for s in threaded]

    def test_llm_prompt_variants_split_halves(self, lexicon):
        sentences = fleet(10, lexicon)
        client = MockLlmClient(reply="Nope.")
        config = AugmentConfig(target_class="CLA", n_samples=10,
                               method=Method.LLM, master_seed=3)
        samples = augment_minority(sentences, config, llm_client=client)
        variants = [s.detail["prompt_variant"] for s in samples]
        assert variants == [1] * 5 + [2] * 5

    @pytest.mark.parametrize("n_samples", [1, 10])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_sequential_llm_calls_client_once_per_sample(self, lexicon, workers, n_samples):
        # No trial runs ahead of need, whatever the worker count: a request is a paid call.
        sentences = fleet(10, lexicon)
        client = MockLlmClient(reply="Nope.")
        config = AugmentConfig(target_class="CLA", n_samples=n_samples,
                               method=Method.LLM, master_seed=3)
        samples = augment_minority(sentences, config, llm_client=client, workers=workers)
        assert len(samples) == n_samples
        assert len(client.prompts) == n_samples

    @pytest.mark.parametrize("workers", [1, 4])
    def test_gives_up_after_a_full_round_of_failures(self, lexicon, workers):
        # One success, then only empty completions: the loop must stop on its own
        # after one failed trial per source sentence, long before the client's cap.
        class CappedClient(MockLlmClient):
            def complete(self, prompt):
                if len(self.prompts) >= 1000:
                    raise RuntimeError("scheduler kept calling after 1000 requests")
                return super().complete(prompt)

        sentences = fleet(10, lexicon)
        client = CappedClient(replies=["Not so."])
        config = AugmentConfig(target_class="CLA", n_samples=2,
                               method=Method.LLM, master_seed=3)
        with pytest.raises(AugmentationError) as exc:
            augment_minority(sentences, config, llm_client=client, workers=workers)
        assert exc.value.reasons == {"empty_completion": 10}
        assert len(client.prompts) == 11

    @settings(max_examples=40, deadline=None)
    @given(n_samples=st.integers(1, 12),
           failing=st.sets(st.integers(0, 5)),
           workers=st.sampled_from([2, 3, 4]))
    def test_workers_make_the_sequential_calls(self, lexicon, n_samples, failing, workers):
        # The sources whose index is in `failing` always get an empty completion.
        sentences = fleet(6, lexicon)
        failing_texts = {" ".join(sentences[i].texts) for i in failing}

        class ScriptedClient:
            def __init__(self):
                self.prompts = []

            def complete(self, prompt):
                self.prompts.append(prompt)
                return "" if prompt.split('"')[1] in failing_texts else "Not so."

        def outcome(workers):
            client = ScriptedClient()
            config = AugmentConfig(target_class="CLA", n_samples=n_samples,
                                   method=Method.LLM, master_seed=5)
            try:
                result = [s.source_id for s in augment_minority(
                    sentences, config, llm_client=client, workers=workers)]
            except AugmentationError as exc:
                result = exc.reasons
            return result, sorted(client.prompts)

        assert outcome(workers) == outcome(1)

    def test_workers_below_one_rejected(self, lexicon):
        config = AugmentConfig(target_class="CLA", n_samples=1,
                               method=Method.AEDA, master_seed=1)
        with pytest.raises(ConfigurationError):
            augment_minority(fleet(3, lexicon), config, workers=0)


class TestPerRunMemo:
    @settings(max_examples=30, deadline=None)
    @given(fleet_seed=st.integers(0, 2**32), draw_seed=st.integers(0, 2**32),
           method=st.sampled_from([Method.VR_RANDOM, Method.VR_ANTONYM, Method.ER]))
    def test_memoised_operator_matches_fresh_calls(self, lexicon, antonyms, fleet_seed,
                                                   draw_seed, method):
        # Sources repeat, as they do when the request exceeds the target sentences,
        # so later trials read what earlier ones stored in the memo.
        sentences = fleet(8, lexicon, with_entity=True, seed=fleet_seed)
        config = AugmentConfig(target_class="CLA", n_samples=1, method=method)
        operator = aug._make_operator(sentences, config, None, None)
        if method is Method.ER:
            dictionary = build_entity_dictionary(sentences)

            def fresh(s, rng, seed):
                return entity_replace(s, dictionary, rng, seed=seed)
        else:
            source = (build_verb_pool(sentences, lexicon) if method is Method.VR_RANDOM
                      else antonyms)

            def fresh(s, rng, seed):
                return verb_replace(s, lexicon, source, method, rng, seed=seed)

        draws = random.Random(draw_seed)
        for trial in range(40):
            source_sentence = draws.choice(sentences)
            seed = draws.getrandbits(64)
            memoised = operator(source_sentence, random.Random(seed), seed, trial)
            assert memoised == fresh(source_sentence, random.Random(seed), seed)


class TestThreadsOnlyForLlm:
    @pytest.mark.parametrize("method", list(Method))
    def test_only_llm_starts_a_thread_pool(self, lexicon, monkeypatch, method):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        sentences = fleet(30, lexicon, with_entity=True)
        config = AugmentConfig(target_class="CLA", n_samples=20, method=method,
                               master_seed=6)
        client = MockLlmClient(reply="Not so.")
        serial = augment_minority(sentences, config, llm_client=client, workers=1)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        if method is Method.LLM:
            with pytest.raises(AssertionError, match="thread pool"):
                augment_minority(sentences, config, llm_client=client, workers=4)
        else:
            assert augment_minority(sentences, config, llm_client=client, workers=4) == serial
