import difflib
import json
import os
import time
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimaug import augment as aug
from claimaug import cli
from claimaug import morph
from claimaug.cli import CONFIG_KEYS, main
from claimaug.crf import TrainConfig
from claimaug.errors import ConfigurationError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def fixture_dir(tmp_path, capsys):
    out = str(tmp_path / "fx")
    code, _, _ = run(capsys, "make-fixture", "--seed", "5", "--out", out,
                     "--sizes", "CLA=12,EXP=30,O=120,PER=40,QUE=30")
    assert code == 0
    return out


class TestMakeFixtureAndStats:
    def test_fixture_files_written(self, fixture_dir):
        for name in ("corpus.tsv", "schema.cfg", "bookkeeping.json"):
            assert os.path.exists(os.path.join(fixture_dir, name))

    def test_fixture_reproducible(self, tmp_path, capsys):
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        for out in (a, b):
            run(capsys, "make-fixture", "--seed", "9", "--out", out)
        for name in ("corpus.tsv", "schema.cfg", "bookkeeping.json"):
            with open(os.path.join(a, name), "rb") as fa, \
                    open(os.path.join(b, name), "rb") as fb:
                assert fa.read() == fb.read()

    def test_stats_match_bookkeeping(self, fixture_dir, capsys):
        code, out, _ = run(capsys, "stats",
                           "--data", os.path.join(fixture_dir, "corpus.tsv"),
                           "--schema", os.path.join(fixture_dir, "schema.cfg"),
                           "--format", "json")
        assert code == 0
        with open(os.path.join(fixture_dir, "bookkeeping.json")) as f:
            bookkeeping = json.load(f)
        stats = json.loads(out)
        assert stats["n_texts"] == bookkeeping["n_texts"]
        assert stats["n_unique_words"] == bookkeeping["n_unique_words"]
        assert stats["label_dist"] == bookkeeping["label_token_dist"]

    @pytest.mark.parametrize("sizes,part", [("CLA=x", "CLA=x"), ("CLA=4,EXP", "EXP"),
                                            ("CLA=-5,O=3", "CLA=-5")])
    def test_unparsable_sizes_exit_2(self, tmp_path, capsys, sizes, part):
        code, _, err = run(capsys, "make-fixture", "--seed", "1",
                           "--out", str(tmp_path / "fx"), "--sizes", sizes)
        assert code == 2
        assert f"--sizes part {part!r}" in err
        assert not (tmp_path / "fx").exists()

    def test_repeated_sizes_label_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "make-fixture", "--seed", "1",
                           "--out", str(tmp_path / "fx"), "--sizes", "CLA=5,CLA=7,O=3")
        assert code == 2
        assert "--sizes names label 'CLA' twice" in err
        assert not (tmp_path / "fx").exists()

    def test_empty_sizes_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "make-fixture", "--seed", "1",
                           "--out", str(tmp_path / "fx"), "--sizes", "")
        assert code == 2
        assert "--sizes part ''" in err
        assert not (tmp_path / "fx").exists()

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "stats", "--data", str(tmp_path / "nope.tsv"),
                           "--schema", str(tmp_path / "nope.cfg"))
        assert code == 2
        assert "error" in err

    def test_split_reports_purity(self, fixture_dir, capsys):
        code, out, _ = run(capsys, "split",
                           "--data", os.path.join(fixture_dir, "corpus.tsv"),
                           "--schema", os.path.join(fixture_dir, "schema.cfg"))
        assert code == 0
        assert "sentences: 232" in out
        assert "per_class:" in out

    def test_split_out_holds_every_sentence_and_token(self, fixture_dir, tmp_path, capsys):
        from claimaug.corpus import parse_schema_config, parse_token_label_file
        out = tmp_path / "split.tsv"
        data = os.path.join(fixture_dir, "corpus.tsv")
        code, stdout, _ = run(capsys, "split", "--data", data,
                              "--schema", os.path.join(fixture_dir, "schema.cfg"),
                              "--out", str(out))
        assert code == 0
        schema = parse_schema_config(open(os.path.join(fixture_dir, "schema.cfg")).read())
        with open(data, "rb") as f:
            corpus = parse_token_label_file(f.read(), schema)
        sentences = parse_token_label_file(out.read_bytes(), schema)
        assert f"sentences: {len(sentences.documents)}\n" in stdout
        assert [t for d in sentences.documents for t in d.texts] \
            == [t for d in corpus.documents for t in d.texts]

    def test_build_lexicons(self, fixture_dir, tmp_path, capsys):
        out_dir = str(tmp_path / "lex")
        code, out, _ = run(capsys, "build-lexicons",
                           "--data", os.path.join(fixture_dir, "corpus.tsv"),
                           "--schema", os.path.join(fixture_dir, "schema.cfg"),
                           "--out", out_dir)
        assert code == 0
        assert os.path.exists(os.path.join(out_dir, "entities.tsv"))
        # Harvested verbs come out in the same format the loader accepts.
        from claimaug.morph import load_verb_lexicon
        with open(os.path.join(out_dir, "verbs.tsv"), encoding="utf-8") as f:
            harvested = load_verb_lexicon(f.read())
        assert len(harvested.entries) > 0


class TestAugmentCommand:
    def augment(self, capsys, fixture_dir, out, seed="7", workers="1",
                method="vr-random", n="25"):
        return run(capsys, "augment",
                   "--data", os.path.join(fixture_dir, "corpus.tsv"),
                   "--schema", os.path.join(fixture_dir, "schema.cfg"),
                   "--method", method, "--target-class", "CLA",
                   "--n-samples", n, "--seed", seed, "--out", out,
                   "--workers", workers, "--offline")

    def read(self, out):
        with open(os.path.join(out, "augmented.tsv"), "rb") as f:
            corpus = f.read()
        with open(os.path.join(out, "manifest.jsonl"), "rb") as f:
            manifest = f.read()
        return corpus, manifest

    def test_same_seed_byte_identical(self, fixture_dir, tmp_path, capsys):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert self.augment(capsys, fixture_dir, a)[0] == 0
        assert self.augment(capsys, fixture_dir, b)[0] == 0
        assert self.read(a) == self.read(b)

    def test_workers_byte_identical(self, fixture_dir, tmp_path, capsys):
        a, b = str(tmp_path / "w1"), str(tmp_path / "w4")
        assert self.augment(capsys, fixture_dir, a, workers="1")[0] == 0
        assert self.augment(capsys, fixture_dir, b, workers="4")[0] == 0
        assert self.read(a) == self.read(b)

    def test_manifest_row_count_with_per_sentence(self, fixture_dir, tmp_path, capsys):
        out = str(tmp_path / "multi")
        code, stdout, _ = run(capsys, "augment",
                              "--data", os.path.join(fixture_dir, "corpus.tsv"),
                              "--schema", os.path.join(fixture_dir, "schema.cfg"),
                              "--method", "aeda", "--target-class", "CLA",
                              "--n-samples", "10", "--per-sentence", "4",
                              "--seed", "3", "--out", out, "--offline")
        assert code == 0
        _, manifest = self.read(out)
        assert len(manifest.decode().splitlines()) == 40
        assert "produced: 40" in stdout

    def test_entity_free_corpus_exits_3(self, tmp_path, capsys):
        corpus = tmp_path / "plain.tsv"
        corpus.write_text("sky\tCLA\nwas\tCLA\nblue\tCLA\n.\tCLA\n", encoding="utf-8")
        schema = tmp_path / "schema.cfg"
        schema.write_text("outside = O\ncategories = CLA\n", encoding="utf-8")
        code, _, err = run(capsys, "augment", "--data", str(corpus),
                           "--schema", str(schema), "--method", "er",
                           "--target-class", "CLA", "--n-samples", "2",
                           "--seed", "1", "--out", str(tmp_path / "out"), "--offline")
        assert code == 3
        assert "no_entity_or_candidate" in err

    def test_method_choices_are_the_five_operators(self, fixture_dir, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            self.augment(capsys, fixture_dir, str(tmp_path / "bat"), method="bat")
        assert exc.value.code == 2
        assert "{aeda,vr-random,vr-antonym,er,llm}" in capsys.readouterr().err

    def test_entities_file_is_used(self, fixture_dir, tmp_path, capsys):
        entities = tmp_path / "entities.tsv"
        entities.write_text("CARDINAL\t12345\nCARDINAL\t67890\nPERCENT\t99 %\n"
                            "PERCENT\t1 %\nPROPER\tZyx\nPROPER\tQwv\n", encoding="utf-8")
        out = str(tmp_path / "er")
        code, _, _ = run(capsys, "augment",
                         "--data", os.path.join(fixture_dir, "corpus.tsv"),
                         "--schema", os.path.join(fixture_dir, "schema.cfg"),
                         "--method", "er", "--target-class", "CLA", "--n-samples", "5",
                         "--seed", "1", "--out", out, "--entities", str(entities))
        assert code == 0
        with open(os.path.join(out, "manifest.jsonl"), encoding="utf-8") as f:
            replacements = [json.loads(line)["detail"]["replacement"] for line in f]
        assert len(replacements) == 5
        assert all(" ".join(r) in entities.read_text() for r in replacements)

    @pytest.mark.parametrize("line", ["PROPER IBS", "PROPER\t", "\tIBS"])
    def test_malformed_entities_line_exits_2(self, fixture_dir, tmp_path, capsys, line):
        entities = tmp_path / "entities.tsv"
        entities.write_text(f"CARDINAL\t12345\n\n{line}\nPROPER\tQwv\n", encoding="utf-8")
        out = tmp_path / "er"
        code, _, err = run(capsys, "augment",
                           "--data", os.path.join(fixture_dir, "corpus.tsv"),
                           "--schema", os.path.join(fixture_dir, "schema.cfg"),
                           "--method", "er", "--target-class", "CLA", "--n-samples", "5",
                           "--seed", "1", "--out", str(out), "--entities", str(entities))
        assert code == 2
        assert f"{entities}: line 3: expected 'CATEGORY<TAB>entity tokens'" in err
        assert not out.exists()

    def test_llm_offline_runs(self, fixture_dir, tmp_path, capsys):
        out = str(tmp_path / "llm")
        code, stdout, _ = self.augment(capsys, fixture_dir, out, method="llm", n="6")
        assert code == 0
        assert "produced: 6" in stdout

    def test_llm_without_client_exits_2(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "llm"
        code, _, err = run(capsys, "augment",
                           "--data", os.path.join(fixture_dir, "corpus.tsv"),
                           "--schema", os.path.join(fixture_dir, "schema.cfg"),
                           "--method", "llm", "--target-class", "CLA",
                           "--n-samples", "2", "--seed", "1", "--out", str(out))
        assert code == 2
        assert "llm augmentation needs a client (--offline or --llm-endpoint)" in err
        assert not out.exists()

    def test_llm_endpoint_4xx_exits_2_after_one_request(self, fixture_dir, tmp_path, capsys,
                                                        monkeypatch):
        requests = []

        def refuse(request, timeout):
            requests.append(request.full_url)
            raise urllib.error.HTTPError(request.full_url, 401, "Unauthorized", {}, None)

        monkeypatch.setattr(urllib.request, "urlopen", refuse)
        code, _, err = run(capsys, "augment",
                           "--data", os.path.join(fixture_dir, "corpus.tsv"),
                           "--schema", os.path.join(fixture_dir, "schema.cfg"),
                           "--method", "llm", "--target-class", "CLA", "--n-samples", "2",
                           "--seed", "1", "--out", str(tmp_path / "llm"),
                           "--llm-endpoint", "http://llm.invalid/complete")
        assert code == 2
        assert "HTTP 401 Unauthorized" in err
        assert requests == ["http://llm.invalid/complete"]

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_llm_endpoint_4xx_stops_queued_requests(self, fixture_dir, tmp_path, capsys,
                                                    monkeypatch, workers):
        requests = []

        def refuse(request, timeout):
            requests.append(request.full_url)
            time.sleep(0.02)  # every worker takes a trial before the first refusal lands
            raise urllib.error.HTTPError(request.full_url, 401, "Unauthorized", {}, None)

        monkeypatch.setattr(urllib.request, "urlopen", refuse)
        code, _, err = run(capsys, "augment",
                           "--data", os.path.join(fixture_dir, "corpus.tsv"),
                           "--schema", os.path.join(fixture_dir, "schema.cfg"),
                           "--method", "llm", "--target-class", "CLA", "--n-samples", "12",
                           "--seed", "1", "--out", str(tmp_path / "llm"),
                           "--workers", str(workers),
                           "--llm-endpoint", "http://llm.invalid/complete")
        assert code == 2
        assert "HTTP 401 Unauthorized" in err
        assert 1 <= len(requests) <= workers

    def test_llm_with_several_copies_exits_2(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "llm"
        code, _, err = run(capsys, "augment",
                           "--data", os.path.join(fixture_dir, "corpus.tsv"),
                           "--schema", os.path.join(fixture_dir, "schema.cfg"),
                           "--method", "llm", "--target-class", "CLA",
                           "--n-samples", "3", "--per-sentence", "3", "--seed", "1",
                           "--out", str(out), "--offline")
        assert code == 2
        assert "per_sentence must be 1 for method llm, got 3" in err
        assert "takes no seed" in err
        assert not out.exists()

    @pytest.mark.parametrize("method, needs", [
        ("aeda", set()),
        ("vr-random", {"lexicon", "verb_pool"}),
        ("vr-antonym", {"lexicon", "antonyms"}),
        ("er", {"entity_dict"}),
        ("llm", set()),
    ])
    def test_builds_only_the_operators_inputs(self, fixture_dir, tmp_path, capsys,
                                              monkeypatch, method, needs):
        builders = {"lexicon": (morph, "load_default_verb_lexicon"),
                    "antonyms": (morph, "load_default_antonyms"),
                    "verb_pool": (aug, "build_verb_pool"),
                    "entity_dict": (aug, "build_entity_dictionary")}
        called = set()

        def guarded(name, fn):
            def wrapper(*args, **kwargs):
                called.add(name)
                if name not in needs:
                    raise AssertionError(f"{method} built {name}")
                return fn(*args, **kwargs)
            return wrapper

        for name, (module, attr) in builders.items():
            monkeypatch.setattr(module, attr, guarded(name, getattr(module, attr)))
        code, _, _ = self.augment(capsys, fixture_dir, str(tmp_path / method),
                                  method=method, n="3")
        assert code == 0
        assert called == needs

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_2(self, fixture_dir, dev_dir, tmp_path, capsys,
                                      workers):
        with pytest.raises(SystemExit) as exc:
            self.augment(capsys, fixture_dir, str(tmp_path / "w"), workers=workers)
        assert exc.value.code == 2
        assert "--workers: must be an integer >= 1" in capsys.readouterr().err
        config = experiment_config(tmp_path, fixture_dir, dev_dir, "textclf", "aeda")
        with pytest.raises(SystemExit) as exc:
            run(capsys, "run-experiment", "--config", config, "--workers", workers)
        assert exc.value.code == 2
        assert not (tmp_path / "w").exists()


GOOD_REPORT = {
    "per_class": {"CLA": {"precision": 50.0, "recall": 50.0, "f1": 50.0, "support": 2}},
    "macro": {"precision": 50.0, "recall": 50.0, "f1": 50.0},
    "absent": [], "include_outside": True,
}


class TestEvalAndCompare:
    def write_corpus(self, path, rows):
        blocks = ["\n".join(f"{t}\t{l}" for t, l in block) for block in rows]
        path.write_text("\n\n".join(blocks) + "\n", encoding="utf-8")

    def test_eval_and_compare(self, tmp_path, capsys):
        schema = tmp_path / "schema.cfg"
        schema.write_text("outside = O\ncategories = CLA\n", encoding="utf-8")
        gold = tmp_path / "gold.tsv"
        pred = tmp_path / "pred.tsv"
        self.write_corpus(gold, [[("a", "CLA"), ("b", "CLA"), ("c", "O"), ("d", "O")]])
        self.write_corpus(pred, [[("a", "CLA"), ("b", "O"), ("c", "O"), ("d", "O")]])
        report_path = tmp_path / "r1.json"
        code, out, _ = run(capsys, "eval", "--gold", str(gold), "--pred", str(pred),
                           "--schema", str(schema), "--format", "json",
                           "--out", str(report_path))
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["per_class"]["CLA"]["recall"] == pytest.approx(50.0)

        code, out, _ = run(capsys, "compare", "--reports",
                           f"first={report_path}", f"second={report_path}")
        assert code == 0
        assert "first" in out and "second" in out

    def compare_with_bad(self, tmp_path, capsys, data):
        """Compare a well-formed report with one whose file holds the bytes `data`."""
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps(GOOD_REPORT), encoding="utf-8")
        bad.write_bytes(data)
        code, _, err = run(capsys, "compare", "--reports", f"good={good}", f"bad={bad}")
        assert code == 2
        assert f"error: {bad}: " in err
        return err

    def test_well_formed_report_compares(self, tmp_path, capsys):
        path = tmp_path / "good.json"
        path.write_text(json.dumps(GOOD_REPORT), encoding="utf-8")
        code, out, _ = run(capsys, "compare", "--reports", f"a={path}", f"b={path}")
        assert code == 0 and "50.0" in out

    @pytest.mark.parametrize("data,message", [
        (b"not json", "report is not JSON"),
        (b"\xff{}", "not UTF-8 text"),
        (b"[]", "report must be a JSON object, got []"),
        (b"{}", "report lacks per_class, macro, absent, include_outside"),
    ])
    def test_unreadable_report_exits_2(self, tmp_path, capsys, data, message):
        assert message in self.compare_with_bad(tmp_path, capsys, data)

    @pytest.mark.parametrize("path,value,message", [
        (("per_class", "CLA", "f1"), "high",
         "per_class 'CLA' f1 must be a finite number, got 'high'"),
        (("per_class", "CLA", "recall"), None,
         "per_class 'CLA' recall must be a finite number, got None"),
        (("per_class", "CLA", "support"), 2.5,
         "per_class 'CLA' support must be an integer >= 0, got 2.5"),
        (("per_class",), [], "per_class must be a JSON object, got []"),
        (("macro",), {"precision": 1.0}, "macro lacks recall, f1"),
        (("absent",), "O", "report absent must be a list of labels, got 'O'"),
        (("include_outside",), 1, "report include_outside must be true or false, got 1"),
    ], ids=["string-f1", "null-recall", "float-support", "per-class-list", "macro-partial",
            "absent-string", "include-outside-int"])
    def test_malformed_report_exits_2(self, tmp_path, capsys, path, value, message):
        report = json.loads(json.dumps(GOOD_REPORT))
        owner = report
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = value
        assert message in self.compare_with_bad(tmp_path, capsys, json.dumps(report).encode())

    def test_eval_length_mismatch_exits_2(self, tmp_path, capsys):
        schema = tmp_path / "schema.cfg"
        schema.write_text("outside = O\ncategories = CLA\n", encoding="utf-8")
        gold = tmp_path / "gold.tsv"
        pred = tmp_path / "pred.tsv"
        self.write_corpus(gold, [[("a", "CLA"), ("b", "CLA")]])
        self.write_corpus(pred, [[("a", "CLA")]])
        code, _, _ = run(capsys, "eval", "--gold", str(gold), "--pred", str(pred),
                         "--schema", str(schema))
        assert code == 2


def experiment_config(tmp_path, fixture_dir, dev_dir, model, method="none", seed=7):
    """A run-experiment config; the augment keys only for an operator, which reads them."""
    config = tmp_path / f"{model}-{method}.cfg"
    augment = [] if method == "none" else [
        f"augment.method = {method}", "augment.target_class = CLA", "augment.n_samples = 10"]
    config.write_text("\n".join([
        f"train = {os.path.join(fixture_dir, 'corpus.tsv')}",
        f"dev = {os.path.join(dev_dir, 'corpus.tsv')}",
        f"schema = {os.path.join(fixture_dir, 'schema.cfg')}",
        f"model = {model}",
        f"seed = {seed}",
        "epochs = 3",
        "learning_rate = 0.3",
        *augment,
        f"outdir = {tmp_path / ('out-' + model + '-' + method)}",
    ]) + "\n", encoding="utf-8")
    return str(config)


def set_keys(config, text):
    """Write the `key = value` lines of `text` into the config, in place of its lines for those keys.

    A config may set each key once, so a test that overrides a key replaces its line.
    """
    lines = text.splitlines()
    keys = {line.split("=", 1)[0].strip() for line in lines}
    with open(config, encoding="utf-8") as f:
        kept = [line.rstrip("\n") for line in f if line.split("=", 1)[0].strip() not in keys]
    with open(config, "w", encoding="utf-8") as f:
        f.write("\n".join(kept + lines) + "\n")


@pytest.fixture
def dev_dir(tmp_path, capsys):
    out = str(tmp_path / "dev")
    run(capsys, "make-fixture", "--seed", "6", "--out", out,
        "--sizes", "CLA=12,EXP=30,O=120,PER=40,QUE=30")
    return out


class TestExperiments:
    def test_textclf_baseline_and_augmented(self, tmp_path, fixture_dir, dev_dir, capsys):
        for method in ("none", "vr-random"):
            config = experiment_config(tmp_path, fixture_dir, dev_dir, "textclf", method)
            code, out, _ = run(capsys, "run-experiment", "--config", config)
            assert code == 0
            assert "reports written" in out
        report = json.loads((tmp_path / "out-textclf-vr-random" / "report.json").read_text())
        assert set(report["per_class"]) == {"O", "CLA", "EXP", "PER", "QUE"}
        code, out, _ = run(
            capsys, "compare", "--reports",
            f"baseline={tmp_path / 'out-textclf-none' / 'report.json'}",
            f"vr-random={tmp_path / 'out-textclf-vr-random' / 'report.json'}")
        assert code == 0
        assert "baseline" in out and "vr-random" in out and "best" in out

    def test_crf_runs_on_same_config_shape(self, tmp_path, fixture_dir, dev_dir, capsys):
        config = experiment_config(tmp_path, fixture_dir, dev_dir, "crf")
        code, out, _ = run(capsys, "run-experiment", "--config", config)
        assert code == 0
        assert os.path.exists(tmp_path / "out-crf-none" / "report.json")

    def test_same_seed_identical_reports(self, tmp_path, fixture_dir, dev_dir, capsys):
        config = experiment_config(tmp_path, fixture_dir, dev_dir, "textclf", "aeda")
        run(capsys, "run-experiment", "--config", config)
        first = (tmp_path / "out-textclf-aeda" / "report.json").read_bytes()
        run(capsys, "run-experiment", "--config", config)
        assert (tmp_path / "out-textclf-aeda" / "report.json").read_bytes() == first

    def test_train_clf_writes_model(self, tmp_path, fixture_dir, capsys):
        config = tmp_path / "clf.cfg"
        model_out = tmp_path / "clf-model.json"
        config.write_text("\n".join([
            f"train = {os.path.join(fixture_dir, 'corpus.tsv')}",
            f"schema = {os.path.join(fixture_dir, 'schema.cfg')}",
            "seed = 1", "epochs = 2",
            f"model_out = {model_out}",
        ]) + "\n", encoding="utf-8")
        code, _, _ = run(capsys, "train-clf", "--config", str(config))
        assert code == 0
        assert model_out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_train_clf_divergence_exits_4(self, tmp_path, fixture_dir, capsys):
        config = tmp_path / "clf.cfg"
        model_out = tmp_path / "clf-model.json"
        config.write_text("\n".join([
            f"train = {os.path.join(fixture_dir, 'corpus.tsv')}",
            f"schema = {os.path.join(fixture_dir, 'schema.cfg')}",
            "seed = 1", "epochs = 3", "learning_rate = 1e308",
            f"model_out = {model_out}",
        ]) + "\n", encoding="utf-8")
        code, _, err = run(capsys, "train-clf", "--config", str(config))
        assert code == 4
        assert "error: weights became non-finite in epoch 0" in err
        assert not model_out.exists()

    def test_train_crf_writes_model_and_history(self, tmp_path, fixture_dir, capsys):
        config = tmp_path / "crf.cfg"
        model_out = tmp_path / "crf-model.json"
        config.write_text("\n".join([
            f"train = {os.path.join(fixture_dir, 'corpus.tsv')}",
            f"schema = {os.path.join(fixture_dir, 'schema.cfg')}",
            "seed = 1", "epochs = 2", "learning_rate = 0.05",
            f"model_out = {model_out}",
        ]) + "\n", encoding="utf-8")
        code, out, _ = run(capsys, "train-crf", "--config", str(config))
        assert code == 0
        assert model_out.exists()
        assert "epoch 0" in out

    @pytest.mark.parametrize("l2", ["-0.001", "-0.5"])
    def test_train_crf_negative_l2_exits_2(self, tmp_path, fixture_dir, capsys, l2):
        config = tmp_path / "crf.cfg"
        model_out = tmp_path / "crf-model.json"
        config.write_text("\n".join([
            f"train = {os.path.join(fixture_dir, 'corpus.tsv')}",
            f"schema = {os.path.join(fixture_dir, 'schema.cfg')}",
            "seed = 1", "epochs = 2", f"l2 = {l2}",
            f"model_out = {model_out}",
        ]) + "\n", encoding="utf-8")
        code, out, err = run(capsys, "train-crf", "--config", str(config))
        assert code == 2
        assert f"model l2 must be finite and >= 0, got {float(l2)!r}" in err
        assert "epoch 0" not in out
        assert not model_out.exists()

    @pytest.mark.parametrize("command,default_out", [("train-crf", "crf-model.json"),
                                                     ("train-clf", "clf-model.json")])
    def test_train_default_model_out(self, tmp_path, fixture_dir, capsys, monkeypatch,
                                     command, default_out):
        config = tmp_path / "train.cfg"
        config.write_text("\n".join([
            f"train = {os.path.join(fixture_dir, 'corpus.tsv')}",
            f"schema = {os.path.join(fixture_dir, 'schema.cfg')}",
            "seed = 1", "epochs = 1",
        ]) + "\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, command, "--config", str(config))
        assert code == 0
        assert f"model: {default_out}" in out
        assert (tmp_path / default_out).exists()

    def test_pretrained_embeddings_config(self, tmp_path, fixture_dir, capsys):
        vocab = set()
        with open(os.path.join(fixture_dir, "corpus.tsv"), encoding="utf-8") as f:
            for line in f:
                if line.strip():
                    vocab.add(line.split("\t")[0])
        rows = [f"{token} 1.0 0.0" for token in sorted(vocab)]
        embeddings = tmp_path / "vectors.txt"
        embeddings.write_text("\n".join(rows) + "\n<OOV> 0.0 0.0\n", encoding="utf-8")
        config = tmp_path / "emb.cfg"
        model_out = tmp_path / "emb-model.json"
        config.write_text("\n".join([
            f"train = {os.path.join(fixture_dir, 'corpus.tsv')}",
            f"schema = {os.path.join(fixture_dir, 'schema.cfg')}",
            f"embeddings = {embeddings}",
            "seed = 1", "epochs = 2",
            f"model_out = {model_out}",
        ]) + "\n", encoding="utf-8")
        code, _, _ = run(capsys, "train-clf", "--config", str(config))
        assert code == 0
        model = json.loads(model_out.read_text())
        assert len(model["weights"][0]) == 2

    def test_adversarial_training_config(self, tmp_path, fixture_dir, dev_dir, capsys):
        config = tmp_path / "adv.cfg"
        config.write_text("\n".join([
            f"train = {os.path.join(fixture_dir, 'corpus.tsv')}",
            f"dev = {os.path.join(dev_dir, 'corpus.tsv')}",
            f"schema = {os.path.join(fixture_dir, 'schema.cfg')}",
            "model = textclf",
            "seed = 2", "epochs = 3",
            "epsilon = 0.05", "adv_weight = 0.5",
            f"outdir = {tmp_path / 'out-adv'}",
        ]) + "\n", encoding="utf-8")
        code, _, _ = run(capsys, "run-experiment", "--config", str(config))
        assert code == 0
        assert (tmp_path / "out-adv" / "report.json").exists()

    @pytest.mark.parametrize("method", ["bogus", "bat"])
    def test_unknown_augment_method_exits_2(self, tmp_path, fixture_dir, dev_dir, capsys,
                                            method):
        config = experiment_config(tmp_path, fixture_dir, dev_dir, "textclf", method)
        code, _, err = run(capsys, "run-experiment", "--config", config)
        assert code == 2
        assert f"unknown augment.method {method!r}" in err
        assert "aeda, vr-random, vr-antonym, er, llm" in err

    def test_entities_config_key(self, tmp_path, fixture_dir, dev_dir, capsys):
        lexicons = str(tmp_path / "lex")
        run(capsys, "build-lexicons", "--data", os.path.join(fixture_dir, "corpus.tsv"),
            "--schema", os.path.join(fixture_dir, "schema.cfg"), "--out", lexicons)
        config = experiment_config(tmp_path, fixture_dir, dev_dir, "textclf", "er")
        set_keys(config, f"entities = {os.path.join(lexicons, 'entities.tsv')}\n")
        code, _, _ = run(capsys, "run-experiment", "--config", config)
        assert code == 0
        assert (tmp_path / "out-textclf-er" / "report.json").exists()

    @pytest.mark.parametrize("model,method,key,value", [
        ("crf", "none", "epochs", "x"),
        ("textclf", "none", "epochs", "x"),
        ("crf", "none", "seed", "seven"),
        ("textclf", "aeda", "seed", "seven"),
        ("crf", "none", "l2", "small"),
        ("textclf", "none", "adv_weight", "half"),
        ("textclf", "aeda", "augment.n_samples", "ten"),
        ("textclf", "none", "epsilon", "nan"),
        ("crf", "none", "decay", "inf"),
        ("crf", "none", "l2", "nan"),
    ])
    def test_unparsable_number_exits_2(self, tmp_path, fixture_dir, dev_dir, capsys,
                                       model, method, key, value):
        config = experiment_config(tmp_path, fixture_dir, dev_dir, model, method)
        set_keys(config, f"{key} = {value}\n")
        code, _, err = run(capsys, "run-experiment", "--config", config)
        assert code == 2
        assert f"{key} must be" in err and repr(value) in err

    def test_train_crf_unparsable_epochs_exits_2(self, tmp_path, fixture_dir, capsys):
        config = tmp_path / "crf.cfg"
        config.write_text("\n".join([
            f"train = {os.path.join(fixture_dir, 'corpus.tsv')}",
            f"schema = {os.path.join(fixture_dir, 'schema.cfg')}",
            "seed = 1", "epochs = x",
        ]) + "\n", encoding="utf-8")
        code, _, err = run(capsys, "train-crf", "--config", str(config))
        assert code == 2
        assert "epochs must be an integer, got 'x'" in err

    def test_missing_seed_rejected(self, tmp_path, fixture_dir, dev_dir, capsys):
        config = tmp_path / "noseed.cfg"
        config.write_text("\n".join([
            f"train = {os.path.join(fixture_dir, 'corpus.tsv')}",
            f"dev = {os.path.join(dev_dir, 'corpus.tsv')}",
            f"schema = {os.path.join(fixture_dir, 'schema.cfg')}",
        ]) + "\n", encoding="utf-8")
        code, _, err = run(capsys, "run-experiment", "--config", str(config))
        assert code == 2
        assert "seed" in err


def readme_config_keys() -> set[str]:
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as f:
        section = f.read().split("## Experiment config", 1)[1]
    block = section.split("```", 2)[1]
    return {line.split("=", 1)[0].strip() for line in block.splitlines() if "=" in line}


# The config check as it stood before `CONFIG_KEYS` named each key's
# readers: the oracle for the table-driven check.
ORACLE_MODEL_KEYS = {"crf": ("decay", "l2"),
                     "textclf": ("dim", "epsilon", "adv_weight", "embeddings")}
ORACLE_COMMAND_MODEL = {"train-crf": "crf", "train-clf": "textclf"}
ORACLE_EXPERIMENT_KEYS = frozenset({"dev", "outdir", "entities", "offline", "llm.endpoint"}
                                   | {key for key in CONFIG_KEYS if key.startswith("augment.")})
ORACLE_TRAIN_KEYS = frozenset({"model_out"})
ORACLE_METHOD_KEYS = {"entities": "er", "offline": "llm", "llm.endpoint": "llm"}


def oracle_check_config(config, command):
    for key in config:
        if key not in CONFIG_KEYS:
            close = difflib.get_close_matches(key, sorted(CONFIG_KEYS), n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise ConfigurationError(f"unknown config key {key!r}{hint}")
    if config.get("model") not in (None, "crf", "textclf"):
        raise ConfigurationError(f"unknown model {config['model']!r} (use crf or textclf)")
    model = ORACLE_COMMAND_MODEL.get(command, config.get("model", "textclf"))
    for other, keys in ORACLE_MODEL_KEYS.items():
        for key in keys:
            if other != model and key in config:
                where = command if command in ORACLE_COMMAND_MODEL else f"model = {model}"
                raise ConfigurationError(
                    f"config key {key!r} is read only by model = {other}, not by {where}")
    training = command in ORACLE_COMMAND_MODEL
    for key in config:
        if key in (ORACLE_EXPERIMENT_KEYS if training else ORACLE_TRAIN_KEYS):
            readers = "run-experiment" if training else "train-crf and train-clf"
            raise ConfigurationError(
                f"config key {key!r} is read only by {readers}, not by {command}")
    need_dev = command == "run-experiment"
    for key in ("train", "schema", "seed") + (("dev",) if need_dev else ()):
        if key not in config:
            raise ConfigurationError(f"experiment config missing {key!r}")
    for key in ("train", "schema", "dev", "embeddings", "entities"):
        if key in config and not os.path.exists(config[key]):
            raise ConfigurationError(f"{key} file not found: {config[key]}")
    if config.get("offline") not in (None, "true", "false"):
        raise ConfigurationError(f"offline must be true or false, got {config['offline']!r}")
    methods = [m.value for m in aug.Method]
    method = config.get("augment.method")
    if method not in (None, "none", *methods):
        raise ConfigurationError(f"unknown augment.method {method!r} "
                                 f"(use none, {', '.join(methods)})")
    for key, reader in ORACLE_METHOD_KEYS.items():
        if key in config and method != reader:
            raise ConfigurationError(f"config key {key!r} is read only by augment.method = "
                                     f"{reader}, not by augment.method = {method or 'none'}")
    if method == aug.Method.LLM.value and not (config.get("offline") == "true"
                                               or "llm.endpoint" in config):
        raise ConfigurationError("augment.method = llm needs offline = true or llm.endpoint")


def check_outcome(check, *args):
    """The message `check` rejects with, or None if it accepts."""
    try:
        check(*args)
    except ConfigurationError as exc:
        return str(exc)
    return None


# A value for each key that passes its own check, plus a few that do not, so
# the order of the value and the scope checks is exercised too. Every file
# key names this file, which exists.
CONFIG_VALUES = {
    **{key: st.just(os.path.abspath(__file__))
       for key in ("train", "schema", "dev", "embeddings", "entities")},
    "model": st.sampled_from(["crf", "textclf", "svm"]),
    "augment.method": st.sampled_from(["none", *(m.value for m in aug.Method), "bat"]),
    "offline": st.sampled_from(["true", "false", "no"]),
    "llm.endpoint": st.just("http://llm.invalid/complete"),
}
TRAINED = {"train-crf": "crf", "train-clf": "textclf"}
OPERATOR_KEYS = {"augment.target_class", "augment.n_samples", "augment.per_sentence"}


class TestConfigCheck:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_table_check_agrees_with_the_oracle(self, data):
        command = data.draw(st.sampled_from(["run-experiment", "train-crf", "train-clf"]))
        keys = data.draw(st.sets(st.sampled_from(list(CONFIG_KEYS)), max_size=6))
        if data.draw(st.booleans()):
            keys |= {"train", "schema", "seed"} | ({"dev"} if command == "run-experiment"
                                                   else set())
        ordered = [key for key in CONFIG_KEYS if key in keys]
        shuffled = data.draw(st.booleans())
        if shuffled:
            ordered = data.draw(st.permutations(ordered))
        config = {key: data.draw(CONFIG_VALUES.get(key, st.just("1")), label=key)
                  for key in ordered}
        model = TRAINED.get(command, config.get("model", "textclf"))
        expected = check_outcome(oracle_check_config, config, command)
        got = check_outcome(cli._check_config, config, command, model)
        if command in TRAINED and "model" in config:
            # An intended difference: only run-experiment reads `model`.
            assert got is not None
        elif (command == "run-experiment" and config.get("augment.method", "none") == "none"
              and OPERATOR_KEYS & keys):
            # The other: under augment.method = none no operator reads its keys.
            assert got is not None
        elif shuffled:
            # Both name the first bad key of a scope; the old loops took the
            # model and method keys in table order, not in the config's.
            assert (got is None) == (expected is None)
        else:
            assert got == expected

    @pytest.mark.parametrize("command", ["train-crf", "train-clf"])
    @pytest.mark.parametrize("model", ["crf", "textclf"])
    def test_train_rejects_model_key(self, tmp_path, fixture_dir, capsys, monkeypatch,
                                     command, model):
        config = tmp_path / "train.cfg"
        config.write_text("\n".join([
            f"train = {os.path.join(fixture_dir, 'corpus.tsv')}",
            f"schema = {os.path.join(fixture_dir, 'schema.cfg')}",
            "seed = 1", f"model = {model}",
        ]) + "\n", encoding="utf-8")

        def no_work(*args, **kwargs):
            raise AssertionError("the corpus was loaded")

        monkeypatch.setattr(cli, "_load_sentences", no_work)
        code, _, err = run(capsys, command, "--config", str(config))
        assert code == 2
        assert f"config key 'model' is read only by run-experiment, not by {command}" in err

    def test_readme_lists_every_accepted_key(self):
        assert readme_config_keys() == set(CONFIG_KEYS)
        assert len(CONFIG_KEYS) == 22

    @pytest.mark.parametrize("line,message", [
        ("epoch = 1", "unknown config key 'epoch'; did you mean 'epochs'?"),
        ("augment.n_sample = 5",
         "unknown config key 'augment.n_sample'; did you mean 'augment.n_samples'?"),
        ("colour = blue", "unknown config key 'colour'"),
        ("offline = no", "offline must be true or false, got 'no'"),
        ("model = svm", "unknown model 'svm' (use crf or textclf)"),
        ("augment.method = llm\noffline = false",
         "augment.method = llm needs offline = true or llm.endpoint"),
    ])
    def test_rejected_before_any_work(self, tmp_path, fixture_dir, dev_dir, capsys,
                                      monkeypatch, line, message):
        config = experiment_config(tmp_path, fixture_dir, dev_dir, "crf")
        set_keys(config, line + "\n")

        def no_work(*args, **kwargs):
            raise AssertionError("the corpus was loaded")

        monkeypatch.setattr(cli, "_load_sentences", no_work)
        code, _, err = run(capsys, "run-experiment", "--config", config)
        assert code == 2
        assert message in err

    @pytest.mark.parametrize("model,line,reader", [
        ("crf", "dim = 8", "textclf"),
        ("crf", "embeddings = vectors.txt", "textclf"),
        ("crf", "epsilon = 0.01", "textclf"),
        ("crf", "adv_weight = 0.5", "textclf"),
        ("textclf", "decay = 0.1", "crf"),
        ("textclf", "l2 = 0.01", "crf"),
    ])
    def test_key_of_the_other_model_rejected(self, tmp_path, fixture_dir, dev_dir, capsys,
                                             monkeypatch, model, line, reader):
        key = line.split(" = ")[0]
        config = experiment_config(tmp_path, fixture_dir, dev_dir, model)
        set_keys(config, line + "\n")

        def no_work(*args, **kwargs):
            raise AssertionError("the corpus was loaded")

        monkeypatch.setattr(cli, "_load_sentences", no_work)
        code, _, err = run(capsys, "run-experiment", "--config", config)
        assert code == 2
        assert (f"config key {key!r} is read only by model = {reader}, "
                f"not by model = {model}") in err
        command = "train-crf" if model == "crf" else "train-clf"
        code, _, err = run(capsys, command, "--config", config)
        assert code == 2
        assert f"config key {key!r} is read only by model = {reader}, not by {command}" in err

    def test_default_model_is_textclf_for_the_key_check(self, tmp_path, fixture_dir,
                                                        dev_dir, capsys):
        config = experiment_config(tmp_path, fixture_dir, dev_dir, "textclf")
        with open(config, encoding="utf-8") as f:
            lines = [line for line in f if not line.startswith("model =")]
        with open(config, "w", encoding="utf-8") as f:
            f.writelines(lines + ["decay = 0.1\n"])
        code, _, err = run(capsys, "run-experiment", "--config", config)
        assert code == 2
        assert "not by model = textclf" in err

    @pytest.mark.parametrize("command", ["train-crf", "train-clf"])
    @pytest.mark.parametrize("key", ["dev", "outdir", "augment.method", "augment.target_class",
                                     "augment.n_samples", "augment.per_sentence", "entities",
                                     "offline", "llm.endpoint"])
    def test_train_rejects_experiment_key(self, tmp_path, fixture_dir, capsys, monkeypatch,
                                          command, key):
        config = tmp_path / "train.cfg"
        corpus = os.path.join(fixture_dir, "corpus.tsv")
        config.write_text("\n".join([
            f"train = {corpus}", f"schema = {os.path.join(fixture_dir, 'schema.cfg')}",
            "seed = 1", f"{key} = {corpus}",
        ]) + "\n", encoding="utf-8")

        def no_work(*args, **kwargs):
            raise AssertionError("the corpus was loaded")

        monkeypatch.setattr(cli, "_load_sentences", no_work)
        code, _, err = run(capsys, command, "--config", str(config))
        assert code == 2
        assert f"config key {key!r} is read only by run-experiment, not by {command}" in err

    def test_run_experiment_rejects_model_out(self, tmp_path, fixture_dir, dev_dir, capsys):
        config = experiment_config(tmp_path, fixture_dir, dev_dir, "crf")
        set_keys(config, f"model_out = {tmp_path / 'model.json'}\n")
        code, _, err = run(capsys, "run-experiment", "--config", config)
        assert code == 2
        assert ("config key 'model_out' is read only by train-crf and train-clf, "
                "not by run-experiment") in err

    @pytest.mark.parametrize("key,reader,method", [
        (key, reader, method)
        for key, reader in (("entities", "er"), ("offline", "llm"), ("llm.endpoint", "llm"))
        for method in ("none", "aeda", "vr-random", "vr-antonym", "er", "llm")
        if method != reader])
    def test_key_of_another_augment_method_rejected(self, tmp_path, fixture_dir, dev_dir,
                                                    capsys, monkeypatch, key, reader, method):
        config = experiment_config(tmp_path, fixture_dir, dev_dir, "crf", method)
        value = {"entities": os.path.join(fixture_dir, "corpus.tsv"), "offline": "true",
                 "llm.endpoint": "http://llm.invalid/complete"}[key]
        set_keys(config, f"{key} = {value}\n")

        def no_work(*args, **kwargs):
            raise AssertionError("the corpus was loaded")

        monkeypatch.setattr(cli, "_load_sentences", no_work)
        code, _, err = run(capsys, "run-experiment", "--config", config)
        assert code == 2
        assert (f"config key {key!r} is read only by augment.method = {reader}, "
                f"not by augment.method = {method}") in err

    @pytest.mark.parametrize("command", ["train-crf", "train-clf"])
    def test_train_rejects_misspelt_key(self, tmp_path, fixture_dir, capsys, command):
        config = tmp_path / "train.cfg"
        config.write_text("\n".join([
            f"train = {os.path.join(fixture_dir, 'corpus.tsv')}",
            f"schema = {os.path.join(fixture_dir, 'schema.cfg')}",
            "seed = 1", "learning_rte = 0.1",
        ]) + "\n", encoding="utf-8")
        code, _, err = run(capsys, command, "--config", str(config))
        assert code == 2
        assert "did you mean 'learning_rate'?" in err

    @pytest.mark.parametrize("key", ["train", "schema", "dev", "entities"])
    def test_missing_file_rejected(self, tmp_path, fixture_dir, dev_dir, capsys, key):
        config = experiment_config(tmp_path, fixture_dir, dev_dir, "crf")
        set_keys(config, f"{key} = {tmp_path / 'absent.tsv'}\n")
        code, _, err = run(capsys, "run-experiment", "--config", config)
        assert code == 2
        assert f"{key} file not found" in err

    def test_missing_embeddings_rejected_before_augmenting(self, tmp_path, fixture_dir,
                                                          dev_dir, capsys, monkeypatch):
        config = experiment_config(tmp_path, fixture_dir, dev_dir, "textclf", "vr-random")
        set_keys(config, f"embeddings = {tmp_path / 'missing.txt'}\n")

        def no_augmentation(*args, **kwargs):
            raise AssertionError("augmentation started")

        monkeypatch.setattr(aug, "augment_minority", no_augmentation)
        code, _, err = run(capsys, "run-experiment", "--config", config)
        assert code == 2
        assert "embeddings file not found" in err

    def test_missing_dev_rejected(self, tmp_path, fixture_dir, capsys):
        config = tmp_path / "nodev.cfg"
        config.write_text("\n".join([
            f"train = {os.path.join(fixture_dir, 'corpus.tsv')}",
            f"schema = {os.path.join(fixture_dir, 'schema.cfg')}",
            "seed = 1",
        ]) + "\n", encoding="utf-8")
        code, _, err = run(capsys, "run-experiment", "--config", str(config))
        assert code == 2
        assert "experiment config missing 'dev'" in err

    @pytest.mark.parametrize("model", ["crf", "textclf"])
    def test_llm_runs_offline(self, tmp_path, fixture_dir, dev_dir, capsys, model):
        config = experiment_config(tmp_path, fixture_dir, dev_dir, model, "llm")
        set_keys(config, "offline = true\n")
        code, _, _ = run(capsys, "run-experiment", "--config", config)
        assert code == 0
        assert (tmp_path / f"out-{model}-llm" / "report.json").exists()

    def test_llm_with_several_copies_rejected(self, tmp_path, fixture_dir, dev_dir, capsys):
        config = experiment_config(tmp_path, fixture_dir, dev_dir, "textclf", "llm")
        set_keys(config, "offline = true\naugment.per_sentence = 2\n")
        code, _, err = run(capsys, "run-experiment", "--config", config)
        assert code == 2
        assert "per_sentence must be 1 for method llm, got 2" in err
        assert not (tmp_path / "out-textclf-llm").exists()

    def test_unset_keys_take_the_dataclass_defaults(self, tmp_path, fixture_dir, capsys):
        config = tmp_path / "crf.cfg"
        config.write_text("\n".join([
            f"train = {os.path.join(fixture_dir, 'corpus.tsv')}",
            f"schema = {os.path.join(fixture_dir, 'schema.cfg')}",
            "seed = 1", f"model_out = {tmp_path / 'crf-model.json'}",
        ]) + "\n", encoding="utf-8")
        code, out, _ = run(capsys, "train-crf", "--config", str(config))
        assert code == 0
        epochs = [line for line in out.splitlines() if line.startswith("epoch ")]
        # The history starts with the NLL before the first epoch.
        assert len(epochs) == TrainConfig().epochs + 1 == 6
        assert json.loads((tmp_path / "crf-model.json").read_text())["l2"] == 0.0

    @pytest.mark.parametrize("method_line", ["", "augment.method = none"])
    @pytest.mark.parametrize("key,value", [("augment.target_class", "CLA"),
                                           ("augment.n_samples", "50"),
                                           ("augment.per_sentence", "2")])
    def test_operator_keys_rejected_without_augmentation(self, tmp_path, fixture_dir, dev_dir,
                                                         capsys, monkeypatch, method_line,
                                                         key, value):
        config = experiment_config(tmp_path, fixture_dir, dev_dir, "crf")
        set_keys(config, f"{method_line}\n{key} = {value}\n".lstrip("\n"))

        def no_work(*args, **kwargs):
            raise AssertionError("the corpus was loaded")

        monkeypatch.setattr(cli, "_load_sentences", no_work)
        code, _, err = run(capsys, "run-experiment", "--config", config)
        assert code == 2
        assert (f"config key {key!r} is read only by augment.method = aeda, vr-random, "
                "vr-antonym, er and llm, not by augment.method = none") in err

    @pytest.mark.parametrize("command", ["run-experiment", "train-crf"])
    def test_repeated_key_exits_2(self, tmp_path, fixture_dir, dev_dir, capsys, monkeypatch,
                                  command):
        config = tmp_path / "repeat.cfg"
        config.write_text("\n".join([
            f"train = {os.path.join(fixture_dir, 'corpus.tsv')}",
            f"dev = {os.path.join(dev_dir, 'corpus.tsv')}" if command == "run-experiment"
            else "# no dev set",
            f"schema = {os.path.join(fixture_dir, 'schema.cfg')}",
            "seed = 1", "epochs = 1", "", "epochs = 2",
        ]) + "\n", encoding="utf-8")

        def no_work(*args, **kwargs):
            raise AssertionError("the corpus was loaded")

        monkeypatch.setattr(cli, "_load_sentences", no_work)
        code, out, err = run(capsys, command, "--config", str(config))
        assert code == 2
        assert "line 7: key 'epochs' repeats line 5" in err
        assert out == ""

    def test_repeated_schema_key_exits_2(self, tmp_path, fixture_dir, capsys):
        schema = tmp_path / "schema.cfg"
        text = open(os.path.join(fixture_dir, "schema.cfg"), encoding="utf-8").read()
        schema.write_text(text + "outside = O\n", encoding="utf-8")
        code, _, err = run(capsys, "split", "--data", os.path.join(fixture_dir, "corpus.tsv"),
                           "--schema", str(schema), "--out", str(tmp_path / "split.tsv"))
        assert code == 2
        assert "key 'outside' repeats line 1" in err
