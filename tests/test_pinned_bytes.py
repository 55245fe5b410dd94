"""Byte pins: SHA-256 of CLI outputs on a tiny fixture, fixed across refactors.

Unlike the rerun checks elsewhere, which compare two runs of the same code,
these digests were recorded once and must not move unless a change means to
alter the output bytes. When one does, say why in CHANGES.md and re-record
the digests with `PYTHONPATH=src python tests/test_pinned_bytes.py`.
"""

import contextlib
import hashlib
import io
import os
import tempfile

from claimaug.cli import _load_sentences, main
from claimaug.crf import CrfModel

METHODS = ("aeda", "vr-random", "vr-antonym", "er", "llm")
SIZES = "CLA=12,EXP=30,O=120,PER=40,QUE=30"

PINNED = {
    "make-fixture/corpus.tsv":
        "e40e5ebbe8e8889ce288d0fa5fbb2b5f1d234a667b01096d9c2cfb31f9229082",
    "make-fixture/schema.cfg":
        "db7475831d521eb71dc92c6312b33012fdf3e6495e5a8b75c9e9a27cf5585a35",
    "make-fixture/bookkeeping.json":
        "8378c3dacfc3799e4a4155477e05f77d27607cc3f151c7627cb256deb6f75138",
    "split":
        "e0ec9542ed11f87970abd3f808e866858cbcf8c6e7e613599ae5af74d642ce23",
    "augment/aeda/augmented.tsv":
        "785c1a172dbbf61249686ccba6571860725896f65acc42697808c9fb07cfb820",
    "augment/aeda/manifest.jsonl":
        "e0b2842dde2d775b8ff0468230d36f841468c6f7262d56a7cb0a60fea09629eb",
    "augment/vr-random/augmented.tsv":
        "28537bd7d15a36c12233bbd18c22c1feac9ff3e66738f0bf3e4434eeacd88c2d",
    "augment/vr-random/manifest.jsonl":
        "abf9515ab804e89d3d50b5fd3dd0509f6ce67fc7950f907fa5be9c68e315d54e",
    "augment/vr-antonym/augmented.tsv":
        "8a7e4c5d5cc6dc1b0efcc758e8f079ea561f249e4a65cbe94733a7fe001ddf5b",
    "augment/vr-antonym/manifest.jsonl":
        "a42b8975c98cb8b6715c8f572a3b8e3ecfc6660b4ce0fed2acd06a2582349c29",
    "augment/er/augmented.tsv":
        "027a8a8c92fe7317af4ad6c01b9841c8f683bc3abd80401640839c7a982cd3b5",
    "augment/er/manifest.jsonl":
        "a2366a17d80c1d005655b211a7b7e0a59025acc34f1d979b71c7a62eca3fabf0",
    "augment/llm/augmented.tsv":
        "0b3021e0023a4210849f2529096c2954c752e01b4879b8c3cec50181dd37e7c5",
    "augment/llm/manifest.jsonl":
        "f770fba970d75289f01a11e0111d35caf69490822d59c06a6ac7d5a5fa5133c4",
    "run-experiment/crf/report.json":
        "6f6246f7969a4b7e80871d493326fcb7f4d73648aaf273fc0803d647d2a5b6ac",
    "run-experiment/textclf/report.json":
        "a45eb3d1cefacbc6e1cc1fb35e95b0a609a8a385f5d09872b5cb1480f13ed88f",
    "run-experiment/textclf-adv/report.json":
        "7b40913736823ed148e71dd9e6a338015324842f816084e6cb79956c5901b7af",
    "train-crf/l2=0/model.json":
        "794ee2926b348fba719a66a451b386f1cea66dac05da0cb7d3ad63713ec82310",
    "train-crf/l2=0.1/model.json":
        "5f1582b13de1fc3fa5a6fb3761a3ec3c46d9ab24b34fd7f64e84288195f3030c",
    "train-clf/textclf-adv/model.json":
        "8ed4959ab9a22edf0e2780421b9b3edd897ca5a1010e95f12b8413eac9766e0e",
    "train-crf/l2=0/predict":
        "cb77ab0e35bbf02aa805ce49f0658bb97308cec02f547a89f9215bb7cd3d4f92",
}


def _sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _write_config(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def _run(*argv: str) -> None:
    assert main(list(argv)) == 0, argv


def produce_digests(work: str) -> dict[str, str]:
    """Run every pinned command under `work`; returns output name -> digest."""
    digests = {}
    fixture, dev = os.path.join(work, "fx"), os.path.join(work, "dev")
    _run("make-fixture", "--seed", "5", "--out", fixture, "--sizes", SIZES)
    _run("make-fixture", "--seed", "6", "--out", dev, "--sizes", SIZES)
    for name in ("corpus.tsv", "schema.cfg", "bookkeeping.json"):
        digests[f"make-fixture/{name}"] = _sha256(os.path.join(fixture, name))
    data, schema = os.path.join(fixture, "corpus.tsv"), os.path.join(fixture, "schema.cfg")

    split_out = os.path.join(work, "split.tsv")
    _run("split", "--data", data, "--schema", schema, "--out", split_out)
    digests["split"] = _sha256(split_out)

    for method in METHODS:
        out = os.path.join(work, f"aug-{method}")
        # The LLM client takes no seed, so llm allows only one copy per sentence.
        per_sentence = "1" if method == "llm" else "2"
        _run("augment", "--data", data, "--schema", schema, "--method", method,
             "--target-class", "CLA", "--n-samples", "10", "--per-sentence", per_sentence,
             "--seed", "7", "--out", out, "--offline")
        for name in ("augmented.tsv", "manifest.jsonl"):
            digests[f"augment/{method}/{name}"] = _sha256(os.path.join(out, name))

    # At 2 epochs the tiny fixture's report is the same with and without
    # adversarial training, so the adversarial run trains for 5.
    clean = ["epochs = 2", "learning_rate = 0.3"]
    adversarial = ["epochs = 5", "epsilon = 0.01", "adv_weight = 0.5"]
    experiments = {"crf": ("crf", clean), "textclf": ("textclf", clean),
                   "textclf-adv": ("textclf", adversarial)}
    for name, (model, settings) in experiments.items():
        config = os.path.join(work, f"{name}.cfg")
        outdir = os.path.join(work, f"exp-{name}")
        _write_config(config, [
            f"train = {data}", f"dev = {os.path.join(dev, 'corpus.tsv')}",
            f"schema = {schema}", f"model = {model}", "seed = 7", *settings,
            "augment.method = vr-random", "augment.target_class = CLA",
            "augment.n_samples = 10", f"outdir = {outdir}",
        ])
        _run("run-experiment", "--config", config)
        digests[f"run-experiment/{name}/report.json"] = _sha256(
            os.path.join(outdir, "report.json"))

    # The train-* commands read no dev set and no augment keys, so each gets
    # a config of its own.
    trainers = {
        "train-crf/l2=0": ("train-crf", ["epochs = 3", "l2 = 0"]),
        "train-crf/l2=0.1": ("train-crf", ["epochs = 3", "l2 = 0.1"]),
        "train-clf/textclf-adv": ("train-clf", adversarial),
    }
    for name, (command, settings) in trainers.items():
        stem = os.path.join(work, name.replace("/", "-"))
        config, model_out = f"{stem}.cfg", f"{stem}.json"
        _write_config(config, [f"train = {data}", f"schema = {schema}", "seed = 7",
                               *settings, f"model_out = {model_out}"])
        _run(command, "--config", config)
        digests[f"{name}/model.json"] = _sha256(model_out)

    # The labels the l2 = 0 model decodes on the dev fixture, one line per sentence.
    model = CrfModel.load(os.path.join(work, "train-crf-l2=0.json"))
    _, sentences = _load_sentences(os.path.join(dev, "corpus.tsv"), schema)
    decoded = "".join(" ".join(model.predict(s.texts)) + "\n" for s in sentences)
    digests["train-crf/l2=0/predict"] = hashlib.sha256(decoded.encode("utf-8")).hexdigest()
    return digests


def test_outputs_match_pinned_digests(tmp_path, capsys):
    digests = produce_digests(str(tmp_path))
    capsys.readouterr()
    assert digests == PINNED


if __name__ == "__main__":
    # Print the digests of the current code in the layout of PINNED.
    with tempfile.TemporaryDirectory() as work, contextlib.redirect_stdout(io.StringIO()):
        recorded = produce_digests(work)
    for key, value in recorded.items():
        print(f'    "{key}":\n        "{value}",')
