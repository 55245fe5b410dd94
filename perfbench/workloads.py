"""The benchmark workloads.

Each workload builds its inputs from the benchmark seed in `setup`, runs its
timed region in `iterate`, and checks the outputs of one iteration in
`check`, outside the timed region. The program is driven only through its
public entry points: `cli.run_experiment`, `cli.main` (the `augment`,
`make-fixture` and `train-crf` commands), and the `crf`, `corpus`,
`senttok` and `metrics` functions a caller of the library would use.

Fixture sizes are fixed here rather than taken from the package, so a change
to the package's defaults cannot change the benchmark's inputs. They are
fractions of the `make-fixture` default corpus (3,503 sentences), chosen so
that one timed iteration takes about two seconds on a 2-CPU machine.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Any

from claimaug import cli, corpus, crf, metrics, senttok

# Sentences per class of `claimaug make-fixture` without --sizes.
DEFAULT_SIZES = {"CLA": 40, "EXP": 192, "O": 1983, "PER": 782, "QUE": 506}
# The self-test's corpus: a few sentences per class, so every path still runs.
TINY_SIZES = {"CLA": 6, "EXP": 8, "O": 30, "PER": 12, "QUE": 10}
METHODS = ("aeda", "vr-random", "vr-antonym", "er", "llm")
TARGET_CLASS = "CLA"


def scaled_sizes(factor: float, tiny: bool) -> dict[str, int]:
    base = TINY_SIZES if tiny else DEFAULT_SIZES
    if tiny:
        factor = 1.0
    return {label: max(1, round(n * factor)) for label, n in base.items()}


@dataclass
class Context:
    """Where and from what one set-up builds its inputs."""

    directory: str
    seed: int
    tiny: bool


@dataclass
class Outcome:
    """What `check` found in one iteration."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    outputs: dict[str, bytes] = field(default_factory=dict)
    values: dict[str, Any] = field(default_factory=dict)

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


@contextlib.contextmanager
def quiet():
    """Keep the program's progress output off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        yield


def _run_cli(argv: list[str]) -> int:
    with quiet():
        return cli.main(argv)


def make_fixture(directory: str, seed: int, sizes: dict[str, int]) -> str:
    """Generate a corpus with `claimaug make-fixture`; returns its directory."""
    spec = ",".join(f"{label}={n}" for label, n in sorted(sizes.items()))
    rc = _run_cli(["make-fixture", "--seed", str(seed), "--sizes", spec, "--out", directory])
    if rc != 0:
        raise RuntimeError(f"make-fixture --seed {seed} exited with {rc}")
    return directory


def count_tokens(path: str) -> int:
    """Token lines in a token-label file, counted without the program's parser."""
    with open(path, "rb") as f:
        return sum(1 for line in f if line.strip())


def read_blocks(data: bytes) -> list[list[tuple[str, str]]]:
    """Blocks of (token, label) pairs of a token-label file, parsed independently."""
    blocks = []
    for block in data.decode("utf-8").split("\n\n"):
        rows = [tuple(line.split("\t")) for line in block.splitlines() if line.strip()]
        if rows:
            blocks.append(rows)
    return blocks


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def fixture_files(directory: str) -> dict[str, bytes]:
    return {name: read_bytes(os.path.join(directory, name))
            for name in sorted(os.listdir(directory))}


def check_report(outcome: Outcome, report: metrics.MetricsReport, gold_tokens: int,
                 tag: str) -> None:
    """Scored tokens must equal gold tokens; the report bytes must repeat."""
    support = sum(m.support for m in report.per_class.values())
    outcome.expect(support == gold_tokens,
                   f"{tag}: report covers {support} gold tokens, dev has {gold_tokens}")
    outcome.outputs[f"{tag}/report.json"] = report.to_json().encode("utf-8")
    outcome.values["cla_f1"] = report.per_class[TARGET_CLASS].f1
    outcome.values["macro_f1"] = report.macro_f1


class Workload:
    name = ""
    why = ""

    def setup(self, ctx: Context) -> Any:
        raise NotImplementedError

    def fingerprint(self, state: Any) -> dict[str, bytes]:
        """Set-up products that must be byte-identical across set-up repeats."""
        raise NotImplementedError

    def iterate(self, state: Any) -> Any:
        raise NotImplementedError

    def check(self, state: Any, result: Any) -> Outcome:
        raise NotImplementedError

    def input_tokens(self, state: Any) -> int:
        """Tokens the timed region reads, the base of `tokens_per_s`."""
        raise NotImplementedError

    def describe(self, state: Any) -> str:
        raise NotImplementedError

    def summary(self, state: Any, times: list[float], outcomes: list[Outcome]
                ) -> dict[str, tuple[float, str]]:
        """Workload-specific end-to-end figures, by name: (value, unit)."""
        return {}


@dataclass
class ExperimentState:
    config: dict[str, str]
    train_dir: str
    dev_dir: str
    train_tokens: int
    dev_tokens: int


class _Experiment(Workload):
    """`cli.run_experiment` on a train fixture (seed) and a dev fixture (seed + 1)."""

    train_factor = 1.0
    dev_factor = 1.0
    settings: dict[str, str] = {}

    def setup(self, ctx: Context) -> ExperimentState:
        train_dir = make_fixture(os.path.join(ctx.directory, "train"), ctx.seed,
                                 scaled_sizes(self.train_factor, ctx.tiny))
        dev_dir = make_fixture(os.path.join(ctx.directory, "dev"), ctx.seed + 1,
                               scaled_sizes(self.dev_factor, ctx.tiny))
        config = {
            "train": os.path.join(train_dir, "corpus.tsv"),
            "dev": os.path.join(dev_dir, "corpus.tsv"),
            "schema": os.path.join(train_dir, "schema.cfg"),
            "seed": str(ctx.seed),
            **self.settings,
        }
        return ExperimentState(config=config, train_dir=train_dir, dev_dir=dev_dir,
                               train_tokens=count_tokens(config["train"]),
                               dev_tokens=count_tokens(config["dev"]))

    def fingerprint(self, state: ExperimentState) -> dict[str, bytes]:
        return {**{f"train/{k}": v for k, v in fixture_files(state.train_dir).items()},
                **{f"dev/{k}": v for k, v in fixture_files(state.dev_dir).items()}}

    def iterate(self, state: ExperimentState) -> metrics.MetricsReport:
        with quiet():
            return cli.run_experiment(dict(state.config))

    def check(self, state: ExperimentState, report: metrics.MetricsReport) -> Outcome:
        outcome = Outcome(attempted=1)
        check_report(outcome, report, state.dev_tokens, self.name)
        return outcome

    def input_tokens(self, state: ExperimentState) -> int:
        return state.train_tokens + state.dev_tokens

    def describe(self, state: ExperimentState) -> str:
        settings = " ".join(f"{k}={v}" for k, v in self.settings.items())
        return (f"run_experiment {settings}; train {state.train_tokens} tokens, "
                f"dev {state.dev_tokens} tokens")

    def summary(self, state, times, outcomes):
        last = outcomes[-1].values
        return {"cla_f1": (last["cla_f1"], "%"), "macro_f1": (last["macro_f1"], "%")}


class CrfTrain(_Experiment):
    name = "crf-train"
    why = ("CRF training dominates; corpus, split and augment are a few percent, "
           "so data-path changes must not move it")
    # A quarter of the default fixture and one epoch keep an iteration near 2 s;
    # the README's 400 vr-random samples are scaled by the same quarter.
    train_factor = 0.25
    dev_factor = 0.25
    settings = {"model": "crf", "epochs": "1", "learning_rate": "0.5",
                "augment.method": "vr-random", "augment.target_class": TARGET_CLASS,
                "augment.n_samples": "100"}


class TextclfAdv(_Experiment):
    name = "textclf-adv"
    why = ("adversarial textclf training on a train set 4x the crf-train one; "
           "the CRF does not run")
    train_factor = 1.0
    dev_factor = 0.25
    # epsilon 0.01 keeps the classifier above the constant-prediction
    # baseline on this fixture; 0.05 and above collapse it to the O class.
    settings = {"model": "textclf", "epochs": "5", "epsilon": "0.01", "adv_weight": "0.5",
                "augment.method": "er", "augment.target_class": TARGET_CLASS,
                "augment.n_samples": "400"}


@dataclass
class AugmentState:
    data_dir: str
    out_dir: str
    n_samples: int
    corpus_tokens: int
    schema: corpus.LabelSchema
    seed: int


class AugmentAll(Workload):
    """The `augment` command for each operator, at --workers 1 and 2."""

    name = "augment-all"
    why = ("parse, split, harvest and all five operators at 1 and 2 workers; "
           "no model is trained")
    factor = 0.25

    def setup(self, ctx: Context) -> AugmentState:
        data_dir = make_fixture(os.path.join(ctx.directory, "data"), ctx.seed,
                                scaled_sizes(self.factor, ctx.tiny))
        with open(os.path.join(data_dir, "bookkeeping.json"), encoding="utf-8") as f:
            per_class = json.load(f)["per_class_sentences"]
        # Enough samples to bring the target class up to the majority class.
        n_samples = max(per_class.values()) - per_class[TARGET_CLASS]
        with open(os.path.join(data_dir, "schema.cfg"), encoding="utf-8") as f:
            schema = corpus.parse_schema_config(f.read())
        return AugmentState(data_dir=data_dir, out_dir=os.path.join(ctx.directory, "out"),
                            n_samples=n_samples,
                            corpus_tokens=count_tokens(os.path.join(data_dir, "corpus.tsv")),
                            schema=schema, seed=ctx.seed)

    def fingerprint(self, state: AugmentState) -> dict[str, bytes]:
        return fixture_files(state.data_dir)

    def _out(self, state: AugmentState, method: str, workers: int) -> str:
        return os.path.join(state.out_dir, f"{method}-w{workers}")

    def iterate(self, state: AugmentState) -> dict[tuple[str, int], int]:
        codes = {}
        for method in METHODS:
            for workers in (1, 2):
                codes[method, workers] = _run_cli([
                    "augment", "--data", os.path.join(state.data_dir, "corpus.tsv"),
                    "--schema", os.path.join(state.data_dir, "schema.cfg"),
                    "--method", method, "--target-class", TARGET_CLASS,
                    "--n-samples", str(state.n_samples), "--seed", str(state.seed),
                    "--out", self._out(state, method, workers),
                    "--workers", str(workers), "--offline"])
        return codes

    def check(self, state: AugmentState, codes: dict[tuple[str, int], int]) -> Outcome:
        outcome = Outcome()
        samples = 0
        for (method, workers), rc in codes.items():
            outcome.attempted += 1
            if rc != 0:
                outcome.failures.append(f"augment --method {method} --workers {workers} "
                                        f"exited with {rc}")
                continue
            out = self._out(state, method, workers)
            tsv = read_bytes(os.path.join(out, "augmented.tsv"))
            manifest = read_bytes(os.path.join(out, "manifest.jsonl"))
            outcome.outputs[f"{method}/w{workers}/augmented.tsv"] = tsv
            outcome.outputs[f"{method}/w{workers}/manifest.jsonl"] = manifest
            blocks = read_blocks(tsv)
            outcome.expect(len(blocks) == state.n_samples == len(manifest.splitlines()),
                           f"{method} w{workers}: {len(blocks)} samples, "
                           f"{len(manifest.splitlines())} manifest lines, "
                           f"{state.n_samples} requested")
            kept = sum(senttok.majority_label([label for _, label in block], state.schema)
                       == TARGET_CLASS for block in blocks)
            outcome.expect(kept == len(blocks),
                           f"{method} w{workers}: {len(blocks) - kept} samples lost the "
                           f"{TARGET_CLASS} sentence label")
            samples += len(blocks)
        for method in METHODS:
            for name in ("augmented.tsv", "manifest.jsonl"):
                one = outcome.outputs.get(f"{method}/w1/{name}")
                two = outcome.outputs.get(f"{method}/w2/{name}")
                if one is not None and two is not None:
                    outcome.expect(one == two,
                                   f"{method}: {name} differs between --workers 1 and 2")
        outcome.values["samples"] = samples
        return outcome

    def input_tokens(self, state: AugmentState) -> int:
        return state.corpus_tokens * len(METHODS) * 2

    def describe(self, state: AugmentState) -> str:
        return (f"augment {','.join(METHODS)} x workers 1,2; corpus {state.corpus_tokens} "
                f"tokens, {state.n_samples} {TARGET_CLASS} samples per command")

    def summary(self, state, times, outcomes):
        rates = [o.values["samples"] / t for t, o in zip(times, outcomes)]
        return {"aug_samples_per_s": (statistics.median(rates), "1/s")}


@dataclass
class LabelState:
    model_path: str
    train_dir: str
    unseen_dir: str
    unseen_path: str
    schema: corpus.LabelSchema
    unseen_tokens: int


@dataclass
class Labelled:
    report: metrics.MetricsReport
    predictions: list[list[str]]
    gold: list[tuple[str, ...]]
    latencies: list[float]


class CrfLabel(Workload):
    """Load a trained CRF and label an unseen corpus, document by document."""

    name = "crf-label"
    why = ("CRF read side: model load, parse, split, Viterbi per sentence and "
           "scoring; training happens in set-up")
    # A sixteenth of the default fixture keeps the five set-up repeats short.
    train_factor = 0.0625
    # Twice the default fixture: about 2,800 documents per iteration.
    unseen_factor = 2.0

    def setup(self, ctx: Context) -> LabelState:
        train_dir = make_fixture(os.path.join(ctx.directory, "train"), ctx.seed,
                                 scaled_sizes(self.train_factor, ctx.tiny))
        unseen_dir = make_fixture(os.path.join(ctx.directory, "unseen"), ctx.seed + 1,
                                  scaled_sizes(self.unseen_factor, ctx.tiny))
        model_path = os.path.join(ctx.directory, "crf-model.json")
        config_path = os.path.join(ctx.directory, "train-crf.cfg")
        with open(config_path, "w", encoding="utf-8") as f:
            f.write("".join(f"{k} = {v}\n" for k, v in {
                "train": os.path.join(train_dir, "corpus.tsv"),
                "schema": os.path.join(train_dir, "schema.cfg"),
                "seed": ctx.seed, "epochs": 1, "learning_rate": 0.5,
                "model_out": model_path}.items()))
        rc = _run_cli(["train-crf", "--config", config_path])
        if rc != 0:
            raise RuntimeError(f"train-crf exited with {rc}")
        with open(os.path.join(unseen_dir, "schema.cfg"), encoding="utf-8") as f:
            schema = corpus.parse_schema_config(f.read())
        unseen_path = os.path.join(unseen_dir, "corpus.tsv")
        return LabelState(model_path=model_path, train_dir=train_dir, unseen_dir=unseen_dir,
                          unseen_path=unseen_path, schema=schema,
                          unseen_tokens=count_tokens(unseen_path))

    def fingerprint(self, state: LabelState) -> dict[str, bytes]:
        return {**{f"train/{k}": v for k, v in fixture_files(state.train_dir).items()},
                **{f"unseen/{k}": v for k, v in fixture_files(state.unseen_dir).items()},
                "crf-model.json": read_bytes(state.model_path)}

    def iterate(self, state: LabelState) -> Labelled:
        model = crf.CrfModel.load(state.model_path)
        dataset = corpus.parse_token_label_file(read_bytes(state.unseen_path), state.schema)
        predictions, gold, latencies = [], [], []
        clock = time.perf_counter
        for doc in dataset.documents:
            start = clock()
            labels = []
            for sentence in senttok.split_sentences(doc, state.schema):
                labels.extend(model.predict(list(sentence.texts)))
            latencies.append(clock() - start)
            predictions.append(labels)
            gold.append(doc.token_labels)
        report = metrics.score([l for doc in gold for l in doc],
                               [l for doc in predictions for l in doc], state.schema)
        return Labelled(report=report, predictions=predictions, gold=gold,
                        latencies=latencies)

    def check(self, state: LabelState, result: Labelled) -> Outcome:
        outcome = Outcome(attempted=len(result.gold) + 1)
        valid = set(state.schema.labels)
        for i, (pred, gold) in enumerate(zip(result.predictions, result.gold)):
            if len(pred) != len(gold):
                outcome.failures.append(f"document {i}: {len(pred)} predictions for "
                                        f"{len(gold)} tokens")
            elif not valid.issuperset(pred):
                outcome.failures.append(f"document {i}: labels outside the schema: "
                                        f"{sorted(set(pred) - valid)}")
        n_pred = sum(len(p) for p in result.predictions)
        outcome.expect(n_pred == state.unseen_tokens,
                       f"{n_pred} predictions for {state.unseen_tokens} gold tokens")
        check_report(outcome, result.report, state.unseen_tokens, self.name)
        outcome.outputs["predictions"] = "\n".join(
            " ".join(p) for p in result.predictions).encode("utf-8")
        outcome.values["latencies"] = result.latencies
        return outcome

    def input_tokens(self, state: LabelState) -> int:
        return state.unseen_tokens

    def describe(self, state: LabelState) -> str:
        return f"load CRF, label an unseen corpus of {state.unseen_tokens} tokens"

    def summary(self, state, times, outcomes):
        latencies_ms = sorted(1000.0 * x for o in outcomes for x in o.values["latencies"])
        cuts = statistics.quantiles(latencies_ms, n=100)
        last = outcomes[-1].values
        return {
            "label_tokens_per_s": (statistics.median(state.unseen_tokens / t for t in times),
                                   "1/s"),
            "doc_label_ms_p50": (cuts[49], "ms"),
            "doc_label_ms_p99": (cuts[98], "ms"),
            "doc_label_samples": (len(latencies_ms), "count"),
            "cla_f1": (last["cla_f1"], "%"),
            "macro_f1": (last["macro_f1"], "%"),
        }


WORKLOADS: dict[str, Workload] = {w.name: w for w in (CrfTrain(), TextclfAdv(),
                                                      AugmentAll(), CrfLabel())}
