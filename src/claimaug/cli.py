"""Command-line front end.

Subcommands: stats, split, build-lexicons, augment, train-crf, train-clf,
eval, compare, make-fixture, run-experiment. Every command that consumes
randomness takes an explicit seed; nothing falls back to the wall clock.

Exit codes: 0 success, 2 input/parse/configuration problems, 3 augmentation
produced nothing, 4 training diverged.
"""

from __future__ import annotations

import argparse
import dataclasses
import difflib
import functools
import json
import math
import os
import sys
import typing

from . import augment as aug
from . import crf as crf_mod
from . import metrics as metrics_mod
from . import morph
from . import senttok
from . import synth
from . import textclf
from .corpus import (
    Dataset,
    Document,
    LabelSchema,
    dataset_stats,
    format_schema_config,
    label_counts,
    parse_schema_config,
    parse_token_label_file,
    serialize_token_label_file,
)
from .errors import (
    AugmentationError,
    ClaimaugError,
    ConfigurationError,
    ParseError,
    SchemaError,
    TrainingDiverged,
    ValidationError,
)
from .llmclient import EchoLlmClient, HttpLlmClient
from .util import atomic_write_bytes, atomic_write_text, decode_text, parse_kv_config

EXIT_INPUT = 2
EXIT_NO_AUGMENTATIONS = 3
EXIT_DIVERGED = 4


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def _read_text(path: str) -> str:
    return decode_text(_read_bytes(path))


def _parse_file(path: str, parse: typing.Callable[[typing.Any], typing.Any],
                read: typing.Callable[[str], typing.Any] = _read_text):
    """`parse` of what `read` gets from the file; a ParseError or SchemaError names the file."""
    try:
        return parse(read(path))
    except (ParseError, SchemaError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _load_schema(path: str) -> LabelSchema:
    return _parse_file(path, parse_schema_config)


def _load_dataset(path: str, schema: LabelSchema) -> Dataset:
    return _parse_file(path, lambda data: parse_token_label_file(data, schema), _read_bytes)


def _load_gold(path: str, schema: LabelSchema) -> Dataset:
    """`_load_dataset` of a file to score against; one without tokens is rejected.

    Scoring no tokens would write an all-zero report.
    """
    dataset = _load_dataset(path, schema)
    if not any(doc.texts for doc in dataset.documents):
        raise ValidationError(f"{path}: no tokens to score")
    return dataset


def _load_sentences(data_path: str,
                    schema_path: str) -> tuple[LabelSchema, list[senttok.LabeledSentence]]:
    """Parse a corpus and split it into sentences.

    Majority-label ties are broken by training frequency, so a schema that
    records none gets the corpus's own label counts first.
    """
    dataset = _load_dataset(data_path, _load_schema(schema_path))
    schema = dataset.schema
    if not schema.train_freq:
        schema = schema.with_train_freq(label_counts(dataset))
    sentences = [sentence for doc in dataset.documents
                 for sentence in senttok.split_sentences(doc, schema)]
    return schema, sentences


def cmd_stats(args) -> int:
    dataset = _load_dataset(args.data, _load_schema(args.schema))
    stats = dataset_stats(dataset)
    if args.format == "json":
        print(json.dumps(dataclasses.asdict(stats), indent=2, sort_keys=True))
    else:
        print(f"texts: {stats.n_texts}")
        print(f"unique_words: {stats.n_unique_words}")
        print(f"max_length: {stats.max_length}")
        dist = " ".join(f"{l}={stats.label_dist[l]}" for l in dataset.schema.labels)
        print(f"label_dist: {dist}")
    return 0


def cmd_split(args) -> int:
    schema, sentences = _load_sentences(args.data, args.schema)
    stats = senttok.purity_stats(sentences)
    if args.out:
        atomic_write_bytes(args.out, serialize_token_label_file(sentences))
    print(f"sentences: {stats.n_sentences}")
    print(f"uniform: {stats.n_uniform} ({100.0 * stats.uniform_fraction:.1f}%)")
    per_class = " ".join(f"{l}={stats.per_class.get(l, 0)}" for l in schema.labels)
    print(f"per_class: {per_class}")
    return 0


def cmd_build_lexicons(args) -> int:
    _, sentences = _load_sentences(args.data, args.schema)
    lexicon = morph.load_default_verb_lexicon()
    pool = aug.build_verb_pool(sentences, lexicon)
    dictionary = aug.build_entity_dictionary(sentences)
    os.makedirs(args.out, exist_ok=True)
    atomic_write_text(os.path.join(args.out, "verbs.tsv"),
                      morph.format_verb_lexicon(lexicon, pool))
    atomic_write_text(os.path.join(args.out, "entities.tsv"),
                      format_entity_dictionary(dictionary))
    print(f"verbs: {len(pool)}")
    print(f"entities: {sum(map(len, dictionary.entries.values()))} "
          f"in {len(dictionary.entries)} categories")
    return 0


def format_entity_dictionary(dictionary: aug.EntityDictionary) -> str:
    """The `CATEGORY<TAB>entity tokens` lines that `load_entity_dictionary_file` reads."""
    return "".join(f"{category}\t{' '.join(form)}\n"
                   for category in sorted(dictionary.entries)
                   for form in dictionary.entries[category])


def load_entity_dictionary_file(text: str) -> aug.EntityDictionary:
    """Parse `CATEGORY<TAB>entity tokens` lines, as `format_entity_dictionary` writes them."""
    entries: dict[str, list[tuple[str, ...]]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        category, tab, form = raw.partition("\t")
        tokens = tuple(form.split())
        if not tab or not category.strip() or not tokens:
            raise ParseError("expected 'CATEGORY<TAB>entity tokens'", line=lineno)
        if tokens not in entries.setdefault(category, []):
            entries[category].append(tokens)
    return aug.EntityDictionary(entries={c: tuple(v) for c, v in entries.items()})


def _augment(sentences, config: aug.AugmentConfig, *, entities: str | None, offline: bool,
             llm_endpoint: str | None, workers: int) -> list[aug.AugmentedSample]:
    dictionary = (_parse_file(entities, load_entity_dictionary_file)
                  if entities is not None else None)
    client = (EchoLlmClient() if offline
              else HttpLlmClient(llm_endpoint) if llm_endpoint else None)
    return aug.augment_minority(sentences, config, entities=dictionary, llm_client=client,
                                workers=workers)


# `json.dumps(obj, sort_keys=True)` builds this same encoder on every call.
_MANIFEST_ENCODER = json.JSONEncoder(sort_keys=True)


def _write_augmented(samples: list[aug.AugmentedSample], out_dir: str) -> None:
    """augmented.tsv with one block per sample, and manifest.jsonl with one line each."""
    os.makedirs(out_dir, exist_ok=True)
    manifest = [_MANIFEST_ENCODER.encode({
        "method": sample.method.value,
        "doc_id": sample.source_id[0],
        "sent_index": sample.source_id[1],
        "seed": sample.seed,
        "detail": sample.detail,
    }) for sample in samples]
    atomic_write_bytes(os.path.join(out_dir, "augmented.tsv"),
                       serialize_token_label_file(s.sentence for s in samples))
    atomic_write_text(os.path.join(out_dir, "manifest.jsonl"),
                      "\n".join(manifest) + "\n" if manifest else "")


def cmd_augment(args) -> int:
    if args.offline and args.llm_endpoint:
        raise ConfigurationError("--offline and --llm-endpoint exclude each other: "
                                 "the offline client sends no request")
    for flag, value, reader in (("--entities", args.entities, aug.Method.ER.value),
                                ("--llm-endpoint", args.llm_endpoint, aug.Method.LLM.value)):
        if value is not None and args.method != reader:
            raise ConfigurationError(f"{flag} is read only by --method {reader}, "
                                     f"not by --method {args.method}")
    if args.entities is not None and not os.path.exists(args.entities):
        raise ConfigurationError(f"--entities file not found: {args.entities}")
    _, sentences = _load_sentences(args.data, args.schema)
    config = aug.AugmentConfig(
        target_class=args.target_class,
        n_samples=args.n_samples,
        per_sentence=args.per_sentence,
        method=aug.Method(args.method),
        master_seed=args.seed,
    )
    samples = _augment(sentences, config, entities=args.entities, offline=args.offline,
                       llm_endpoint=args.llm_endpoint, workers=args.workers)
    _write_augmented(samples, args.out)
    print(f"method: {config.method.value}")
    print(f"requested: {config.n_samples * config.per_sentence}")
    print(f"produced: {len(samples)}")
    # The distinct blocks of augmented.tsv: a repeated sample adds no new text.
    distinct = {(tuple(s.sentence.texts), tuple(s.sentence.token_labels)) for s in samples}
    print(f"distinct: {len(distinct)}")
    return 0


def cmd_make_fixture(args) -> int:
    sizes = None
    if args.sizes is not None:
        sizes = {}
        for part in args.sizes.split(","):
            label, _, count = part.partition("=")
            try:
                size = int(count)
            except ValueError:
                size = -1
            if size < 0:
                raise ConfigurationError(
                    f"--sizes part {part!r} is not LABEL=COUNT with an integer count >= 0")
            label = label.strip()
            if label in sizes:
                raise ConfigurationError(f"--sizes names label {label!r} twice")
            sizes[label] = size
    dataset, bookkeeping = synth.generate(sizes=sizes, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    atomic_write_bytes(os.path.join(args.out, "corpus.tsv"),
                       serialize_token_label_file(dataset.documents))
    atomic_write_text(os.path.join(args.out, "schema.cfg"),
                      format_schema_config(dataset.schema))
    atomic_write_text(os.path.join(args.out, "bookkeeping.json"),
                      json.dumps(dataclasses.asdict(bookkeeping), indent=2, sort_keys=True))
    print(f"texts: {bookkeeping.n_texts}")
    print(f"sentences: {bookkeeping.n_sentences}")
    per_class = " ".join(f"{l}={bookkeeping.per_class_sentences[l]}"
                         for l in synth.SCHEMA.labels)
    print(f"per_class: {per_class}")
    return 0


# Every key an experiment config may set, mapped to the (commands, models,
# augment methods) that read it; None stands for any. A key set where none
# of its readers runs is an error. A numeric key is read into the dataclass
# field of its name (`augment.` keys into `aug.AugmentConfig`), and that
# field's default is the key's only default.
_ANY = (None, None, None)
_RUN = (("run-experiment",), None, None)
_CRF = (None, ("crf",), None)
_CLF = (None, ("textclf",), None)
_OPERATOR = (("run-experiment",), None, tuple(m.value for m in aug.Method))
CONFIG_KEYS = {
    "train": _ANY, "dev": _RUN, "schema": _ANY, "seed": _ANY, "model": _RUN, "outdir": _RUN,
    "model_out": (("train-crf", "train-clf"), None, None),
    "epochs": _ANY, "learning_rate": _ANY, "decay": _CRF, "l2": _CRF,
    "dim": _CLF, "epsilon": _CLF, "adv_weight": _CLF, "embeddings": _CLF,
    "augment.method": _RUN, "augment.target_class": _OPERATOR, "augment.n_samples": _OPERATOR,
    "augment.per_sentence": _OPERATOR, "entities": (("run-experiment",), None, ("er",)),
    "offline": (("run-experiment",), None, ("llm",)),
    "llm.endpoint": (("run-experiment",), None, ("llm",)),
}


def _check_readers(config: dict[str, str], scope: int, actual: str, label: str = "",
                   where: str | None = None) -> None:
    """Reject the first key whose `scope` readers omit `actual` (0 command, 1 model, 2 method)."""
    for key in config:
        readers = CONFIG_KEYS[key][scope]
        if readers is not None and actual not in readers:
            names = (readers[0] if len(readers) == 1
                     else f"{', '.join(readers[:-1])} and {readers[-1]}")
            raise ConfigurationError(f"config key {key!r} is read only by {label}{names}, "
                                     f"not by {where or label + actual}")


def _check_config(config: dict[str, str], command: str, model: str) -> None:
    """Reject unknown, unread and missing keys, missing files and bad choices before any work.

    `model` is the one `command` trains: the config's own under run-experiment.
    """
    for key in config:
        if key not in CONFIG_KEYS:
            close = difflib.get_close_matches(key, sorted(CONFIG_KEYS), n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise ConfigurationError(f"unknown config key {key!r}{hint}")
    if config.get("model") not in (None, "crf", "textclf"):
        raise ConfigurationError(f"unknown model {config['model']!r} (use crf or textclf)")
    experiment = command == "run-experiment"
    _check_readers(config, 1, model, "model = ", None if experiment else command)
    _check_readers(config, 0, command)
    for key in ("train", "schema", "seed") + (("dev",) if experiment else ()):
        if key not in config:
            raise ConfigurationError(f"experiment config missing {key!r}")
    for key in ("train", "schema", "dev", "embeddings", "entities"):
        if key in config and not os.path.exists(config[key]):
            raise ConfigurationError(f"{key} file not found: {config[key]}")
    if config.get("offline") not in (None, "true", "false"):
        raise ConfigurationError(f"offline must be true or false, got {config['offline']!r}")
    methods = [m.value for m in aug.Method]
    method = config.get("augment.method", "none")
    if method not in ("none", *methods):
        raise ConfigurationError(f"unknown augment.method {method!r} "
                                 f"(use none, {', '.join(methods)})")
    _check_readers(config, 2, method, "augment.method = ")
    if method == aug.Method.LLM.value and not (config.get("offline") == "true"
                                               or "llm.endpoint" in config):
        raise ConfigurationError("augment.method = llm needs offline = true or llm.endpoint")
    # Each pair below is refused where one of its keys would go unread.
    if config.get("offline") == "true" and "llm.endpoint" in config:
        raise ConfigurationError("offline = true and llm.endpoint exclude each other: "
                                 "the offline client sends no request")
    if "dim" in config and "embeddings" in config:
        raise ConfigurationError("config keys 'dim' and 'embeddings' exclude each other: "
                                 "the embeddings file sets the dimension")
    if ("epsilon" in config) != ("adv_weight" in config):
        raise ConfigurationError("config keys 'epsilon' and 'adv_weight' go together: "
                                 "adversarial training runs only when both are above 0")


def _value(key: str, text: str, kind: type):
    try:
        value = kind(text)
    except ValueError:
        value = None
    # The config dataclasses refuse NaN too, but this message names the config key.
    if value is None or (kind is float and not math.isfinite(value)):
        noun = "an integer" if kind is int else "a finite number"
        raise ConfigurationError(f"{key} must be {noun}, got {text!r}")
    return value


def _settings(cls, config: dict[str, str], prefix: str = "", **fallback):
    """`cls` with each field read from `config[prefix + name]`, converted to the field's type.

    A field whose key is unset takes `fallback[name]` if given, else its dataclass default.
    """
    types = typing.get_type_hints(cls)
    values = dict(fallback)
    for field in dataclasses.fields(cls):
        key = prefix + field.name
        if key in config:
            values[field.name] = _value(key, config[key], types[field.name])
    return cls(**values)


def _train_crf_model(sentences, schema, config) -> crf_mod.CrfModel:
    train_config = _settings(crf_mod.TrainConfig, config)
    data = [(list(s.texts), list(s.token_labels)) for s in sentences]
    model = crf_mod.CrfModel.build(schema.labels, [texts for texts, _ in data])
    history = crf_mod.train(model, data, train_config)
    for epoch, nll in enumerate(history):
        print(f"epoch {epoch}: nll {nll:.4f}")
    return model


def _train_clf_model(sentences, schema, config) -> textclf.SoftmaxClassifier:
    train_config = _settings(textclf.ClfTrainConfig, config)
    table = None
    if config.get("embeddings"):
        table = _parse_file(config["embeddings"], textclf.EmbeddingTable.from_text)
    return textclf.train_classifier(
        [list(s.texts) for s in sentences],
        [s.sentence_label for s in sentences],
        schema.labels, train_config, table=table)


def cmd_train(args) -> int:
    config = _parse_file(args.config, parse_kv_config)
    _check_config(config, args.command, args.model)
    schema, sentences = _load_sentences(config["train"], config["schema"])
    # Looked up at call time: the parser is cached, so a trainer bound into its
    # defaults would outlive a later reassignment of the module global.
    train = _train_crf_model if args.model == "crf" else _train_clf_model
    model = train(sentences, schema, config)
    out = config.get("model_out", args.model_out)
    model.save(out)
    print(f"model: {out}")
    return 0


def _print_report(result: metrics_mod.MetricsReport | metrics_mod.Comparison, args) -> int:
    """Print `result` in `--format`, and write the same text to `--out` if given."""
    output = result.to_json() if args.format == "json" else result.to_text()
    if args.out:
        atomic_write_text(args.out, output)
    print(output, end="" if output.endswith("\n") else "\n")
    return 0


def cmd_eval(args) -> int:
    schema = _load_schema(args.schema)
    gold = _load_gold(args.gold, schema)
    pred = _load_dataset(args.pred, schema)
    # Documents may be split differently; the token texts, read in order, must agree.
    pairs = zip((t for doc in gold.documents for t in doc.texts),
                (t for doc in pred.documents for t in doc.texts))
    for i, (gold_text, pred_text) in enumerate(pairs):
        if gold_text != pred_text:
            raise ValidationError(f"predictions differ from gold at token index {i}: "
                                  f"gold has {gold_text!r}, predictions have {pred_text!r}")
    gold_labels = [l for doc in gold.documents for l in doc.token_labels]
    pred_labels = [l for doc in pred.documents for l in doc.token_labels]
    report = metrics_mod.score(gold_labels, pred_labels, schema,
                               include_outside=not args.exclude_outside)
    return _print_report(report, args)


def cmd_compare(args) -> int:
    reports = {}
    for spec_arg in args.reports:
        name, _, path = spec_arg.partition("=")
        if not name or not path:
            raise ConfigurationError(f"expected NAME=PATH, got {spec_arg!r}")
        if name in reports:
            raise ConfigurationError(f"--reports names {name!r} twice")
        reports[name] = _parse_file(path, metrics_mod.MetricsReport.from_json)
    return _print_report(metrics_mod.compare(reports), args)


def run_experiment(config: dict[str, str], workers: int = 1) -> metrics_mod.MetricsReport:
    """Train the configured model on base + augmented sentences, score on dev."""
    return _experiment(config, workers)[0]


def _experiment(config: dict[str, str], workers: int
                ) -> tuple[metrics_mod.MetricsReport, list[Document]]:
    """`run_experiment`'s report, and one block per dev sentence with its predicted labels."""
    model_name = config.get("model", "textclf")
    _check_config(config, "run-experiment", model_name)
    schema, train_sentences = _load_sentences(config["train"], config["schema"])
    dev = _load_gold(config["dev"], schema)

    if config.get("augment.method", "none") != "none":
        augment_config = _settings(aug.AugmentConfig, config, "augment.",
                                   target_class=schema.categories[0],
                                   master_seed=_value("seed", config["seed"], int))
        samples = _augment(
            train_sentences, augment_config, entities=config.get("entities"),
            offline=config.get("offline") == "true",
            llm_endpoint=config.get("llm.endpoint"), workers=workers)
        train_sentences = train_sentences + [s.sentence for s in samples]

    if model_name == "crf":
        model = _train_crf_model(train_sentences, schema, config)

        def predict(seqs):
            return crf_mod.decode(model, seqs)
    else:
        clf = _train_clf_model(train_sentences, schema, config)

        def predict(seqs):
            return [senttok.project_labels(clf.predict(texts), len(texts)) for texts in seqs]

    sentences = [s for doc in dev.documents for s in senttok.split_sentences(doc, schema)]
    labels = predict([list(s.texts) for s in sentences])
    blocks = [Document(s.doc_id, s.texts, y) for s, y in zip(sentences, labels)]
    gold = [label for doc in dev.documents for label in doc.token_labels]
    predicted = [label for block in blocks for label in block.token_labels]
    return metrics_mod.score(gold, predicted, schema), blocks


def cmd_run_experiment(args) -> int:
    config = _parse_file(args.config, parse_kv_config)
    report, blocks = _experiment(config, args.workers)
    out_dir = config.get("outdir", ".")
    os.makedirs(out_dir, exist_ok=True)
    atomic_write_text(os.path.join(out_dir, "report.json"), report.to_json())
    atomic_write_text(os.path.join(out_dir, "report.txt"), report.to_text())
    atomic_write_bytes(os.path.join(out_dir, "predictions.tsv"),
                       serialize_token_label_file(blocks))
    print(report.to_text(), end="")
    print(f"reports written to {out_dir}")
    return 0


def _worker_count(text: str) -> int:
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return workers


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing does not change it."""
    parser = argparse.ArgumentParser(prog="claimaug",
                                     description="Text augmentation and labeling bench")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="corpus statistics")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("split", help="sentence-split a corpus, report purity")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_split)

    p = sub.add_parser("build-lexicons", help="harvest verb pool and entity dictionary")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_build_lexicons)

    p = sub.add_parser("augment", help="augment the minority class")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--method", required=True, choices=[m.value for m in aug.Method])
    p.add_argument("--target-class", required=True)
    p.add_argument("--n-samples", type=int, required=True)
    p.add_argument("--per-sentence", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=_worker_count, default=1)
    p.add_argument("--entities", help="entity dictionary file (default: harvest)")
    p.add_argument("--offline", action="store_true",
                   help="use the deterministic offline LLM client")
    p.add_argument("--llm-endpoint")
    p.set_defaults(fn=cmd_augment)

    p = sub.add_parser("train-crf", help="train the CRF sequence labeler")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_train, model="crf", model_out="crf-model.json")

    p = sub.add_parser("train-clf", help="train the sentence classifier")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_train, model="textclf", model_out="clf-model.json")

    p = sub.add_parser("eval", help="score predictions against gold labels")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--exclude-outside", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("compare", help="rank methods across reports")
    p.add_argument("--reports", nargs="+", required=True, metavar="NAME=PATH")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("make-fixture", help="generate a synthetic imbalanced corpus")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--sizes", help="per-class sentence counts, e.g. CLA=40,EXP=192,...")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_make_fixture)

    p = sub.add_parser("run-experiment", help="train, evaluate, and report")
    p.add_argument("--config", required=True)
    p.add_argument("--workers", type=_worker_count, default=1)
    p.set_defaults(fn=cmd_run_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except AugmentationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_AUGMENTATIONS
    except TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ClaimaugError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
