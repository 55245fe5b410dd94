"""Span recorder for the traced run, installed from outside the package.

Timing wrappers replace public attributes of the `claimaug` modules (module
functions, classmethods and methods). The package resolves those names
through module globals or class attributes at call time, so the wrappers see
every call without any change to the package source. Spans stay in memory
and are reduced to per-layer numbers when the run ends.

A span records its name, start, end, parent span, iteration id and thread,
plus a few counts read from the call's arguments or return value. A layer's
self time is the time of its spans minus the part of each span that its
child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

LAYERS = ("corpus", "senttok", "morph", "augment", "llmclient", "crf", "textclf",
          "metrics", "util", "cli")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    iteration: int | None
    thread: int
    info: dict[str, float] = field(default_factory=dict)


class Recorder:
    """Collects spans; one stack of open spans per thread.

    A span opened on a worker thread with no open span of its own takes the
    innermost open span of the recording thread as its parent, so operator
    calls made from the augmentation thread pool nest under the scheduler.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.iteration: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             observe: Callable | None) -> Any:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        span_id = next(self._ids)
        stack.append(span_id)
        info: dict[str, float] = {}
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            info["error." + type(exc).__name__] = 1
            raise
        else:
            if observe is not None:
                info.update(observe(args, result))
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, self.iteration,
                                   threading.get_ident(), info))

    def root(self, iteration: int) -> "_Root":
        """Context manager for the span that holds one timed iteration."""
        return _Root(self, iteration)


class _Root:
    def __init__(self, recorder: Recorder, iteration: int) -> None:
        self.recorder = recorder
        self.iteration = iteration

    def __enter__(self) -> None:
        rec = self.recorder
        rec.iteration = self.iteration
        self.id = next(rec._ids)
        rec._main_stack.append(self.id)
        self.start = time.perf_counter()

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        rec = self.recorder
        rec._main_stack.pop()
        rec.spans.append(Span(self.id, "bench.iteration", self.start, end, None,
                              self.iteration, threading.get_ident()))
        rec.iteration = None


# --- what to wrap -----------------------------------------------------------

def _count_tokens(args, dataset) -> dict:
    return {"tokens": sum(len(doc.token_labels) for doc in dataset.documents)}


def _count_sentences(args, sentences) -> dict:
    return {"sentences": len(sentences)}


def _count_features(args, model) -> dict:
    return {"features": len(model.feature_index)}


def _operator_outcome(args, sample) -> dict:
    return {"returned_none": 1} if sample is None else {}


def _count_samples(args, samples) -> dict:
    return {"samples": len(samples)}


def _count_bytes(args, result) -> dict:
    return {"bytes": len(args[1])}


def _verb_replace_name(args) -> str:
    return "augment." + args[3].value


# (module, attribute path, span name or fn(args) -> name, observe)
TARGETS: tuple[tuple[str, str, Any, Callable | None], ...] = (
    ("claimaug.corpus", "parse_token_label_file", "corpus.parse", _count_tokens),
    ("claimaug.corpus", "dataset_stats", "corpus.stats", None),
    ("claimaug.senttok", "split_sentences", "senttok.split", _count_sentences),
    ("claimaug.morph", "load_default_verb_lexicon", "morph.load_lexicon", None),
    ("claimaug.morph", "load_default_antonyms", "morph.load_antonyms", None),
    ("claimaug.augment", "build_verb_pool", "augment.verb_pool", None),
    ("claimaug.augment", "build_entity_dictionary", "augment.entity_dict", None),
    ("claimaug.augment", "augment_minority", "augment.augment_minority", _count_samples),
    ("claimaug.augment", "aeda", "augment.aeda", _operator_outcome),
    ("claimaug.augment", "verb_replace", _verb_replace_name, _operator_outcome),
    ("claimaug.augment", "entity_replace", "augment.er", _operator_outcome),
    ("claimaug.augment", "llm_contradict", "augment.llm", None),
    ("claimaug.llmclient", "EchoLlmClient.complete", "llmclient.complete", None),
    ("claimaug.crf", "CrfModel.build", "crf.build", _count_features),
    ("claimaug.crf", "CrfModel.load", "crf.load", None),
    ("claimaug.crf", "train", "crf.train", None),
    ("claimaug.crf", "nll_and_gradient", "crf.nll_and_gradient", None),
    ("claimaug.crf", "extract_features", "crf.extract_features", None),
    ("claimaug.crf", "dataset_nll", "crf.dataset_nll", None),
    ("claimaug.crf", "viterbi", "crf.viterbi", None),
    ("claimaug.textclf", "train_classifier", "textclf.train", None),
    ("claimaug.textclf", "example_gradients", "textclf.example_gradients", None),
    ("claimaug.textclf", "embed_sentence", "textclf.embed", None),
    ("claimaug.textclf", "SoftmaxClassifier.predict", "textclf.predict", None),
    ("claimaug.metrics", "score", "metrics.score", None),
    ("claimaug.util", "atomic_write_bytes", "util.write", _count_bytes),
    ("claimaug.cli", "run_experiment", "cli.run_experiment", None),
    ("claimaug.cli", "cmd_augment", "cli.cmd_augment", None),
)


def _make_wrapper(recorder: Recorder, fn: Callable, name: Any,
                  observe: Callable | None) -> Callable:
    name_of = name if callable(name) else (lambda args: name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(name_of(args), fn, args, kwargs, observe)
    return wrapper


class Installation:
    """Installed wrappers; `remove` puts every original object back."""

    def __init__(self, recorder: Recorder) -> None:
        self._undo: list[tuple[Any, str, Any]] = []
        modules = [m for n, m in list(sys.modules.items())
                   if n == "claimaug" or n.startswith("claimaug.")]
        for module_name, path, name, observe in TARGETS:
            owner = sys.modules[module_name]
            if "." in path:
                class_name, attr = path.split(".")
                cls = getattr(owner, class_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(_make_wrapper(recorder, raw.__func__, name, observe))
                else:
                    wrapped = _make_wrapper(recorder, raw, name, observe)
                self._set(cls, attr, wrapped)
                continue
            original = getattr(owner, path)
            wrapped = _make_wrapper(recorder, original, name, observe)
            # `from .x import f` copies the reference, so replace every alias.
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapped)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


# --- reduction to per-layer metrics ------------------------------------------

def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        a, b = max(a, start), min(b, end)
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


@dataclass
class Totals:
    """Per-name sums over one iteration's spans."""

    time: dict[str, float] = field(default_factory=dict)
    self_time: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    info: dict[str, float] = field(default_factory=dict)
    layer_self: dict[str, float] = field(default_factory=dict)
    spans: int = 0

    def seconds(self, *names: str) -> float:
        return sum(self.time.get(n, 0.0) for n in names)

    def count(self, *names: str) -> int:
        return sum(self.calls.get(n, 0) for n in names)

    def observed(self, key: str) -> float:
        return self.info.get(key, 0.0)


def totals_by_iteration(spans: list[Span]) -> dict[int, Totals]:
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out: dict[int, Totals] = {}
    for s in spans:
        if s.iteration is None:
            continue
        tot = out.setdefault(s.iteration, Totals())
        duration = s.end - s.start
        self_time = duration - _covered(children.get(s.id, []), s.start, s.end)
        tot.spans += 1
        tot.time[s.name] = tot.time.get(s.name, 0.0) + duration
        tot.self_time[s.name] = tot.self_time.get(s.name, 0.0) + self_time
        tot.calls[s.name] = tot.calls.get(s.name, 0) + 1
        layer = s.name.split(".", 1)[0]
        tot.layer_self[layer] = tot.layer_self.get(layer, 0.0) + self_time
        for key, value in s.info.items():
            full = f"{s.name}.{key}"
            tot.info[full] = tot.info.get(full, 0.0) + value
    return out


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


OPERATORS = {"aeda": "augment.aeda", "vr-random": "augment.vr-random",
             "vr-antonym": "augment.vr-antonym", "er": "augment.er", "llm": "augment.llm"}


def _augment_failures(t: Totals, key: str) -> float:
    return sum(t.observed(f"{span}.{key}") for span in OPERATORS.values())


# Each per-layer metric: (name, unit, fn(Totals) -> value). A layer that does
# not run on a workload has no spans, so its metrics read 0.
PER_LAYER: list[tuple[str, str, Callable[[Totals], float]]] = [
    *[(f"{layer}.self_s", "s", (lambda t, layer=layer: t.layer_self.get(layer, 0.0)))
      for layer in LAYERS],
    ("corpus.parse_s", "s", lambda t: t.seconds("corpus.parse")),
    ("corpus.tokens_per_s", "1/s",
     lambda t: _rate(t.observed("corpus.parse.tokens"), t.seconds("corpus.parse"))),
    ("senttok.split_s", "s", lambda t: t.seconds("senttok.split")),
    ("senttok.sentences", "count", lambda t: t.observed("senttok.split.sentences")),
    ("senttok.sentences_per_s", "1/s",
     lambda t: _rate(t.observed("senttok.split.sentences"), t.seconds("senttok.split"))),
    ("morph.lexicon_load_s", "s", lambda t: t.seconds("morph.load_lexicon", "morph.load_antonyms")),
    ("augment.verb_pool_s", "s", lambda t: t.seconds("augment.verb_pool")),
    ("augment.entity_dict_s", "s", lambda t: t.seconds("augment.entity_dict")),
    *[(f"augment.{method}_s", "s", (lambda t, span=span: t.seconds(span)))
      for method, span in OPERATORS.items()],
    ("augment.scheduler_self_s", "s",
     lambda t: t.self_time.get("augment.augment_minority", 0.0)),
    ("augment.operator_calls", "count", lambda t: t.count(*OPERATORS.values())),
    ("augment.samples", "count", lambda t: t.observed("augment.augment_minority.samples")),
    ("augment.useful_ratio", "ratio",
     lambda t: _rate(t.observed("augment.augment_minority.samples"), t.count(*OPERATORS.values()))),
    ("augment.failures.returned_none", "count",
     lambda t: _augment_failures(t, "returned_none")),
    ("augment.failures.augmentation_failed", "count",
     lambda t: _augment_failures(t, "error.AugmentationFailed")),
    ("llmclient.calls", "count", lambda t: t.count("llmclient.complete")),
    ("llmclient.s", "s", lambda t: t.seconds("llmclient.complete")),
    ("crf.build_s", "s", lambda t: t.seconds("crf.build")),
    ("crf.features", "count", lambda t: t.observed("crf.build.features")),
    ("crf.train_s", "s", lambda t: t.seconds("crf.train")),
    ("crf.train_self_s", "s", lambda t: t.self_time.get("crf.train", 0.0)),
    ("crf.steps", "count", lambda t: t.count("crf.nll_and_gradient")),
    ("crf.nll_and_gradient_s", "s", lambda t: t.seconds("crf.nll_and_gradient")),
    ("crf.extract_features_s", "s", lambda t: t.seconds("crf.extract_features")),
    ("crf.extract_features_calls", "count", lambda t: t.count("crf.extract_features")),
    ("crf.dataset_nll_s", "s", lambda t: t.seconds("crf.dataset_nll")),
    ("crf.dataset_nll_calls", "count", lambda t: t.count("crf.dataset_nll")),
    ("crf.viterbi_s", "s", lambda t: t.seconds("crf.viterbi")),
    ("crf.viterbi_calls", "count", lambda t: t.count("crf.viterbi")),
    ("crf.load_s", "s", lambda t: t.seconds("crf.load")),
    ("textclf.train_s", "s", lambda t: t.seconds("textclf.train")),
    ("textclf.train_self_s", "s", lambda t: t.self_time.get("textclf.train", 0.0)),
    ("textclf.example_gradients_s", "s", lambda t: t.seconds("textclf.example_gradients")),
    ("textclf.example_gradients_calls", "count", lambda t: t.count("textclf.example_gradients")),
    ("textclf.embed_s", "s", lambda t: t.seconds("textclf.embed")),
    ("textclf.predict_s", "s", lambda t: t.seconds("textclf.predict")),
    ("metrics.score_s", "s", lambda t: t.seconds("metrics.score")),
    ("metrics.score_calls", "count", lambda t: t.count("metrics.score")),
    ("util.write_s", "s", lambda t: t.seconds("util.write")),
    ("util.write_bytes", "count", lambda t: t.observed("util.write.bytes")),
    ("cli.run_experiment_self_s", "s",
     lambda t: t.self_time.get("cli.run_experiment", 0.0)),
    ("trace.spans", "count", lambda t: t.spans),
]


def per_layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Median over traced iterations of each per-layer metric."""
    by_iteration = totals_by_iteration(spans)
    return {name: statistics.median(fn(t) for t in by_iteration.values())
            for name, _, fn in PER_LAYER}


UNITS = {name: unit for name, unit, _ in PER_LAYER}
