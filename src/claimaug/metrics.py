"""Token-level per-class and macro precision/recall/F1, plus method comparison.

Macro averages include the outside class by default, since the per-class
breakdown reports it as a column of its own; pass include_outside=False to
average over the categories only.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

from .corpus import LabelSchema
from .errors import ParseError, SchemaError, ValidationError


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class MetricsReport:
    per_class: dict[str, ClassMetrics]
    macro_precision: float
    macro_recall: float
    macro_f1: float
    absent: tuple[str, ...] = ()
    include_outside: bool = True

    def to_dict(self) -> dict:
        return {
            "per_class": {label: asdict(m) for label, m in self.per_class.items()},
            "macro": {"precision": self.macro_precision, "recall": self.macro_recall,
                      "f1": self.macro_f1},
            "absent": list(self.absent),
            "include_outside": self.include_outside,
        }

    @classmethod
    def from_dict(cls, data: object) -> "MetricsReport":
        """The report `to_dict` wrote; ParseError names the first key that is missing or wrong."""
        _keys(data, "report", ("per_class", "macro", "absent", "include_outside"))
        per_class = {}
        for label, m in _keys(data["per_class"], "per_class", ()).items():
            where = f"per_class {label!r}"
            _keys(m, where, ("precision", "recall", "f1", "support"))
            if type(m["support"]) is not int or m["support"] < 0:
                raise ParseError(f"{where} support must be an integer >= 0, "
                                 f"got {m['support']!r}")
            per_class[label] = ClassMetrics(*_scores(m, where), m["support"])
        macro = _scores(_keys(data["macro"], "macro", ("precision", "recall", "f1")), "macro")
        absent = data["absent"]
        if type(absent) is not list or not all(type(label) is str for label in absent):
            raise ParseError(f"report absent must be a list of labels, got {absent!r}")
        if type(data["include_outside"]) is not bool:
            raise ParseError("report include_outside must be true or false, "
                             f"got {data['include_outside']!r}")
        return cls(per_class=per_class, macro_precision=macro[0], macro_recall=macro[1],
                   macro_f1=macro[2], absent=tuple(absent),
                   include_outside=data["include_outside"])

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MetricsReport":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ParseError(f"report is not JSON: {exc}") from None
        return cls.from_dict(data)

    def to_text(self) -> str:
        header = f"{'class':<10}{'precision':>10}{'recall':>10}{'f1':>10}{'support':>10}"
        lines = [header]
        for label, m in self.per_class.items():
            lines.append(f"{label:<10}{m.precision:>10.1f}{m.recall:>10.1f}"
                         f"{m.f1:>10.1f}{m.support:>10d}")
        lines.append(f"{'macro':<10}{self.macro_precision:>10.1f}"
                     f"{self.macro_recall:>10.1f}{self.macro_f1:>10.1f}{'':>10}")
        if self.absent:
            lines.append(f"absent from gold and predictions: {', '.join(self.absent)}")
        return "\n".join(lines) + "\n"


def _keys(data: object, where: str, keys: Sequence[str]) -> dict:
    """`data` if it is a JSON object holding every key in `keys`, else ParseError."""
    if type(data) is not dict:
        raise ParseError(f"{where} must be a JSON object, got {data!r}")
    missing = [key for key in keys if key not in data]
    if missing:
        raise ParseError(f"{where} lacks {', '.join(missing)}")
    return data


def _scores(data: dict, where: str) -> tuple[float, float, float]:
    """Precision, recall and F1 of `data`, each a finite number."""
    values = data["precision"], data["recall"], data["f1"]
    for key, value in zip(("precision", "recall", "f1"), values):
        if type(value) not in (int, float) or not math.isfinite(value):
            raise ParseError(f"{where} {key} must be a finite number, got {value!r}")
    return values


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = 100.0 * tp / (tp + fp) if tp + fp else 0.0
    recall = 100.0 * tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def score(gold: Sequence[str], pred: Sequence[str], schema: LabelSchema,
          include_outside: bool = True) -> MetricsReport:
    """Token-level P/R/F1 per class (percentages) and their unweighted macro mean.

    A class absent from both gold and predictions scores 0/0/0 with support 0
    and is listed in `absent`.
    """
    if len(gold) != len(pred):
        raise ValidationError(f"gold has {len(gold)} labels, predictions {len(pred)}")
    pairs = Counter(zip(gold, pred))
    gold_counts: Counter[str] = Counter()
    pred_counts: Counter[str] = Counter()
    for (g, p), count in pairs.items():
        gold_counts[g] += count
        pred_counts[p] += count
    # Both counters hold their labels in first-occurrence order, so the first
    # unknown label reported is the first one in gold, else the first in pred.
    for label in [*gold_counts, *pred_counts]:
        schema.check(label)

    per_class: dict[str, ClassMetrics] = {}
    absent = []
    for label in schema.labels:
        tp = pairs[label, label]
        fp = pred_counts[label] - tp
        fn = gold_counts[label] - tp
        precision, recall, f1 = _prf(tp, fp, fn)
        support = tp + fn
        per_class[label] = ClassMetrics(precision, recall, f1, support)
        if support == 0 and tp + fp == 0:
            absent.append(label)

    averaged = schema.labels if include_outside else schema.categories
    n = len(averaged)
    return MetricsReport(
        per_class=per_class,
        macro_precision=sum(per_class[l].precision for l in averaged) / n,
        macro_recall=sum(per_class[l].recall for l in averaged) / n,
        macro_f1=sum(per_class[l].f1 for l in averaged) / n,
        absent=tuple(absent),
        include_outside=include_outside,
    )


@dataclass(frozen=True)
class Comparison:
    """Per-column best/second/worst markers across methods.

    Columns are each class's F1 plus the macro precision/recall/F1. Every
    method sharing the column maximum is marked best; the minimum, when it
    differs from the maximum, is marked worst; the largest remaining distinct
    value is marked second.
    """

    columns: tuple[str, ...]
    values: dict[str, dict[str, float]]   # method -> column -> value
    marks: dict[str, dict[str, str]]      # method -> column -> best|second|worst|""

    def to_dict(self) -> dict:
        return {"columns": list(self.columns), "values": self.values, "marks": self.marks}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        symbol = {"best": "*", "second": "+", "worst": "-", "": " "}
        width = max(len(m) for m in self.values) + 2
        header = f"{'method':<{width}}" + "".join(f"{c:>12}" for c in self.columns)
        lines = [header]
        for method in self.values:
            cells = []
            for column in self.columns:
                cells.append(f"{self.values[method][column]:>11.1f}"
                             f"{symbol[self.marks[method][column]]}")
            lines.append(f"{method:<{width}}" + "".join(cells))
        lines.append("(* best, + second best, - worst)")
        return "\n".join(lines) + "\n"


def compare(reports: Mapping[str, MetricsReport]) -> Comparison:
    """Rank methods column by column; ties handled by method-name order."""
    if not reports:
        raise ValidationError("no reports to compare")
    methods = sorted(reports)
    first = reports[methods[0]]
    class_columns = tuple(first.per_class)
    for method in methods[1:]:
        if tuple(reports[method].per_class) != class_columns:
            raise SchemaError(f"report {method!r} has a different label set")
    columns = class_columns + ("precision", "recall", "f1")

    def value(report: MetricsReport, column: str) -> float:
        if column == "precision":
            return report.macro_precision
        if column == "recall":
            return report.macro_recall
        if column == "f1":
            return report.macro_f1
        return report.per_class[column].f1

    values = {m: {c: value(reports[m], c) for c in columns} for m in methods}
    marks: dict[str, dict[str, str]] = {m: {} for m in methods}
    for column in columns:
        column_values = [values[m][column] for m in methods]
        best = max(column_values)
        worst = min(column_values)
        below_best = [v for v in column_values if v < best]
        second = max(below_best) if below_best else None
        for method in methods:
            v = values[method][column]
            if v == best:
                marks[method][column] = "best"
            elif v == worst:
                marks[method][column] = "worst"
            elif second is not None and v == second:
                marks[method][column] = "second"
            else:
                marks[method][column] = ""
    return Comparison(columns=columns, values=values, marks=marks)
