import random

import pytest

from claimaug.corpus import LabelSchema
from claimaug.errors import SchemaError, ValidationError
from claimaug.metrics import ClassMetrics, MetricsReport, compare, score


@pytest.fixture
def small_schema():
    return LabelSchema(outside_label="O", categories=("CLA",))


def report_with_f1(schema, cla_f1, macro_f1):
    per_class = {label: ClassMetrics(50.0, 50.0, 50.0, 10) for label in schema.labels}
    per_class["CLA"] = ClassMetrics(cla_f1, cla_f1, cla_f1, 10)
    return MetricsReport(per_class=per_class, macro_precision=macro_f1,
                         macro_recall=macro_f1, macro_f1=macro_f1)


class TestScore:
    def test_perfect_prediction_all_hundred(self, small_schema):
        report = score(["CLA", "O", "CLA"], ["CLA", "O", "CLA"], small_schema)
        for m in report.per_class.values():
            assert (m.precision, m.recall, m.f1) == (100.0, 100.0, 100.0)
        assert report.macro_f1 == 100.0

    def test_hand_computed_confusion(self, small_schema):
        report = score(["CLA", "CLA", "O", "O"], ["CLA", "O", "O", "O"], small_schema)
        cla = report.per_class["CLA"]
        assert cla.precision == pytest.approx(100.0)
        assert cla.recall == pytest.approx(50.0)
        assert cla.f1 == pytest.approx(66.7, abs=0.05)
        outside = report.per_class["O"]
        assert outside.precision == pytest.approx(66.7, abs=0.05)
        assert outside.recall == pytest.approx(100.0)
        assert outside.f1 == pytest.approx(80.0)

    def test_absent_class_zeroed_and_flagged(self, schema):
        report = score(["O", "O"], ["O", "O"], schema)
        assert report.per_class["PER"] == ClassMetrics(0.0, 0.0, 0.0, 0)
        assert "PER" in report.absent

    def test_length_mismatch(self, small_schema):
        with pytest.raises(ValidationError):
            score(["O"], ["O", "O"], small_schema)

    def test_unknown_label_rejected(self, small_schema):
        with pytest.raises(SchemaError):
            score(["O"], ["BOGUS"], small_schema)

    @pytest.mark.parametrize("gold,pred,first", [
        (["O", "X", "Y", "X"], ["Z", "O", "O", "O"], "X"),
        (["O", "CLA", "O"], ["O", "W", "V"], "W"),
        (["Y", "X"], ["X", "Y"], "Y"),
    ])
    def test_first_unknown_label_named(self, small_schema, gold, pred, first):
        with pytest.raises(SchemaError, match=f"unknown label '{first}'"):
            score(gold, pred, small_schema)

    def test_matches_per_label_counts(self, schema):
        rng = random.Random(3)
        labels = list(schema.labels)
        for _ in range(20):
            n = rng.randint(1, 40)
            gold = [rng.choice(labels) for _ in range(n)]
            pred = [rng.choice(labels) for _ in range(n)]
            report = score(gold, pred, schema)
            for label in labels:
                tp = sum(g == p == label for g, p in zip(gold, pred))
                assert report.per_class[label].support == gold.count(label)
                precision = 100.0 * tp / pred.count(label) if pred.count(label) else 0.0
                assert report.per_class[label].precision == precision

    def test_joint_permutation_invariant(self, schema):
        rng = random.Random(0)
        labels = list(schema.labels)
        gold = [rng.choice(labels) for _ in range(60)]
        pred = [rng.choice(labels) for _ in range(60)]
        expected = score(gold, pred, schema)
        pairs = list(zip(gold, pred))
        rng.shuffle(pairs)
        shuffled = score([g for g, _ in pairs], [p for _, p in pairs], schema)
        assert shuffled == expected

    def test_true_positives_bounded_by_tokens(self, schema):
        rng = random.Random(1)
        labels = list(schema.labels)
        gold = [rng.choice(labels) for _ in range(100)]
        pred = [rng.choice(labels) for _ in range(100)]
        report = score(gold, pred, schema)
        tp_sum = sum(round(m.recall * m.support / 100) for m in report.per_class.values())
        assert tp_sum <= 100

    def test_majority_outside_benchmark_on_fixture(self):
        # Predicting the majority class everywhere: outside recall is 100,
        # every other recall 0.
        from claimaug import synth
        dataset, _ = synth.generate(sizes={"CLA": 5, "EXP": 10, "O": 60,
                                           "PER": 20, "QUE": 15}, seed=2)
        gold = [l for doc in dataset.documents for l in doc.token_labels]
        report = score(gold, ["O"] * len(gold), dataset.schema)
        assert report.per_class["O"].recall == 100.0
        for category in dataset.schema.categories:
            assert report.per_class[category].recall == 0.0

    def test_exclude_outside_macro(self, small_schema):
        report = score(["CLA", "O"], ["CLA", "CLA"], small_schema, include_outside=False)
        assert report.macro_f1 == report.per_class["CLA"].f1

    def test_json_round_trip(self, schema):
        report = score(["CLA", "O"], ["O", "O"], schema)
        assert MetricsReport.from_json(report.to_json()) == report


class TestCompare:
    def test_identical_reports_all_best(self, small_schema):
        r = report_with_f1(small_schema, 40.0, 50.0)
        comparison = compare({"m1": r, "m2": r})
        for column in comparison.columns:
            assert comparison.marks["m1"][column] == "best"
            assert comparison.marks["m2"][column] == "best"

    def test_single_report_best_everywhere(self, small_schema):
        comparison = compare({"only": report_with_f1(small_schema, 10.0, 20.0)})
        assert all(mark == "best" for mark in comparison.marks["only"].values())

    def test_dual_best_tie(self, small_schema):
        reports = {
            "m-vr": report_with_f1(small_schema, 27.9, 54.5),
            "m-chat": report_with_f1(small_schema, 26.2, 54.5),
            "m-er": report_with_f1(small_schema, 27.9, 53.6),
            "m-aeda": report_with_f1(small_schema, 25.5, 53.1),
        }
        comparison = compare(reports)
        assert comparison.marks["m-vr"]["f1"] == "best"
        assert comparison.marks["m-chat"]["f1"] == "best"
        assert comparison.marks["m-er"]["f1"] == "second"
        assert comparison.marks["m-aeda"]["f1"] == "worst"
        assert comparison.marks["m-vr"]["CLA"] == "best"
        assert comparison.marks["m-er"]["CLA"] == "best"
        assert comparison.marks["m-aeda"]["CLA"] == "worst"

    def test_mismatched_label_sets_rejected(self, small_schema, schema):
        a = report_with_f1(small_schema, 10.0, 10.0)
        b_classes = {l: ClassMetrics(1, 1, 1, 1) for l in schema.labels}
        b = MetricsReport(per_class=b_classes, macro_precision=1,
                          macro_recall=1, macro_f1=1)
        with pytest.raises(SchemaError):
            compare({"a": a, "b": b})

    def test_text_table_lists_all_methods(self, small_schema):
        reports = {"alpha": report_with_f1(small_schema, 10.0, 20.0),
                   "beta": report_with_f1(small_schema, 30.0, 40.0)}
        text = compare(reports).to_text()
        assert "alpha" in text and "beta" in text
        assert "*" in text and "-" in text

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            compare({})
