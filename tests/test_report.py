import json
from fractions import Fraction

import numpy as np
import pytest

from scoresys.data import Dataset
from scoresys.errors import ReportError
from scoresys.report import (DecisionTable, ScoringSystem, active_rows,
                             induce_decision_table, parse_label_map,
                             parse_score_sheet, render_results_table,
                             render_score_sheet)


def _model(coefs, names=None, icpt=None, ranges=None):
    coefs = tuple(Fraction(c) for c in coefs)
    names = tuple(names or [f"f{j}" for j in range(len(coefs))])
    return ScoringSystem(coefficients=coefs, feature_names=names,
                         intercept_index=icpt, feature_ranges=ranges,
                         provenance={})


def test_counts():
    m = _model([1, 0, -2, 3], icpt=0)
    assert m.p == 4
    assert m.nnz == 3
    assert m.model_size == 2  # intercept excluded


def test_predict_zero_total_is_negative():
    m = _model([1, -1])
    x = np.array([[1.0, 1.0], [2.0, 1.0], [0.0, 1.0]])
    d = Dataset(x=x, y=np.array([1, 1, -1]), feature_names=("f0", "f1"),
                intercept_index=None)
    assert m.predict(d).tolist() == [-1, 1, -1]
    assert m.scores(d) == [Fraction(0), Fraction(1), Fraction(-1)]


def test_json_round_trip():
    # the second model has no finite decimals: to_json writes "1/3" and
    # the intercept "-2/7"
    for coefs in ([Fraction(1, 2), -3, 0], [Fraction(1, 3), 2, Fraction(-2, 7)]):
        m = _model(coefs, names=("a", "b", "(Intercept)"),
                   icpt=2, ranges=((0, 10), (1, 5), None))
        doc = m.to_json_dict()
        back = ScoringSystem.from_json_dict(json.loads(json.dumps(doc)))
        assert back.coefficients == m.coefficients
        assert back.feature_names == m.feature_names
        assert back.intercept_index == 2
        assert back.feature_ranges == m.feature_ranges
        assert ScoringSystem.from_json(m.to_json()).coefficients == m.coefficients


def test_from_json_rejects_garbage():
    with pytest.raises(ReportError):
        ScoringSystem.from_json("{}")
    with pytest.raises(ReportError):
        ScoringSystem.from_json(json.dumps({
            "coefficients": ["1", "2"], "feature_names": ["a"]}))
    for coef in ("1/0", "1/x", "1_0", "1/3/2"):
        with pytest.raises(ReportError):
            ScoringSystem.from_json(json.dumps({
                "features": [{"name": "a", "coef": coef}], "intercept": None}))


def test_active_rows_order():
    m = _model([1, -5, 0, 2], icpt=0)
    rows = list(active_rows(m))
    # magnitude-descending, intercept and zeros excluded
    assert [j for j, _ in rows] == [1, 3]


def test_render_score_sheet_exact():
    m = _model([-10, 1, 0, 4], names=("(Intercept)", "Age", "Weight", "Flag"),
               icpt=0, ranges=(None, (1, 9), None, (0, 1)))
    text = render_score_sheet(m)
    assert text == (
        "Flag (0 to 1) ... +4\n"
        "Age (1 to 9) ... +1\n"
        "-10\n"
        "Total = ...\n"
        "predict +1 if Total > 0, else -1 (Total = 0 predicts -1)\n"
    )


def test_render_score_sheet_labels_and_degenerate():
    m = _model([0, 0])
    text = render_score_sheet(m, labels={1: "malignant", -1: "benign"})
    assert "predict malignant if Total > 0, else benign" in text
    assert "degenerate" in text


def test_score_sheet_round_trip():
    rng = np.random.default_rng(50)
    for _ in range(25):
        p = int(rng.integers(1, 6))
        coefs = [Fraction(int(rng.integers(-9, 10))) for _ in range(p)]
        icpt = 0 if p > 1 and rng.random() < 0.5 else None
        m = _model(coefs, icpt=icpt,
                   names=[f"Feat{j}" for j in range(p)])
        got, got_icpt = parse_score_sheet(render_score_sheet(m))
        want = {m.feature_names[j]: c for j, c in active_rows(m)}
        assert got == want
        if icpt is not None:
            assert got_icpt == coefs[icpt]
        else:
            assert got_icpt == 0


@pytest.mark.parametrize("line, read", [
    ("a ... +1/", ({"a": Fraction(1, 3)}, 0)), ("+1/", ({}, Fraction(1, 3)))],
    ids=["row", "intercept"])
def test_score_sheet_zero_denominator_is_a_report_error(line, read):
    """An "n/d" number on a sheet is read as the model JSON reads one,
    with d > 0; a zero denominator is a ReportError, not a
    ZeroDivisionError."""
    assert parse_score_sheet(f"{line}3\nTotal = ...\n") == read
    with pytest.raises(ReportError, match="n/d fraction with d > 0: '\\+1/0'$"):
        parse_score_sheet(f"{line}0\nTotal = ...\n")


def test_parse_label_map():
    assert parse_label_map(None) is None
    assert parse_label_map("malignant,benign") == {1: "malignant", -1: "benign"}
    assert parse_label_map(" a , b ") == {1: "a", -1: "b"}
    with pytest.raises(ReportError):
        parse_label_map("onlyone")
    with pytest.raises(ReportError):
        parse_label_map("a,b,c")
    with pytest.raises(ReportError):
        parse_label_map("a,")


def _binary_dataset():
    # every combination of two binary features, intercept column first
    x = np.array([[1.0, a, b] for a in (0.0, 1.0) for b in (0.0, 1.0)])
    y = np.array([1, -1, -1, -1])
    return Dataset(x=x, y=y, feature_names=("(Intercept)", "A", "B"),
                   intercept_index=0)


def test_decision_table_basics():
    d = _binary_dataset()
    m = _model([1, -2, -2], names=d.feature_names, icpt=0)
    table = induce_decision_table(m, d)
    assert table.base_score == 1
    assert table.questions == ("A", "B")
    # A=1 alone settles the sign; A=0 needs B
    assert table.predict({"A": 1, "B": 0}) == -1
    assert table.predict({"A": 1, "B": 1}) == -1
    assert table.predict({"A": 0, "B": 1}) == -1
    assert table.predict({"A": 0, "B": 0}) == 1
    text = table.to_text(labels={1: "yes", -1: "no"})
    assert "predict yes" in text and "predict no" in text


def test_decision_table_rule_count_is_pruned():
    d = _binary_dataset()
    m = _model([1, -2, -2], names=d.feature_names, icpt=0)
    table = induce_decision_table(m, d)
    # A=1 closes immediately: 1 rule; A=0 splits on B: 2 rules
    assert len(table.rules) == 3


def test_decision_table_rejects_non_binary():
    x = np.array([[1.0, 0.0], [2.0, 1.0]])
    d = Dataset(x=x, y=np.array([1, -1]), feature_names=("v", "b"),
                intercept_index=None)
    m = _model([1, 1], names=("v", "b"))
    with pytest.raises(ReportError):
        induce_decision_table(m, d)


def test_decision_table_name_mismatch():
    d = _binary_dataset()
    m = _model([1, -2, -2], names=("x", "y", "z"), icpt=0)
    with pytest.raises(ReportError):
        induce_decision_table(m, d)


def test_render_results_table_smoke():
    from scoresys.harness import CvAggregate, CvRecord, CvReport
    rec = CvRecord(c0=Fraction(1, 100), fold=0, train_error=Fraction(1, 10),
                   test_error=Fraction(2, 10), model_size=2,
                   solve_status="optimal", gap=0.0, runtime_s=0.1,
                   coefficients=(Fraction(1),))
    agg = CvAggregate(c0=Fraction(1, 100), test_error_mean=Fraction(2, 10),
                      test_error_sd=0.0, train_error_mean=Fraction(1, 10),
                      train_error_sd=0.0, size_median=2, size_min=2, size_max=2)
    rep = CvReport(k=1, seed=0, records=(rec,), aggregates=(agg,),
                   warnings=())
    text = render_results_table(rep)
    assert "c0" in text and "20.0%" in text and "2" in text
