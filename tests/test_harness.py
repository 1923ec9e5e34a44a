import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import scoresys
from scoresys.coefset import bounded_integers, uniform
from scoresys.data import Dataset
from scoresys.errors import ConfigError
from scoresys.harness import (CSV_HEADER, CvAggregate, CvRecord, CvReport,
                              FrontierPoint, aggregate_records,
                              default_c0_grid, frontier, frontier_from_report,
                              run_cv, select_c0)
from scoresys.objective import TrainConfig

from helpers import rand_dataset


def _small_cv(jobs=1, seed=0, k=3):
    rng = np.random.default_rng(100)
    d = rand_dataset(rng, 24, 2, intercept=True)
    s = uniform(bounded_integers(2), 2)
    cfg = TrainConfig(c0=Fraction(1, 24))
    grid = (Fraction(1, 24), Fraction(1, 4))
    return run_cv(d, s, cfg, c0_grid=grid, k=k, seed=seed, jobs=jobs)


def test_default_c0_grid_shape():
    grid = default_c0_grid(200)
    assert len(grid) == 6
    assert grid[0] == Fraction(1, 200)
    assert grid[-1] == Fraction(1)
    assert list(grid) == sorted(set(grid))


def test_default_c0_grid_small_n_dedupes():
    grid = default_c0_grid(2)
    assert grid[0] == Fraction(1, 2) and grid[-1] == 1
    assert len(grid) == len(set(grid))


def test_run_cv_record_layout():
    rep = _small_cv()
    assert rep.k == 3 and rep.seed == 0
    assert len(rep.records) == 6  # 2 grid points x 3 folds
    for rec in rep.records:
        assert rec.solve_status in ("optimal", "feasible_budget_exhausted")
        assert 0 <= rec.test_error <= 1
        assert rec.model_size >= 0
        assert isinstance(rec.coefficients, tuple)
    # records ordered by (grid index, fold)
    keys = [(r.c0, r.fold) for r in rep.records]
    assert keys == sorted(keys, key=lambda t: (t[0], t[1]))


def test_run_cv_csv_and_json_shape():
    rep = _small_cv()
    csv_text = rep.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(rep.records)
    assert "runtime" not in csv_text  # wall-clock never enters the artifact
    doc = json.loads(rep.to_json())
    assert doc["k"] == 3
    assert {"min_error", "one_se"} <= set(doc["selection"])
    assert len(doc["aggregates"]) == 2


def test_run_cv_requires_k_at_least_2():
    rng = np.random.default_rng(7)
    d = rand_dataset(rng, 10, 1)
    s = uniform(bounded_integers(1), 1)
    with pytest.raises(ConfigError):
        run_cv(d, s, TrainConfig(c0=Fraction(1, 10)), k=1)


@pytest.mark.parametrize("grid", [("0.1", "0.2", "0.1"), ("0.1", "0.10")])
def test_run_cv_refuses_a_repeated_c0(grid):
    """A repeated value (0.1 and 0.10 are one value) would solve its
    folds twice and print two columns that each aggregate both copies."""
    rng = np.random.default_rng(7)
    d = rand_dataset(rng, 10, 1)
    s = uniform(bounded_integers(1), 1)
    with pytest.raises(ConfigError, match="^c0 grid repeats 0.1$"):
        run_cv(d, s, TrainConfig(c0=Fraction(1, 10)), c0_grid=grid, k=2)


def test_run_cv_single_class_fold_warns():
    x = np.ones((8, 1))
    y = np.array([1] + [-1] * 7)  # one positive cannot reach every fold
    d = Dataset(x=x, y=y, feature_names=("a",), intercept_index=None)
    s = uniform(bounded_integers(1), 1)
    rep = run_cv(d, s, TrainConfig(c0=Fraction(1, 8)),
                 c0_grid=(Fraction(1, 8),), k=2, seed=0)
    assert rep.warnings
    assert any("single class" in w for w in rep.warnings)


def test_run_cv_seed_determinism():
    a = _small_cv(seed=5)
    b = _small_cv(seed=5)
    assert a.to_csv() == b.to_csv()
    assert a.to_json() == b.to_json()
    c = _small_cv(seed=6)
    assert c.to_csv() != a.to_csv()


def test_run_cv_jobs_determinism():
    a = _small_cv(jobs=1)
    b = _small_cv(jobs=4)
    assert a.to_csv() == b.to_csv()
    assert a.to_json() == b.to_json()


def _agg(c0, mean, sd, size):
    return CvAggregate(c0=Fraction(c0), test_error_mean=Fraction(mean),
                       test_error_sd=sd, train_error_mean=Fraction(mean),
                       train_error_sd=sd, size_median=size, size_min=size,
                       size_max=size)


def _report(aggs, k=5):
    return CvReport(k=k, seed=0, records=(), aggregates=tuple(aggs),
                    warnings=())


def test_aggregate_records_exact_mean():
    recs = [CvRecord(c0=Fraction(1, 10), fold=f, train_error=Fraction(f, 10),
                     test_error=Fraction(f, 10), model_size=f,
                     solve_status="optimal", gap=0.0, runtime_s=0.0,
                     coefficients=()) for f in range(3)]
    a = aggregate_records(Fraction(1, 10), recs)
    assert a.test_error_mean == Fraction(1, 10)  # (0 + 1/10 + 2/10) / 3 exactly
    assert a.size_median == 1
    assert a.size_min == 0 and a.size_max == 2
    assert a.test_error_sd == pytest.approx(0.1)


def test_select_c0_min_error_prefers_sparser_tie():
    rep = _report([_agg("0.01", "0.2", 0.0, 3),
                   _agg("0.05", "0.2", 0.0, 2),
                   _agg("0.10", "0.3", 0.0, 1)])
    # tie on mean error: larger c0 wins
    assert select_c0(rep, "min_error") == Fraction(1, 20)


def test_select_c0_one_se_rule():
    rep = _report([_agg("0.01", "0.10", 0.05, 5),
                   _agg("0.05", "0.11", 0.05, 3),
                   _agg("0.10", "0.30", 0.05, 1)], k=4)
    # cutoff = 0.10 + 0.05/2 = 0.125; candidates are the first two;
    # the smaller median size wins
    assert select_c0(rep, "one_se") == Fraction(1, 20)
    with pytest.raises(ConfigError):
        select_c0(rep, "fanciest")


def test_frontier_dominance():
    pts = frontier([("a", 0.10, 5), ("b", 0.20, 5), ("c", 0.05, 9),
                    ("d", 0.10, 5)])
    by = {p.label: p.dominated for p in pts}
    assert by["b"]  # worse error, same size as a
    assert not by["a"] and not by["c"]
    assert not by["d"]  # exact tie with a: mutually non-dominated


def test_frontier_strictness():
    pts = frontier([("a", 0.10, 5), ("b", 0.10, 6)])
    by = {p.label: p.dominated for p in pts}
    assert by["b"] and not by["a"]


def test_frontier_from_report():
    rep = _report([_agg("0.01", "0.2", 0.0, 4), _agg("0.05", "0.1", 0.0, 2)])
    pts = frontier_from_report(rep)
    assert len(pts) == 2
    assert all(isinstance(p, FrontierPoint) for p in pts)
    dominated = [p for p in pts if p.dominated]
    assert len(dominated) == 1 and dominated[0].label == "c0=0.01"


def test_import_leaves_process_pools_out(tmp_path):
    """A fresh interpreter that imports scoresys and loads a table and a
    coefficient set loads no concurrent.futures module (run_cv imports
    ProcessPoolExecutor only for jobs > 1), none of the layers past the
    loader (the package resolves its names on first use) and no hashlib
    (only Dataset.content_hash needs it)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(scoresys.__file__)))
    csv = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "mammo.csv")
    cs = tmp_path / "c.json"
    cs.write_text(json.dumps({"default": {"type": "integer", "max": 1}}))
    code = ("import sys, scoresys\n"
            "d = scoresys.load_csv(sys.argv[1])\n"
            "scoresys.load_domains(sys.argv[2], d.feature_names)\n"
            "print(' '.join(sorted(sys.modules)))\n")
    out = subprocess.run([sys.executable, "-c", code, csv, str(cs)], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
    loaded = set(out.stdout.split())
    assert {"scoresys.coefset", "scoresys.data"} <= loaded
    assert [m for m in loaded if m.startswith("concurrent")] == []
    later = {f"scoresys.{m}" for m in
             ("solver", "objective", "mipmodel", "harness", "report", "bounds", "cli")}
    assert sorted(loaded & later) == []
    assert "hashlib" not in loaded


PACKAGE_NAMES = [
    "BoundReport", "CoefficientDomain", "CoefficientSet", "ConfigError", "CvAggregate",
    "CvRecord", "CvReport", "DataError", "Dataset", "DecisionTable", "DomainError",
    "FoldAssignment", "FrontierPoint", "MipModel", "ObjectiveValue", "ReportError",
    "ScoresysError", "ScoringSystem", "SearchState", "SolveResult", "Tier", "TracePoint",
    "TrainConfig", "VerifyError", "bounded_integers", "bounds", "build_model", "c0_range",
    "coefset", "complete_assignment", "coprime_class_gap", "coprime_reduce", "data",
    "default_c0_grid", "default_c1", "default_weights", "digit_values", "errors",
    "evaluate", "exactnum", "explicit_values", "farey_count", "finite_class_gap",
    "frontier", "frontier_from_report", "harness", "induce_decision_table", "load_csv",
    "load_domains", "lower_bound_of", "mipmodel", "objective", "parse_label_map",
    "parse_lp", "parse_score_sheet", "read_solution", "render_results_table",
    "render_score_sheet", "report", "run_cv", "select_c0", "signed_integers", "solve",
    "solver", "split_folds", "to_csv", "uniform", "verify_solution", "warm_start",
    "write_lp",
]
PACKAGE_MODULES = ("bounds", "coefset", "data", "errors", "exactnum", "harness",
                   "mipmodel", "objective", "report", "solver")


def test_package_namespace():
    """The package exports the same 70 names, each the object its
    defining module holds, by attribute access and by a star import."""
    modules = {m: importlib.import_module(f"scoresys.{m}") for m in PACKAGE_MODULES}
    assert scoresys.__all__ == PACKAGE_NAMES
    assert set(PACKAGE_NAMES) <= set(dir(scoresys))
    star = {}
    exec("from scoresys import *", star)
    for name in PACKAGE_NAMES:
        if name in modules:
            expected = modules[name]
        else:
            [home] = [mod for mod in modules.values()
                      if getattr(vars(mod).get(name), "__module__", None) == mod.__name__]
            expected = getattr(home, name)
        assert getattr(scoresys, name) is expected
        assert star[name] is expected
    assert scoresys.cli is importlib.import_module("scoresys.cli")
    with pytest.raises(AttributeError):
        scoresys.no_such_name
