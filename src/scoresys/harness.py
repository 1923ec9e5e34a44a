"""Cross-validated training protocol and efficient frontiers.

run_cv trains one model per (c0, fold) pair over a regularization
grid, scores each on its held-out fold, and aggregates exact error
statistics per grid value.  Everything downstream of the solver is
exact rational arithmetic, so a report is a pure function of
(dataset, coefficient set, config, grid, k, seed) and serializes to
identical bytes on every run; per-solve wall times are kept on the
records but never serialized.  Model size counts nonzero coefficients
excluding the intercept.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import dataclass, replace
from fractions import Fraction

from .coefset import CoefficientSet
from .data import Dataset, split_folds
from .errors import ConfigError
from .exactnum import fraction_str, to_fraction
from .objective import TrainConfig, c0_range, evaluate
from .solver import solve

DEFAULT_BUDGET_S = 60.0
GRID_SIZE = 6

CSV_HEADER = "c0,fold,train_error,test_error,model_size,solve_status,gap"


@dataclass(frozen=True)
class CvRecord:
    c0: Fraction
    fold: int
    train_error: Fraction
    test_error: Fraction
    model_size: int
    solve_status: str
    gap: float
    runtime_s: float
    coefficients: tuple

    def csv_line(self) -> str:
        return (f"{fraction_str(self.c0)},{self.fold},"
                f"{fraction_str(self.train_error)},"
                f"{fraction_str(self.test_error)},{self.model_size},"
                f"{self.solve_status},{self.gap!r}")


@dataclass(frozen=True)
class CvAggregate:
    c0: Fraction
    test_error_mean: Fraction
    test_error_sd: float
    train_error_mean: Fraction
    train_error_sd: float
    size_median: float
    size_min: int
    size_max: int

    def to_dict(self) -> dict:
        return {
            "c0": fraction_str(self.c0),
            "test_error_mean": float(self.test_error_mean),
            "test_error_sd": self.test_error_sd,
            "train_error_mean": float(self.train_error_mean),
            "train_error_sd": self.train_error_sd,
            "size_median": self.size_median,
            "size_min": self.size_min,
            "size_max": self.size_max,
        }


@dataclass(frozen=True)
class CvReport:
    records: tuple
    aggregates: tuple
    warnings: tuple
    k: int
    seed: int

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        lines.extend(r.csv_line() for r in self.records)
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "k": self.k,
            "seed": self.seed,
            "warnings": list(self.warnings),
            "aggregates": [a.to_dict() for a in self.aggregates],
            "selection": {
                "min_error": fraction_str(select_c0(self, "min_error")),
                "one_se": fraction_str(select_c0(self, "one_se")),
            },
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def default_c0_grid(n: int, count: int = GRID_SIZE) -> tuple:
    """count geometrically spaced values covering the meaningful c0
    interval [1/n, 1], endpoints exact."""
    lo, hi = c0_range(n)
    if count < 1:
        raise ConfigError("grid size must be >= 1")
    if count == 1 or lo == hi:
        return (lo,)
    vals = [lo]
    ratio = float(hi) / float(lo)
    for i in range(1, count - 1):
        vals.append(to_fraction(repr(float(lo) * ratio ** (i / (count - 1)))))
    vals.append(hi)
    out = []
    for v in vals:
        if not out or v != out[-1]:
            out.append(v)
    return tuple(out)


def _solve_one(payload) -> CvRecord:
    train_d, test_d, s, cfg, fold = payload
    t0 = time.perf_counter()
    res = solve(train_d, s, cfg, jobs=1)
    runtime = time.perf_counter() - t0
    lam = res.best.coefficients
    # res.objective already scores lam on train_d
    te = evaluate(test_d, lam, cfg.resolve(train_d.n, s))
    return CvRecord(
        c0=cfg.c0, fold=fold,
        train_error=Fraction(res.objective.misclassified_count, train_d.n),
        test_error=Fraction(te.misclassified_count, test_d.n),
        model_size=res.best.model_size, solve_status=res.status, gap=res.gap,
        runtime_s=runtime, coefficients=lam)


def run_cv(d: Dataset, s: CoefficientSet, cfg: TrainConfig, c0_grid=None,
           k: int = 5, seed: int = 0, jobs: int = 1) -> CvReport:
    """k-fold cross-validation across a c0 grid.

    The config acts as a template: its c0 is replaced by each grid
    value, everything else (weights, gamma, explicit c1, tolerance)
    carries through; a missing time budget becomes 60 s per solve.
    Folds are stratified by label.  A fold whose train or test split
    holds a single class is recorded as a warning and still run.
    jobs > 1 runs independent (c0, fold) solves in worker processes;
    the report is byte-identical for any jobs value.
    """
    if k < 2:
        raise ConfigError("k must be >= 2")
    grid = tuple(to_fraction(v) for v in (c0_grid if c0_grid else
                                          default_c0_grid(d.n)))
    if not grid:
        raise ConfigError("c0 grid must be nonempty")
    if len(set(grid)) < len(grid):
        dup = next(c0 for i, c0 in enumerate(grid) if c0 in grid[:i])
        raise ConfigError(f"c0 grid repeats {fraction_str(dup)}")
    if cfg.time_budget_s is None:
        cfg = replace(cfg, time_budget_s=DEFAULT_BUDGET_S)
    folds = split_folds(d, k, seed=seed, stratify=True)

    warnings = []
    splits = []
    for fold in range(k):
        train_d = d.subset(folds.train_indices(fold))
        test_d = d.subset(folds.test_indices(fold))
        for part, sub in (("train", train_d), ("test", test_d)):
            if sub.n_pos == 0 or sub.n_pos == sub.n:
                warnings.append(f"fold {fold}: {part} split has a single class")
        splits.append((train_d, test_d))

    payloads = []
    for c0 in grid:
        for fold in range(k):
            train_d, test_d = splits[fold]
            payloads.append((train_d, test_d, s, replace(cfg, c0=c0), fold))

    if jobs > 1:
        # imported here, not at the top: it would add about a tenth to
        # the time of `import scoresys`
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = tuple(pool.map(_solve_one, payloads))
    else:
        records = tuple(_solve_one(p) for p in payloads)

    aggregates = []
    for c0 in grid:
        group = [r for r in records if r.c0 == c0]
        aggregates.append(aggregate_records(c0, group))
    return CvReport(records=records, aggregates=tuple(aggregates),
                    warnings=tuple(warnings), k=k, seed=seed)


def _sd(values) -> float:
    if len(values) < 2:
        return 0.0
    return math.sqrt(float(statistics.variance(values)))


def aggregate_records(c0: Fraction, group) -> CvAggregate:
    tes = [r.test_error for r in group]
    trs = [r.train_error for r in group]
    sizes = [r.model_size for r in group]
    return CvAggregate(
        c0=c0,
        test_error_mean=statistics.mean(tes),
        test_error_sd=_sd(tes),
        train_error_mean=statistics.mean(trs),
        train_error_sd=_sd(trs),
        size_median=float(statistics.median(sizes)),
        size_min=min(sizes),
        size_max=max(sizes))


def select_c0(report: CvReport, rule: str = "min_error") -> Fraction:
    """Pick a grid value from the aggregates.

    min_error: smallest mean test error, ties going to the larger c0
    (the sparser side).  one_se: sparsest aggregate whose mean test
    error is within one standard error of the minimum, ties again to
    the larger c0.
    """
    aggs = report.aggregates
    if not aggs:
        raise ConfigError("empty report")
    if rule == "min_error":
        best = min(aggs, key=lambda a: (a.test_error_mean, -a.c0))
        return best.c0
    if rule == "one_se":
        best = min(aggs, key=lambda a: (a.test_error_mean, -a.c0))
        se = best.test_error_sd / math.sqrt(report.k)
        cutoff = float(best.test_error_mean) + se
        ok = [a for a in aggs if float(a.test_error_mean) <= cutoff]
        chosen = min(ok, key=lambda a: (a.size_median, -a.c0))
        return chosen.c0
    raise ConfigError(f"unknown selection rule {rule!r}")


@dataclass(frozen=True)
class FrontierPoint:
    label: str
    test_error_mean: float
    model_size_median: float
    dominated: bool = False


def frontier(points) -> list:
    """Flag dominated points: another point at most as bad in both
    error and size and strictly better in one.  Exact ties dominate
    nothing, so duplicates all stay on the frontier."""
    items = []
    for pt in points:
        if isinstance(pt, FrontierPoint):
            items.append((pt.label, float(pt.test_error_mean),
                          float(pt.model_size_median)))
        else:
            label, err, size = pt
            items.append((str(label), float(err), float(size)))
    if not items:
        raise ConfigError("frontier needs at least one point")
    out = []
    for label, err, size in items:
        dom = any(
            (e2 <= err and s2 <= size) and (e2 < err or s2 < size)
            for _, e2, s2 in items)
        out.append(FrontierPoint(label=label, test_error_mean=err,
                                 model_size_median=size, dominated=dom))
    return out


def frontier_from_report(report: CvReport, label_prefix: str = "c0=") -> list:
    pts = [(f"{label_prefix}{fraction_str(a.c0)}",
            float(a.test_error_mean), a.size_median)
           for a in report.aggregates]
    return frontier(pts)
