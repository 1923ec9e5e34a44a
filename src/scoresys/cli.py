"""Command-line front end.

Subcommands: train, cv, export-mip, bound, report, verify.  Exit codes:
0 on success (a solve that exhausts its time budget still succeeds and
reports its status), 1 on missing, unreadable or non-UTF-8 files or
any validation/verification failure, 2 on unknown flags (argparse
prints usage).  train and cv take the solve flags --budget and
--gap-tol, and for them the env var SLIM_BUDGET_S overrides any
--budget value.  cv's --seed (default 0) picks the folds and is always
printed so runs can be reproduced verbatim; train uses no randomness
and takes no seed.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from fractions import Fraction

from .bounds import coprime_class_gap, finite_class_gap
from .coefset import load_domains
from .data import load_csv
from .errors import ConfigError, ReportError, ScoresysError
from .exactnum import fraction_str, to_fraction
from .harness import default_c0_grid, frontier_from_report, run_cv, select_c0
from .mipmodel import build_model, parse_lp, read_solution, verify_solution, write_lp
from .objective import TrainConfig, default_weights
from .report import (ScoringSystem, induce_decision_table, parse_label_map,
                     render_results_table, render_score_sheet)
from .solver import solve

TRACE_HEADER = "elapsed_s,incumbent,lower_bound,nnz\n"


def _add_data_flags(sp, *, data_required=True):
    sp.add_argument("--data", required=data_required, help="labeled CSV file")
    sp.add_argument("--label", default=None,
                    help="label column name (default: last column)")
    sp.add_argument("--no-intercept", action="store_true",
                    help="do not prepend an all-ones intercept column")
    sp.add_argument("--missing", default="drop", choices=["drop", "impute_mean"])
    sp.add_argument("--one-hot", default="",
                    help="comma-separated categorical columns to expand")


def _add_config_flags(sp, *, c0_required=True):
    if c0_required:
        sp.add_argument("--c0", required=True, help="sparsity penalty per coefficient")
    sp.add_argument("--c1", default="auto",
                    help="l1 penalty, or 'auto' for the data-derived default")
    sp.add_argument("--weights", default="1,1",
                    help="'auto' or 'W+,W-' class weights (default 1,1)")
    sp.add_argument("--gamma", default="0.1", help="margin constant for MIP export")


def _add_solve_flags(sp):
    sp.add_argument("--budget", default=None, type=float,
                    help="per-solve time budget in seconds")
    sp.add_argument("--gap-tol", default=0.0, type=float,
                    help="relative optimality gap that ends the search early")


def _read(path: str, parse):
    """parse(fh) for the file at path opened as UTF-8 text, with line
    ends as in the file.  Every file flag is read here: a file that is
    not UTF-8 text raises ConfigError naming path, and one that cannot
    be opened raises OSError; main reports either on one line."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return parse(fh)
    except UnicodeDecodeError as e:
        raise ConfigError(f"cannot read {path}: not UTF-8 text ({e.reason})") from None


def _load_dataset(args):
    one_hot = tuple(c for c in args.one_hot.split(",") if c) if args.one_hot else ()
    return _read(args.data, lambda fh: load_csv(
        fh, label_column=args.label, add_intercept=not args.no_intercept,
        missing_policy=args.missing, one_hot=one_hot))


def _load_coefset(args, d):
    return _read(args.coefset, lambda fh: load_domains(fh, d.feature_names))


def _budget(args) -> float | None:
    env = os.environ.get("SLIM_BUDGET_S")
    if env is not None:
        try:
            return float(env)
        except ValueError:
            raise ConfigError(f"SLIM_BUDGET_S={env!r} is not a number") from None
    return args.budget


def _config(args, d, *, solving=False) -> TrainConfig:
    """The command's TrainConfig; with solving, also its time budget
    and gap tolerance (train and cv)."""
    c1 = None if args.c1 == "auto" else to_fraction(args.c1)
    if args.weights == "auto":
        w_pos, w_neg = default_weights(d.n, d.n_pos)
    else:
        parts = args.weights.split(",")
        if len(parts) != 2:
            raise ConfigError(f"--weights takes 'auto' or 'W+,W-', got {args.weights!r}")
        w_pos, w_neg = to_fraction(parts[0]), to_fraction(parts[1])
    cfg = TrainConfig(c0=to_fraction(args.c0), c1=c1, w_pos=w_pos, w_neg=w_neg,
                      gamma=to_fraction(args.gamma))
    if solving:
        cfg = replace(cfg, time_budget_s=_budget(args), gap_tolerance=args.gap_tol)
    return cfg


def _cmd_train(args) -> int:
    d = _load_dataset(args)
    s = _load_coefset(args, d)
    cfg = _config(args, d, solving=True)
    sink = None
    trace_fh = None
    if args.trace:
        trace_fh = open(args.trace, "w", encoding="utf-8")
        trace_fh.write(TRACE_HEADER)
        sink = trace_fh.write
    try:
        res = solve(d, s, cfg, jobs=args.jobs, trace_sink=sink)
    finally:
        if trace_fh is not None:
            trace_fh.close()
    model = res.best
    print(f"status: {res.status}")
    print(f"objective: {fraction_str(res.objective.total)}"
          f" ({float(res.objective.total):.6g})")
    print(f"gap: {res.gap!r}")
    print(f"dataset_hash: {model.provenance['dataset_hash']}")
    print(f"config_hash: {model.provenance['config_hash']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(model.to_json())
        print(f"model written to {args.out}")
    print()
    print(render_score_sheet(model, labels=parse_label_map(args.labels)))
    return 0


def _cmd_cv(args) -> int:
    d = _load_dataset(args)
    s = _load_coefset(args, d)
    cfg = _config(args, d, solving=True)
    grid = None
    if args.c0_grid:
        grid = tuple(to_fraction(v) for v in args.c0_grid.split(","))
    print(f"seed: {args.seed}")
    rep = run_cv(d, s, cfg, c0_grid=grid, k=args.k, seed=args.seed, jobs=args.jobs)
    for w in rep.warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(render_results_table(rep))
    print(f"selected c0 (min error): {fraction_str(select_c0(rep, 'min_error'))}")
    print(f"selected c0 (one SE):    {fraction_str(select_c0(rep, 'one_se'))}")
    for pt in frontier_from_report(rep):
        tag = "dominated" if pt.dominated else "frontier"
        print(f"  {pt.label}: error {pt.test_error_mean:.4f}, "
              f"size {pt.model_size_median:g} [{tag}]")
    if args.out_csv:
        with open(args.out_csv, "w", encoding="utf-8") as fh:
            fh.write(rep.to_csv())
        print(f"records written to {args.out_csv}")
    if args.out_json:
        with open(args.out_json, "w", encoding="utf-8") as fh:
            fh.write(rep.to_json())
        print(f"aggregates written to {args.out_json}")
    return 0


def _cmd_export_mip(args) -> int:
    d = _load_dataset(args)
    s = _load_coefset(args, d)
    cfg = _config(args, d)
    if args.variant == "standard" and args.weights == "auto":
        raise ConfigError("auto weights need --variant weighted")
    m = build_model(d, s, cfg, args.variant)
    write_lp(m, args.out)
    nvar = len(m.variables)
    ncon = len(m.linear_constraints)
    print(f"wrote {args.out}: {nvar} variables, {ncon} constraints "
          f"({args.variant})")
    return 0


def _cmd_bound(args) -> int:
    if args.theorem == "1":
        count = (2 * args.max_coef + 1) ** args.p
        rep = finite_class_gap(count, args.n, args.delta)
    else:
        rep = coprime_class_gap(args.max_coef, args.p, args.n, args.delta)
    print(f"kind: {rep.kind}")
    print(f"hypothesis_count: {rep.hypothesis_count}")
    print(f"n: {rep.n}")
    print(f"delta: {rep.delta!r}")
    print(f"bound_gap: {rep.bound_gap!r}")
    return 0


def _cmd_report(args) -> int:
    text = _read(args.model, lambda fh: fh.read())
    try:
        model = ScoringSystem.from_json(text)
    except ReportError as e:
        raise ReportError(f"model file {args.model}: {e}") from None
    labels = parse_label_map(args.labels)
    print(render_score_sheet(model, labels=labels))
    if args.decision_table:
        if not args.data:
            raise ConfigError("--decision-table needs --data to check the features")
        table = induce_decision_table(model, _load_dataset(args))
        print()
        print(table.to_text(labels=labels))
    return 0


def _cmd_verify(args) -> int:
    m = _read(args.model, lambda fh: parse_lp(fh.read()))
    assignment = _read(args.solution, lambda fh: read_solution(fh.read()))
    d = _load_dataset(args)
    s = _load_coefset(args, d) if args.coefset else None
    cfg = _config(args, d)
    if cfg.c1 is None:
        if s is None:
            raise ConfigError("--c1 auto needs --coefset to derive the default")
        cfg = cfg.resolve(d.n, s)
    ov = verify_solution(m, assignment, d, cfg)
    print("verification: ok")
    print(f"objective: {fraction_str(ov.total)} ({float(ov.total):.6g})")
    print(f"loss_term: {fraction_str(ov.loss_term)}")
    print(f"misclassified: {ov.misclassified_count} of {ov.n}")
    print(f"nnz: {ov.nnz}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="scoresys",
        description="Exact training and reporting of sparse integer scoring systems")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("train", help="solve one training problem")
    _add_data_flags(sp)
    sp.add_argument("--coefset", required=True, help="coefficient-set JSON")
    _add_config_flags(sp)
    _add_solve_flags(sp)
    sp.add_argument("--jobs", type=int, default=1,
                    help="accepted for compatibility; one solve runs in one "
                         "thread, so it has no effect")
    sp.add_argument("--out", default=None, help="model JSON output path")
    sp.add_argument("--trace", default=None, help="search trace CSV output path")
    sp.add_argument("--labels", default=None, help="'pos,neg' display labels")
    sp.set_defaults(func=_cmd_train)

    sp = sub.add_parser("cv", help="cross-validate over a c0 grid")
    _add_data_flags(sp)
    sp.add_argument("--coefset", required=True)
    _add_config_flags(sp, c0_required=False)
    _add_solve_flags(sp)
    sp.add_argument("--c0", default="0.01",
                    help="template c0 (replaced by the grid values)")
    sp.add_argument("--c0-grid", default=None, help="comma-separated c0 values")
    sp.add_argument("--k", type=int, default=5)
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out-csv", default=None)
    sp.add_argument("--out-json", default=None)
    sp.set_defaults(func=_cmd_cv)

    sp = sub.add_parser("export-mip", help="write the training MIP as an LP file")
    _add_data_flags(sp)
    sp.add_argument("--coefset", required=True)
    _add_config_flags(sp)
    sp.add_argument("--variant", default="standard",
                    choices=["standard", "weighted", "pilm"])
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_export_mip)

    sp = sub.add_parser("bound", help="finite-class generalization bound")
    sp.add_argument("--theorem", required=True, choices=["1", "2"],
                    help="1: all vectors, 2: coprime directions only")
    sp.add_argument("--lambda", dest="max_coef", type=int, required=True,
                    help="coefficient magnitude bound")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--delta", type=float, required=True)
    sp.set_defaults(func=_cmd_bound)

    sp = sub.add_parser("report", help="render a trained model")
    sp.add_argument("--model", required=True, help="model JSON path")
    sp.add_argument("--labels", default=None, help="'pos,neg' display labels")
    sp.add_argument("--decision-table", action="store_true")
    _add_data_flags(sp, data_required=False)
    sp.set_defaults(func=_cmd_report)

    sp = sub.add_parser("verify", help="check an external MIP solution")
    sp.add_argument("--model", required=True, help="LP file")
    sp.add_argument("--solution", required=True, help="name value pairs")
    _add_data_flags(sp)
    sp.add_argument("--coefset", default=None,
                    help="needed only when --c1 auto must be derived")
    _add_config_flags(sp)
    sp.set_defaults(func=_cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except FileNotFoundError as e:
        print(f"error: missing file: {e.filename or e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: cannot open {e.filename}: {e.strerror}" if e.filename
              else f"error: {e}", file=sys.stderr)
        return 1
    except ScoresysError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
