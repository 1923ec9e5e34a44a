"""Command-line front end.

Subcommands: train, cv, export-mip, bound, report, verify.  Exit codes:
0 on success (a solve that exhausts its time budget still succeeds and
reports its status), 1 on missing, unreadable or non-UTF-8 files or
any validation/verification failure, 2 on unknown or abbreviated flags
(argparse prints usage).  train and cv take the solve flags --budget
and --gap-tol; cv takes a --c0-grid and no --c0, and only export-mip
takes the margin --gamma of the MIP's loss rows.  export-mip writes
one formulation for every coefficient set (build_model).  cv's --seed
(default 0) picks the folds and is always printed so runs can be
reproduced verbatim; train uses no randomness and takes no seed.

main builds the parser of the command in argv[0] only, and all six
when argv[0] names none (no arguments, --help, a typo), so the usage,
help and error texts are those of the full parser either way.  Each
command declares its flags in one _add_* function, listed in _COMMANDS.
"""

from __future__ import annotations

import argparse
import sys

from .bounds import coprime_class_gap, finite_class_gap
from .coefset import load_domains
from .data import load_csv
from .errors import ConfigError, ReportError, ScoresysError, read_file
from .exactnum import fraction_str, to_fraction
from .harness import frontier_from_report, run_cv, select_c0
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


def _add_config_flags(sp):
    sp.add_argument("--c1", default="auto",
                    help="l1 penalty, or 'auto' for the data-derived default")
    sp.add_argument("--weights", default="1,1",
                    help="'auto' or 'W+,W-' class weights (default 1,1)")


def _add_solve_flags(sp):
    sp.add_argument("--budget", default=None, type=float,
                    help="per-solve time budget in seconds")
    sp.add_argument("--gap-tol", default=0.0, type=float,
                    help="relative optimality gap that ends the search early")


def _load_dataset(args):
    one_hot = tuple(filter(None, map(str.strip, args.one_hot.split(","))))
    return load_csv(args.data, label_column=args.label, add_intercept=not args.no_intercept,
                    missing_policy=args.missing, one_hot=one_hot)


def _config(args, d, **fields) -> TrainConfig:
    """The command's TrainConfig from --c1 and --weights, with fields:
    its c0, and the solve flags (train, cv) or gamma (export-mip)."""
    c1 = None if args.c1 == "auto" else to_fraction(args.c1)
    if args.weights == "auto":
        w_pos, w_neg = default_weights(d.n, d.n_pos)
    else:
        parts = args.weights.split(",")
        if len(parts) != 2:
            raise ConfigError(f"--weights takes 'auto' or 'W+,W-', got {args.weights!r}")
        w_pos, w_neg = to_fraction(parts[0]), to_fraction(parts[1])
    return TrainConfig(c1=c1, w_pos=w_pos, w_neg=w_neg, **fields)


def _cmd_train(args) -> int:
    d = _load_dataset(args)
    s = load_domains(args.coefset, d.feature_names)
    cfg = _config(args, d, c0=args.c0, time_budget_s=args.budget,
                  gap_tolerance=args.gap_tol)
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
    s = load_domains(args.coefset, d.feature_names)
    # a template: run_cv sets c0 to each grid value
    cfg = _config(args, d, c0=0, time_budget_s=args.budget, gap_tolerance=args.gap_tol)
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
    s = load_domains(args.coefset, d.feature_names)
    m = build_model(d, s, _config(args, d, c0=args.c0, gamma=args.gamma))
    write_lp(m, args.out)
    nvar = len(m.variables)
    ncon = len(m.linear_constraints)
    print(f"wrote {args.out}: {nvar} variables, {ncon} constraints")
    return 0


def _cmd_bound(args) -> int:
    for flag, value in (("--lambda", args.max_coef), ("--p", args.p)):
        if value < 1:
            raise ConfigError(f"{flag} must be >= 1, got {value}")
    if args.theorem == "1":
        count = (2 * args.max_coef + 1) ** args.p
        rep = finite_class_gap(count, args.n, args.delta)
    else:
        rep = coprime_class_gap(args.max_coef, args.p, args.n, args.delta)
    try:
        digits = str(rep.hypothesis_count)
    except ValueError:  # more digits than str() writes (4300 by default)
        raise ConfigError(f"the hypothesis count for --lambda {args.max_coef} --p {args.p} "
                          f"has too many digits to print") from None
    print(f"kind: {rep.kind}")
    print(f"hypothesis_count: {digits}")
    print(f"n: {rep.n}")
    print(f"delta: {rep.delta!r}")
    print(f"bound_gap: {rep.bound_gap!r}")
    return 0


def _cmd_report(args) -> int:
    text = read_file(args.model, lambda fh: fh.read(), ConfigError)
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
    m = read_file(args.model, lambda fh: parse_lp(fh.read()), ConfigError)
    assignment = read_file(args.solution, lambda fh: read_solution(fh.read()), ConfigError)
    d = _load_dataset(args)
    s = load_domains(args.coefset, d.feature_names) if args.coefset else None
    cfg = _config(args, d, c0=args.c0)
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


def _add_train(sp):
    _add_data_flags(sp)
    sp.add_argument("--coefset", required=True, help="coefficient-set JSON")
    sp.add_argument("--c0", required=True, help="sparsity penalty per coefficient")
    _add_config_flags(sp)
    _add_solve_flags(sp)
    sp.add_argument("--jobs", type=int, default=1,
                    help="accepted for compatibility; one solve runs in one "
                         "thread, so it has no effect")
    sp.add_argument("--out", default=None, help="model JSON output path")
    sp.add_argument("--trace", default=None, help="search trace CSV output path")
    sp.add_argument("--labels", default=None, help="'pos,neg' display labels")
    sp.set_defaults(func=_cmd_train)


def _add_cv(sp):
    _add_data_flags(sp)
    sp.add_argument("--coefset", required=True)
    _add_config_flags(sp)
    _add_solve_flags(sp)
    sp.add_argument("--c0-grid", default=None, help="comma-separated c0 values")
    sp.add_argument("--k", type=int, default=5)
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out-csv", default=None)
    sp.add_argument("--out-json", default=None)
    sp.set_defaults(func=_cmd_cv)


def _add_export_mip(sp):
    _add_data_flags(sp)
    sp.add_argument("--coefset", required=True)
    sp.add_argument("--c0", required=True, help="sparsity penalty per coefficient")
    _add_config_flags(sp)
    sp.add_argument("--gamma", default="0.1",
                    help="margin the loss rows ask of a correct prediction")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_export_mip)


def _add_bound(sp):
    sp.add_argument("--theorem", required=True, choices=["1", "2"],
                    help="1: all vectors, 2: coprime directions only")
    sp.add_argument("--lambda", dest="max_coef", type=int, required=True,
                    help="coefficient magnitude bound")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--delta", type=float, required=True)
    sp.set_defaults(func=_cmd_bound)


def _add_report(sp):
    sp.add_argument("--model", required=True, help="model JSON path")
    sp.add_argument("--labels", default=None, help="'pos,neg' display labels")
    sp.add_argument("--decision-table", action="store_true")
    _add_data_flags(sp, data_required=False)
    sp.set_defaults(func=_cmd_report)


def _add_verify(sp):
    sp.add_argument("--model", required=True, help="LP file")
    sp.add_argument("--solution", required=True, help="name value pairs")
    _add_data_flags(sp)
    sp.add_argument("--coefset", default=None,
                    help="needed only when --c1 auto must be derived")
    sp.add_argument("--c0", required=True, help="sparsity penalty per coefficient")
    _add_config_flags(sp)
    sp.set_defaults(func=_cmd_verify)


# each command's one-line summary and the function that declares its flags
_COMMANDS = {
    "train": ("solve one training problem", _add_train),
    "cv": ("cross-validate over a c0 grid", _add_cv),
    "export-mip": ("write the training MIP as an LP file", _add_export_mip),
    "bound": ("finite-class generalization bound", _add_bound),
    "report": ("render a trained model", _add_report),
    "verify": ("check an external MIP solution", _add_verify),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or, when command names one, a
    parser that knows that command alone and prints the same texts.
    argparse makes a help formatter for each flag it declares, so one
    command's parser costs a fraction of all six."""
    ap = argparse.ArgumentParser(
        prog="scoresys", allow_abbrev=False,
        description="Exact training and reporting of sparse integer scoring systems")
    names = [command] if command in _COMMANDS else list(_COMMANDS)
    sub = ap.add_subparsers(dest="command", required=True)
    if len(names) == 1:
        # the usage text of all six; argparse also names the action by
        # its metavar in "invalid choice" and "required" errors, which a
        # parser for a given command never raises
        sub.metavar = "{%s}" % ",".join(_COMMANDS)
    for name in names:
        summary, add_flags = _COMMANDS[name]
        # no flag takes an abbreviation of its name
        add_flags(sub.add_parser(name, help=summary, allow_abbrev=False))
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ap = build_parser(argv[0] if argv else None)
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
