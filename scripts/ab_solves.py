#!/usr/bin/env python3
"""Time the solves or the CLI calls of two source trees side by side on
the bench problems.

    python3 scripts/ab_solves.py OLD_TREE NEW_TREE --workloads mammo,rows \
        --seed 2 --pairs 10 [--cli]

Each tree runs in its own worker process, which imports scoresys from
TREE/src.  The inputs are those of slimbench/workloads.py (read and not
changed).  A pair runs every problem once on each tree, one at a time,
the two trees taking turns and the first of each turn alternating, so
both see the same machine load.  One untimed pass warms each worker up
first.

Without --cli the problems are the solves of slimbench's train path and
cv folds: for each c0 of the workload's path, the whole table and the
training split of each of the CV_K stratified folds, under the CLI's
defaults (class weights 1,1 and the automatic c1; cv solves carry
run_cv's 60 s budget).  For each workload it prints, per tree, whether
every solve returned the first tree's vector, status, lower bound, gap
and objective, the node total over the problems, whether every solve's
nodes_explored equals the first tree's, and the time of a pair's solves
(median over pairs).

With --cli the problems are whole in-process cli.main calls, as
slimbench makes them: for each c0 of the path, a train call, and an
export-mip call followed by a verify call in each of four forms: the
workload's coefficient set and the budgeted solve's set
(workloads.BUDGET_SET, -100..100), each under the default class
weights 1,1 and under --weights auto.  Each worker runs in its own
scratch directory, to which the calls write their files under the same
relative names; the solution file verify reads is made before the first
call, untimed, from the tree's own model JSON and LP.  For each
workload it prints, per tree, whether every call exited 0 with the
first tree's stdout, stderr and written files, byte for byte, and per
command the time of a pair's calls (median over pairs).

Both modes then print, per timed group, the median over pairs of the
time ratio new / old, and in how many pairs the new tree was faster.
The exit status is 1 when any workload prints a NO (a result, exit
status or output that differs, or a call that did not exit 0), else 0.
A node count that differs prints a lowercase "no" and leaves the exit
status alone: a change to the search may change the tree and not the
results.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "slimbench")

SOLVE_WORKER = r"""
import json, sys, time
from fractions import Fraction
sys.path.insert(0, sys.argv[1])
from scoresys import load_csv, load_domains
from scoresys.data import split_folds
from scoresys.objective import TrainConfig
from scoresys.solver import solve

setup = json.loads(sys.stdin.readline())
d = load_csv(setup["csv"])
s = load_domains(setup["coefset"], d.feature_names)
folds = split_folds(d, setup["k"], seed=setup["cv_seed"], stratify=True)
problems = []
for c0 in map(Fraction, setup["path"]):
    problems.append((d, TrainConfig(c0=c0)))
    for f in range(setup["k"]):
        problems.append((d.subset(folds.train_indices(f)),
                         TrainConfig(c0=c0, time_budget_s=setup["cv_budget_s"])))
print(len(problems), flush=True)
for line in sys.stdin:
    td, cfg = problems[int(line)]
    t0 = time.perf_counter()
    r = solve(td, s, cfg)
    wall = time.perf_counter() - t0
    print(json.dumps({"s": wall, "nodes": r.nodes_explored, "result": [
        [str(v) for v in r.best.coefficients], r.status, str(r.lower_bound),
        r.gap, str(r.objective.total)]}), flush=True)
"""

CLI_WORKER = r"""
import contextlib, gc, hashlib, io, json, sys, time
sys.path.insert(0, sys.argv[1])
from scoresys import cli, load_csv
from scoresys.exactnum import fraction_str
from scoresys.mipmodel import complete_assignment, parse_lp
from scoresys.report import ScoringSystem

setup = json.loads(sys.stdin.readline())
calls = setup["calls"]  # each a list of argv lists, run one after another


def quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return cli.main(argv), out.getvalue(), err.getvalue()


# plays the external MIP solver, untimed: each solution file verify
# reads is a model's coefficients completed to a full assignment of
# the exported program
for argv in setup["prepare"]:
    assert quiet(argv)[0] == 0, argv
d = load_csv(setup["csv"])
for sol, (model, lp) in setup["solutions"].items():
    with open(lp, encoding="utf-8") as fh:
        m = parse_lp(fh.read())
    with open(model, encoding="utf-8") as fh:
        coefs = ScoringSystem.from_json(fh.read()).coefficients
    with open(sol, "w", encoding="utf-8") as fh:
        fh.writelines(f"{k} {fraction_str(v)}\n"
                      for k, v in complete_assignment(m, d, coefs).items())
print(len(calls), flush=True)


def digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


for line in sys.stdin:
    argvs = calls[int(line)]
    gc.collect()
    t0 = time.perf_counter()
    results = [quiet(argv) for argv in argvs]
    wall = time.perf_counter() - t0
    files = {a[a.index("--out") + 1]: digest(a[a.index("--out") + 1])
             for a in argvs if "--out" in a}
    print(json.dumps({"s": wall, "result": [results, files]}), flush=True)
"""


class Worker:
    """A process that runs the problems of one tree on request."""

    def __init__(self, tree: str, code: str, setup: dict, cwd: str | None = None):
        self.proc = subprocess.Popen(
            [sys.executable, "-c", code, os.path.join(os.path.abspath(tree), "src")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=cwd)
        self.proc.stdin.write(json.dumps(setup) + "\n")
        self.proc.stdin.flush()
        self.count = int(self.proc.stdout.readline())

    def run(self, i: int) -> dict:
        self.proc.stdin.write(f"{i}\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def alternate(workers: list, pairs: int) -> tuple[list, list]:
    """Each worker's replies of the untimed pass, and secs[w][pair][i],
    worker w's seconds for problem i in that pair."""
    count = workers[0].count
    first = [[w.run(i) for i in range(count)] for w in workers]  # warm-up
    secs = [[[0.0] * count for _ in range(pairs)] for _ in workers]
    for pair in range(pairs):
        for i in range(count):
            turn = range(len(workers)) if (pair + i) % 2 == 0 else \
                range(len(workers) - 1, -1, -1)
            for w in turn:
                secs[w][pair][i] = workers[w].run(i)["s"]
    return first, secs


def print_ratio(label: str, old: list, new: list):
    ratios = [b / a for a, b in zip(old, new)]
    faster = sum(r < 1 for r in ratios)
    print(f"  {label}ratio new/old: median {statistics.median(ratios):.3f}, "
          f"new faster in {faster} of {len(ratios)} pairs")


def run_solves(name: str, inp, trees: list, pairs: int) -> bool:
    import workloads
    setup = {"csv": inp.csv, "coefset": inp.coefset, "k": workloads.CV_K,
             "cv_seed": workloads.CV_SEED, "cv_budget_s": 60.0,
             "path": [str(c0) for c0 in inp.spec.path]}
    workers = [Worker(tree, SOLVE_WORKER, setup) for tree in trees]
    try:
        first, secs = alternate(workers, pairs)
    finally:
        for w in workers:
            w.close()
    times = [[sum(pair) for pair in s] for s in secs]
    print(f"{name} (seed {inp.seed}, {len(first[0])} solves, {pairs} pairs)")
    ok = True
    for w, tree in enumerate(trees):
        same = all(a["result"] == b["result"] for a, b in zip(first[0], first[w]))
        ok &= same
        nodes = sum(r["nodes"] for r in first[w])
        same_nodes = all(a["nodes"] == b["nodes"] for a, b in zip(first[0], first[w]))
        print(f"  {tree}: same results {'yes' if same else 'NO'}, "
              f"nodes {nodes} (each solve's as the first tree's: "
              f"{'yes' if same_nodes else 'no'}), "
              f"median {statistics.median(times[w]):.4f} s")
    print_ratio("", times[0], times[-1])
    return ok


def run_cli(name: str, inp, trees: list, pairs: int, work: str) -> bool:
    from run import num
    files = ["--data", inp.csv, "--coefset", inp.coefset]
    # export-mip + verify forms: each coefficient set (the workload's,
    # the budgeted solve's) under each class weighting (both calls'
    # weight flags)
    exports = [(kind + suffix, stem + suffix, coefset, weights)
               for kind, stem, coefset in (("export-verify", "model", inp.coefset),
                                           ("export-verify-budget-set", "budget",
                                            inp.budget_coefset))
               for suffix, weights in (("", []), ("-weighted", ["--weights", "auto"]))]
    calls, kinds, solutions = [], [], {}
    for i, c0 in enumerate(inp.spec.path):
        c0_flag = ["--c0", num(c0)]
        model = f"model-{i}.json"
        calls.append([["train", *files, *c0_flag, "--jobs", "1", "--out", model]])
        kinds.append("train")
        for kind, stem, coefset, weights in exports:
            lp, sol = f"{stem}-{i}.lp", f"{stem}-{i}.sol"
            both = ["--data", inp.csv, "--coefset", coefset, *c0_flag, *weights]
            calls.append([["export-mip", *both, "--out", lp],
                          ["verify", "--model", lp, "--solution", sol, *both]])
            kinds.append(kind)
            solutions[sol] = (model, lp)
    setup = {"csv": inp.csv, "calls": calls, "solutions": solutions,
             "prepare": [call[0] for call in calls]}
    workers = []
    try:
        for w, tree in enumerate(trees):
            cwd = os.path.join(work, f"{name}-{w}")
            os.makedirs(cwd)
            workers.append(Worker(tree, CLI_WORKER, setup, cwd))
        first, secs = alternate(workers, pairs)
    finally:
        for w in workers:
            w.close()
    groups = {k: [i for i, kind in enumerate(kinds) if kind == k]
              for k in dict.fromkeys(kinds)}
    times = {k: [[sum(pair[i] for i in idx) for pair in s] for s in secs]
             for k, idx in groups.items()}
    print(f"{name} (seed {inp.seed}, cli, {len(calls)} calls, {pairs} pairs)")
    all_ok = True
    for w, tree in enumerate(trees):
        ok = all(code == 0 for r in first[w] for code, _, _ in r["result"][0])
        same = all(a["result"] == b["result"] for a, b in zip(first[0], first[w]))
        all_ok &= ok and same
        medians = ", ".join(f"{k} {statistics.median(t[w]):.4f} s" for k, t in times.items())
        print(f"  {tree}: exit 0 {'yes' if ok else 'NO'}, same outputs "
              f"{'yes' if same else 'NO'}, median {medians}")
    for k, t in times.items():
        print_ratio(f"{k} ", t[0], t[-1])
    return all_ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", help="reference source tree (the ratio's denominator)")
    ap.add_argument("new", help="source tree compared with it")
    ap.add_argument("--workloads", default="mammo,breastcancer,rows")
    ap.add_argument("--seed", type=int, default=2)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--cli", action="store_true",
                    help="time whole cli.main calls instead of solves")
    args = ap.parse_args(argv)
    sys.path.insert(0, BENCH)  # workloads, run and the oracle they import
    import workloads
    ok = True
    with tempfile.TemporaryDirectory() as work:
        for name in args.workloads.split(","):
            inp = workloads.make_inputs(name, args.seed, ROOT, work)
            trees = [args.old, args.new]
            if args.cli:
                ok &= run_cli(name, inp, trees, args.pairs, work)
            else:
                ok &= run_solves(name, inp, trees, args.pairs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
