#!/usr/bin/env python3
"""Time the solves of two source trees side by side on the bench problems.

    python3 scripts/ab_solves.py OLD_TREE NEW_TREE --workloads mammo,rows \
        --seed 2 --pairs 10

Each tree runs in its own worker process, which imports scoresys from
TREE/src.  The problems are those of slimbench's train path and cv
folds (slimbench/workloads.py, read and not changed): for each c0 of the
workload's path, the whole table and the training split of each of the
CV_K stratified folds, under the CLI's defaults (class weights 1,1 and
the automatic c1; cv solves carry run_cv's 60 s budget).  A pair runs
every problem once on each tree, one solve at a time, the two trees
taking turns and the first of each turn alternating, so both see the
same machine load.  One untimed pass warms each worker up first.

For each workload it prints, per tree, whether every solve returned the
first tree's vector, status, lower bound, gap and objective, the node
total over the problems, and the time of a pair's solves (median over
pairs); then the median over pairs of the time ratio new / old, and in
how many pairs the new tree was faster.
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

WORKER = r"""
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


class Worker:
    """A process that solves the problems of one tree on request."""

    def __init__(self, tree: str, setup: dict):
        self.proc = subprocess.Popen(
            [sys.executable, "-c", WORKER, os.path.join(os.path.abspath(tree), "src")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.proc.stdin.write(json.dumps(setup) + "\n")
        self.proc.stdin.flush()
        self.count = int(self.proc.stdout.readline())

    def solve(self, i: int) -> dict:
        self.proc.stdin.write(f"{i}\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def run_workload(name: str, trees: list, seed: int, pairs: int, work: str):
    import workloads
    inp = workloads.make_inputs(name, seed, ROOT, work)
    setup = {"csv": inp.csv, "coefset": inp.coefset, "k": workloads.CV_K,
             "cv_seed": workloads.CV_SEED, "cv_budget_s": 60.0,
             "path": [str(c0) for c0 in inp.spec.path]}
    workers = [Worker(tree, setup) for tree in trees]
    try:
        count = workers[0].count
        first = [[w.solve(i) for i in range(count)] for w in workers]  # warm-up
        times = [[] for _ in workers]
        for pair in range(pairs):
            total = [0.0 for _ in workers]
            for i in range(count):
                turn = range(len(workers)) if (pair + i) % 2 == 0 else \
                    range(len(workers) - 1, -1, -1)
                for w in turn:
                    total[w] += workers[w].solve(i)["s"]
            for w, t in enumerate(total):
                times[w].append(t)
    finally:
        for w in workers:
            w.close()
    print(f"{name} (seed {seed}, {count} solves, {pairs} pairs)")
    for w, tree in enumerate(trees):
        same = all(a["result"] == b["result"] for a, b in zip(first[0], first[w]))
        nodes = sum(r["nodes"] for r in first[w])
        print(f"  {tree}: same results {'yes' if same else 'NO'}, "
              f"nodes {nodes}, median {statistics.median(times[w]):.4f} s")
    ratios = [b / a for a, b in zip(times[0], times[-1])]
    faster = sum(r < 1 for r in ratios)
    print(f"  ratio new/old: median {statistics.median(ratios):.3f}, "
          f"new faster in {faster} of {pairs} pairs")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", help="reference source tree (the ratio's denominator)")
    ap.add_argument("new", help="source tree compared with it")
    ap.add_argument("--workloads", default="mammo,breastcancer,rows")
    ap.add_argument("--seed", type=int, default=2)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    sys.path.insert(0, BENCH)  # workloads and the oracle it imports
    with tempfile.TemporaryDirectory() as work:
        for name in args.workloads.split(","):
            run_workload(name, [args.old, args.new], args.seed, args.pairs, work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
