#!/usr/bin/env python3
"""End-to-end benchmark of the scoresys command line on one workload.

    python3 slimbench/run.py --workload mammo --seed 1 --seconds 40 --trace 0

Run it from the repository root: it imports scoresys from ./src.  A run
writes the workload's inputs for the seed, then runs whole rounds of
the four CLI paths a user runs (train over the C0 path, a budgeted
train, cv over the path, export-mip followed by verify) in this one
single-threaded process, until --seconds is used up.  After each pass
of a round it times set-up in a fresh interpreter.  Every metric is
the mean over the whole run, and every timed call is scaled to the
machine's reference speed, measured by a fixed probe kernel run before,
during and after the call (README.md says why).  Every output is
checked by slimbench/oracle.py.

With --trace 1 the run instead makes one untraced and one traced round,
times the module layers from outside (spans written to
slimbench/work/spans-<workload>-<seed>.json) and reports the per-layer
metrics, the tracing overhead among them.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; metric names and units are
those of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import numpy as np

import oracle
import workloads
from oracle import CheckFailed, check, field
from tracing import Tracer, span_cost
from workloads import BUDGET_C0, BUDGET_SET, CV_K, CV_SEED

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")
LAYER_REPEATS = 3
REP_KINDS = ("train", "budget", "cv", "export_verify")
# seconds per pass of probe_kernel() on a 2-vCPU Xeon at 2.1 GHz when
# no other tenant slows it; a call's time is scaled by PROBE_REF_S over
# the kernel's time around and during the call
PROBE_REF_S = 0.001
PROBE_PASSES = 10
PROBE_INTERVAL_S = 0.05
CV_HEADER = "c0,fold,train_error,test_error,model_size,solve_status,gap"

SETUP_CODE = """import sys
sys.path.insert(0, sys.argv[1])
import scoresys
d = scoresys.load_csv(sys.argv[2])
scoresys.load_domains(sys.argv[3], d.feature_names)
print("ready", flush=True)
"""


def num(c0: Fraction) -> str:
    text = repr(float(c0))
    check(Fraction(text) == c0, f"c0 {c0} has no exact short decimal")
    return text


def probe_kernel():
    """A fixed mix of the work scoresys does: exact fractions, integer
    numpy arrays and dict updates."""
    total = Fraction(0)
    for i in range(1, 200):
        total += Fraction(i, i + 7)
    a = np.arange(2000, dtype=np.int64)
    for _ in range(20):
        a = (a * 3 + 1) % 1009
    counts = {}
    for i in range(2000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return total, int(a.sum()), len(counts)


class SpeedProbe:
    """How fast the machine runs probe_kernel() around one timed call:
    PROBE_PASSES passes before it, PROBE_PASSES after it and, when
    sample is true, one pass every PROBE_INTERVAL_S during it, from a
    SIGALRM handler in this thread."""

    def __init__(self, sample: bool):
        self.sample, self.passes, self.spent = sample, [], 0.0
        self._run(PROBE_PASSES)

    def _run(self, n: int) -> float:
        t0 = time.perf_counter()
        for _ in range(n):
            s0 = time.perf_counter()
            probe_kernel()
            self.passes.append(time.perf_counter() - s0)
        return time.perf_counter() - t0

    def _tick(self, signum, frame):
        self.spent += self._run(1)

    @contextlib.contextmanager
    def sampling(self):
        if not self.sample:
            yield
            return
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def at_reference(self, wall: float) -> float:
        """wall, less the passes run during it, at reference speed."""
        self._run(PROBE_PASSES)
        return (wall - self.spent) * PROBE_REF_S / statistics.fmean(self.passes)


def measure_setup(inp) -> float:
    """Seconds from starting a fresh interpreter until it has imported
    scoresys and loaded the workload's table and coefficient set."""
    env = {k: v for k, v in os.environ.items() if k != "SLIM_BUDGET_S"}
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CODE, SRC, inp.csv,
                           inp.coefset], stdout=subprocess.PIPE, text=True,
                          env=env, cwd=ROOT) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        child.stdout.read()
    check(line.strip() == "ready" and child.returncode == 0,
          f"set-up child exited {child.returncode}")
    return elapsed


def end_to_end(times: dict, path) -> dict:
    """Each metric sums its calls over the C0 path, each call's time
    being the mean over its repeats in all of the run's rounds."""
    def mean(label, c0=None):
        return statistics.fmean(times[(label, c0)])
    return {"train_s": sum(mean("train", c0) for c0 in path),
            "budget_return_s": mean("train_budget"),
            "cv_s": mean("cv"),
            "export_verify_s": sum(mean("export-mip", c0) + mean("verify", c0)
                                   for c0 in path)}


class Bench:
    """One workload's inputs, the CLI operations on them and their checks."""

    def __init__(self, inp, work: str):
        from scoresys import cli, load_csv, mipmodel
        from scoresys.exactnum import fraction_str
        self.cli, self.mip, self.fraction_str = cli, mipmodel, fraction_str
        self.inp, self.spec, self.work = inp, inp.spec, work
        self.tracer = None
        self.attempted = self.failed = 0
        with open(inp.csv, encoding="utf-8") as fh:
            self.table = oracle.read_table(fh.read())
        t = self.table
        self.domains = oracle.domains_for(self.spec.coefset, t.names)
        self.l1max = oracle.max_l1(self.domains)
        self.budget_l1max = oracle.max_l1(oracle.domains_for(BUDGET_SET, t.names))
        check(all(c0 >= Fraction(1, t.n) for c0 in self.spec.path),
              "every c0 on the path must be at least 1/n")
        self.folds = workloads.fold_of(t.y)
        self.cv_bytes = None
        self.rejects_checked = False
        self.expected = self._exhaustive() if self.spec.exhaustive else None
        self.dataset = load_csv(inp.csv)  # what the stand-in solver reads

    def _exhaustive(self) -> dict:
        """Optimum of every train and cv problem by enumeration."""
        t, path = self.table, self.spec.path
        lat = oracle.Lattice(t, self.domains)
        sets = [np.arange(t.n)] + [np.flatnonzero(self.folds != f) for f in range(CV_K)]
        problems = [(s, c0) for c0 in path for s in range(len(sets))]
        exp = {"train": {}, "cv": {}}
        for (s, c0), (i, obj) in zip(problems, lat.optima(sets, problems)):
            vec = lat.vector(i)
            if s == 0:
                exp["train"][c0] = (vec, obj)
                continue
            train = t.subset(sets[s])
            test = t.subset(np.flatnonzero(self.folds == s - 1))
            exp["cv"][(c0, s - 1)] = (
                Fraction(oracle.misclassified(train, vec), train.n),
                Fraction(oracle.misclassified(test, vec), test.n),
                sum(1 for c in vec[1:] if c != 0))
        return exp

    # --- operations -------------------------------------------------------------

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def op(self, label: str, argv, sample: bool = True
           ) -> tuple[float, float, str | None]:
        """One in-process CLI call; returns its wall time, that time at
        reference speed, and stdout (None when it exited with an error).
        Without sample, or in the traced round (whose spans must time the
        layers alone), the machine's speed is probed only around the
        call, which then runs undisturbed."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        speed = SpeedProbe(sample and self.tracer is None)
        gc.collect()  # start every call from the heap a fresh process has
        t0 = time.perf_counter()
        with self._span(f"cli.{label}"), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err), speed.sampling():
            rc = self.cli.main(argv)
        elapsed = time.perf_counter() - t0
        scaled = speed.at_reference(elapsed)
        if rc != 0:
            self.failed += 1
            print(f"{label} exited {rc}: {err.getvalue().strip()}", file=sys.stderr)
            return elapsed, scaled, None
        return elapsed, scaled, out.getvalue()

    def stand_in(self, lp: str, model_path: str, sol: str):
        """Plays the external MIP solver: completes the certified model's
        coefficients to a full assignment of the exported program."""
        with self._span("bench.stand_in"):
            with open(lp, encoding="utf-8") as fh:
                text = fh.read()
            m = self.mip.parse_lp(text)
            check(self.mip.write_lp(m) == text,
                  f"{os.path.basename(lp)}: write_lp(parse_lp(text)) != text")
            with open(model_path, encoding="utf-8") as fh:
                coefs = oracle.model_coefs(json.load(fh), self.table)
            a = self.mip.complete_assignment(m, self.dataset, coefs)
        with open(sol, "w", encoding="utf-8") as fh:
            fh.writelines(f"{k} {self.fraction_str(v)}\n" for k, v in a.items())

    def round(self, reps: dict, between=None) -> dict:
        """reps[kind] repetitions of each of the four CLI paths, dealt
        round-robin so that the repeats of every call spread over the
        whole round; between(), when given, is called after each of the
        max(reps.values()) passes.  res["walls"][(command, c0)] lists
        the wall times, res["times"][(command, c0)] the same at reference
        speed."""
        res = {"walls": {}, "times": {}, "train": [], "budget": [], "cv": [],
               "verify": []}
        steps = {"train": self._train, "budget": self._budget, "cv": self._cv,
                 "export_verify": self._export_verify}
        for r in range(max(reps.values())):
            for kind in REP_KINDS:
                if r < reps[kind]:
                    steps[kind](r, res)
            if between is not None:
                between()
        return res

    def _timed(self, res: dict, label: str, c0, argv, sample=True) -> str | None:
        wall, scaled, out = self.op(label, argv, sample)
        res["walls"].setdefault((label, c0), []).append(wall)
        res["times"].setdefault((label, c0), []).append(scaled)
        return out

    def _train(self, r: int, res: dict):
        inp, sweep = self.inp, []
        for i, c0 in enumerate(self.spec.path):
            model = os.path.join(self.work, f"model-{r}-{i}.json")
            out = self._timed(res, "train", c0, [
                "train", "--data", inp.csv, "--coefset", inp.coefset, "--c0", num(c0),
                "--jobs", "1", "--out", model])
            sweep.append((c0, out, model))
        res["train"].append(sweep)

    def _budget(self, r: int, res: dict):
        inp = self.inp
        model = os.path.join(self.work, f"budget-{r}.json")
        out = self._timed(res, "train_budget", None, [
            "train", "--data", inp.csv, "--coefset", inp.budget_coefset,
            "--c0", num(BUDGET_C0), "--budget", repr(self.spec.budget_s), "--jobs", "1",
            "--out", model], sample=False)  # probe passes would eat into B
        res["budget"].append((out, model))

    def _cv(self, r: int, res: dict):
        inp = self.inp
        cv_csv = os.path.join(self.work, f"cv-{r}.csv")
        cv_json = os.path.join(self.work, f"cv-{r}.json")
        out = self._timed(res, "cv", None, [
            "cv", "--data", inp.csv, "--coefset", inp.coefset,
            "--c0-grid", ",".join(num(c0) for c0 in self.spec.path),
            "--k", str(CV_K), "--seed", str(CV_SEED), "--jobs", "1",
            "--out-csv", cv_csv, "--out-json", cv_json])
        res["cv"].append((out, cv_csv, cv_json))

    def _export_verify(self, r: int, res: dict):
        """Exports and verifies the round's first train sweep's models;
        the solution files are written once per run and reused."""
        inp, sweep = self.inp, []
        for i, (c0, out, model) in enumerate(res["train"][0]):
            lp = os.path.join(self.work, f"model-{r}-{i}.lp")
            sol = os.path.join(self.work, f"model-0-{i}.sol")
            eout = self._timed(res, "export-mip", c0, [
                "export-mip", "--data", inp.csv, "--coefset", inp.coefset,
                "--c0", num(c0), "--out", lp])
            if eout is None or out is None:
                continue
            if not os.path.exists(sol):
                self.stand_in(lp, model, sol)
            vout = self._timed(res, "verify", c0, [
                "verify", "--model", lp, "--solution", sol, "--data", inp.csv,
                "--coefset", inp.coefset, "--c0", num(c0)])
            sweep.append((c0, vout, lp, sol))
        res["verify"].append(sweep)

    # --- checks -------------------------------------------------------------------

    def check_round(self, res: dict):
        for sweep in res["train"]:
            models = self.check_train(sweep)
        for out, model in res["budget"]:
            self.check_budget(out, model)
        for out, cv_csv, cv_json in res["cv"]:
            if out is None:
                continue
            blobs = []
            for path in (cv_csv, cv_json):
                with open(path, "rb") as fh:
                    blobs.append(fh.read())
            if self.cv_bytes is None:
                self.cv_bytes = blobs
            check(blobs == self.cv_bytes, "cv CSV or JSON differs between repeats")
            self.check_cv(blobs[0].decode(), models)
        first = {}
        for sweep in res["verify"]:
            for c0, vout, lp, sol in sweep:
                with open(lp, "rb") as fh:
                    text = fh.read()
                check(first.setdefault(c0, text) == text,
                      f"export c0={c0}: LP file differs between repeats")
                if vout is None:
                    continue
                what = f"verify c0={c0}"
                check(field(vout, "verification") == "ok", f"{what}: not ok")
                oracle.check_printed(vout, "objective", models[c0][0].total, what)
        if res["verify"] and res["verify"][0] and not self.rejects_checked:
            c0, _, lp, sol = res["verify"][0][-1]
            self.check_rejects(c0, lp, sol)
            self.rejects_checked = True

    def check_train(self, sweep) -> dict:
        """Checks one sweep of the train path; returns {c0: (value, coefs)}."""
        t = self.table
        models = {}
        for c0, out, model in sweep:
            if out is None:
                continue
            what = f"train c0={c0}"
            check(field(out, "status") == "optimal",
                  f"{what}: status {field(out, 'status')}")
            with open(model, encoding="utf-8") as fh:
                coefs = oracle.model_coefs(json.load(fh), t)
            val = oracle.objective(t, coefs, c0, self.l1max)
            oracle.check_printed(out, "objective", val.total, what)
            if self.expected is not None:
                vec, obj = self.expected["train"][c0]
                check(val.total == obj, f"{what}: certified {val.total}, "
                      f"enumeration finds {obj}")
                check(coefs == vec, f"{what}: model {coefs} is not the "
                      f"tie-broken optimum {vec}")
            else:
                oracle.check_local(t, coefs, self.domains, c0, self.l1max, what)
            models[c0] = (val, coefs)
        oracle.check_path([(c0, v.total, v.nnz) for c0, (v, _) in
                           sorted(models.items())], "train path")
        return models

    def check_budget(self, out, model):
        if out is None:
            return
        check(field(out, "status") in ("optimal", "feasible_budget_exhausted"),
              f"budgeted train: status {field(out, 'status')}")
        gap = float(field(out, "gap"))
        check(0 <= gap <= 1, f"budgeted train: gap {gap} outside [0, 1]")
        with open(model, encoding="utf-8") as fh:
            coefs = oracle.model_coefs(json.load(fh), self.table)
        val = oracle.objective(self.table, coefs, BUDGET_C0, self.budget_l1max)
        oracle.check_printed(out, "objective", val.total, "budgeted train")

    def check_cv(self, text: str, path_models: dict):
        t, sp = self.table, self.spec
        lines = text.splitlines()
        check(lines[0] == CV_HEADER, f"cv CSV header {lines[0]!r}")
        cells = [ln.split(",") for ln in lines[1:]]
        check(len(cells) == len(sp.path) * CV_K, f"cv CSV has {len(cells)} cells")
        for (c0, fold), row in zip(itertools.product(sp.path, range(CV_K)), cells):
            what = f"cv c0={c0} fold={fold}"
            check(Fraction(row[0]) == c0 and int(row[1]) == fold, f"{what}: row {row}")
            check(row[5] == "optimal" and float(row[6]) == 0.0,
                  f"{what}: status {row[5]}, gap {row[6]}")
            train = t.subset(np.flatnonzero(self.folds != fold))
            mis = round(float(row[2]) * train.n)
            check(oracle.same_number(row[2], Fraction(mis, train.n)),
                  f"{what}: train error {row[2]} is not a count over {train.n}")
            if self.expected is not None:
                tr, te, size = self.expected["cv"][(c0, fold)]
                check(oracle.same_number(row[2], tr) and oracle.same_number(row[3], te)
                      and int(row[4]) == size,
                      f"{what}: reported {row[2:5]}, enumeration gives "
                      f"{[str(tr), str(te), size]}")
                continue
            # the cell's optimum costs at least its loss plus c0 per
            # non-intercept coefficient, and at most what any certified
            # full-data model costs on the same training fold
            floor = Fraction(mis, train.n) + c0 * int(row[4])
            ceiling = min(oracle.objective(train, coefs, c0, self.l1max).total
                          for _, coefs in path_models.values())
            check(floor <= ceiling, f"{what}: reported optimum is at least {floor}, "
                  f"but a full-data model costs {ceiling} on the fold")

    def check_rejects(self, c0: Fraction, lp: str, sol: str):
        """verify must reject the completed solution with one z_i flipped."""
        with open(sol, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        zs = [i for i, ln in enumerate(lines) if ln.startswith("z_")]
        pick = next((i for i in zs if lines[i].split()[1] == "1"), zs[0])
        name, value = lines[pick].split()
        lines[pick] = f"{name} {1 - int(value)}"
        bad = sol + ".flipped"
        with open(bad, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = self.cli.main(["verify", "--model", lp, "--solution", bad,
                                "--data", self.inp.csv, "--coefset", self.inp.coefset,
                                "--c0", num(c0)])
        check(rc == 1, f"verify exited {rc} on a solution with {name} flipped")


# --- traced run -------------------------------------------------------------------

def _solve_attrs(r) -> dict:
    return {"nodes": r.nodes_explored, "seed_s": r.trace[0].elapsed_s,
            "status": r.status, "lower_bound": float(r.lower_bound),
            "gap": r.gap, "objective": float(r.objective.total)}


def _median_span(tr: Tracer, name: str, under: str | None = None) -> float:
    return statistics.median(tr.duration(s) for s in tr.find(name, under))


def traced_metrics(b: Bench, tr: Tracer) -> dict:
    from scoresys import (ScoringSystem, TrainConfig, cli, evaluate, harness,
                          load_csv, load_domains, mipmodel, render_score_sheet,
                          solve, warm_start)
    from scoresys.objective import CompiledInstance
    once = dict.fromkeys(REP_KINDS, 1)
    plain = b.round(once)
    b.check_round(plain)
    for _, _, _, sol in plain["verify"][0]:
        os.remove(sol)  # so that the traced round runs the stand-in again
    b.tracer = tr
    targets = [
        (cli, "load_csv", "data.load_csv", None),
        (cli, "load_domains", "coefset.load_domains", None),
        (cli, "solve", "solver.solve", _solve_attrs),
        (harness, "solve", "solver.solve", _solve_attrs),
        (harness, "evaluate", "objective.evaluate", None),
        (cli, "run_cv", "harness.run_cv",
         lambda rep: {"cell_s": [r.runtime_s for r in rep.records]}),
        (cli, "build_model", "mipmodel.build_model", None),
        (cli, "write_lp", "mipmodel.write_lp", None),
        (cli, "parse_lp", "mipmodel.parse_lp", None),
        (cli, "read_solution", "mipmodel.read_solution", None),
        (cli, "verify_solution", "mipmodel.verify_solution", None),
        (cli, "render_score_sheet", "report.render_score_sheet", None),
        (mipmodel, "parse_lp", "mipmodel.parse_lp", None),
        (mipmodel, "write_lp", "mipmodel.write_lp", None),
        (mipmodel, "complete_assignment", "mipmodel.complete_assignment", None),
    ]
    try:
        with tr.patched(targets):
            traced = b.round(once)
    finally:
        b.tracer = None
    b.check_round(traced)
    traced_spans = len(tr.spans)

    m = {}
    m["data.load_csv_s"] = _median_span(tr, "data.load_csv")
    solves = tr.find("solver.solve", "cli.train")
    m["solver.seed_s"] = sum(s["seed_s"] for s in solves)
    m["solver.search_s"] = sum(tr.duration(s) - s["seed_s"] for s in solves)
    m["solver.nodes"] = sum(s["nodes"] for s in solves)
    m["solver.nodes_per_s"] = m["solver.nodes"] / m["solver.search_s"]
    (bud,) = tr.find("solver.solve", "cli.train_budget")
    m["solver.budget_overrun_s"] = tr.duration(bud) - b.spec.budget_s
    m["solver.budget_lower_bound"] = bud["lower_bound"]
    m["solver.budget_incumbent"] = bud["objective"]
    m["solver.budget_gap"] = bud["gap"]
    (cv,) = tr.find("harness.run_cv")
    m["harness.cell_s"] = statistics.median(cv["cell_s"])
    m["harness.overhead_s"] = tr.duration(cv) - sum(cv["cell_s"])
    m["mipmodel.build_model_s"] = tr.total("mipmodel.build_model", "cli.export-mip")
    m["mipmodel.write_lp_s"] = tr.total("mipmodel.write_lp", "cli.export-mip")
    m["mipmodel.parse_lp_s"] = tr.total("mipmodel.parse_lp", "cli.verify")
    m["mipmodel.verify_solution_s"] = tr.total("mipmodel.verify_solution", "cli.verify")
    m["mipmodel.complete_assignment_s"] = tr.total("mipmodel.complete_assignment",
                                                   "bench.stand_in")
    m["mipmodel.lp_bytes"] = sum(os.path.getsize(lp) for _, _, lp, _ in traced["verify"][0])
    # what the traced round's spans cost; the difference of the two
    # rounds' totals is seconds of noise on 20-30 s of solves
    m["tracing.overhead_s"] = span_cost() * traced_spans

    # layers no CLI call exposes, timed directly on the workload's inputs
    inp, path = b.inp, b.spec.path
    with tr.span("bench.layers"):
        for _ in range(LAYER_REPEATS):
            d = load_csv(inp.csv)
            with tr.span("data.exact_column"):
                for j in range(d.p):
                    d.exact_column(j)
        s = load_domains(inp.coefset, d.feature_names)
        cfg = TrainConfig(c0=path[0]).resolve(d.n, s)
        with open(plain["train"][0][0][2], encoding="utf-8") as fh:
            lam = oracle.model_coefs(json.load(fh), b.table)
        models = []
        for _, _, model in plain["train"][0]:
            with open(model, encoding="utf-8") as fh:
                models.append(ScoringSystem.from_json(fh.read()))
        for _ in range(LAYER_REPEATS):
            with tr.span("objective.compile"):
                CompiledInstance(d, s, cfg)
            with tr.span("objective.evaluate_direct"):
                evaluate(d, lam, cfg)
            with tr.span("solver.warm_start"):
                warm_start(d, s)
            with tr.span("report.render"):
                for model in models:
                    render_score_sheet(model)
                    model.to_json()
    m["data.exact_column_s"] = _median_span(tr, "data.exact_column")
    m["objective.compile_s"] = _median_span(tr, "objective.compile")
    m["objective.evaluate_s"] = _median_span(tr, "objective.evaluate_direct")
    m["solver.warm_start_s"] = _median_span(tr, "solver.warm_start")
    m["report.render_s"] = _median_span(tr, "report.render")

    # reference figures: the path solves again with jobs=2 threads, each
    # on a fresh Dataset as in a CLI call
    with tr.span("bench.jobs2"):
        for c0, _, model in plain["train"][0]:
            d = load_csv(inp.csv)
            with tr.span("solver.solve_jobs2") as rec:
                r = solve(d, s, TrainConfig(c0=c0), jobs=2)
            rec["nodes"] = r.nodes_explored
            with open(model, encoding="utf-8") as fh:
                lam = oracle.model_coefs(json.load(fh), b.table)
            check(r.status == "optimal" and list(r.best.coefficients) == lam,
                  f"jobs=2 solve at c0={c0} disagrees with jobs=1")
        sb = load_domains(inp.budget_coefset, d.feature_names)
        r = solve(d, sb, TrainConfig(c0=BUDGET_C0, time_budget_s=b.spec.budget_s),
                  jobs=2)
    m["solver.jobs2_path_ratio"] = (tr.total("solver.solve_jobs2")
                                    / sum(tr.duration(s) for s in solves))
    m["solver.jobs2_budget_lower_bound"] = float(r.lower_bound)
    m["solver.jobs2_budget_gap"] = r.gap
    return m


# --- main ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    if not os.path.isfile(os.path.join(SRC, "scoresys", "__init__.py")):
        print(f"run.py: no scoresys sources under {SRC}; run it from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ.pop("SLIM_BUDGET_S", None)  # it would override every --budget

    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK)
    correct, b = True, None
    try:
        inp = workloads.make_inputs(args.workload, args.seed, ROOT, work)
        try:
            b = Bench(inp, work)
            if args.trace:
                tr = Tracer()
                try:
                    values = traced_metrics(b, tr)
                finally:
                    tr.dump(os.path.join(WORK, f"spans-{args.workload}-{args.seed}.json"))
                wanted = declared["per_layer"]
            else:
                # set-up is sampled after each pass of a round, so that
                # its samples spread over the whole run
                setups = {"walls": [], "times": []}

                def sample_setup():
                    # the child is another process, perhaps on the other
                    # core: passes in this one would not sample its speed
                    speed = SpeedProbe(sample=False)
                    wall = measure_setup(inp)
                    setups["walls"].append(wall)
                    setups["times"].append(speed.at_reference(wall))

                walls, times = {}, {}
                start = time.perf_counter()
                while True:
                    t0 = time.perf_counter()
                    res = b.round(inp.spec.reps, sample_setup)
                    took = time.perf_counter() - t0
                    b.check_round(res)
                    for into, key in ((walls, "walls"), (times, "times")):
                        for call, dts in res[key].items():
                            into.setdefault(call, []).extend(dts)
                    if time.perf_counter() - start + took > args.seconds:
                        break
                raw = {"setup_s": statistics.fmean(setups["walls"]),
                       **end_to_end(walls, inp.spec.path)}
                print("wall-clock metrics:", json.dumps(raw), file=sys.stderr)
                # B is a deadline on the clock, so the budgeted train
                # stays in wall-clock seconds
                values = {"setup_s": statistics.fmean(setups["times"]),
                          **end_to_end(times, inp.spec.path),
                          "budget_return_s": raw["budget_return_s"]}
                wanted = declared["end_to_end"]
        except CheckFailed as e:
            print(f"check failed: {e}", file=sys.stderr)
            correct, values, wanted = False, {}, []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    attempted, failed = (b.attempted, b.failed) if b else (0, 0)
    print(json.dumps({"correct": correct and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
