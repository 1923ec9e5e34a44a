"""Tests of the benchmark's own checks, on a 40-row table.

    python3 -m pytest -q slimbench

Each check has to pass on what scoresys really prints and fail when
handed a wrong model: one coefficient perturbed (with the objective
left stale, and with the objective made to match the perturbed model)
or one objective misreported.
"""

from __future__ import annotations

import json
import os
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from oracle import CheckFailed  # noqa: E402

PATH = (Fraction(1, 20), Fraction(1, 10))
ONCE = dict.fromkeys(run.REP_KINDS, 1)


def decimal_text(f: Fraction) -> str:
    """How scoresys spells a number: its exact decimal when it has one,
    else the shortest float."""
    if not oracle._terminating(f):
        return repr(float(f))
    with localcontext() as ctx:
        ctx.prec = 60
        return str(Decimal(f.numerator) / Decimal(f.denominator))


def tiny_csv(path: str):
    rng = np.random.default_rng(7)
    x = rng.integers(0, 5, size=(40, 3))
    y = (x[:, 0] - x[:, 1] + rng.integers(-1, 2, size=40) > 0).astype(int)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("a,b,c,y\n")
        fh.writelines(",".join(map(str, r)) + f",{v}\n" for r, v in zip(x.tolist(), y))


def make_bench(tmp_path, exhaustive: bool) -> run.Bench:
    spec = workloads.Spec({"default": {"type": "integer", "max": 1}}, PATH,
                          exhaustive, 0.5, ONCE)
    files = {"csv": str(tmp_path / "tiny.csv"),
             "coefset": str(tmp_path / "set.json"),
             "budget_coefset": str(tmp_path / "budget.json")}
    tiny_csv(files["csv"])
    for key, doc in (("coefset", spec.coefset), ("budget_coefset", workloads.BUDGET_SET)):
        with open(files[key], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return run.Bench(workloads.Inputs(spec=spec, seed=0, **files), str(tmp_path))


@pytest.fixture(scope="module", params=[True, False], ids=["exhaustive", "properties"])
def bench_round(request, tmp_path_factory):
    b = make_bench(tmp_path_factory.mktemp("tiny"), request.param)
    res = b.round(ONCE)
    return b, res


def _model(res, k=0):
    c0, out, path = res["train"][0][k]
    with open(path, encoding="utf-8") as fh:
        return c0, out, path, json.load(fh)


def _rewrite(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _perturb(b, doc, c0):
    """Change one coefficient of doc so that the objective strictly rises;
    returns the perturbed document and its exact objective."""
    t = b.table
    base = oracle.objective(t, oracle.model_coefs(doc, t), c0, b.l1max).total
    for k, feat in enumerate(doc["features"]):
        for v in (-1, 0, 1):
            if v == feat["coef"]:
                continue
            alt = json.loads(json.dumps(doc))
            alt["features"][k]["coef"] = v
            val = oracle.objective(t, oracle.model_coefs(alt, t), c0, b.l1max).total
            if val > base:
                return alt, val
    raise AssertionError("no worsening single-coordinate move")


def _replace_objective(out: str, value: Fraction) -> str:
    lines = [f"objective: {decimal_text(value)} ({float(value):.6g})"
             if ln.startswith("objective:") else ln for ln in out.splitlines()]
    return "\n".join(lines) + "\n"


def test_real_outputs_pass(bench_round):
    b, res = bench_round
    assert b.failed == 0
    b.check_round(res)


def test_misreported_objective_fails(bench_round):
    b, res = bench_round
    c0, out, path, doc = _model(res)
    val = oracle.objective(b.table, oracle.model_coefs(doc, b.table), c0, b.l1max)
    bad = _replace_objective(out, val.total + Fraction(1, b.table.n))
    with pytest.raises(CheckFailed, match="printed objective"):
        b.check_round({**res, "train": [[(c0, bad, path)] + res["train"][0][1:]]})


def test_perturbed_coefficient_with_stale_objective_fails(bench_round, tmp_path):
    b, res = bench_round
    c0, out, _, doc = _model(res)
    alt, _ = _perturb(b, doc, c0)
    path = str(tmp_path / "perturbed.json")
    _rewrite(path, alt)
    with pytest.raises(CheckFailed, match="printed objective"):
        b.check_round({**res, "train": [[(c0, out, path)] + res["train"][0][1:]],
                       "verify": []})


def test_perturbed_coefficient_with_matching_objective_fails(bench_round, tmp_path):
    """A self-consistent but suboptimal model is caught by the optimality
    check: enumeration on one workload kind, local moves on the other."""
    b, res = bench_round
    c0, out, _, doc = _model(res)
    alt, val = _perturb(b, doc, c0)
    path = str(tmp_path / "perturbed.json")
    _rewrite(path, alt)
    want = "enumeration finds" if b.expected is not None else "lowers the objective"
    with pytest.raises(CheckFailed, match=want):
        b.check_round({**res, "train": [[(c0, _replace_objective(out, val), path)]
                                 + res["train"][0][1:]], "verify": []})


def test_path_order_checks():
    ok = [(Fraction(1, 20), Fraction(1, 5), 3), (Fraction(1, 10), Fraction(1, 4), 2)]
    oracle.check_path(ok, "path")
    with pytest.raises(CheckFailed, match="optimum falls"):
        oracle.check_path([ok[0], (ok[1][0], Fraction(1, 6), 2)], "path")
    with pytest.raises(CheckFailed, match="nnz rises"):
        oracle.check_path([ok[0], (ok[1][0], ok[1][1], 4)], "path")


def test_misreported_budget_objective_fails(bench_round):
    b, res = bench_round
    out, path = res["budget"][0]
    with open(path, encoding="utf-8") as fh:
        coefs = oracle.model_coefs(json.load(fh), b.table)
    val = oracle.objective(b.table, coefs, workloads.BUDGET_C0, b.budget_l1max).total
    bad = _replace_objective(out, val + Fraction(1, 1000))
    with pytest.raises(CheckFailed, match="budgeted train"):
        b.check_round({**res, "budget": [(bad, path)]})


def test_misreported_verify_objective_fails(bench_round):
    b, res = bench_round
    c0, vout, lp, sol = res["verify"][0][0]
    c0m, out, path, doc = _model(res)
    assert c0 == c0m
    val = oracle.objective(b.table, oracle.model_coefs(doc, b.table), c0, b.l1max).total
    bad = _replace_objective(vout, val + Fraction(1, b.table.n))
    with pytest.raises(CheckFailed, match="verify"):
        b.check_round({**res, "verify": [[(c0, bad, lp, sol)] + res["verify"][0][1:]]})


def test_tampered_cv_report_fails(bench_round, tmp_path):
    b, res = bench_round
    out, cv_csv, cv_json = res["cv"][0]
    with open(cv_csv, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    # a train error of 1 is a count, but no optimum misclassifies every row
    for col, new in ((2, "1"), (5, "feasible_budget_exhausted")):
        cells = lines[1].split(",")
        cells[col] = new
        bad = str(tmp_path / f"cv{col}.csv")
        with open(bad, "w", encoding="utf-8") as fh:
            fh.write("\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n")
        b.cv_bytes = None  # compare against the oracle, not the earlier bytes
        with pytest.raises(CheckFailed, match="cv"):
            b.check_round({**res, "cv": [(out, bad, cv_json)]})
    b.cv_bytes = None


def test_lattice_matches_brute_force():
    t = oracle.read_table("a,b,y\n1,0,1\n0,1,0\n1,1,1\n0,0,0\n1,0,0\n")
    doms = oracle.domains_for({"default": {"type": "integer", "max": 1}}, t.names)
    lat = oracle.Lattice(t, doms)
    c0 = Fraction(1, 4)
    ((i, obj),) = lat.optima([np.arange(t.n)], [(0, c0)])
    l1max = oracle.max_l1(doms)
    vals = [(oracle.objective(t, lat.vector(k), c0, l1max).total,
             sum(abs(v) for v in lat.vector(k)), lat.vector(k)) for k in range(lat.count)]
    best = min(vals)
    assert obj == best[0] and lat.vector(i) == best[2]
