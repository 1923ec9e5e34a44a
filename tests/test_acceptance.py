"""Deliverable acceptance checks, one test per stated criterion.

Each test prints a single summary line on success; `pytest -v` gives
the pass/fail line per criterion.  The two benchmark-dominance checks
first try a short budget and only fall back to the full 300 s budget
when the short run has not already met the target; SLIM_BUDGET_S
overrides both.
"""

import itertools
import json
import math
import os
import time
from dataclasses import replace
from decimal import Decimal, getcontext
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from scoresys.bounds import coprime_class_gap, farey_count, finite_class_gap
from scoresys.coefset import (CoefficientSet, bounded_integers, coprime_reduce,
                              explicit_values, uniform)
from scoresys.data import load_csv
from scoresys.errors import VerifyError
from scoresys.harness import run_cv
from scoresys.mipmodel import (build_model, complete_assignment,
                               model_objective_value, verify_solution)
from scoresys.objective import TrainConfig, evaluate
from scoresys.report import ScoringSystem, induce_decision_table
from scoresys.solver import solve

from helpers import (bench_path, brute_solve, footnote_dataset, rand_coefset,
                     rand_dataset)


def _dominance_budgets():
    env = os.environ.get("SLIM_BUDGET_S")
    if env:
        return [float(env)]
    return [5.0, 300.0]


def _solve_until_dominant(d, s, cfg, target):
    res = None
    for budget in _dominance_budgets():
        res = solve(d, s, replace(cfg, time_budget_s=budget))
        if res.objective.total <= target:
            break
    return res


def test_criterion_01_oracle_equivalence():
    rng = np.random.default_rng(20120601)
    t0 = time.monotonic()
    for trial in range(200):
        n = int(rng.integers(1, 31))
        p = int(rng.integers(1, 5))
        d = rand_dataset(rng, max(n, 2), p)
        s = rand_coefset(rng, p, max_values=7)
        cfg = TrainConfig(c0=Fraction(int(rng.integers(1, 90)),
                                      1000)).resolve(d.n, s)
        want, _ = brute_solve(d, s, cfg)
        res = solve(d, s, cfg)
        assert res.status == "optimal", trial
        assert res.objective.total == want, trial
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"oracle run took {elapsed:.2f}s"
    print(f"criterion 1 PASS: 200/200 exact matches in {elapsed:.2f}s")


def test_criterion_02_footnote_instance():
    d = footnote_dataset()
    s = uniform(bounded_integers(1), 2)
    cfg = TrainConfig(c0=Fraction(1, 10))
    t0 = time.monotonic()
    res = solve(d, s, cfg)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    assert res.objective.misclassified_count == 0
    assert res.objective.nnz == 1
    rcfg = cfg.resolve(d.n, s)
    alt = evaluate(d, [0, 1], rcfg)
    assert alt.total == res.objective.total  # both optima attain it
    assert res.best.coefficients == (Fraction(-1), Fraction(0))
    print(f"criterion 2 PASS: tie-break (-1,0) at objective "
          f"{float(res.objective.total):.6f} in {elapsed:.3f}s")


def test_criterion_03_breastcancer_dominance():
    d = load_csv(bench_path("breastcancer.csv"))
    assert d.n == 683
    vals = [0, 1, -1, 5, -5, 10, -10, 50, -50, 100, -100, 500, -500]
    s = uniform(explicit_values(vals), d.p)
    cfg = TrainConfig(c0=Fraction(6, 1000))
    pub = [Fraction(0)] * d.p
    pub[d.feature_names.index("ClumpThickness")] = Fraction(1)
    pub[d.feature_names.index("UniformityOfCellShape")] = Fraction(1)
    pub[d.feature_names.index("BareNuclei")] = Fraction(1)
    pub[d.intercept_index] = Fraction(-10)
    rcfg = cfg.resolve(d.n, s)
    pub_ov = evaluate(d, pub, rcfg)
    err = float(pub_ov.error_rate)
    note = ""
    if abs(err - 0.037) > 0.02:
        note = f" (published-model error measured at {err:.4f}, outside " \
               f"0.037+-0.02; dominance remains the binding check)"
    res = _solve_until_dominant(d, s, rcfg, pub_ov.total)
    assert res.objective.total <= pub_ov.total, (
        f"incumbent {float(res.objective.total):.6f} vs published "
        f"{float(pub_ov.total):.6f}")
    print(f"criterion 3 PASS: incumbent {float(res.objective.total):.6f} <= "
          f"published {float(pub_ov.total):.6f}, published error "
          f"{err:.4f}{note}")


def test_criterion_04_mammo_dominance():
    d = load_csv(bench_path("mammo.csv"))
    assert d.n == 961
    s = uniform(bounded_integers(100), d.p)
    cfg = TrainConfig(c0=Fraction(2, 1000))
    pub = [Fraction(0)] * d.p
    pub[d.intercept_index] = Fraction(1)
    pub[d.feature_names.index("OvalShape")] = Fraction(-2)
    pub[d.feature_names.index("CircumscribedMargin")] = Fraction(-2)
    rcfg = cfg.resolve(d.n, s)
    pub_ov = evaluate(d, pub, rcfg)
    err = float(pub_ov.error_rate)
    note = ""
    if abs(err - 0.208) > 0.03:
        note = f" (published-model error measured at {err:.4f}, outside " \
               f"0.208+-0.03; dominance remains the binding check)"
    res = _solve_until_dominant(d, s, rcfg, pub_ov.total)
    assert res.objective.total <= pub_ov.total, (
        f"incumbent {float(res.objective.total):.6f} vs published "
        f"{float(pub_ov.total):.6f}")
    print(f"criterion 4 PASS: incumbent {float(res.objective.total):.6f} <= "
          f"published {float(pub_ov.total):.6f}, published error "
          f"{err:.4f}{note}")


def test_criterion_05_zero_model_law():
    rng = np.random.default_rng(55)
    for trial in range(20):
        n = int(rng.integers(2, 25))
        p = int(rng.integers(1, 4))
        d = rand_dataset(rng, n, p)
        s = uniform(bounded_integers(int(rng.integers(1, 5))), p)
        res = solve(d, s, TrainConfig(c0=Fraction(3, 2)))
        assert all(c == 0 for c in res.best.coefficients), trial
    print("criterion 5 PASS: C0=1.5 returned the zero model on 20/20 datasets")


def test_criterion_06_coprimality():
    rng = np.random.default_rng(66)
    nonzero = 0
    for trial in range(100):
        n = int(rng.integers(2, 15))
        p = int(rng.integers(1, 4))
        d = rand_dataset(rng, n, p)
        s = uniform(bounded_integers(int(rng.integers(2, 4))), p)
        cfg = TrainConfig(c0=Fraction(int(rng.integers(1, 60)), 1000))
        res = solve(d, s, cfg)
        lam = [int(c) for c in res.best.coefficients]
        assert tuple(lam) == coprime_reduce(lam), (trial, lam)
        nonzero += any(lam)
    print(f"criterion 6 PASS: gcd 1 or zero on 100/100 instances "
          f"({nonzero} nonzero)")


def test_criterion_07_weighted_reduction():
    rng = np.random.default_rng(77)
    for trial in range(50):
        n = int(rng.integers(2, 18))
        p = int(rng.integers(1, 3))
        d = rand_dataset(rng, n, p)
        s = uniform(bounded_integers(2), p)
        base = TrainConfig(c0=Fraction(int(rng.integers(1, 60)),
                                       1000)).resolve(n, s)
        unit = replace(base, w_pos=Fraction(1), w_neg=Fraction(1))
        lam = [int(rng.integers(-2, 3)) for _ in range(p)]
        assert evaluate(d, lam, unit).total == evaluate(d, lam, base).total
        a = solve(d, s, base)
        b = solve(d, s, unit)
        assert a.objective.total == b.objective.total, trial
        assert a.best.coefficients == b.best.coefficients, trial
    print("criterion 7 PASS: W+=W-=1 matches the unweighted path on 50/50")


def test_criterion_08_farey_counts():
    t0 = time.monotonic()
    for lam in range(1, 9):
        for p in range(1, 4):
            brute = 0
            for q in range(1, lam + 1):
                for a in itertools.product(range(q), repeat=p):
                    if gcd(*a, q) == 1:
                        brute += 1
            assert farey_count(lam, p) == brute, (lam, p)
    totient_running = 0
    for lam, phi in zip(range(1, 9), [1, 1, 2, 2, 4, 2, 6, 4]):
        totient_running += phi
        assert farey_count(lam, 1) == totient_running
    assert farey_count(5, 1) == 10
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"criterion 8 PASS: 24 (Lambda,P) pairs match brute force "
          f"in {elapsed:.3f}s")


def test_criterion_09_bound_formulas():
    getcontext().prec = 50
    rng = np.random.default_rng(99)
    worst = Decimal(0)
    for _ in range(20):
        lam = int(rng.integers(1, 60))
        p = int(rng.integers(1, 5))
        n = int(rng.integers(10, 10**6))
        delta = float(rng.choice([0.001, 0.01, 0.05, 0.1, 0.25]))

        count = (2 * lam + 1) ** p
        got1 = Decimal(repr(finite_class_gap(count, n, delta).bound_gap))
        want1 = ((Decimal(count + 1).ln() - Decimal(repr(delta)).ln())
                 / (2 * n)).sqrt()
        rel1 = abs(got1 - want1) / want1
        assert rel1 <= Decimal("1e-12")

        rep = coprime_class_gap(lam, p, n, delta)
        got2 = Decimal(repr(rep.bound_gap))
        want2 = ((Decimal(rep.hypothesis_count).ln()
                  - Decimal(repr(delta)).ln()) / (2 * n)).sqrt()
        rel2 = abs(got2 - want2) / want2
        assert rel2 <= Decimal("1e-12")
        worst = max(worst, rel1, rel2)
    print(f"criterion 9 PASS: 20/20 tuples within 1e-12 relative "
          f"(worst {worst:.2E})")


def test_criterion_10_mip_export_equivalence():
    rng = np.random.default_rng(1010)
    sizes = [4, 5, 8, 10, 16, 20, 25]  # decimal-friendly so equality is exact
    for trial in range(50):
        n = int(sizes[int(rng.integers(0, len(sizes)))])
        p = int(rng.integers(1, 3))
        d = rand_dataset(rng, n, p)
        doms = [bounded_integers(2) if rng.random() < 0.6
                else explicit_values([0, 1, -1, 3]) for _ in range(p)]
        s = CoefficientSet(domains=tuple(doms))
        cfg = TrainConfig(c0=Fraction(1, 100),
                          c1=Fraction(1, 10**4)).resolve(n, s)
        m = build_model(d, s, cfg)
        best = None
        for combo in itertools.product(*[dom.values for dom in s.domains]):
            a = complete_assignment(m, d, list(combo))
            val = model_objective_value(m, a)
            if best is None or val < best:
                best = val
        want, _ = brute_solve(d, s, cfg)
        assert best == want, trial
        opt = solve(d, s, cfg)
        a = complete_assignment(m, d, opt.best.coefficients)
        verify_solution(m, a, d, cfg)  # internal optimum accepted

    # ten constructed violations must all be rejected
    rejected = 0
    while rejected < 10:
        d = rand_dataset(rng, 5, 2)
        s = uniform(bounded_integers(2), 2)
        cfg = TrainConfig(c0=Fraction(1, 100),
                          c1=Fraction(1, 10**4)).resolve(5, s)
        m = build_model(d, s, cfg)
        a = complete_assignment(m, d, [Fraction(1), Fraction(-1)])
        kind = rejected % 5
        if kind == 0:
            flips = [k for k, v in a.items() if k.startswith("z_") and v == 1]
            if not flips:
                continue
            a[flips[0]] = 0
        elif kind == 1:
            a["lam_0"] = Fraction(9)
        elif kind == 2:
            a["alpha_1"] = Fraction(1, 2)
        elif kind == 3:
            a["beta_0"] = Fraction(0)
        else:
            a["I_1"] = a["I_1"] + 1
        with pytest.raises(VerifyError):
            verify_solution(m, a, d, cfg)
        rejected += 1
    print("criterion 10 PASS: 50/50 exported optima match; "
          "10/10 violations rejected")


def test_criterion_11_decision_table_fidelity():
    d = load_csv(bench_path("mammo.csv"))
    coefs = [Fraction(0)] * d.p
    coefs[d.intercept_index] = Fraction(1)
    coefs[d.feature_names.index("OvalShape")] = Fraction(-2)
    coefs[d.feature_names.index("CircumscribedMargin")] = Fraction(-2)
    m = ScoringSystem(coefficients=tuple(coefs), feature_names=d.feature_names,
                      intercept_index=d.intercept_index, feature_ranges=None,
                      provenance={})
    table = induce_decision_table(m, d)
    assert set(table.questions) == {"OvalShape", "CircumscribedMargin"}
    outcomes = {}
    for oval in (0, 1):
        for circ in (0, 1):
            got = table.predict({"OvalShape": oval,
                                 "CircumscribedMargin": circ})
            outcomes[(oval, circ)] = got
            assert got == (1 if (oval, circ) == (0, 0) else -1)
    print(f"criterion 11 PASS: outcomes {outcomes} match the published table")


def test_criterion_12_determinism():
    rng = np.random.default_rng(1212)
    d = rand_dataset(rng, 24, 3, intercept=True)
    s = uniform(bounded_integers(2), 3)
    cfg = TrainConfig(c0=Fraction(1, 24))
    grid = (Fraction(1, 24), Fraction(1, 4))
    r1 = run_cv(d, s, cfg, c0_grid=grid, k=3, seed=7)
    r2 = run_cv(d, s, cfg, c0_grid=grid, k=3, seed=7)
    assert r1.to_csv() == r2.to_csv()
    assert r1.to_json() == r2.to_json()

    a = solve(d, s, cfg, jobs=1)
    b = solve(d, s, cfg, jobs=4)
    assert a.best.to_json() == b.best.to_json()
    assert a.objective.total == b.objective.total
    print("criterion 12 PASS: byte-identical cv reports and jobs-1/4 models")
