"""The exported MIP against an independent solver: HiGHS
(scipy.optimize.milp) solves the LP text, parsed back, to a zero
relative gap; its solution must pass verify_solution, and the verified
objective must equal the exact optimum.  scipy is not a dependency of
scoresys, so these tests skip without it.  Every n has a terminating
1/n, so the LP text encodes the objective exactly."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from scoresys.coefset import CoefficientSet, Tier, bounded_integers, explicit_values, uniform
from scoresys.mipmodel import build_model, parse_lp, verify_solution, write_lp
from scoresys.objective import TrainConfig, evaluate
from scoresys.solver import OPTIMAL, solve

from helpers import rand_dataset

opt = pytest.importorskip("scipy.optimize")


def _highs(m) -> dict:
    """HiGHS's optimal assignment of m, as name -> float."""
    names = [v.name for v in m.variables]
    col = {name: i for i, name in enumerate(names)}
    c = np.zeros(len(names))
    for name, k in m.objective:
        c[col[name]] = float(k)
    rows = m.linear_constraints
    a = np.zeros((len(rows), len(names)))
    lo, hi = np.full(len(rows), -np.inf), np.full(len(rows), np.inf)
    for i, row in enumerate(rows):
        for name, k in row.terms:
            a[i, col[name]] = float(k)
        if row.sense != "<=":
            lo[i] = float(row.rhs)
        if row.sense != ">=":
            hi[i] = float(row.rhs)
    bounds = opt.Bounds([-np.inf if v.lower is None else float(v.lower) for v in m.variables],
                        [np.inf if v.upper is None else float(v.upper) for v in m.variables])
    res = opt.milp(c, constraints=opt.LinearConstraint(a, lo, hi), bounds=bounds,
                   integrality=[v.kind != "continuous" for v in m.variables],
                   options={"mip_rel_gap": 0, "time_limit": 60})
    assert res.status == 0, res.message  # optimal
    return dict(zip(names, res.x.tolist()))


def _tiered_set(p):
    tier = (Tier(Fraction(1, 100), frozenset({Fraction(0)})),
            Tier(Fraction(3, 100), frozenset({Fraction(1), Fraction(-1)})),
            Tier(Fraction(7, 100), frozenset({Fraction(2), Fraction(-2)})))
    return CoefficientSet(domains=(bounded_integers(2),) * p, tiers=(tier,) * p)


# variant, seed, n, coefficient set, class weights
CASES = {
    "standard": ("standard", 7, 50, uniform(bounded_integers(2), 4), (1, 1)),
    "weighted": ("weighted", 7, 64, uniform(bounded_integers(2), 4),
                 (Fraction(3, 2), Fraction(1, 2))),
    "pilm": ("pilm", 7, 50, _tiered_set(4), (1, 1)),
    "one_of_k": ("standard", 7, 40, uniform(explicit_values([0, 1, -1, 10, -10]), 4),
                 (1, 1)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_highs_optimum_of_the_exported_mip_is_the_exact_optimum(case):
    variant, seed, n, s, (w_pos, w_neg) = CASES[case]
    d = rand_dataset(np.random.default_rng(seed), n, s.p, intercept=True)
    cfg = TrainConfig(c0=Fraction(1, 100), c1=Fraction(1, 10**4),
                      w_pos=w_pos, w_neg=w_neg).resolve(n, s)
    m = parse_lp(write_lp(build_model(d, s, cfg, variant)))
    got = verify_solution(m, _highs(m), d, cfg)
    if variant == "pilm":
        # the tier model prices loss plus tier costs only
        want = min(ov.loss_term + ov.tier_term for ov in (
            evaluate(d, list(lam), cfg, tiers=s.tiers)
            for lam in itertools.product(*(dom.values for dom in s.domains))))
        assert got.loss_term + got.tier_term == want
    else:
        res = solve(d, s, cfg)
        assert res.status == OPTIMAL and res.gap == 0
        assert got.total == res.objective.total
