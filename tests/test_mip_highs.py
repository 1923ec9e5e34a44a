"""The exported MIP against an independent solver: HiGHS
(scipy.optimize.milp) solves the LP text, parsed back, to a zero
relative gap; its solution must pass verify_solution, and the verified
objective must equal the exact optimum.  scipy is not a dependency of
scoresys, so these tests skip without it.  Every n has a terminating
1/n, so the LP text encodes the objective exactly."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from scoresys.coefset import CoefficientSet, Tier, bounded_integers, explicit_values, uniform
from scoresys.data import Dataset, load_csv
from scoresys.mipmodel import build_model, parse_lp, verify_solution, write_lp
from scoresys.objective import CompiledInstance, TrainConfig
from scoresys.solver import OPTIMAL, solve

from helpers import bench_path, first_of_signed_rows, rand_dataset

opt = pytest.importorskip("scipy.optimize")
sparse = pytest.importorskip("scipy.sparse")


def _exported(d, s, cfg):
    return parse_lp(write_lp(build_model(d, s, cfg)))


def _highs(m, time_limit: float = 60) -> dict:
    """HiGHS's optimal assignment of m, as name -> float."""
    names = [v.name for v in m.variables]
    col = {name: i for i, name in enumerate(names)}
    c = np.zeros(len(names))
    for name, k in m.objective:
        c[col[name]] = float(k)
    rows = m.linear_constraints
    at = [(i, col[name], float(k)) for i, row in enumerate(rows) for name, k in row.terms]
    r, j, k = zip(*at)
    a = sparse.csr_array((k, (r, j)), shape=(len(rows), len(names)))
    lo, hi = np.full(len(rows), -np.inf), np.full(len(rows), np.inf)
    for i, row in enumerate(rows):
        if row.sense != "<=":
            lo[i] = float(row.rhs)
        if row.sense != ">=":
            hi[i] = float(row.rhs)
    bounds = opt.Bounds([-np.inf if v.lower is None else float(v.lower) for v in m.variables],
                        [np.inf if v.upper is None else float(v.upper) for v in m.variables])
    res = opt.milp(c, constraints=opt.LinearConstraint(a, lo, hi), bounds=bounds,
                   integrality=[v.kind != "continuous" for v in m.variables],
                   options={"mip_rel_gap": 0, "time_limit": time_limit})
    assert res.status == 0, res.message  # optimal
    return dict(zip(names, res.x.tolist()))


def _tiers(*groups):
    """Tiers of the value groups at costs 1/100, 3/100 and 7/100."""
    return tuple(Tier(Fraction(c, 100), frozenset(map(Fraction, g)))
                 for c, g in zip((1, 3, 7), groups))


PM2 = _tiers([0], [1, -1], [2, -2])
GAPPED = explicit_values([0, 1, -1, 10, -10])
C1 = Fraction(1, 10**4)

# seed, n, intercept column, coefficient set, config
CASES = {
    "standard": (7, 50, True, uniform(bounded_integers(2), 4),
                 TrainConfig(c0=Fraction(1, 100), c1=C1)),
    "weighted": (7, 64, True, uniform(bounded_integers(2), 4),
                 TrainConfig(c0=Fraction(1, 100), c1=C1, w_pos=Fraction(3, 2),
                             w_neg=Fraction(1, 2))),
    "pilm": (7, 50, True, CoefficientSet((bounded_integers(2),) * 4, (PM2,) * 4),
             TrainConfig(c0=Fraction(1, 100), c1=C1)),
    "one_of_k": (7, 40, True, uniform(GAPPED, 4), TrainConfig(c0=Fraction(1, 100), c1=C1)),
    # at c0 = 1/10 a model that prices loss and tiers alone (no c0, c1
    # terms) takes nnz 2 at total 0.7333 for the optimum's nnz 1, 0.6717
    "tiered_c0_tenth": (7, 50, False, CoefficientSet((bounded_integers(2),) * 3, (PM2,) * 3),
                        TrainConfig(c0=Fraction(1, 10))),
    # tiers on some coefficients, a gapped domain with and one without
    "partly_tiered": (7, 50, True, CoefficientSet(
        (bounded_integers(2), bounded_integers(2), GAPPED, GAPPED),
        (None, PM2, _tiers([0], [1, -1], [10, -10]), None)),
        TrainConfig(c0=Fraction(1, 100), c1=C1)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_highs_optimum_of_the_exported_mip_is_the_exact_optimum(case):
    seed, n, intercept, s, cfg = CASES[case]
    d = rand_dataset(np.random.default_rng(seed), n, s.p, intercept=intercept)
    cfg = cfg.resolve(n, s)
    m = _exported(d, s, cfg)
    got = verify_solution(m, _highs(m), d, cfg)
    res = solve(d, s, cfg)
    assert res.status == OPTIMAL and res.gap == 0
    assert got.total == res.objective.total


def test_highs_certifies_mammo_through_its_merged_rows():
    """mammo's 961 examples export as 74 loss rows, and HiGHS's optimum
    of that MIP verifies to the objective solve() certifies."""
    d = load_csv(bench_path("mammo.csv"))
    s = uniform(bounded_integers(1), d.p)
    cfg = TrainConfig(c0=Fraction(1, 500)).resolve(d.n, s)
    m = _exported(d, s, cfg)
    loss_rows = [c for c in m.linear_constraints if c.name.startswith("loss_")]
    assert len(loss_rows) == CompiledInstance(d, s, cfg).n_rows == 74
    res = solve(d, s, cfg)
    assert res.status == OPTIMAL and res.gap == 0
    assert verify_solution(m, _highs(m), d, cfg).total == res.objective.total


def test_highs_certifies_a_row_merged_across_the_classes():
    """With no intercept, (x, +1) and (-x, -1) have one signed row, so
    they share a loss row whose weight is w_pos/n + w_neg/n; HiGHS's
    optimum of the weighted MIP verifies to solve()'s."""
    rng = np.random.default_rng(23)
    pool = rng.integers(-3, 4, size=(12, 3))
    x = pool[rng.integers(0, len(pool), size=40)]
    y = rng.choice([-1, 1], size=40)
    flip = rng.random(40) < 0.5  # (x, y) -> (-x, -y): the same signed row
    x, y = np.where(flip[:, None], -x, x), np.where(flip, -y, y)
    d = Dataset(x=x.astype(np.float64), y=y, feature_names=("a", "b", "c"),
                intercept_index=None)
    s = uniform(bounded_integers(2), d.p)
    cfg = TrainConfig(c0=Fraction(1, 100), w_pos=Fraction(3, 2),
                      w_neg=Fraction(1, 2)).resolve(d.n, s)
    m = _exported(d, s, cfg)
    members: dict = {}
    for i, f in enumerate(first_of_signed_rows(d)):
        members.setdefault(f, []).append(i)
    assert any(len({int(d.y[i]) for i in ids}) == 2 for ids in members.values())
    weight = dict(m.objective)
    for f, ids in members.items():
        assert weight[f"z_{f}"] == sum(cfg.w_pos if d.y[i] == 1 else cfg.w_neg
                                       for i in ids) / d.n
    res = solve(d, s, cfg)
    assert res.status == OPTIMAL and res.gap == 0
    assert verify_solution(m, _highs(m), d, cfg).total == res.objective.total


def test_highs_certifies_criterion_4s_mip():
    """Criterion 4's MIP (mammo, -100..100, c0 = 2/1000) is certified by
    HiGHS (0.9 s measured on 2 cores; the limit here leaves headroom
    for a loaded machine), and its verified optimum is no worse than
    the incumbent scoresys reaches in 5 s."""
    d = load_csv(bench_path("mammo.csv"))
    s = uniform(bounded_integers(100), d.p)
    cfg = TrainConfig(c0=Fraction(2, 1000)).resolve(d.n, s)
    m = _exported(d, s, cfg)
    got = verify_solution(m, _highs(m, time_limit=30), d, cfg)
    res = solve(d, s, replace(cfg, time_budget_s=5.0))
    assert got.total <= res.objective.total
