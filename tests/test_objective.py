import copy
import math
from fractions import Fraction

import numpy as np
import pytest

from scoresys.coefset import (CoefficientSet, Tier, bounded_integers,
                              explicit_values, uniform)
from scoresys.data import Dataset
from scoresys.errors import ConfigError
from scoresys.exactnum import common_denominator, scaled_int
from scoresys.objective import (CompiledInstance, ObjectiveValue, TrainConfig,
                                _merge_rows, c0_range, cost_sum_dtype,
                                default_c1, default_weights, evaluate,
                                score_ints)
from scoresys.solver import OPTIMAL, solve

from helpers import brute_solve, first_of_signed_rows, rand_dataset, rand_dup_dataset


def _tiny():
    x = np.array([[1.0, 2.0], [1.0, -1.0], [1.0, 0.0]])
    y = np.array([1, -1, 1])
    return Dataset(x=x, y=y, feature_names=("(Intercept)", "f"),
                   intercept_index=0)


def test_config_fractions_and_validation():
    cfg = TrainConfig(c0=0.01, c1="0.001", w_pos=2, w_neg="0.5")
    assert cfg.c0 == Fraction(1, 100)
    assert cfg.c1 == Fraction(1, 1000)
    assert cfg.w_pos == 2 and cfg.w_neg == Fraction(1, 2)
    assert cfg.gamma == Fraction(1, 10)
    with pytest.raises(ConfigError):
        TrainConfig(c0=-0.1)
    with pytest.raises(ConfigError):
        TrainConfig(c0=0.1, w_pos=0)
    with pytest.raises(ConfigError):
        TrainConfig(c0=0.1, gamma=0)
    with pytest.raises(ConfigError):
        TrainConfig(c0=0.1, time_budget_s=0)
    with pytest.raises(ConfigError):
        TrainConfig(c0=0.1, gap_tolerance=1.0)


def test_config_allows_large_c0():
    # c0 above the meaningful range is legal; it just forces lam = 0
    cfg = TrainConfig(c0=1.5)
    assert cfg.c0 == Fraction(3, 2)


def test_resolve_fills_default_c1():
    s = uniform(bounded_integers(10), 2)  # max_l1 = 20
    cfg = TrainConfig(c0=Fraction(1, 100)).resolve(50, s)
    assert cfg.c1 == default_c1(50, Fraction(1, 100), Fraction(20))
    assert cfg.c1 == Fraction(1, 100) / 40


def test_resolve_rejects_meaningless_c1():
    s = uniform(bounded_integers(10), 2)
    with pytest.raises(ConfigError):
        TrainConfig(c0=Fraction(1, 100), c1=Fraction(1)).resolve(50, s)
    with pytest.raises(ConfigError):
        TrainConfig(c0=Fraction(1, 100), c1=Fraction(0)).resolve(50, s)


def test_c0_range():
    lo, hi = c0_range(200)
    assert lo == Fraction(1, 200) and hi == 1
    with pytest.raises(ConfigError):
        c0_range(0)


def test_default_c1_values():
    # half of min(1/n, c0) / max_l1
    assert default_c1(100, Fraction(1, 2), 10) == Fraction(1, 2000)
    assert default_c1(100, Fraction(1, 1000), 10) == Fraction(1, 20000)
    assert default_c1(10, Fraction(1, 2), 0) == 0
    with pytest.raises(ConfigError):
        default_c1(10, 0, 10)


def test_default_weights():
    w_pos, w_neg = default_weights(10, 2)
    assert w_pos == Fraction(10, 4) and w_neg == Fraction(10, 16)
    # all-zero model then loses exactly 1/2 per class
    with pytest.raises(ConfigError):
        default_weights(10, 0)
    with pytest.raises(ConfigError):
        default_weights(10, 10)


def test_score_ints_exact():
    d = _tiny()
    scores, den = score_ints(d, [Fraction(1, 2), Fraction(1)])
    assert den == 2
    assert scores.tolist() == [5, -1, 1]  # (0.5 + f) * 2


def _wide_table() -> Dataset:
    """An integral column at +-2**53 beside a fractional one at
    denominator 10**4: the integral column's numerators are int64, but
    their products with the multiplier that brings them to a common
    denominator with the other column leave int64 (2**53 * 10**4 >
    2**63), and so does their sum over the 1030 positive rows
    (1030 * 2**53 > 2**63)."""
    big = 2.0**53
    a = [big] * 1030 + [-big, 3.0, -(big - 1), 0.0, big, -big]
    b = [(0.0001, 1.5, -2.25)[i % 3] for i in range(1030)]
    b += [-0.0003, 0.0001, 2.5, -1.5, 0.5, 1.25]
    x = np.column_stack([np.ones(len(a)), a, b])
    return Dataset(x=x, y=np.array([1] * 1030 + [-1] * 6),
                   feature_names=("(Intercept)", "a", "b"), intercept_index=0)


def test_int64_columns_widen_wherever_a_product_leaves_int64():
    """Every consumer of an int64 exact column agrees with a cell-by-cell
    Fraction reference on a table whose products and sums leave int64:
    the class-mean differences, CompiledInstance's margins, evaluate(),
    the optimum of brute_solve and the exported MIP's big-M and loss
    terms."""
    from scoresys.exactnum import to_fraction
    from scoresys.mipmodel import build_model
    from scoresys.solver import _class_mean_diffs
    d = _wide_table()
    assert d.exact_column(1)[0].dtype == np.int64
    cells = [[to_fraction(v) for v in row] for row in d.x.tolist()]
    ys = d.y.tolist()
    s = uniform(bounded_integers(1), d.p)
    cfg = TrainConfig(c0=Fraction(1, 100)).resolve(d.n, s)

    pos = [row for row, y in zip(cells, ys) if y == 1]
    neg = [row for row, y in zip(cells, ys) if y == -1]
    nums, den = _class_mean_diffs(d)
    assert [Fraction(a, den) for a in nums] == [sum(r[j] for r in pos) / len(pos)
                                                - sum(r[j] for r in neg) / len(neg)
                                                for j in range(d.p)]

    ci = CompiledInstance(d, s, cfg)
    assert ci.margin_dtype == object
    best = None
    for lam in s.enumerate():
        margins = [y * sum(c * v for c, v in zip(row, lam)) for row, y in zip(cells, ys)]
        loss = sum(cfg.w_pos if y == 1 else cfg.w_neg
                   for m, y in zip(margins, ys) if m <= 0) / d.n
        l1 = sum(map(abs, lam))
        total = loss + cfg.c0 * sum(v != 0 for v in lam) + cfg.c1 * l1
        assert evaluate(d, lam, cfg).total == total, lam
        got = sum(b * vi[vals.index(v)] for b, vi, vals, v
                  in zip(ci.b_cols, ci.vi, ci.values, lam))
        assert {Fraction(int(m), ci.margin_den) for m in got} == set(margins), lam
        best = min(best or (total, l1, lam), (total, l1, lam))
    assert brute_solve(d, s, cfg) == (best[0], best[2])

    # each example's loss row is the one named after the first example
    # with its signed row
    rows = {c.name: dict(c.terms) for c in build_model(d, s, cfg).linear_constraints
            if c.name.startswith("loss_")}
    firsts = first_of_signed_rows(d)
    assert sorted(rows) == sorted(f"loss_{i}" for i in set(firsts))
    for row, y, i in zip(cells, ys, firsts):
        terms = dict(rows[f"loss_{i}"])
        assert terms.pop(f"z_{i}") == cfg.gamma + sum(abs(c) for c in row)
        assert terms == {f"lam_{j}": y * c for j, c in enumerate(row) if c}


def test_evaluate_counts_zero_score_as_miss():
    d = _tiny()
    cfg = TrainConfig(c0=Fraction(1, 100), c1=Fraction(1, 1000))
    ov = evaluate(d, [0, 0], cfg)
    assert ov.misclassified_count == 3
    assert ov.loss_term == 1
    assert ov.nnz == 0 and ov.l0_term == 0 and ov.l1_term == 0
    assert ov.total == 1


def test_evaluate_terms():
    d = _tiny()
    cfg = TrainConfig(c0=Fraction(1, 100), c1=Fraction(1, 1000))
    # lam = (0, 1): scores 2, -1, 0 -> third example missed
    ov = evaluate(d, [0, 1], cfg)
    assert ov.misclassified_count == 1
    assert ov.loss_term == Fraction(1, 3)
    assert ov.l0_term == Fraction(1, 100)
    assert ov.l1_term == Fraction(1, 1000)
    assert ov.total == Fraction(1, 3) + Fraction(1, 100) + Fraction(1, 1000)
    assert ov.error_rate == Fraction(1, 3)
    assert ov.n == 3 and ov.tier_term == 0


def test_evaluate_weighted():
    d = _tiny()
    cfg = TrainConfig(c0=Fraction(1, 100), c1=Fraction(1, 1000),
                      w_pos=Fraction(2), w_neg=Fraction(1, 2))
    ov = evaluate(d, [0, 1], cfg)  # misses the third example, a positive
    assert ov.loss_term == Fraction(2, 3)
    ov2 = evaluate(d, [0, -1], cfg)  # scores -2, 1, 0: misses all three
    assert ov2.loss_term == Fraction(2 + 2 + Fraction(1, 2), 3)


def test_evaluate_tiers_add_to_penalties():
    d = _tiny()
    tier = (Tier(Fraction(1, 100), frozenset({Fraction(0)})),
            Tier(Fraction(4, 100), frozenset({Fraction(v) for v in
                                              (-10, -1, 1, 10)})))
    s = CoefficientSet(domains=(explicit_values([0, 1, -1, 10, -10]),) * 2,
                       tiers=(tier, tier))
    cfg = TrainConfig(c0=Fraction(1, 100), c1=Fraction(1, 1000))
    base = evaluate(d, [0, 1], cfg)
    ov = evaluate(d, [0, 1], cfg, tiers=s.tiers)
    assert ov.tier_term == Fraction(1, 100) + Fraction(4, 100)
    assert ov.total == base.total + ov.tier_term


def test_evaluate_rejects_shape_and_domainless_values():
    d = _tiny()
    cfg = TrainConfig(c0=Fraction(1, 100), c1=Fraction(1, 1000))
    with pytest.raises(ConfigError):
        evaluate(d, [1], cfg)


def test_mean_loss_equals_error_rate_when_unweighted():
    rng = np.random.default_rng(5)
    cfg = TrainConfig(c0=Fraction(1, 100), c1=Fraction(1, 10000))
    for _ in range(20):
        d = rand_dataset(rng, int(rng.integers(2, 20)), 2)
        lam = [int(rng.integers(-2, 3)), int(rng.integers(-2, 3))]
        ov = evaluate(d, lam, cfg)
        assert ov.loss_term == ov.error_rate
        assert ov.misclassified_count == sum(
            1 for i in range(d.n)
            if d.y[i] * (d.x[i] @ np.array(lam, dtype=float)) <= 0)


def test_objective_value_to_dict():
    d = _tiny()
    cfg = TrainConfig(c0=Fraction(1, 100), c1=Fraction(1, 1000))
    doc = evaluate(d, [0, 1], cfg).to_dict()
    assert doc["misclassified"] == 1
    assert doc["n"] == 3
    assert doc["total"] == pytest.approx(1 / 3 + 0.01 + 0.001)
    assert set(doc) >= {"total", "total_exact", "loss", "l0", "l1", "tier", "nnz"}


@pytest.mark.parametrize("merge", ["int64", "object", "beyond_int64", "int16",
                                   "int64_wide"])
def test_row_merge_groups_and_twins(merge):
    """Rows drawn with repeats from a pool, a random share of them
    negated, against a dict of row tuples: each group is one row tuple,
    numbered with its first row the least index of its rows, and the
    twin pairs are exactly the groups of opposite tuples, the one whose
    first nonzero entry is positive first.  Python-int columns, the
    beyond_int64 ones with magnitudes int64 cannot hold, group and pair
    as int64 ones do, and so do int64 cells up to 3 * 2**58 (int64_wide)."""
    rng = np.random.default_rng(67)
    scale = {"beyond_int64": 10**30, "int64_wide": 2**58}.get(merge, 1)
    dtype = {"object": object, "beyond_int64": object, "int16": np.int16}.get(merge, np.int64)
    for trial in range(60):
        n, p = int(rng.integers(1, 50)), int(rng.integers(1, 6))
        pool = rng.integers(-3, 4, size=(max(1, n // 3), p))
        rows = pool[rng.integers(0, len(pool), size=n)] * rng.choice([-1, 1], size=(n, 1))
        rows = rows.astype(object) * scale
        first, group, twin_a, twin_b = _merge_rows([rows[:, j].astype(dtype)
                                                    for j in range(p)])
        members: dict = {}
        for i, row in enumerate(rows.tolist()):
            members.setdefault(tuple(row), []).append(i)
        key_of = {}
        for key, ids in members.items():
            g = int(group[ids[0]])
            assert np.flatnonzero(group == g).tolist() == ids and first[g] == ids[0]
            key_of[g] = key
        assert len(first) == len(key_of) == len(members)
        pairs = {(key_of[a], key_of[b]) for a, b in zip(twin_a.tolist(), twin_b.tolist())}
        assert pairs == {(k, tuple(-v for v in k)) for k in members
                         if tuple(-v for v in k) in members
                         and next((v for v in k if v), 0) > 0}, trial
        assert (twin_b == twin_a + 1).all()


def test_compiled_instance_merges_rows_and_keeps_total_cost():
    rng = np.random.default_rng(61)
    for _ in range(20):
        n, p = int(rng.integers(2, 30)), int(rng.integers(1, 4))
        d = rand_dup_dataset(rng, n, p)
        s = uniform(bounded_integers(2), p)
        cfg = TrainConfig(c0=Fraction(1, 100), w_pos=Fraction(3)).resolve(n, s)
        ci = CompiledInstance(d, s, cfg)
        yx = {tuple(r) for r in (d.y[:, None] * d.x).tolist()}
        assert ci.n_rows == len(yx)
        want = sum(cfg.w_pos if yy == 1 else cfg.w_neg for yy in d.y.tolist()) / n
        assert Fraction(int(ci.cost.sum()), ci.pen_den) == want
        for a, b in zip(ci.twin_a, ci.twin_b):
            assert all(int(ci.b_cols[j][a]) == -int(ci.b_cols[j][b]) for j in range(p))


def _compiled_reference(d, s, cfg):
    """CompiledInstance's arrays built the way it first built them: in
    Python ints, the margin bound and the per-row costs by loops over
    the rows, and then cast to int64 when the bounds allow, the margin
    arrays to the narrowest of int16, int32 and int64 in which 8 times
    the margin bound and 4 times every |value| fit."""
    dom_vals = [dom.values for dom in s.domains]
    val_dens = [common_denominator(vs) for vs in dom_vals]
    col_dens = [d.exact_column(j)[1] for j in range(d.p)]
    margin_den = math.lcm(*(val_dens[j] * col_dens[j] for j in range(d.p)))
    pen_fracs = [[(cfg.c0 if v != 0 else 0) + cfg.c1 * abs(v) + s.tier_cost(j, v)
                  for v in vs] for j, vs in enumerate(dom_vals)]
    cost_pos, cost_neg = cfg.w_pos / d.n, cfg.w_neg / d.n
    pen_den = common_denominator([cost_pos, cost_neg] + [f for fs in pen_fracs for f in fs])
    l1_den = math.lcm(*val_dens)
    b_cols, vi, pen, l1i = [], [], [], []
    y = d.y.astype(object)
    margin_bound = 0
    for j in range(d.p):
        nums, cden = d.exact_column(j)
        b = y * nums.astype(object) * (margin_den // (val_dens[j] * cden))
        b_cols.append(b)
        v_int = np.array([scaled_int(v, val_dens[j]) for v in dom_vals[j]], dtype=object)
        vi.append(v_int)
        pen.append(np.array([scaled_int(f, pen_den) for f in pen_fracs[j]], dtype=object))
        l1i.append(np.array([abs(x) * (l1_den // val_dens[j]) for x in v_int.tolist()],
                            dtype=object))
        bmax = max((abs(int(v)) for v in b.tolist()), default=0)
        vmax = max(abs(int(v)) for v in v_int.tolist())
        margin_bound += bmax * vmax
    cost = np.array([scaled_int(cost_pos if yy == 1 else cost_neg, pen_den)
                     for yy in d.y.tolist()], dtype=object)
    pen_bound = int(cost.sum()) + sum(int(pp.max()) for pp in pen)
    int64_ok = 2 * margin_bound < 2**61 and 2 * pen_bound < 2**61
    if int64_ok:
        vmax = max(abs(int(v)) for v_int in vi for v in v_int.tolist())
        width = [w for w in (np.int16, np.int32, np.int64)
                 if 8 * margin_bound <= np.iinfo(w).max and 4 * vmax <= np.iinfo(w).max][0]
        b_cols, vi = ([a.astype(width) for a in arrs] for arrs in (b_cols, vi))
        pen, l1i = ([a.astype(np.int64) for a in arrs] for arrs in (pen, l1i))
        cost = cost.astype(np.int64)
    first, group, twin_a, twin_b = _merge_rows(b_cols)
    merged = np.zeros(len(first), dtype=cost.dtype)
    np.add.at(merged, group, cost)
    return dict(b_cols=[b[first] for b in b_cols], vi=vi, pen=pen, l1i=l1i,
                cost=merged, twin_a=twin_a, twin_b=twin_b,
                twin_cost=np.minimum(merged[twin_a], merged[twin_b]),
                int64_ok=int64_ok, margin_den=margin_den, pen_den=pen_den)


@pytest.mark.parametrize("case", ["int64", "big_cells", "big_values"])
def test_compiled_instance_matches_row_loop_reference(case):
    rng = np.random.default_rng(73)
    for trial in range(12):
        n, p = int(rng.integers(2, 40)), int(rng.integers(1, 4))
        d = rand_dup_dataset(rng, n, p, scale=10**18 if case == "big_cells" else 1)
        dom = explicit_values([0, 10**18, -10**18]) if case == "big_values" \
            else bounded_integers(3)
        s = uniform(dom, p)
        w = [(Fraction(1), Fraction(1)), (Fraction(1, 3), Fraction(2)),
             (Fraction(2), Fraction(1, 3))][trial % 3]
        cfg = TrainConfig(c0=Fraction(1, 50), w_pos=w[0], w_neg=w[1]).resolve(n, s)
        ci, ref = CompiledInstance(d, s, cfg), _compiled_reference(d, s, cfg)
        assert ci.int64_ok == ref["int64_ok"] == (case == "int64")
        _assert_matches(ci, ref, (case, trial))


def _assert_matches(ci, ref, tag):
    for name, want in ref.items():
        got = getattr(ci, name)
        if not isinstance(want, list):
            got, want = [got], [want]
        assert len(got) == len(want), (tag, name)
        for g, r in zip(map(np.asarray, got), map(np.asarray, want)):
            assert g.dtype == r.dtype and g.tolist() == r.tolist(), (tag, name)


def test_compiled_instance_prices_each_shared_domain_once():
    """Columns on one load_domains descriptor share their value, penalty
    and l1 arrays; two columns on one domain object with different
    tiers get different penalties; equal but distinct domain and tier
    objects compile to the same arrays as shared ones."""
    from scoresys.coefset import load_domains
    rng = np.random.default_rng(211)
    d = rand_dup_dataset(rng, 40, 4)
    tiers = {"tiers": [{"cost": 0.01, "values": [0]},
                       {"cost": 0.02, "values": [-2, -1, 1, 2]}]}
    desc = {"type": "integer", "max": 2, **tiers}
    shared = load_domains({"default": desc}, d.feature_names)
    equal = load_domains({name: dict(desc) for name in d.feature_names}, d.feature_names)
    assert len({id(dom) for dom in equal.domains}) == d.p
    cfg = TrainConfig(c0=Fraction(1, 50)).resolve(d.n, shared)
    ci, eq = CompiledInstance(d, shared, cfg), CompiledInstance(d, equal, cfg)
    for name in ("vi", "pen", "l1i"):
        arrays = getattr(ci, name)
        assert all(a is arrays[0] for a in arrays), name
        assert [a.tolist() for a in getattr(eq, name)] == [a.tolist() for a in arrays]
        assert [a.dtype for a in getattr(eq, name)] == [a.dtype for a in arrays]
    assert eq.cost.tolist() == ci.cost.tolist()
    assert (eq.pen_den, eq.margin_dtype) == (ci.pen_den, ci.margin_dtype)
    dom = shared.domains[0]
    cheap = (Tier(Fraction(1, 100), frozenset([Fraction(0)])),
             Tier(Fraction(3, 100), frozenset(v for v in dom.values if v)))
    mixed = CoefficientSet(domains=(dom,) * d.p, tiers=(shared.tiers[0], cheap) * (d.p // 2))
    mi = CompiledInstance(d, mixed, cfg)
    assert mi.pen[0] is mi.pen[2] and mi.pen[0] is not mi.pen[1]
    assert mi.pen[0].tolist() == ci.pen[0].tolist() != mi.pen[1].tolist()
    assert mi.pen[1].tolist() == mi.pen[3].tolist()


def test_compile_and_prep_work_once_per_distinct_value(monkeypatch):
    """Set-up work scales with the distinct domain values, not with the
    columns: loading one tiered -100..100 descriptor for 12 columns
    checks its tiers once, and compiling and prepping it looks up each
    value's tier cost once.  The values' integers come from the domain
    (CoefficientDomain.scaled_values), so scaled_int scales only the
    two class costs."""
    from collections import Counter

    from scoresys import coefset, objective, solver
    from scoresys.coefset import load_domains
    rng = np.random.default_rng(223)
    d = rand_dataset(rng, 60, 12, intercept=True)
    calls = Counter()

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    monkeypatch.setattr(coefset, "_check_tiers", counted("check_tiers", coefset._check_tiers))
    rest = [v for v in range(-100, 101) if v]
    s = load_domains({"default": {"type": "integer", "max": 100, "tiers": [
        {"cost": 0.001, "values": [0]}, {"cost": 0.002, "values": rest}]}}, d.feature_names)
    assert calls == {"check_tiers": 1}
    cfg = TrainConfig(c0=Fraction(1, 500)).resolve(d.n, s)
    calls.clear()
    monkeypatch.setattr(objective, "scaled_int", counted("scaled_int", scaled_int))
    monkeypatch.setattr(CoefficientSet, "tier_cost",
                        counted("tier_cost", CoefficientSet.tier_cost))
    solver._Prep(CompiledInstance(d, s, cfg))
    assert calls == {"scaled_int": 2, "tier_cost": 201}


def test_compiled_instance_all_zero_column_beside_tiny_cells():
    # the zero column's multiplier (10**20) is beyond int64 while every
    # margin fits, so the instance is int64 and the column all zeros
    x = np.array([[1e-20, 0.0], [2e-20, 0.0], [-1e-20, 0.0]])
    d = Dataset(x=x, y=np.array([1, 1, -1]), feature_names=("a", "z"))
    s = uniform(bounded_integers(2), 2)
    cfg = TrainConfig(c0=Fraction(1, 10)).resolve(d.n, s)
    ci, ref = CompiledInstance(d, s, cfg), _compiled_reference(d, s, cfg)
    assert ci.int64_ok and ref["int64_ok"]
    _assert_matches(ci, ref, "zero column")


def test_compiled_instance_absent_class_with_huge_weight():
    # no positives, so the positive cost (beyond int64) is never taken
    # and the instance stays int64
    x = np.array([[1.0, 2.0], [-1.0, 0.0], [2.0, 1.0]])
    d = Dataset(x=x, y=np.array([-1, -1, -1]), feature_names=("a", "b"))
    s = uniform(bounded_integers(2), 2)
    cfg = TrainConfig(c0=Fraction(1, 10), w_pos=Fraction(10**30),
                      w_neg=Fraction(1)).resolve(d.n, s)
    ci, ref = CompiledInstance(d, s, cfg), _compiled_reference(d, s, cfg)
    assert ci.int64_ok and ref["int64_ok"]
    _assert_matches(ci, ref, "absent class")


@pytest.mark.parametrize("cells, a_dom, z_dom", [
    # huge cells under the domain {0}
    ([1e20, 3e20, -1e20], bounded_integers(2), explicit_values([0])),
    # huge values over zero cells; a's domain {0} keeps every penalty small
    ([0.0, 0.0, 0.0], explicit_values([0]), explicit_values([0, 10**20])),
], ids=["zero_domain", "zero_column"])
def test_compiled_instance_width_bounds_every_entry(cells, a_dom, z_dom):
    # column z adds nothing to any margin, yet one of its arrays holds
    # an entry beyond int64, so the instance must be on Python ints
    x = np.array([[1.0, c] for c in cells])
    x[1, 0] = -2.0
    d = Dataset(x=x, y=np.array([1, -1, 1]), feature_names=("a", "z"))
    s = CoefficientSet(domains=(a_dom, z_dom))
    cfg = TrainConfig(c0=Fraction(1, 10)).resolve(d.n, s)
    assert not CompiledInstance(d, s, cfg).int64_ok
    res = solve(d, s, cfg)
    assert res.status == OPTIMAL
    assert res.objective.total == brute_solve(d, s, cfg)[0]


def _as_object_path(ci):
    """The same compiled instance with Python-int arrays, as when the
    int64 bound fails."""
    obj = copy.copy(ci)
    obj.b_cols = [b.astype(object) for b in ci.b_cols]
    obj.vi = [v.astype(object) for v in ci.vi]
    obj.cost = ci.cost.astype(object)
    obj.int64_ok = False
    obj.sum_dtype = None
    return obj


def _value_loss_domains():
    return [bounded_integers(1), bounded_integers(4), bounded_integers(40),
            explicit_values([0, 1, -1, 10, -10]),
            explicit_values([0, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2),
                             Fraction(-3, 2), 7, -7])]


def _random_bases(rng, ci, j):
    """Margins of random values of every other coordinate; a third of
    the rows then moved so that some value of j puts them exactly at 0."""
    base = np.zeros(ci.n_rows, dtype=ci.b_cols[j].dtype)
    for jj in range(ci.p):
        if jj != j:
            base = base + ci.b_cols[jj] * ci.vi[jj][int(rng.integers(len(ci.vi[jj])))]
    hit = rng.random(ci.n_rows) < 1 / 3
    ks = rng.integers(0, len(ci.vi[j]), size=ci.n_rows)
    on_value = -ci.b_cols[j] * ci.vi[j][ks]
    yield base
    yield np.where(hit, on_value, base)


@pytest.mark.parametrize("path", ["int64", "object"])
def test_value_losses_equal_the_block(path):
    # zero, negative and repeated cells with opposite-vector twins, on
    # integer and non-integer domains; margin 0 counts as lost
    rng = np.random.default_rng(67)
    doms = _value_loss_domains()
    seen_zero_b = exact_zero = 0
    for trial in range(60):
        n, p = int(rng.integers(2, 60)), int(rng.integers(1, 4))
        d = rand_dup_dataset(rng, n, p, lo=-3, hi=3)
        s = CoefficientSet(domains=tuple(doms[int(rng.integers(len(doms)))]
                                         for _ in range(p)))
        ci = CompiledInstance(d, s, TrainConfig(c0=Fraction(1, 50),
                                                w_pos=Fraction(3)).resolve(n, s))
        if path == "object":
            ci = _as_object_path(ci)
        for j in range(p):
            b = ci.b_cols[j]
            seen_zero_b += int((b == 0).any())
            for base in _random_bases(rng, ci, j):
                block = base[None, :] + ci.vi[j][:, None] * b[None, :]
                exact_zero += int((block == 0).any())
                got = ci.value_losses(j, base)
                assert got.dtype == ci.cost.dtype, trial
                assert got.tolist() == ci.loss(block).tolist(), trial
    assert seen_zero_b > 0 and exact_zero > 0


def test_value_losses_beyond_int64():
    # cells of size 1e18 put the instance on Python ints by itself
    rng = np.random.default_rng(71)
    for trial in range(20):
        n, p = int(rng.integers(2, 30)), int(rng.integers(1, 3))
        d = rand_dup_dataset(rng, n, p, scale=10**18)
        s = uniform(bounded_integers(40), p)
        ci = CompiledInstance(d, s, TrainConfig(c0=Fraction(1, 50)).resolve(n, s))
        assert not ci.int64_ok
        for j in range(p):
            for base in _random_bases(rng, ci, j):
                block = base[None, :] + ci.vi[j][:, None] * ci.b_cols[j][None, :]
                assert ci.value_losses(j, base).tolist() == ci.loss(block).tolist()


@pytest.mark.parametrize("total, want", [
    (0, np.float32), (2**24 - 1, np.float32), (2**24, np.float64),
    (2**53 - 1, np.float64), (2**53, None), (2**62, None)])
def test_cost_sum_dtype_at_the_mantissa_edges(total, want):
    got = cost_sum_dtype(total)
    assert got == (None if want is None else np.dtype(want))
    if got is not None:  # the total itself, and so every subset sum, is exact
        assert int(np.array(total, dtype=got)) == total


# c0 = 1/P on 30 rows and 3 columns under -3..3 puts the total cost at
# 90 * P (pen_den scale); 354001 puts it at 31,860,090, between 2**24
# and 2**25, where float32 sums of these odd costs round
@pytest.mark.parametrize("path, c0_den, scale, dtype", [
    ("float32", 10007, 1, np.float32),
    ("float64_edge", 354001, 1, np.float64),
    ("float64", 1000000007, 1, np.float64),
    ("int64", 1000000000000037, 1, None),
    ("object", 50, 10**18, None),
])
def test_lost_cost_and_twin_loss_are_exact_on_every_path(path, c0_den, scale, dtype):
    """lost_cost, and lost_costs over the twin-priced and the plain
    cost columns, equal Python-int sums over random bool blocks, 1-D
    and 2-D, for random sets of priced twin pairs, whichever way the
    instance sums its costs."""
    rng = np.random.default_rng(149)
    n, p = 30, 3
    s = uniform(bounded_integers(3), p)
    twins = 0
    for trial in range(8):
        d = rand_dup_dataset(rng, n, p, scale=scale)
        ci = CompiledInstance(d, s, TrainConfig(c0=Fraction(1, c0_den)).resolve(n, s))
        assert ci.sum_dtype == (None if dtype is None else np.dtype(dtype)), trial
        assert ci.int64_ok == (path != "object"), trial
        twins += len(ci.twin_a)
        cost, tc = ci.cost.tolist(), ci.twin_cost.tolist()
        pairs = list(zip(ci.twin_a.tolist(), ci.twin_b.tolist()))
        for _ in range(10):
            # densities from none to all rows marked, so that sums run
            # up to the total
            k = int(rng.integers(1, 12))
            lost = rng.random((k, ci.n_rows)) < rng.random((k, 1))
            lost[0] = True
            want = [sum(c for c, m in zip(cost, row) if m) for row in lost.tolist()]
            assert ci.lost_cost(lost).tolist() == want, trial
            assert int(ci.lost_cost(lost[-1])) == want[-1], trial
            moving = rng.random(len(pairs)) < rng.random()
            priced = list(cost)
            for q, (a, b) in enumerate(pairs):
                if moving[q]:
                    priced[a] -= tc[q]
                    priced[b] -= tc[q]
            credit, got = ci.priced_costs(moving)
            assert credit == sum(c for c, m in zip(tc, moving) if m), trial
            assert got.tolist() == priced and min(priced) >= 0, trial
            block = ci.cost_columns([got, ci.cost])
            want_priced = [sum(c for c, m in zip(priced, row) if m)
                           for row in lost.tolist()]
            assert ci.lost_costs(lost, block).tolist() == \
                [list(w) for w in zip(want_priced, want)], trial
            assert ci.lost_costs(lost[-1], block).tolist() == [want_priced[-1], want[-1]]
    assert twins > 0
