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
                                _merge_rows, c0_range, default_c1,
                                default_weights, evaluate, score_ints)
from scoresys.solver import OPTIMAL, solve

from helpers import brute_solve, rand_dataset, rand_dup_dataset


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


def _merge_reference(rows):
    """Groups of equal rows (by first occurrence) and the pairs of
    groups whose rows are negations of each other, by plain loops."""
    keys = []
    for r in rows.tolist():
        if tuple(r) not in keys:
            keys.append(tuple(r))
    groups = {k: frozenset(i for i, r in enumerate(rows.tolist()) if tuple(r) == k)
              for k in keys}
    twins = {frozenset((groups[a], groups[b])) for a in keys for b in keys
             if a != b and a == tuple(-v for v in b)}
    return set(groups.values()), twins


@pytest.mark.parametrize("merge", ["int64", "object", "beyond_int64"])
def test_row_merge_groups_and_twins(merge):
    # Python-int columns, the last with magnitudes int64 cannot hold,
    # group and pair exactly as the int64 ones do
    rng = np.random.default_rng(59)
    for _ in range(40):
        n, p = int(rng.integers(1, 40)), int(rng.integers(1, 4))
        rows = rng.integers(-2, 3, size=(n, p))
        if merge == "int64":
            cols = [rows[:, j] for j in range(p)]
        else:
            scale = 1 if merge == "object" else 10**30
            cols = [rows[:, j].astype(object) * scale for j in range(p)]
        first, group, ta, tb = _merge_rows(cols)
        members = [frozenset(np.flatnonzero(group == g).tolist())
                   for g in range(len(first))]
        assert all(first[g] in members[g] for g in range(len(first)))
        twins = {frozenset((members[a], members[b])) for a, b in zip(ta, tb)}
        assert (set(members), twins) == _merge_reference(rows)


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
    the rows, and then cast to int64 when the bounds allow."""
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
        b = y * nums * (margin_den // (val_dens[j] * cden))
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
        b_cols, vi, pen, l1i = ([a.astype(np.int64) for a in arrs]
                                for arrs in (b_cols, vi, pen, l1i))
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
