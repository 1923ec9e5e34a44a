import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from scoresys.coefset import (CoefficientSet, Tier, bounded_integers,
                              coprime_reduce, explicit_values, signed_integers,
                              uniform)
from scoresys.data import Dataset, load_csv
from scoresys.errors import ConfigError, DomainError
from scoresys.exactnum import to_fraction
from scoresys.objective import TrainConfig, evaluate
from scoresys.solver import (BUDGET, OPTIMAL, SearchState, SolveResult,
                             _nearest_index, lower_bound_of, solve, warm_start)

from helpers import (bench_path, brute_check, brute_solve, footnote_dataset,
                     rand_coefset, rand_dataset, rand_dup_dataset)


def _cfg(rng, n, s, **kw):
    c0 = Fraction(int(rng.integers(1, 80)), 1000)
    return TrainConfig(c0=c0, **kw).resolve(n, s)


def test_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(20120601)
    for trial in range(60):
        n = int(rng.integers(2, 24))
        p = int(rng.integers(1, 4))
        d = rand_dataset(rng, n, p)
        s = rand_coefset(rng, p)
        cfg = _cfg(rng, n, s)
        want, _ = brute_solve(d, s, cfg)
        res = solve(d, s, cfg)
        assert res.status == OPTIMAL
        assert res.objective.total == want, trial
        assert s.contains(res.best.coefficients)
        again = evaluate(d, res.best.coefficients, cfg)
        assert again.total == res.objective.total


def test_brute_solve_agrees_with_evaluate_path():
    # the fast oracle itself cross-checked against the slow one
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(2, 10))
        d = rand_dataset(rng, n, 2)
        s = rand_coefset(rng, 1, max_values=5)
        s = CoefficientSet(domains=(s.domains[0],) * 2)
        cfg = _cfg(rng, n, s)
        fast, _ = brute_solve(d, s, cfg)
        slow, _ = brute_check(d, s, cfg)
        assert fast == slow


def test_matches_brute_force_weighted():
    rng = np.random.default_rng(8)
    for trial in range(25):
        n = int(rng.integers(2, 16))
        p = int(rng.integers(1, 3))
        d = rand_dataset(rng, n, p)
        s = uniform(bounded_integers(2), p)
        cfg = _cfg(rng, n, s, w_pos=Fraction(int(rng.integers(1, 4))),
                   w_neg=Fraction(int(rng.integers(1, 3))))
        want, _ = brute_solve(d, s, cfg)
        res = solve(d, s, cfg)
        assert res.objective.total == want, trial


def test_weight_one_reduces_to_unweighted():
    rng = np.random.default_rng(13)
    for _ in range(25):
        n = int(rng.integers(2, 16))
        d = rand_dataset(rng, n, 2)
        s = uniform(bounded_integers(2), 2)
        base = _cfg(rng, n, s)
        explicit = TrainConfig(c0=base.c0, c1=base.c1,
                               w_pos=Fraction(1), w_neg=Fraction(1))
        lam = [int(rng.integers(-2, 3)), int(rng.integers(-2, 3))]
        assert evaluate(d, lam, explicit).total == evaluate(d, lam, base).total
        a = solve(d, s, base)
        b = solve(d, s, explicit)
        assert a.objective.total == b.objective.total
        assert a.best.coefficients == b.best.coefficients


def test_footnote_instance():
    d = footnote_dataset()
    s = uniform(bounded_integers(1), 2)
    cfg = TrainConfig(c0=Fraction(1, 10))
    t0 = time.monotonic()
    res = solve(d, s, cfg)
    assert time.monotonic() - t0 < 1.0
    assert res.status == OPTIMAL
    assert res.objective.misclassified_count == 0
    assert res.objective.nnz == 1
    assert res.best.coefficients == (Fraction(-1), Fraction(0))
    # the mirror model costs exactly the same
    rcfg = cfg.resolve(d.n, s)
    assert evaluate(d, [0, 1], rcfg).total == res.objective.total


def test_zero_model_when_sparsity_dominates():
    rng = np.random.default_rng(77)
    for _ in range(20):
        n = int(rng.integers(2, 20))
        p = int(rng.integers(1, 4))
        d = rand_dataset(rng, n, p)
        s = uniform(bounded_integers(3), p)
        cfg = TrainConfig(c0=Fraction(3, 2))
        res = solve(d, s, cfg)
        assert all(c == 0 for c in res.best.coefficients)
        assert res.objective.total == 1  # every example scores 0


def test_returned_vector_is_coprime_or_zero():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(2, 16))
        p = int(rng.integers(1, 4))
        d = rand_dataset(rng, n, p)
        s = uniform(bounded_integers(int(rng.integers(2, 4))), p)
        cfg = _cfg(rng, n, s)
        res = solve(d, s, cfg)
        lam = [int(c) for c in res.best.coefficients]
        assert tuple(lam) == coprime_reduce(lam)


def test_warm_start_lands_in_domains():
    rng = np.random.default_rng(41)
    for _ in range(20):
        n = int(rng.integers(2, 20))
        p = int(rng.integers(1, 5))
        d = rand_dataset(rng, n, p, intercept=p >= 2)
        s = rand_coefset(rng, p)
        w = warm_start(d, s)
        assert len(w) == p
        assert s.contains(w)
        assert warm_start(d, s) == w  # deterministic


def _warm_start_reference(d, s):
    """warm_start in Fractions, cell by cell: class-mean differences
    (0 when a class is absent), rescaled so the largest lands on its
    domain's largest magnitude, each snapped by the linear scan."""
    cells = [[to_fraction(v) for v in row] for row in d.x.tolist()]
    pos = [row for row, y in zip(cells, d.y.tolist()) if y == 1]
    neg = [row for row, y in zip(cells, d.y.tolist()) if y != 1]
    diffs = [sum(r[j] for r in pos) / len(pos) - sum(r[j] for r in neg) / len(neg)
             if pos and neg else Fraction(0) for j in range(d.p)]
    scale = max(map(abs, diffs))
    if scale == 0:
        return (Fraction(0),) * d.p
    return tuple(_snap_linear(dom, u / scale * dom.max_abs)
                 for u, dom in zip(diffs, s.domains))


def test_warm_start_matches_the_fraction_reference():
    """The integer warm start (class sums over the exact columns, the
    snap on each domain's scaled values) returns the Fraction
    reference's values, on int64 columns, on Python-int columns (cells
    of 1e18, or halves), with one class absent, and on integer,
    fractional and digit domains."""
    from scoresys.coefset import digit_values
    rng = np.random.default_rng(181)
    doms = [bounded_integers(1), bounded_integers(5), signed_integers("neg", 4),
            explicit_values([0, 1, -1, 10, -10]),
            explicit_values([0, Fraction(1, 2), Fraction(-3, 2), 7, Fraction(-7, 3)]),
            digit_values(1, -1, 0)]
    kinds = set()
    for trial in range(120):
        n, p = int(rng.integers(2, 40)), int(rng.integers(1, 6))
        d = (rand_dataset(rng, n, p, intercept=trial % 2 == 0) if trial % 4 == 0 else
             rand_dup_dataset(rng, n, p, scale=10**18 if trial % 4 == 1 else 1))
        x, y = d.x, d.y
        if trial % 4 == 2:
            x = x / 2
        if trial % 10 == 3:
            y = np.ones_like(y)
        d = Dataset(x=x, y=y, feature_names=d.feature_names,
                    intercept_index=d.intercept_index)
        s = CoefficientSet(domains=tuple(doms[int(rng.integers(len(doms)))]
                                         for _ in range(p)))
        kinds.add(tuple(sorted({str(d.exact_column(j)[0].dtype) for j in range(p)})))
        assert warm_start(d, s) == _warm_start_reference(d, s), trial
    assert {("int64",), ("object",)} <= kinds, kinds


def test_search_state_validation():
    rng = np.random.default_rng(2)
    d = rand_dataset(rng, 6, 2)
    s = uniform(bounded_integers(1), 2)
    cfg = TrainConfig(c0=Fraction(1, 10)).resolve(6, s)
    from scoresys.objective import CompiledInstance
    ci = CompiledInstance(d, s, cfg)
    st = SearchState(ci, (None, 1))
    assert st.values == (None, Fraction(1))
    with pytest.raises(ConfigError):
        SearchState(ci, (None,))
    with pytest.raises(DomainError):
        SearchState(ci, (None, 5))


def test_lower_bound_admissible():
    rng = np.random.default_rng(3)
    from scoresys.objective import CompiledInstance
    twins = 0
    for trial in range(40):
        n = int(rng.integers(2, 12))
        p = int(rng.integers(1, 3))
        # the second half repeats rows and gives them opposite-label twins
        d = (rand_dataset if trial < 15 else rand_dup_dataset)(rng, n, p)
        s = uniform(bounded_integers(2), p)
        cfg = _cfg(rng, n, s)
        ci = CompiledInstance(d, s, cfg)
        twins += len(ci.twin_a)
        fixed = [None if rng.random() < 0.5 else
                 Fraction(int(rng.integers(-2, 3))) for _ in range(p)]
        st = SearchState(ci, tuple(fixed))
        lb = lower_bound_of(st, cfg)
        # no completion can beat the bound
        import itertools
        opts = [(v,) if v is not None else s.domains[j].values
                for j, v in enumerate(fixed)]
        best = min(evaluate(d, list(combo), cfg).total
                   for combo in itertools.product(*opts))
        assert lb <= best
        full = SearchState(ci, tuple(Fraction(1) for _ in range(p)))
        assert lower_bound_of(full, cfg) == evaluate(d, [1] * p, cfg).total
    assert twins > 0



def test_twin_pair_no_completion_moves_loses_both_rows():
    """Rows a = (1, 0) with y = +1 and b = (1, 0) with y = -1 are twins
    that only f0 moves; c = (0, 1) with y = +1 appears twice.  With f0
    fixed to 0 the pair sits at margin 0 whatever f1 is, so both of its
    rows are lost: the bound charges both in full, 1/4 + 1/4, where
    pricing the pair as one that can move would charge 1/4.  f0 is
    the first level, so the search's bound of that child is the same."""
    from scoresys.objective import CompiledInstance
    from scoresys.solver import _Prep
    d = Dataset(x=np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]),
                y=np.array([1, -1, 1, 1]), feature_names=("f0", "f1"))
    s = uniform(bounded_integers(1), 2)
    cfg = TrainConfig(c0=Fraction(1, 10)).resolve(d.n, s)
    ci = CompiledInstance(d, s, cfg)
    assert (ci.n_rows, len(ci.twin_a)) == (3, 1)
    assert lower_bound_of(SearchState(ci, (0, None)), cfg) == Fraction(1, 2)
    assert lower_bound_of(SearchState(ci, (None, None)), cfg) == Fraction(1, 4)
    pr = _Prep(ci)
    assert pr.order == [0, 1] and pr.KIDX[0][0] == ci.zero_index[0]
    assert pr.moving(pr.lost_at[0]).tolist() == [True]
    assert pr.moving(pr.lost_at[1]).tolist() == [False]
    bounds, zloss, _ = pr.child_bounds(0, pr.zeros_margin)
    assert Fraction(int(bounds[0]), ci.pen_den) == Fraction(1, 2)
    assert Fraction(zloss[0], ci.pen_den) == 1
    res = solve(d, s, cfg)
    assert res.status == OPTIMAL
    assert res.objective.total == brute_solve(d, s, cfg)[0]


_TIERS = (Tier(Fraction(1, 100), frozenset({Fraction(0)})),
          Tier(Fraction(3, 100), frozenset({Fraction(1), Fraction(-1)})),
          Tier(Fraction(7, 100), frozenset({Fraction(2), Fraction(-2)})))


def test_search_bound_is_lower_bound_of():
    """The bound the search gives each child of a node (the fixed
    levels' penalties plus _Prep.child_bounds) is lower_bound_of the
    child's partial assignment, and the loss it gives the child's
    all-zero completion is loss of the child's margins, on tables with
    and without repeated and twin rows, on a plain and a gapped domain,
    and on the object path, with and without tier costs."""
    from scoresys.objective import CompiledInstance
    from scoresys.solver import _Prep
    rng = np.random.default_rng(41)
    seen = {"children": 0, "twins": 0, "object": 0, "last_level": 0, "tiers": 0}
    for trial in range(200):
        n = int(rng.integers(2, 16))
        p = int(rng.integers(1, 5))
        if trial % 3 == 0:
            d = rand_dataset(rng, n, p)
        else:  # repeats and twins; every third of these on Python ints
            d = rand_dup_dataset(rng, n, p, scale=10**18 if trial % 3 == 2 else 1)
        dom = bounded_integers(2) if trial % 2 else explicit_values([0, 1, -1, -2, 3])
        s = uniform(dom, p)
        if trial % 4 == 1:  # tier costs: the least penalty of a level is not 0
            s = CoefficientSet(domains=s.domains, tiers=(_TIERS,) * p)
        cfg = _cfg(rng, n, s)
        ci = CompiledInstance(d, s, cfg)
        pr = _Prep(ci)
        t = int(rng.integers(0, p))
        prefix = [int(rng.integers(0, len(pr.VI[u]))) for u in range(t)]
        margin = pr.zeros_margin
        fpen = 0
        for u, k in enumerate(prefix):
            margin = margin + pr.VI[u][k] * pr.B[u]
            fpen += int(pr.PEN[u][k])
        bounds, zloss, neg_out = pr.child_bounds(t, margin)
        for k in range(len(bounds)):
            child = margin + pr.VI[t][k] * pr.B[t]
            assert (margin - neg_out[k]).tolist() == child.tolist(), (trial, t, k)
            assert zloss[k] == int(ci.loss(child)), (trial, t, k)
            values = [None] * p
            for u, kk in enumerate(prefix + [k]):
                j = pr.order[u]
                values[j] = ci.values[j][pr.KIDX[u][kk]]
            lb = lower_bound_of(SearchState(ci, tuple(values)), cfg)
            assert fpen + int(bounds[k]) == lb * ci.pen_den, (trial, t, k)
            seen["children"] += 1
        seen["twins"] += len(ci.twin_a) > 0
        seen["object"] += not ci.int64_ok
        seen["last_level"] += t == p - 1
        seen["tiers"] += s.tiers is not None
    assert seen["children"] >= 1000 and min(seen.values()) >= 20, seen


def test_branching_order_is_by_cost_weighted_margin_range():
    """_Prep branches first on the column whose values move the most
    loss, the sum over rows of cost times the row's margin range: with
    +-1 on mammo that is the intercept, which moves every row; under
    {0, +-1, +-10} breastcancer's 1..10 cells outweigh it.  Equal
    masses go to the larger |class-mean difference|, then the lower
    index."""
    from scoresys.objective import CompiledInstance
    from scoresys.solver import _Prep

    def order(d, dom):
        s = uniform(dom, d.p)
        cfg = TrainConfig(c0=Fraction(1, 500)).resolve(d.n, s)
        return _Prep(CompiledInstance(d, s, cfg)).order

    mammo = load_csv(bench_path("mammo.csv"))
    assert order(mammo, bounded_integers(1))[0] == mammo.intercept_index
    bc = load_csv(bench_path("breastcancer.csv"))
    assert order(bc, explicit_values([0, 1, -1, 10, -10]))[-1] == bc.intercept_index
    # each column is nonzero on two rows, so at equal cost per row
    # their masses tie; only column 1 (both rows positive) separates
    # the classes
    y = np.array([1, 1, -1, -1])
    tied = Dataset(x=np.array([[1, 1], [0, 1], [1, 0], [0, 0]], dtype=float), y=y,
                   feature_names=("a", "b"))
    assert order(tied, bounded_integers(1)) == [1, 0]
    # doubling column 0's cells doubles its mass, which then comes first
    wide = Dataset(x=np.array([[2, 1], [0, 1], [2, 0], [0, 0]], dtype=float), y=y,
                   feature_names=("a", "b"))
    assert order(wide, bounded_integers(1)) == [0, 1]


def test_branching_order_is_exact_at_every_scale():
    # scaling every cell by the same factor scales every column's mass
    # alike, so the order must not move: at 10**15 an int64 sum of the
    # masses would wrap (they are summed in Python ints) and at 10**18
    # the instance itself is on Python ints
    from scoresys.objective import CompiledInstance
    from scoresys.solver import _Prep
    rng = np.random.default_rng(97)
    for trial in range(40):
        n, p = int(rng.integers(4, 60)), int(rng.integers(2, 6))
        seed = int(rng.integers(2**32))
        orders, widths = [], []
        for scale in (1, 10**15, 10**18):
            d = rand_dup_dataset(np.random.default_rng(seed), n, p, scale=scale)
            s = uniform(bounded_integers(3), p)
            ci = CompiledInstance(d, s, TrainConfig(c0=Fraction(1, 100)).resolve(n, s))
            orders.append(_Prep(ci).order)
            widths.append(ci.int64_ok)
        assert widths == [True, True, False], trial
        assert orders[0] == orders[1] == orders[2], trial


def test_matches_brute_force_on_object_path():
    # cells of size 1e18 put the compiled instance on Python ints; rows
    # repeat and have opposite-label twins
    from scoresys.objective import CompiledInstance
    rng = np.random.default_rng(1018)
    on_object_path = twins = 0
    for trial in range(40):
        n = int(rng.integers(3, 24))
        p = int(rng.integers(1, 4))
        d = rand_dup_dataset(rng, n, p, scale=10**18)
        s = rand_coefset(rng, p)
        cfg = _cfg(rng, n, s)
        ci = CompiledInstance(d, s, cfg)
        on_object_path += not ci.int64_ok
        twins += len(ci.twin_a)
        want, _ = brute_solve(d, s, cfg)
        res = solve(d, s, cfg)
        assert res.status == OPTIMAL, trial
        assert res.objective.total == want, trial
    assert on_object_path >= 30 and twins > 0


def test_brute_solve_is_exact_beyond_int64():
    rng = np.random.default_rng(1019)
    for _ in range(10):
        n = int(rng.integers(3, 12))
        d = rand_dup_dataset(rng, n, 2, scale=10**18)
        s = rand_coefset(rng, 1, max_values=5)
        s = CoefficientSet(domains=(s.domains[0],) * 2)
        cfg = _cfg(rng, n, s)
        fast, _ = brute_solve(d, s, cfg)
        slow, _ = brute_check(d, s, cfg)
        assert fast == slow


def _scaled_table(seed, n, p, scale):
    """A table with repeats and twins whose cells are -3..3 times scale,
    with a row of 3 * scale in every column, so that its margin bound
    under values up to 30 is exactly 90 * p * scale."""
    d = rand_dup_dataset(np.random.default_rng(seed), n, p, scale=scale)
    return Dataset(x=np.vstack([d.x, np.full((1, p), 3.0 * scale)]),
                   y=np.append(d.y, 1), feature_names=d.feature_names)


def _python_int_thresholds(pr, t):
    """Level t's threshold block recomputed in Python ints: the rows
    lost_at[t + 1] - out over the rows -out, or -out alone at the last
    level, where out[k][r] = VI[t][k] * B[t][r]."""
    b = [[int(x) for x in pr.B[u].tolist()] for u in range(pr.p)]
    v = [[int(x) for x in pr.VI[u].tolist()] for u in range(pr.p)]
    lost = [0] * len(b[0])
    for u in range(pr.p - 1, t, -1):
        lost = [m - max(x * bb for x in v[u]) for m, bb in zip(lost, b[u])]
    neg = [[-x * bb for bb in b[t]] for x in v[t]]
    if t == pr.p - 1:
        return neg
    return [[m + o for m, o in zip(lost, row)] for row in neg] + neg


def test_margin_width_follows_the_scale():
    """Cells scaled by 1, 10**3, 10**6 and 10**18 put the margins in
    int16, int32, int64 and Python ints; the search, and every level's
    thresholds up to the scale, are the same at each width."""
    from scoresys.objective import CompiledInstance
    from scoresys.solver import _Prep
    rng = np.random.default_rng(131)
    dom = explicit_values([0, 1, -1, 2, -2, 30, -30])
    scales = (1, 10**3, 10**6, 10**18)
    for trial in range(12):
        n, p, seed = int(rng.integers(6, 30)), int(rng.integers(3, 5)), int(rng.integers(2**32))
        s = uniform(dom, p)
        c0 = Fraction(int(rng.integers(1, 80)), 1000)
        got = []
        for scale in scales:
            d = _scaled_table(seed, n, p, scale)
            cfg = TrainConfig(c0=c0).resolve(d.n, s)
            ci = CompiledInstance(d, s, cfg)
            pr = _Prep(ci)
            for t in range(p):
                thr = pr.thresholds(t)
                assert thr.dtype == ci.margin_dtype
                assert thr.tolist() == _python_int_thresholds(pr, t), (trial, scale, t)
                assert pr.thresholds(t) is thr  # kept, not rebuilt
            res = solve(d, s, cfg)
            got.append((ci.margin_dtype, res.best.coefficients, res.objective.total,
                        res.status, res.nodes_explored))
        assert [g[0] for g in got] == [np.int16, np.int32, np.int64, object], trial
        assert len({g[1:] for g in got}) == 1, (trial, got)


@pytest.mark.parametrize("case, cells, values, width", [
    # margin bound 60 * 63 + 5 * 63 = 4095: twice it is just below 2**13
    ("inside_int16", (60, 5), ((0, 1, -1, 63, -63),) * 2, np.int16),
    ("past_int16", (60, 4), ((0, 1, -1, 64, -64),) * 2, np.int32),
    # an all-zero column adds nothing to the margin bound (60), but its
    # value 2**13 must still fit the margin width
    ("zero_column_value", (60, 0), ((0, 1, -1), (0, 2**13, -2**13)), np.int32),
])
def test_margin_width_at_the_int16_limit(case, cells, values, width):
    from scoresys.objective import CompiledInstance
    rng = np.random.default_rng(137)
    s = CoefficientSet(domains=tuple(explicit_values(list(v)) for v in values))
    for trial in range(6):
        n = int(rng.integers(4, 16))
        x = np.stack([rng.integers(-c, c + 1, size=n) for c in cells], axis=1)
        x[0] = cells  # each column reaches its largest |cell|
        y = rng.choice([-1, 1], size=n)
        y[0], y[-1] = 1, -1
        d = Dataset(x=x.astype(np.float64), y=y, feature_names=("a", "b"))
        cfg = _cfg(rng, n, s)
        assert CompiledInstance(d, s, cfg).margin_dtype == width, (case, trial)
        want, combo = brute_solve(d, s, cfg)
        res = solve(d, s, cfg)
        assert res.status == OPTIMAL, (case, trial)
        assert (res.objective.total, res.best.coefficients) == (want, tuple(combo)), \
            (case, trial)


def test_search_is_the_same_past_the_threshold_cap(monkeypatch):
    """A level whose threshold block would pass the cap is rebuilt at
    each use instead of kept; the search is the same either way."""
    from scoresys import solver
    from scoresys.objective import CompiledInstance
    rng = np.random.default_rng(139)
    cases = []
    for trial in range(20):
        n, p = int(rng.integers(4, 30)), int(rng.integers(1, 5))
        d = rand_dup_dataset(rng, n, p, scale=10**18 if trial % 4 == 3 else 1)
        s = rand_coefset(rng, p)
        cases.append((d, s, _cfg(rng, n, s)))
    kept = [solve(d, s, cfg) for d, s, cfg in cases]
    init = solver._Prep.__init__

    def full_cache(prep, ci):
        init(prep, ci)
        prep.thr_bytes = 64 << 20

    monkeypatch.setattr(solver._Prep, "__init__", full_cache)
    for (d, s, cfg), a in zip(cases, kept):
        b = solve(d, s, cfg)
        assert (b.best.coefficients, b.objective.total, b.status, b.nodes_explored) \
            == (a.best.coefficients, a.objective.total, a.status, a.nodes_explored)
    prep = solver._Prep(CompiledInstance(*cases[0]))
    assert prep.thresholds(0) is not prep.thresholds(0) and prep.THR == [None] * prep.p


def test_search_is_the_same_with_integer_cost_sums(monkeypatch):
    """Summing costs by a float dot product, where cost_sum_dtype finds
    one exact, searches the same tree as the integer einsum, on tables
    with repeats and twins; c0 = 1/1000000007 puts the total cost past
    2**24, so both float widths are taken."""
    from scoresys import objective
    from scoresys.objective import CompiledInstance
    rng = np.random.default_rng(151)
    cases = []
    for trial in range(20):
        n, p = int(rng.integers(4, 30)), int(rng.integers(1, 5))
        d = rand_dup_dataset(rng, n, p)
        s = rand_coefset(rng, p)
        cfg = (TrainConfig(c0=Fraction(1, 1000000007)).resolve(n, s) if trial % 2
               else _cfg(rng, n, s))
        cases.append((d, s, cfg))
    widths = {CompiledInstance(*case).sum_dtype for case in cases}
    assert widths == {np.dtype(np.float32), np.dtype(np.float64)}
    floats = [solve(d, s, cfg) for d, s, cfg in cases]
    monkeypatch.setattr(objective, "cost_sum_dtype", lambda total: None)
    assert CompiledInstance(*cases[0]).sum_dtype is None
    for (d, s, cfg), a in zip(cases, floats):
        b = solve(d, s, cfg)
        assert (b.best.coefficients, b.objective.total, b.status, b.nodes_explored) \
            == (a.best.coefficients, a.objective.total, a.status, a.nodes_explored)


def test_threshold_block_is_measured_once_per_level(monkeypatch):
    """On Python-int tables with the cache full from the start, each
    level's block is measured at most once, although it is rebuilt at
    every use, and the search is the same as with the blocks kept."""
    from scoresys import solver
    from scoresys.objective import CompiledInstance
    rng = np.random.default_rng(149)
    cases = []
    for trial in range(8):
        n, p = int(rng.integers(30, 60)), int(rng.integers(4, 6))
        d = rand_dup_dataset(rng, n, p, scale=10**18)
        s = uniform(bounded_integers(4), p)
        cfg = TrainConfig(c0=Fraction(int(rng.integers(1, 10)), 1000)).resolve(n, s)
        assert CompiledInstance(d, s, cfg).margin_dtype == object
        cases.append((d, s, cfg, solve(d, s, cfg)))
    init, measure = solver._Prep.__init__, solver._block_bytes
    preps, measured = [], []

    def full_cache(prep, ci):
        init(prep, ci)
        prep.thr_bytes = 64 << 20
        preps.append(prep)

    monkeypatch.setattr(solver._Prep, "__init__", full_cache)
    monkeypatch.setattr(solver, "_block_bytes",
                        lambda a: measured.append(len(preps)) or measure(a))
    for d, s, cfg, a in cases:
        b = solve(d, s, cfg)
        assert (b.best.coefficients, b.objective.total, b.status, b.nodes_explored) \
            == (a.best.coefficients, a.objective.total, a.status, a.nodes_explored)
        assert 0 < measured.count(len(preps)) <= d.p
        assert preps[-1].THR == [None] * d.p
    assert sum(a.nodes_explored for *_, a in cases) > 10 * len(measured)


def test_stacked_shuffled_table_searches_the_same():
    # equal rows merge, so a table stacked on itself poses the same
    # search: same model, objective, status and node count
    rng = np.random.default_rng(53)
    cases = []
    for trial in range(12):
        n = int(rng.integers(4, 30))
        p = int(rng.integers(1, 4))
        d = (rand_dup_dataset if trial % 2 else rand_dataset)(rng, n, p)
        s = rand_coefset(rng, p)
        cases.append((d, s, _cfg(rng, n, s)))
    mammo = load_csv(bench_path("mammo.csv"))
    s = uniform(bounded_integers(1), mammo.p)
    cases.append((mammo, s, TrainConfig(c0=Fraction(1, 20)).resolve(mammo.n, s)))
    for d, s, cfg in cases:
        perm = rng.permutation(2 * d.n)
        big = Dataset(x=np.vstack([d.x, d.x])[perm],
                      y=np.concatenate([d.y, d.y])[perm],
                      feature_names=d.feature_names,
                      intercept_index=d.intercept_index)
        a, b = solve(d, s, cfg), solve(big, s, cfg)
        assert b.best.coefficients == a.best.coefficients
        assert b.objective.total == a.objective.total
        assert b.status == a.status == OPTIMAL
        assert b.nodes_explored == a.nodes_explored


def test_returned_vector_is_the_oracle_tie_break():
    # not just the optimal objective: the very vector brute_solve picks
    # with the (total, l1, values) order, ties included.  In the first
    # case lambda = -1, 0 and 1 all have objective 1 (loss 1/2 + c0 +
    # c1, loss 1, loss 1/2 + c0 + c1) with l1 norms 1, 0 and 1, so the
    # l1 rule, not the vector order, picks 0
    tie = Dataset(x=np.array([[1.0], [1.0]]), y=np.array([1, -1]),
                  feature_names=("f0",), intercept_index=None)
    s = uniform(bounded_integers(2), 1)
    cfg = TrainConfig(c0=Fraction(3, 8), c1=Fraction(1, 8)).resolve(tie.n, s)
    assert [evaluate(tie, [lam], cfg).total for lam in (-1, 0, 1)] == [1, 1, 1]
    assert brute_solve(tie, s, cfg) == (1, (0,))
    cases = [(tie, s, cfg)]
    rng = np.random.default_rng(7)
    for trial in range(300):
        n = int(rng.integers(2, 16))
        p = int(rng.integers(1, 4))
        d = (rand_dup_dataset if trial % 2 else rand_dataset)(rng, n, p)
        s = rand_coefset(rng, p)
        cases.append((d, s, _cfg(rng, n, s)))
    for trial, (d, s, cfg) in enumerate(cases):
        _, combo = brute_solve(d, s, cfg)
        assert solve(d, s, cfg).best.coefficients == tuple(combo), trial


def _scored(prep, a):
    """(objective, assignment) of the level value indexes a, as the
    search offers them: evaluate()'s objective at pen_den scale."""
    ci = prep.ci
    lam = [None] * ci.p
    for t, j in enumerate(prep.order):
        lam[j] = ci.values[j][prep.KIDX[t][a[t]]]
    total = evaluate(ci.d, lam, ci.cfg, tiers=ci.s.tiers).total * ci.pen_den
    assert total.denominator == 1
    return int(total), list(a)


def _value_indexes(s, lam):
    """The index of each coefficient of lam in its domain's values."""
    return tuple(dom.values.index(v) for v, dom in zip(lam, s.domains))


def test_search_replaces_an_incumbent_that_only_loses_the_tie():
    # seed the mirror model (0, 1) of the footnote instance: its
    # objective and l1 equal those of the answer (-1, 0), whose subtree
    # has bound == incumbent, so it is reached only because ties are
    # searched, and won only by consider's vector order
    from scoresys.objective import CompiledInstance
    from scoresys.solver import _Engine, _Prep
    d = footnote_dataset()
    s = uniform(bounded_integers(1), 2)
    cfg = TrainConfig(c0=Fraction(1, 10)).resolve(d.n, s)
    ci = CompiledInstance(d, s, cfg)
    prep = _Prep(ci)
    eng = _Engine(prep, cfg, time.monotonic(), None)
    mirror = [prep.KIDX[t].index(ci.values[j].index((0, 1)[j]))
              for t, j in enumerate(prep.order)]
    eng.consider(*_scored(prep, mirror))
    eng.dfs(0, prep.zeros_margin, 0, [])
    korig = eng.best[2]
    assert tuple(ci.values[j][korig[j]] for j in range(2)) == (-1, 0)


def _closing_case(rng, trial):
    """A random table and coefficient set for the closing tests: plain
    tables, tables with repeats and twins (every third of those on
    Python ints), and every fourth set with tier costs, under which a
    level's least penalty is not its zero value's."""
    n, p = int(rng.integers(4, 24)), int(rng.integers(2, 6))
    if trial % 3 == 0:
        d = rand_dataset(rng, n, p)
    else:
        d = rand_dup_dataset(rng, n, p, scale=10**18 if trial % 3 == 2 else 1)
    if trial % 4 == 1:
        s = CoefficientSet(domains=(bounded_integers(2),) * p, tiers=(_TIERS,) * p)
    else:
        s = rand_coefset(rng, p, max_values=6)
    return d, s, _cfg(rng, n, s)


def _one_nonzero_completions(pr, prefix):
    """Every completion of prefix (level value indexes) that sets one
    free level to a nonzero value and the others to 0."""
    u = len(prefix)
    return [prefix + [0] * (v - u) + [k] + [0] * (pr.p - v - 1)
            for v in range(u, pr.p) for k in range(1, len(pr.VI[v]))]


def test_close_scores_every_one_nonzero_completion(monkeypatch):
    """Against an incumbent nothing beats, so that its walk never stops,
    _Engine.close offers each completion of a node that sets exactly one
    free level to a nonzero value, once, with evaluate()'s objective
    (consider works out its l1 norm), from any level, across chunk boundaries, on both
    integer paths and with tier costs."""
    from scoresys import solver
    from scoresys.objective import CompiledInstance
    rng = np.random.default_rng(157)
    seen = {"offers": 0, "chunks": 0, "object": 0, "tiers": 0}
    for trial in range(120):
        d, s, cfg = _closing_case(rng, trial)
        ci = CompiledInstance(d, s, cfg)
        pr = solver._Prep(ci)
        u = int(rng.integers(0, ci.p))
        prefix = [int(rng.integers(0, len(pr.VI[t]))) for t in range(u)]
        margin, fpen = pr.zeros_margin, 0
        for t, k in enumerate(prefix):
            margin = margin + pr.VI[t][k] * pr.B[t]
            fpen += pr.PENL[t][k]
        eng = solver._Engine(pr, cfg, time.monotonic(), None)
        eng.best, eng.work = (10**40, 0, (), 0), 0  # no checkpoint: no frames
        offered = []
        monkeypatch.setattr(eng, "consider", lambda obj, a: offered.append(
            (obj, a + [0] * (ci.p - len(a)))))
        eng.close(u, margin, fpen + pr.sufzeropen[u], prefix)
        want = [_scored(pr, a) for a in _one_nonzero_completions(pr, prefix)]
        assert sorted(offered) == sorted(want), trial
        seen["offers"] += len(want)
        seen["chunks"] += sum(ch is not None for ch in pr.CHUNK) > 1
        seen["object"] += not ci.int64_ok
        seen["tiers"] += s.tiers is not None
    assert seen["offers"] >= 600 and min(seen.values()) >= 20, seen


def test_closing_matches_brute_force(monkeypatch):
    """With children closed once their completions of two or more
    nonzero free levels are pruned, the search still returns the very
    vector brute_solve picks, on plain tables, tables with repeats and
    twins, Python-int tables and tier costs."""
    from scoresys import solver
    closes = []
    close = solver._Engine.close

    def counted(eng, u, *args):
        closes.append(u)
        return close(eng, u, *args)

    monkeypatch.setattr(solver._Engine, "close", counted)
    rng = np.random.default_rng(163)
    closed = 0
    for trial in range(240):
        d, s, cfg = _closing_case(rng, trial)
        before = len(closes)
        res = solve(d, s, cfg)
        want, combo = brute_solve(d, s, cfg)
        assert res.status == OPTIMAL, trial
        assert (res.objective.total, res.best.coefficients) == (want, tuple(combo)), trial
        assert res.lower_bound == want, trial
        closed += len(closes) > before
    assert closed >= 150, closed


_ZERO_DEAREST = (Tier(Fraction(1, 1000), frozenset({Fraction(1), Fraction(-1)})),
                 Tier(Fraction(1, 50), frozenset({Fraction(2), Fraction(-2)})),
                 Tier(Fraction(1, 10), frozenset({Fraction(0)})))


def test_close_filter_skips_only_children_nothing_can_win(monkeypatch):
    """Each child's close bound is at most the objective of every
    completion of the child with one nonzero free level, less that of
    its all-zero completion; so every child the filter skips has no
    such completion at or below the incumbent of that moment, and the
    search still returns brute_solve's vector.  The tables are those of
    the closing tests, on both integer paths, with two or more nonzero
    values of one sign, and with value 0 in a tier of its own cost,
    which in every fourth set is dearer than the +-1 tier (so that a
    sign group's step is negative)."""
    from scoresys import solver
    from scoresys.objective import CompiledInstance
    events = []
    close_bounds = solver._Engine.close_bounds

    class Read(list):
        # dfs reads child k's close bound once, as it decides on k
        def __getitem__(self, k):
            events.append((self.eng.best[0], self.prefix + [k], list.__getitem__(self, k)))
            return list.__getitem__(self, k)

    def record(eng, t, margin, neg_out, prefix):
        cheap = close_bounds(eng, t, margin, neg_out, prefix)
        if cheap is None:
            return None
        out = Read(cheap)
        out.eng, out.prefix = eng, list(prefix)
        return out

    monkeypatch.setattr(solver._Engine, "close_bounds", record)
    rng = np.random.default_rng(181)
    seen = {"skips": 0, "object": 0, "tiers": 0, "zero dearest": 0}
    for trial in range(240):
        d, s, cfg = _closing_case(rng, trial)
        if trial % 4 == 3:
            s = CoefficientSet(domains=(bounded_integers(2),) * d.p,
                               tiers=(_ZERO_DEAREST,) * d.p)
            cfg = _cfg(rng, d.n, s)
        events.clear()
        res = solve(d, s, cfg)
        want, combo = brute_solve(d, s, cfg)
        assert (res.objective.total, res.best.coefficients) == (want, tuple(combo)), trial
        if not events:
            continue
        pr = solver._Prep(CompiledInstance(d, s, cfg))
        for best, child, cheap in events[:40]:
            u = len(child)
            zpen = sum(pr.PENL[v][k] for v, k in enumerate(child)) + pr.sufzeropen[u]
            objs = [_scored(pr, a)[0] for a in _one_nonzero_completions(pr, child)]
            assert zpen + cheap <= min(objs), (trial, child)
            if cheap > best - zpen:
                assert min(objs) > best, (trial, child)
                seen["skips"] += 1
                seen["object"] += not pr.ci.int64_ok
                seen["tiers"] += s.tiers is not None
                seen["zero dearest"] += trial % 4 == 3
    assert seen["skips"] >= 300 and min(seen.values()) >= 20, seen


def _rows_like_table(rng, n):
    """A table like the bench's rows workload: integer cells 0..9 in 7
    columns and an intercept, labeled by a planted model plus noise."""
    x = rng.integers(0, 10, size=(n, 7)).astype(np.float64)
    score = x @ np.array([3, -2, 2, -1, 1, 0, 0]) - 8 + rng.normal(0, 3.0, n)
    return Dataset(x=np.hstack([x, np.ones((n, 1))]), y=np.where(score > 0, 1, -1),
                   feature_names=tuple(f"f{j}" for j in range(7)) + ("(Intercept)",),
                   intercept_index=7)


def test_close_filter_runs_only_below_a_level_with_two_values_of_a_sign(monkeypatch):
    """Under +-1 every sign group has one value, where the close bound
    is the exact close: no filter block is built and the search closes
    exactly the children it closes with the filter taken out.  On
    breastcancer under {0, +-1, +-10} at c0 = 1/20 the five cv folds'
    solves close at most 2,000 children (16,026 without the filter,
    over the two c0 of the bench's path)."""
    from scoresys import solver
    from scoresys.data import split_folds
    preps, closes = [], [0]
    init, close = solver._Prep.__init__, solver._Engine.close

    def kept(prep, ci):
        init(prep, ci)
        preps.append(prep)

    def counted(eng, *args):
        closes[0] += 1
        return close(eng, *args)

    def count(d, s, c0):
        closes[0] = 0
        solve(d, s, TrainConfig(c0=c0))
        return closes[0]

    monkeypatch.setattr(solver._Prep, "__init__", kept)
    monkeypatch.setattr(solver._Engine, "close", counted)
    mammo = load_csv(bench_path("mammo.csv"))
    cases = [(mammo, Fraction(1, 20)), (mammo, Fraction(1, 100)),
             (_rows_like_table(np.random.default_rng(191), 600), Fraction(1, 500))]
    for d, c0 in cases:
        s = uniform(bounded_integers(1), d.p)
        filtered = count(d, s, c0)
        assert not any(preps[-1].filtered) and preps[-1].FILT == [None] * d.p
        with monkeypatch.context() as m:
            m.setattr(solver._Prep, "close_bounds", lambda *a: None)
            assert count(d, s, c0) == filtered > 0, c0
    d = load_csv(bench_path("breastcancer.csv"))
    s = uniform(explicit_values([0, 1, -1, 10, -10]), d.p)
    folds = split_folds(d, 5, seed=0, stratify=True)
    total = 0
    for f in range(5):
        total += count(d.subset(folds.train_indices(f)), s, Fraction(1, 20))
        assert any(preps[-1].filtered) and any(b is not None for b in preps[-1].FILT)
    assert 0 < total <= 2000, total


def test_search_past_float_range():
    """c0 = 1/10**320 puts every objective at pen_den scale beyond float
    range, and a {0} domain makes a level with no nonzero step: the
    closing and nonzero tests still decide in integers, and the search
    returns brute_solve's vector."""
    rng = np.random.default_rng(179)
    for trial in range(30):
        n, p = int(rng.integers(3, 16)), int(rng.integers(2, 5))
        d = (rand_dataset if trial % 2 else rand_dup_dataset)(rng, n, p)
        doms = list(rand_coefset(rng, p).domains)
        if trial % 3 == 0:
            doms[int(rng.integers(p))] = explicit_values([0])
        s = CoefficientSet(domains=tuple(doms))
        cfg = TrainConfig(c0=Fraction(1, 10**320)).resolve(n, s)
        want, combo = brute_solve(d, s, cfg)
        res = solve(d, s, cfg)
        assert res.status == OPTIMAL, trial
        assert (res.objective.total, res.best.coefficients) == (want, tuple(combo)), trial


def test_search_closes_every_child_the_two_step_charge_prunes(monkeypatch):
    """No node below the root is expanded whose completions with two or
    more nonzero free levels are pruned: its lower_bound_of plus the two
    least steps from a free level's least penalty to its least nonzero
    one, worked out here from the compiled penalties, exceeds the
    incumbent.  Such a child must be closed instead; one whose sum ties
    the incumbent is searched."""
    from scoresys import solver
    from scoresys.objective import CompiledInstance
    dfs = solver._Engine.dfs
    expanded = []

    def record(eng, t, margin, fpen, prefix):
        if t:
            expanded.append((tuple(prefix), eng.best[0]))
        return dfs(eng, t, margin, fpen, prefix)

    monkeypatch.setattr(solver._Engine, "dfs", record)
    rng = np.random.default_rng(167)
    checked = 0
    for trial in range(120):
        d, s, cfg = _closing_case(rng, trial)
        ci = CompiledInstance(d, s, cfg)
        pr = solver._Prep(ci)
        steps = []
        for j in range(ci.p):
            nonzero = [int(x) for k, x in enumerate(ci.pen[j]) if k != ci.zero_index[j]]
            steps.append(min(nonzero) - int(ci.pen[j].min()) if nonzero else math.inf)
        expanded.clear()
        solve(d, s, cfg)
        for prefix, obj in expanded:
            values = [None] * ci.p
            for t, k in enumerate(prefix):
                j = pr.order[t]
                values[j] = ci.values[j][pr.KIDX[t][k]]
            bound = lower_bound_of(SearchState(ci, tuple(values)), cfg) * ci.pen_den
            two = sum(sorted(steps[pr.order[t]] for t in range(len(prefix), ci.p))[:2])
            if len(prefix) == ci.p - 1:
                two = math.inf
            assert bound + two <= obj, trial
            checked += 1
    assert checked >= 200, checked


def test_budget_holds_through_closes(monkeypatch):
    """A budgeted -100..100 solve whose search spends its time closing
    children: between two checkpoints (the clock reads that can stop
    the search) the search takes at most WORK_QUANTUM block cells plus
    one block, closes and close filters included, and the solve returns
    within its budget."""
    from scoresys import solver
    rng = np.random.default_rng(173)
    n, p, budget = 600, 6, 0.5
    x = rng.integers(0, 10, size=(n, p)).astype(np.float64)
    score = x @ np.array([3, -2, 2, -1, 1, 0]) - 8 + rng.normal(0, 3.0, n)
    d = Dataset(x=x, y=np.where(score > 0, 1, -1),
                feature_names=tuple(f"f{j}" for j in range(p)))
    s = uniform(bounded_integers(100), p)
    cfg = TrainConfig(c0=Fraction(1, 500), time_budget_s=budget)
    cells, gaps, largest = [0, 0], [], [0]
    chunk, child_bounds, checkpoint = (solver._Prep.chunk, solver._Prep.child_bounds,
                                       solver._Engine._checkpoint)
    close_bounds = solver._Prep.close_bounds

    def add(prep, rows, kind):
        cells[0] += rows * prep.ci.n_rows
        cells[1] += kind * rows * prep.ci.n_rows
        largest[0] = max(largest[0], rows * prep.ci.n_rows)

    def counted_chunk(prep, u):
        ch = chunk(prep, u)
        add(prep, len(ch[0]), 1)
        return ch

    def counted_bounds(prep, t, margin, *fpen):
        out = child_bounds(prep, t, margin, *fpen)
        add(prep, len(out[0]), 0)
        return out

    def counted_close_bounds(prep, t, *args):
        out = close_bounds(prep, t, *args)
        if out is not None:
            add(prep, len(prep.FILT[t]), 0)
        return out

    def counted_checkpoint(eng, t, prefix):
        gaps.append(cells[0])
        cells[0] = 0
        return checkpoint(eng, t, prefix)

    monkeypatch.setattr(solver._Prep, "chunk", counted_chunk)
    monkeypatch.setattr(solver._Prep, "child_bounds", counted_bounds)
    monkeypatch.setattr(solver._Prep, "close_bounds", counted_close_bounds)
    monkeypatch.setattr(solver._Engine, "_checkpoint", counted_checkpoint)
    t0 = time.monotonic()
    res = solve(d, s, cfg)
    took = time.monotonic() - t0
    assert res.status == BUDGET
    assert cells[1] > 10 * solver.WORK_QUANTUM, cells  # closes did much of the work
    assert max(gaps) <= solver.WORK_QUANTUM + largest[0], (max(gaps), largest)
    assert took <= budget + 0.25, took


def _frontier_bound(prep, t, prefix, memo):
    """The least lower_bound_of over the level-t node at prefix and the
    siblings after prefix[u] at each level u < t, from the prefix
    alone; memo keeps each node's bound by its value indexes."""
    ci = prep.ci

    def bound(ks):
        if ks not in memo:
            values = [None] * ci.p
            for u, k in enumerate(ks):
                j = prep.order[u]
                values[j] = ci.values[j][prep.KIDX[u][k]]
            memo[ks] = lower_bound_of(SearchState(ci, tuple(values)), ci.cfg)
        return memo[ks]

    ks = tuple(prefix)
    return min([bound(ks)] + [bound(ks[:u] + (k,)) for u in range(t)
                              for k in range(ks[u] + 1, len(prep.KIDX[u]))])


@pytest.mark.parametrize("tol", [0, 0.2, 0.5])
def test_checkpoint_bound_stays_below_the_optimum(monkeypatch, tol):
    """With a checkpoint at every expansion, the bound the search reports
    is the running max of the frontier's least lower_bound_of, never
    exceeds the optimum, on plain tables, tables with repeats and twins,
    and tables of 1e18 cells; a solve that closes its gap reports
    lower_bound == objective.  Seeding offers only the all-zero vector,
    so the incumbent is poor for longer and the open subtrees carry the
    bound."""
    from scoresys import solver
    monkeypatch.setattr(solver, "WORK_QUANTUM", 1)

    def seed_zero(prep, eng, warm, deadline):
        zero = [0] * prep.p
        eng.consider(*_scored(prep, zero))

    monkeypatch.setattr(solver, "_seed_incumbent", seed_zero)
    floors, frontier, memo = [], [], {}
    checkpoint = solver._Engine._checkpoint

    def record(eng, t, prefix):
        checkpoint(eng, t, prefix)
        floors.append(Fraction(eng.lb_floor, eng.pen_den))
        frontier.append(_frontier_bound(eng.prep, t, prefix, memo))

    monkeypatch.setattr(solver._Engine, "_checkpoint", record)
    rng = np.random.default_rng(97)
    raised = 0
    for trial in range(60):
        n = int(rng.integers(6, 30))
        p = int(rng.integers(2, 5))
        if trial % 3 == 0:
            d = rand_dataset(rng, n, p)
        else:
            d = rand_dup_dataset(rng, n, p, scale=10**18 if trial % 3 == 2 else 1)
        dom = bounded_integers(2) if trial % 2 else explicit_values([0, 1, -1, -2, 3])
        s = uniform(dom, p)
        cfg = _cfg(rng, n, s, gap_tolerance=tol)
        want, _ = brute_solve(d, s, cfg)
        floors.clear()
        frontier.clear()
        memo.clear()
        res = solve(d, s, cfg)
        assert floors == list(itertools.accumulate(frontier, max)), trial
        assert floors[-1] <= want, trial
        assert res.lower_bound <= want <= res.objective.total, trial
        if tol == 0:
            assert res.status == OPTIMAL, trial
            assert res.lower_bound == res.objective.total == want, trial
        raised += floors[-1] > floors[0]
    assert raised >= 10, raised


def test_lower_bound_rejects_foreign_config():
    rng = np.random.default_rng(3)
    d = rand_dataset(rng, 6, 1)
    s = uniform(bounded_integers(1), 1)
    cfg = TrainConfig(c0=Fraction(1, 10)).resolve(6, s)
    other = TrainConfig(c0=Fraction(2, 10)).resolve(6, s)
    from scoresys.objective import CompiledInstance
    ci = CompiledInstance(d, s, cfg)
    with pytest.raises(ConfigError):
        lower_bound_of(SearchState(ci, (None,)), other)


def test_trace_monotone_and_bracketing():
    rng = np.random.default_rng(17)
    d = rand_dataset(rng, 40, 4, intercept=True)
    s = uniform(bounded_integers(3), 4)
    cfg = TrainConfig(c0=Fraction(1, 100))
    lines = []
    res = solve(d, s, cfg, trace_sink=lines.append)
    assert res.status == OPTIMAL
    incs, lbs = [], []
    for ln in lines:
        el, inc, lb, nnz = ln.strip().split(",")
        incs.append(float(inc))
        lbs.append(float(lb))
    assert incs == sorted(incs, reverse=True)  # incumbent never worsens
    assert lbs == sorted(lbs)                  # bound never retreats
    assert incs[-1] == pytest.approx(float(res.objective.total))
    assert all(lb <= inc + 1e-12 for lb, inc in zip(lbs, incs))
    assert res.trace[-1].incumbent_objective == incs[-1]


def test_budget_exhaustion_status():
    rng = np.random.default_rng(23)
    d = rand_dataset(rng, 120, 8, intercept=True)
    s = uniform(bounded_integers(20), 8)
    cfg = TrainConfig(c0=Fraction(1, 1000), time_budget_s=0.2)
    t0 = time.monotonic()
    res = solve(d, s, cfg)
    assert time.monotonic() - t0 < 5.0
    assert res.status == BUDGET
    assert res.gap > 0
    assert res.lower_bound <= res.objective.total
    # the incumbent is still a genuine member of the lattice
    assert s.contains(res.best.coefficients)


def test_gap_tolerance_stops_early_with_honest_status():
    rng = np.random.default_rng(29)
    d = rand_dataset(rng, 60, 5, intercept=True)
    s = uniform(bounded_integers(8), 5)
    cfg = TrainConfig(c0=Fraction(1, 200), gap_tolerance=0.9)
    res = solve(d, s, cfg)
    assert res.status in (OPTIMAL, BUDGET)
    if res.status == BUDGET:
        assert res.gap <= 0.9 + 1e-9


def test_jobs_determinism():
    # jobs changes neither the model nor the certificate: two certified
    # instances, and one that gap_tolerance stops with a gap left open
    small = rand_dataset(np.random.default_rng(37), 30, 4, intercept=True)
    wide = rand_dataset(np.random.default_rng(3), 80, 5, intercept=True)
    gapped = rand_dup_dataset(np.random.default_rng(24), 150, 6)
    cases = [(small, uniform(bounded_integers(3), 4), TrainConfig(c0=Fraction(1, 100))),
             (wide, uniform(bounded_integers(4), 5), TrainConfig(c0=Fraction(1, 100))),
             (gapped, uniform(bounded_integers(3), 6),
              TrainConfig(c0=Fraction(1, 100), gap_tolerance=0.5))]
    for i, (d, s, cfg) in enumerate(cases):
        base = solve(d, s, cfg, jobs=1)
        assert base.status == OPTIMAL, i
        if cfg.gap_tolerance:
            assert 0 < base.gap <= 0.5, i
        for jobs in (2, 3, 4):
            r = solve(d, s, cfg, jobs=jobs)
            assert r.best.coefficients == base.best.coefficients
            assert r.objective.total == base.objective.total
            assert r.best.to_json() == base.best.to_json()
            assert (r.status, r.lower_bound, r.gap, r.nodes_explored) == (
                base.status, base.lower_bound, base.gap, base.nodes_explored), (i, jobs)


def test_empty_dataset_rejected():
    from scoresys.errors import DataError
    with pytest.raises(DataError):
        Dataset(x=np.zeros((0, 1)), y=np.zeros(0, dtype=int),
                feature_names=("a",), intercept_index=None)


def test_result_metadata():
    rng = np.random.default_rng(43)
    d = rand_dataset(rng, 10, 2)
    s = uniform(bounded_integers(1), 2)
    res = solve(d, s, TrainConfig(c0=Fraction(1, 20)))
    assert isinstance(res, SolveResult)
    assert res.gap == 0.0
    assert res.lower_bound == res.objective.total
    assert res.nodes_explored > 0
    assert res.best.provenance["dataset_hash"] == d.content_hash()
    assert res.best.feature_names == d.feature_names


def _snap_linear(dom, target):
    return min(dom.values, key=lambda v: (abs(v - target), abs(v), v))


def test_snap_matches_the_linear_scan():
    rng = np.random.default_rng(73)
    doms = [bounded_integers(1), bounded_integers(100), signed_integers("neg", 5),
            signed_integers("pos", 7), explicit_values([0, 1, -1, 10, -10]),
            explicit_values([0, Fraction(1, 2), Fraction(-3, 2), 7, -7, 8])]
    for dom in doms:
        vals = dom.values
        targets = list(vals)
        targets += [(a + b) / 2 for a, b in zip(vals, vals[1:])]  # midpoints
        targets += [vals[0] - 1, vals[-1] + 1, Fraction(0)]
        targets += [Fraction(int(rng.integers(-2000, 2000)), int(rng.integers(1, 20)))
                    for _ in range(200)]
        vals, den = dom.scaled_values()
        for target in targets:
            k = _nearest_index(vals, target.numerator * den, target.denominator)
            assert dom.values[k] == _snap_linear(dom, target), (dom, target)


def _polish_reference(prep, assign):
    """Coordinate descent scoring each value on its own and taking the
    first of the least (objective, index) pairs; returns the assignment
    and the number of sweeps it took."""
    assign = list(assign)
    for sweeps in range(1, 61):
        changed = False
        for t in range(prep.p):
            base = prep.zeros_margin
            for u in range(prep.p):
                if u != t:
                    base = base + prep.VI[u][assign[u]] * prep.B[u]
            tot = [int(pen) + int(prep.ci.loss(base + v * prep.B[t]))
                   for v, pen in zip(prep.VI[t], prep.PEN[t])]
            k = min(range(len(tot)), key=lambda k: (tot[k], k))
            if (tot[k], k) < (tot[assign[t]], assign[t]):
                assign[t] = k
                changed = True
        if not changed:
            break
    return assign, sweeps


@pytest.mark.parametrize("scale", [1, 10**18])
def test_polish_is_the_same_with_either_kernel(monkeypatch, scale):
    # the sweep and the block score a coordinate's values alike, so
    # coordinate descent takes the same steps from any start; a batch
    # of starts that converge after different numbers of sweeps
    # descends each start as it would alone
    from scoresys import solver
    from scoresys.objective import CompiledInstance
    rng = np.random.default_rng(79)
    doms = [bounded_integers(1), bounded_integers(20), bounded_integers(100),
            explicit_values([0, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2),
                             Fraction(-3, 2), 7, -7])]
    mixed = 0
    for trial in range(25):
        n, p = int(rng.integers(3, 80)), int(rng.integers(1, 5))
        d = rand_dup_dataset(rng, n, p, lo=-4, hi=4, scale=scale)
        s = CoefficientSet(domains=tuple(doms[int(rng.integers(len(doms)))]
                                         for _ in range(p)))
        prep = solver._Prep(CompiledInstance(d, s, _cfg(rng, n, s)))
        assert prep.ci.int64_ok == (scale == 1)
        starts = [[int(rng.integers(len(prep.VI[t]))) for t in range(p)]
                  for _ in range(4)]
        want, sweeps = zip(*(_polish_reference(prep, a) for a in starts))
        mixed += len(set(sweeps)) > 1
        got = {}
        for kernel, least in (("block", 10**9), ("sweep", 0)):
            monkeypatch.setattr(solver, "SWEEP_MIN_VALUES", least)
            got[kernel] = solver._polish(prep, starts)
            assert [solver._polish(prep, [a])[0] for a in starts] == got[kernel], trial
        assert got["block"] == got["sweep"], trial
        assert got["sweep"] == [_scored(prep, a) for a in want], trial
        # past its deadline a descent takes no step
        assert (solver._polish(prep, starts, time.monotonic() - 1)
                == [_scored(prep, a) for a in starts])
    assert mixed >= 10, mixed


def test_seeding_past_the_deadline_offers_only_the_plain_starts(monkeypatch):
    # no descent starts, but the all-zero and the warm start are scored
    from scoresys import solver
    from scoresys.objective import CompiledInstance
    rng = np.random.default_rng(89)
    d = rand_dataset(rng, 50, 4, intercept=True)
    s = uniform(bounded_integers(5), 4)
    cfg = TrainConfig(c0=Fraction(1, 100)).resolve(d.n, s)
    prep = solver._Prep(CompiledInstance(d, s, cfg))
    eng = solver._Engine(prep, cfg, time.monotonic(), None)
    descents = []
    monkeypatch.setattr(solver, "_polish", lambda prep, batch, deadline=None:
                        descents.extend(batch) or [_scored(prep, a) for a in batch])
    warm = warm_start(d, s)
    solver._seed_incumbent(prep, eng, _value_indexes(s, warm), time.monotonic() - 1)
    assert descents == []
    want = min(evaluate(d, lam, cfg).total for lam in ([0] * 4, warm))
    assert Fraction(eng.best[0], prep.ci.pen_den) == want


def test_seeding_descends_each_distinct_start_once(monkeypatch):
    # mammo's warm start under +-1 has 5 nonzeros, so its truncations to
    # 6 and 8 coordinates are the warm start again: the descents run
    # from the warm start, its truncations, the all-zero vector and the
    # bias-only starts, in that order, each distinct start once; the
    # 8 x 3 x 74 cells of a step's block fit WORK_QUANTUM, so they
    # descend in one batch
    from scoresys import solver
    from scoresys.objective import CompiledInstance
    d = load_csv(bench_path("mammo.csv"))
    s = uniform(bounded_integers(1), d.p)
    cfg = TrainConfig(c0=Fraction(1, 20)).resolve(d.n, s)
    prep = solver._Prep(CompiledInstance(d, s, cfg))
    eng = solver._Engine(prep, cfg, time.monotonic(), None)
    descents, batches = [], []

    def record(prep, batch, deadline=None):
        batches.append(len(batch))
        descents.extend(map(tuple, batch))
        return [_scored(prep, a) for a in batch]

    monkeypatch.setattr(solver, "_polish", record)
    warm = warm_start(d, s)
    solver._seed_incumbent(prep, eng, _value_indexes(s, warm), None)

    def at_levels(lam):
        # level t's values run small |value| first, then small value
        return tuple(sorted(s.domains[j].values, key=lambda v: (abs(v), v)).index(lam[j])
                     for j in prep.order)

    level = {j: t for t, j in enumerate(prep.order)}
    ranked = sorted(range(d.p), key=lambda j: (-abs(warm[j]), level[j]))
    zero = [Fraction(0)] * d.p
    starts = [at_levels(warm)]
    for keep in (1, 2, 3, 4, 6, 8):
        starts.append(at_levels([warm[j] if j in ranked[:keep] else 0 for j in range(d.p)]))
    starts.append(at_levels(zero))
    for v in (-1, 1):
        starts.append(at_levels([v if j == d.intercept_index else 0 for j in range(d.p)]))
    assert sum(v != 0 for v in warm) == 5
    assert starts[6] == starts[5] == starts[0]
    assert len(set(descents)) == len(descents) == len(set(starts)) == 8
    assert descents == list(dict.fromkeys(starts))
    assert batches == [8]


def _record_batches(monkeypatch, solver) -> list:
    """Patch solver._polish to record the number of starts of each
    batch it descends, in the returned list."""
    polish, batches = solver._polish, []

    def record(prep, batch, deadline=None):
        batches.append(len(batch))
        return polish(prep, batch, deadline)

    monkeypatch.setattr(solver, "_polish", record)
    return batches


def test_seeding_is_the_same_in_smaller_batches(monkeypatch):
    """A WORK_QUANTUM that holds the blocks of only a few starts splits
    the starts into batches of that many, in list order, and the
    incumbent and the trace values are those of one batch, on mammo and
    on random tables with twins on the int64 and the object path."""
    from scoresys import solver
    from scoresys.objective import CompiledInstance
    rng = np.random.default_rng(157)
    mammo = load_csv(bench_path("mammo.csv"))
    s = uniform(bounded_integers(1), mammo.p)
    cases = [(mammo, s, TrainConfig(c0=Fraction(1, 20)).resolve(mammo.n, s))]
    for trial in range(12):
        n, p = int(rng.integers(10, 60)), int(rng.integers(3, 6))
        d = rand_dup_dataset(rng, n, p, scale=10**18 if trial % 2 else 1)
        s = rand_coefset(rng, p)
        cases.append((d, s, _cfg(rng, n, s)))
    quantum, batches = solver.WORK_QUANTUM, _record_batches(monkeypatch, solver)
    split = 0
    for d, s, cfg in cases:
        prep = solver._Prep(CompiledInstance(d, s, cfg))
        cells = max(map(len, prep.VI)) * prep.ci.n_rows
        got = []
        for size in (None, 3, 1):
            monkeypatch.setattr(solver, "WORK_QUANTUM",
                                quantum if size is None else size * cells + cells - 1)
            eng = solver._Engine(prep, cfg, time.monotonic(), None)
            batches.clear()
            solver._seed_incumbent(prep, eng, _value_indexes(s, warm_start(d, s)), None)
            if size is not None:
                assert batches[:-1] == [size] * (len(batches) - 1), batches
                assert 0 < batches[-1] <= size, batches
            got.append((eng.best, [(pt.incumbent_objective, pt.incumbent_nnz,
                                    pt.lower_bound) for pt in eng.trace]))
        assert got[1] == got[2] == got[0], (d.n, d.p)
        split += sum(batches) > 3
    assert split >= 5, split


def test_budget_covers_seeding_on_a_large_table(monkeypatch):
    # 20000 distinct rows, 20 columns, -100..100: seeding to the end
    # takes about 6 s on 2 cores, so the deadline must stop it
    from scoresys import solver
    rng = np.random.default_rng(83)
    n, p, budget = 20000, 20, 0.5
    x = rng.integers(0, 10, size=(n, p)).astype(np.float64)
    score = x @ rng.integers(-3, 4, size=p) + rng.normal(0, 3.0, n)
    y = np.where(score > np.median(score), 1, -1)
    d = Dataset(x=x, y=y, feature_names=tuple(f"f{j}" for j in range(p)))
    s = uniform(bounded_integers(100), p)
    cfg = TrainConfig(c0=Fraction(1, 500), time_budget_s=budget)
    # 201 values x 20000 rows pass WORK_QUANTUM: one start per batch
    batches = _record_batches(monkeypatch, solver)
    t0 = time.monotonic()
    res = solve(d, s, cfg)
    took = time.monotonic() - t0
    assert took <= budget + max(0.5, 0.1 * budget), took
    assert res.status == BUDGET
    assert res.nodes_explored == 1  # the deadline fell inside seeding
    assert batches and set(batches) == {1}, batches
    assert res.objective.total == evaluate(d, res.best.coefficients,
                                           cfg.resolve(n, s)).total
