"""Exact minimization of the scoring objective by branch and bound.

The search fixes coefficients one at a time (most class-separating
column first, small |value| first) and keeps exact integer margins for
every distinct row, pruning with an admissible bound: penalties already
committed, the least penalty each remaining coefficient must add, the
loss of rows no completion can rescue, and the cheaper row of each
opposite pair neither of which is lost yet.  Below a node, every
completion but the all-zero one pays at least one more nonzero
penalty; when that alone prunes, the all-zero completion is scored
exactly instead of searched.  Objective ties resolve
to the smallest l1 norm, then to the lexicographically smallest
coefficient vector; pruning is careful to respect that rule, so the
returned vector is a pure function of the problem and not of traversal
order.  One solve runs serially in one thread.  A time budget makes
the solver anytime: the incumbent is always a feasible model and the
reported lower bound never exceeds it.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coefset import CoefficientSet
from .data import Dataset
from .errors import ConfigError, DomainError, ScoresysError
from .exactnum import to_fraction
from .objective import CompiledInstance, ObjectiveValue, TrainConfig, evaluate
from .report import ScoringSystem

INF = float("inf")
# block cells (values x rows) expanded between clock reads: reads come
# about every 16 ms on mammo's 3 x 74 blocks, every 1.6 ms on
# breastcancer's 5 x 683, and after every block of 131072 cells or
# more, so a block as large as 201 values x 20000 rows (tens of ms)
# never runs twice past the deadline
WORK_QUANTUM = 1 << 17
# a coordinate with at least this many values is scored by
# CompiledInstance.value_losses, not by a block.  Per call on random
# tables (2 cores, numpy 2): the two take equal time at about 31 values
# over 680 rows (36 vs 33 us) and 21 values over 2900 rows (96 vs
# 76 us); at 201 values the block takes 6x (680 rows) to 21x (13200
# rows) longer; over 74 rows both take 5-30 us at any size
SWEEP_MIN_VALUES = 32
TRACE_EVERY_S = 0.05       # min spacing of periodic trace points
GAP_EPS = Fraction(1, 10**9)

OPTIMAL = "optimal"
BUDGET = "feasible_budget_exhausted"


@dataclass(frozen=True)
class TracePoint:
    elapsed_s: float
    incumbent_objective: float
    incumbent_nnz: int
    lower_bound: float

    def csv_line(self) -> str:
        return (f"{self.elapsed_s:.6f},{self.incumbent_objective!r},"
                f"{self.lower_bound!r},{self.incumbent_nnz}")


@dataclass(frozen=True)
class SolveResult:
    """A solve's model and certificate.  nodes_explored counts search
    nodes: expansions (nodes whose children were bounded) plus leaves
    (complete vectors scored at the last level)."""

    best: ScoringSystem
    objective: ObjectiveValue
    lower_bound: Fraction
    gap: float
    status: str                      # OPTIMAL or BUDGET
    trace: tuple[TracePoint, ...]
    nodes_explored: int


def _class_mean_diffs(d: Dataset) -> list[Fraction]:
    """Exact mean(x_j | y=+1) - mean(x_j | y=-1) per column; 0 when a
    class is absent."""
    pos = d.y == 1
    n_pos = int(pos.sum())
    n_neg = d.n - n_pos
    out = []
    for j in range(d.p):
        nums, den = d.exact_column(j)
        if n_pos == 0 or n_neg == 0:
            out.append(Fraction(0))
            continue
        mp = Fraction(int(nums[pos].sum()), den * n_pos)
        mn = Fraction(int(nums[~pos].sum()), den * n_neg)
        out.append(mp - mn)
    return out


def _snap(dom, target: Fraction) -> Fraction:
    """Nearest domain value; ties prefer small |v|, then small v.  The
    values are ascending, so only the two around target can be nearest."""
    vals = dom.values
    i = bisect.bisect_left(vals, target)
    return min(vals[max(i - 1, 0):i + 1], key=lambda v: (abs(v - target), abs(v), v))


def warm_start(d: Dataset, s: CoefficientSet) -> tuple[Fraction, ...]:
    """Feasible starting vector: per-column class-mean differences,
    rescaled so the largest lands on its domain's largest magnitude,
    then each coordinate snapped to the nearest domain value.  Columns
    that do not separate the classes (constants included) snap to 0.
    """
    if s.p != d.p:
        raise ConfigError(f"coefficient set has {s.p} domains for {d.p} columns")
    diffs = _class_mean_diffs(d)
    scale = max((abs(u) for u in diffs), default=Fraction(0))
    if scale == 0:
        return tuple(Fraction(0) for _ in range(d.p))
    out = []
    for j, u in enumerate(diffs):
        target = u / scale * s.domains[j].max_abs
        out.append(_snap(s.domains[j], target))
    return tuple(out)


# --- public bound over partial assignments -----------------------------------

@dataclass(frozen=True, eq=False)
class SearchState:
    """Partial coefficient assignment over a compiled instance; None
    marks an undecided coordinate."""

    instance: CompiledInstance
    values: tuple

    def __post_init__(self):
        ci = self.instance
        vals = tuple(None if v is None else to_fraction(v) for v in self.values)
        if len(vals) != ci.p:
            raise ConfigError(f"{len(vals)} entries for {ci.p} coefficients")
        for j, v in enumerate(vals):
            if v is not None and v not in ci.s.domains[j]:
                raise DomainError(f"value {v} not in the domain of coefficient {j}")
        object.__setattr__(self, "values", vals)

    def margin_intervals(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-row [lo, hi] of the margin over all completions, at
        margin_den scale.  Any completion's margin lies inside."""
        ci = self.instance
        lo = np.zeros(ci.n_rows, dtype=object)
        hi = np.zeros(ci.n_rows, dtype=object)
        for j, v in enumerate(self.values):
            if v is None:
                a, b = ci.margin_extrema(j)
                lo, hi = lo + a, hi + b
            else:
                contrib = ci.b_cols[j] * ci.vi[j][ci.values[j].index(v)]
                lo, hi = lo + contrib, hi + contrib
        return lo, hi


def lower_bound_of(state: SearchState, cfg: TrainConfig) -> Fraction:
    """Admissible bound, the one the search computes for each node:
    penalties of the fixed coordinates, the least penalty of each free
    one, and CompiledInstance.sure_loss of the rows whose whole margin
    interval is <= 0.  No completion of the state can cost less; a fully fixed
    state gives evaluate()'s total exactly."""
    ci = state.instance
    if cfg != ci.cfg:
        raise ConfigError("state was compiled under a different config")
    pen = 0
    for j, v in enumerate(state.values):
        pen += int(ci.pen[j].min() if v is None
                   else ci.pen[j][ci.values[j].index(v)])
    _, hi = state.margin_intervals()
    return Fraction(pen + int(ci.sure_loss(hi <= 0)), ci.pen_den)


# --- engine internals ---------------------------------------------------------

class _Prep:
    """Instance arrays reindexed into search order, plus suffix tables."""

    def __init__(self, ci: CompiledInstance):
        self.ci = ci
        self.p = ci.p
        diffs = _class_mean_diffs(ci.d)
        self.order = sorted(range(ci.p), key=lambda j: (-abs(diffs[j]), j))
        self.B, self.VI, self.PEN, self.L1, self.KIDX = [], [], [], [], []
        mx = []
        for t, j in enumerate(self.order):
            vals = ci.values[j]
            pidx = sorted(range(len(vals)), key=lambda k: (abs(vals[k]), vals[k]))
            self.B.append(ci.b_cols[j])
            self.VI.append(ci.vi[j][pidx])
            self.PEN.append(ci.pen[j][pidx])
            self.L1.append(ci.l1i[j][pidx])
            self.KIDX.append([int(k) for k in pidx])
            mx.append(ci.margin_extrema(j)[1])
        dtype = ci.cost.dtype
        self.zeros_margin = np.zeros(ci.n_rows, dtype=dtype)
        # suffix tables over levels t..p-1: the margin at or below which
        # a row stays lost whatever they add, their least and their
        # all-zero penalty, and the least extra penalty any nonzero
        # value among them costs
        self.lost_at = [None] * (ci.p + 1)
        self.lost_at[ci.p] = np.zeros(ci.n_rows, dtype=dtype)
        self.sufminpen = [0] * (ci.p + 1)
        self.sufzeropen = [0] * (ci.p + 1)
        self.sufnz = [INF] * (ci.p + 1)
        for t in range(ci.p - 1, -1, -1):
            pens = self.PEN[t]  # value 0 first
            self.lost_at[t] = self.lost_at[t + 1] - mx[t]
            self.sufminpen[t] = self.sufminpen[t + 1] + int(pens.min())
            self.sufzeropen[t] = self.sufzeropen[t + 1] + int(pens[0])
            step = int(pens[1:].min()) - int(pens.min()) if len(pens) > 1 else INF
            self.sufnz[t] = min(self.sufnz[t + 1], step)
        total = sum(len(v) for v in self.VI) * ci.n_rows
        self.OUT = None
        if ci.int64_ok and total <= 30_000_000:
            self.OUT = [v[:, None] * b[None, :] for v, b in zip(self.VI, self.B)]

    def level_out(self, t: int) -> np.ndarray:
        if self.OUT is not None:
            return self.OUT[t]
        return self.VI[t][:, None] * self.B[t][None, :]

    def value_losses(self, t: int, base):
        """Loss of base plus the margins of each value of level t, in
        level order: from the block for small domains, from
        CompiledInstance.value_losses for large ones."""
        if len(self.VI[t]) < SWEEP_MIN_VALUES:
            return self.ci.loss(base[None, :] + self.level_out(t))
        return self.ci.value_losses(self.order[t], base)[self.KIDX[t]]

    def child_bounds(self, t: int, margin):
        """Margins and bounds of the children of a level-t node whose
        fixed levels give the margins margin, one row per value at
        level t; the bounds leave out the penalties of levels before t.
        Same bound as lower_bound_of, which is exact at the last level."""
        cand = margin[None, :] + self.level_out(t)
        if t == self.p - 1:
            return cand, self.PEN[t] + self.ci.loss(cand)
        dead = cand <= self.lost_at[t + 1][None, :]
        return cand, self.PEN[t] + self.sufminpen[t + 1] + self.ci.sure_loss(dead)

    def root_bound(self) -> int:
        return self.sufminpen[0] + int(self.ci.sure_loss(self.lost_at[0] >= 0))


class _Engine:
    """The depth-first search and its certificate: the incumbent, the
    monotone lower-bound floor, the stop flag and deadline, the gap
    tolerance and the trace."""

    def __init__(self, prep: _Prep, cfg: TrainConfig, t0: float, sink):
        self.prep = prep
        self.pen_den = prep.ci.pen_den
        self.tol = to_fraction(cfg.gap_tolerance)
        self.t0 = t0
        self.deadline = None
        if cfg.time_budget_s is not None:
            self.deadline = t0 + cfg.time_budget_s
        self.sink = sink
        self.best = None           # (obj_int, l1_int, korig tuple, nnz)
        self.stop = False
        self.lb_floor = prep.root_bound()
        self.trace: list[TracePoint] = []
        self.last_emit = -INF
        self.nodes = 0
        self.work = WORK_QUANTUM   # so the clock is read before the first expansion
        self.open_min = [INF] * (prep.p + 1)
        self.active = [INF] * (prep.p + 2)
        self.zero_loss = [None] * prep.p   # per level, filled on demand

    def _emit(self, now: float):
        obj, nnz = self.best[0], self.best[3]
        pt = TracePoint(
            elapsed_s=now - self.t0,
            incumbent_objective=float(Fraction(obj, self.pen_den)),
            incumbent_nnz=nnz,
            lower_bound=float(Fraction(self.lb_floor, self.pen_den)))
        self.trace.append(pt)
        self.last_emit = now
        if self.sink is not None:
            line = pt.csv_line() + "\n"
            self.sink(line) if callable(self.sink) else self.sink.write(line)

    def _korig(self, prefix: list) -> tuple:
        pr = self.prep
        k = list(pr.ci.zero_index)
        for t, kk in enumerate(prefix):
            k[pr.order[t]] = pr.KIDX[t][kk]
        return tuple(k)

    def _nnz(self, korig: tuple) -> int:
        zi = self.prep.ci.zero_index
        return sum(1 for j, k in enumerate(korig) if k != zi[j])

    def consider(self, obj: int, l1: int, prefix: list):
        """Make prefix (a full vector of level value indexes) the
        incumbent if it is less in the (objective, l1, vector) order;
        the vector is built only when (obj, l1) can win."""
        obj, l1 = int(obj), int(l1)
        cur = self.best
        if cur is not None:
            if obj > cur[0] or (obj == cur[0] and l1 > cur[1]):
                return
        korig = self._korig(prefix)
        if cur is not None and (obj, l1, korig) >= cur[:3]:
            return
        self.best = (obj, l1, korig, self._nnz(korig))
        self._emit(time.monotonic())

    def _checkpoint(self, t: int):
        """Clock check plus monotone lower-bound bookkeeping; called
        before the first expansion and then once per WORK_QUANTUM block
        cells.  The bound is the least over the open siblings above
        level t and the subtree being searched."""
        now = time.monotonic()
        if self.deadline is not None and now >= self.deadline:
            self.stop = True
        lb = min(min(self.open_min[:t], default=INF), self.active[t])
        if lb > self.lb_floor:
            # an infinite candidate means every open subtree was
            # pruned against the incumbent, which then is the bound
            cand = self.best[0] if lb == INF else min(int(lb), self.best[0])
            self.lb_floor = max(self.lb_floor, cand)
        if self.tol > 0:
            obj = Fraction(self.best[0], self.pen_den)
            gap = obj - Fraction(self.lb_floor, self.pen_den)
            if gap <= self.tol * max(obj, GAP_EPS):
                self.stop = True
        if now - self.last_emit >= TRACE_EVERY_S:
            self._emit(now)

    def dfs(self, t: int, margin, fpen: int, fl1: int, prefix: list):
        self.nodes += 1
        if self.work >= WORK_QUANTUM:
            self.work = 0
            self._checkpoint(t)
        if self.stop:
            return
        cand, bounds = self.prep.child_bounds(t, margin)
        self.work += cand.size
        bounds = fpen + bounds
        if t == self.prep.p - 1:
            self.leaves(bounds, fl1, prefix)
            return
        sm = np.minimum.accumulate(bounds[::-1])[::-1]
        om = self.open_min
        self.zero_loss[t] = None
        width = len(bounds)
        for k in range(width):
            om[t] = int(sm[k + 1]) if k + 1 < width else INF
            if self.stop:
                break
            self.child(t, k, cand, int(bounds[k]), fpen, fl1, prefix)
        om[t] = INF

    def leaves(self, objs, fl1: int, prefix: list):
        """Score the complete vectors prefix + [k], whose objectives are
        objs[k]; only those at or below the incumbent can replace it."""
        self.nodes += len(objs)
        l1s = self.prep.L1[self.prep.p - 1]
        cur = self.best
        ks = range(len(objs)) if cur is None else np.flatnonzero(objs <= cur[0])
        for k in ks:
            self.consider(int(objs[k]), fl1 + int(l1s[k]), prefix + [int(k)])

    def child(self, t: int, k: int, cand, bk: int, fpen: int, fl1: int,
              prefix: list):
        """Visit value k at level t < p - 1, whose margins are cand[k]
        and whose bound is bk: prune it or search below it.

        Pruning keeps the returned vector a pure function of the
        problem: a subtree is dropped only when none of its completions
        beats the incumbent in the (objective, l1, vector) order.  With
        incumbent (obj, l1), the child's completions cost at least bk
        and have l1 >= l1k, so the child is dropped when bk > obj, or
        bk == obj and l1k > l1.  Every completion but the all-zero one
        costs at least bk + sufnz[t + 1] and has l1 > l1k, so those are
        dropped when bk + sufnz[t + 1] > obj, or when it equals obj and
        l1k >= l1; the all-zero completion is then scored exactly, with
        the losses of all of cand computed once per node.  A child that
        is searched reaches that completion anyway."""
        pr = self.prep
        l1k = fl1 + int(pr.L1[t][k])
        pk = fpen + int(pr.PEN[t][k])
        cur = self.best
        if cur is not None:
            obj, l1 = cur[0], cur[1]
            if bk > obj or (bk == obj and l1k > l1):
                return
            nz = bk + pr.sufnz[t + 1]
            if nz > obj or (nz == obj and l1k >= l1):
                zl = self.zero_loss[t]
                if zl is None:
                    zl = self.zero_loss[t] = pr.ci.loss(cand)
                zobj = pk + pr.sufzeropen[t + 1] + int(zl[k])
                self.consider(zobj, l1k, prefix + [k])
                return
        self.active[t + 1] = bk
        self.dfs(t + 1, cand[k], pk, l1k, prefix + [k])
        self.active[t + 1] = INF


def _evaluate_assign(prep: _Prep, assign: list) -> tuple[int, int]:
    margin = prep.zeros_margin.copy()
    obj = 0
    l1 = 0
    for t, k in enumerate(assign):
        margin = margin + prep.VI[t][k] * prep.B[t]
        obj += int(prep.PEN[t][k])
        l1 += int(prep.L1[t][k])
    obj += int(prep.ci.loss(margin))
    return obj, l1


def _polish(prep: _Prep, assign: list, deadline: float | None = None) -> list:
    """Coordinate descent over the compiled arrays; deterministic and
    strictly improving on (objective, then value-preference indexes),
    so it terminates.  Past the deadline it stops mid-sweep; every step
    leaves a valid assignment.  Used only to seed the incumbent."""
    assign = list(assign)
    margin = prep.zeros_margin.copy()
    for t, k in enumerate(assign):
        margin = margin + prep.VI[t][k] * prep.B[t]
    for _ in range(60):
        changed = False
        for t in range(prep.p):
            if deadline is not None and time.monotonic() >= deadline:
                return assign
            base = margin - prep.VI[t][assign[t]] * prep.B[t]
            tot = prep.PEN[t] + prep.value_losses(t, base)
            k_best = int(np.argmin(tot))  # the first of equal minima
            if (int(tot[k_best]), k_best) < (int(tot[assign[t]]), assign[t]):
                assign[t] = k_best
                margin = base + prep.VI[t][k_best] * prep.B[t]
                changed = True
        if not changed:
            break
    return assign


def _seed_incumbent(prep: _Prep, eng: _Engine, warm, deadline: float | None):
    """Offer the all-zero vector, the snapped warm start and the
    coordinate descents from several starts to the incumbent, each as
    it is found.  Past the deadline no new descent starts."""
    ci = prep.ci

    def offer(a):
        obj, l1 = _evaluate_assign(prep, a)
        eng.consider(obj, l1, a)

    def descend(a):
        if deadline is None or time.monotonic() < deadline:
            offer(_polish(prep, a, deadline))

    pos_of = []
    for t in range(prep.p):
        inv = {dk: k for k, dk in enumerate(prep.KIDX[t])}
        pos_of.append(inv)
    offer([0] * prep.p)
    if warm is not None:
        w = []
        for t in range(prep.p):
            j = prep.order[t]
            v = _snap(ci.s.domains[j], to_fraction(warm[j]))
            w.append(pos_of[t][ci.values[j].index(v)])
        offer(w)
        descend(w)
        # sparse truncations escape local minima the dense start gets
        # stuck in (coordinate descent can then move late-ordered
        # coefficients such as the intercept)
        mags = []
        for t in range(prep.p):
            j = prep.order[t]
            mags.append(abs(ci.values[j][prep.KIDX[t][w[t]]]))
        ranked = sorted(range(prep.p), key=lambda t: (-mags[t], t))
        for keep_k in (1, 2, 3, 4, 6, 8):
            if keep_k >= prep.p:
                break
            keep = set(ranked[:keep_k])
            descend([w[t] if t in keep else 0 for t in range(prep.p)])
    descend([0] * prep.p)
    # bias-only seeds: a small value on the weakest-separation level
    # (a constant intercept column always sorts last) against an
    # otherwise zero vector; descent then grows the strong
    # coefficients, which truncation alone cannot do when partial
    # scores sit exactly at zero
    t_bias = prep.p - 1
    if ci.d.intercept_index is not None:
        t_bias = prep.order.index(ci.d.intercept_index)
    for k in range(1, min(9, len(prep.KIDX[t_bias]))):
        start = [0] * prep.p
        start[t_bias] = k
        descend(start)


def solve(d: Dataset, s: CoefficientSet, cfg: TrainConfig, *,
          jobs: int = 1, warm=None, trace_sink=None) -> SolveResult:
    """Minimize the objective exactly over the coefficient set.

    Returns the optimum with status "optimal" when the tree is
    exhausted (or closed within cfg.gap_tolerance); if cfg.time_budget_s
    runs out first, returns the best incumbent with status
    "feasible_budget_exhausted" and a valid lower bound.  The budget
    counts from the call, so it covers compiling, seeding and search.
    One solve runs serially in one thread: jobs is accepted for
    compatibility and changes nothing, neither the model nor the
    status, bound, gap or node count (run_cv's jobs runs whole solves
    in worker processes).  warm overrides the built-in warm start (it
    is snapped into the domains).
    """
    if d.n < 1:
        raise ConfigError("dataset is empty")
    cfg = cfg.resolve(d.n, s)
    t0 = time.monotonic()
    ci = CompiledInstance(d, s, cfg)
    prep = _Prep(ci)
    eng = _Engine(prep, cfg, t0, trace_sink)
    if warm is None:
        warm = warm_start(d, s)
    elif len(tuple(warm)) != d.p:
        raise ConfigError(f"warm start has {len(tuple(warm))} entries for {d.p} "
                          "coefficients")
    _seed_incumbent(prep, eng, warm, eng.deadline)
    eng._emit(time.monotonic())
    eng.active[0] = prep.root_bound()
    eng.dfs(0, prep.zeros_margin, 0, 0, [])

    best = eng.best
    if best is None:
        raise ScoresysError("internal: search ended with no incumbent")
    obj_int, _, korig, _ = best
    exhausted = not eng.stop
    lb_int = obj_int if exhausted else min(eng.lb_floor, obj_int)
    lower = Fraction(lb_int, ci.pen_den)
    total = Fraction(obj_int, ci.pen_den)
    gap_frac = (total - lower) / max(total, GAP_EPS)
    status = OPTIMAL if gap_frac <= eng.tol else BUDGET
    eng.lb_floor = lb_int
    eng._emit(time.monotonic())

    lam = tuple(ci.values[j][korig[j]] for j in range(ci.p))
    objective = evaluate(d, lam, cfg, tiers=s.tiers)
    if objective.total != total:
        raise ScoresysError("internal: search objective does not match evaluate()")
    ranges = tuple(
        None if j == d.intercept_index
        else (float(d.x[:, j].min()), float(d.x[:, j].max()))
        for j in range(d.p))
    model = ScoringSystem(
        coefficients=lam,
        feature_names=tuple(d.feature_names),
        intercept_index=d.intercept_index,
        feature_ranges=ranges,
        provenance={
            "config_hash": cfg.content_hash(),
            "dataset_hash": d.content_hash(),
            "status": status,
        })
    return SolveResult(
        best=model, objective=objective, lower_bound=lower,
        gap=float(gap_frac), status=status, trace=tuple(eng.trace),
        nodes_explored=eng.nodes)

