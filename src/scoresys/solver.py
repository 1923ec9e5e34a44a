"""Exact minimization of the scoring objective by branch and bound.

The search fixes coefficients one at a time and keeps exact integer
margins for every distinct row.  It branches first on the column whose
values move the most loss (the largest cost-weighted margin range), so
rows that no completion can rescue show up near the root, and tries
small |value| first.  It prunes with an admissible bound: penalties
already committed, the least penalty each remaining coefficient must
add, the loss of rows no completion can rescue, and the cheaper row of
each opposite (twin) pair whose margins the free coefficients can still
move; each level prices those pairs up front, into its penalties and
its row costs, so one product of the lost rows with two cost columns
gives both the bounds and the losses of the all-zero completions.
Before the search, coordinate descent seeds the incumbent from a list
of starts, descended side by side in batches.  Below a node, every
completion but the all-zero one pays at least one more nonzero
penalty; when that alone prunes, the all-zero completion is scored
exactly instead of searched.  Every completion with two or more
nonzero free levels pays at least the two least such penalties; when
that prunes, the child is closed: its all-zero completion and every
completion with exactly one nonzero free level are scored exactly, a
chunk of levels per comparison block, and it is not searched (the
lookahead of CORELS and OSDT).  Before a node closes a child, one
comparison block bounds the one-nonzero completions of all its
children: for each free level and each sign, the rows that no value of
that sign rescues, plus the least penalty step of that sign.  A child
whose bound exceeds the incumbent is not closed.  The block is built
only below levels with two or more nonzero values of one sign, since
otherwise the bound is the exact close.  Every prune compares a bound
with the incumbent's objective alone, so a completion that ties the
incumbent is always searched; the incumbent update alone resolves objective ties, to
the smallest l1 norm, then to the lexicographically smallest
coefficient vector, so the returned vector is a pure function of the
problem and not of traversal order.  One solve runs serially in one
thread.  A time budget makes the solver anytime: the incumbent is
always a feasible model and the reported lower bound never exceeds it.
"""

from __future__ import annotations

import bisect
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coefset import CoefficientSet
from .data import Dataset
from .errors import ConfigError, DomainError, ScoresysError
from .exactnum import to_fraction
from .objective import CompiledInstance, ObjectiveValue, TrainConfig, evaluate, int_dtype
from .report import ScoringSystem

INF = float("inf")
# block cells expanded between clock reads: a child bound block is
# values x rows, a close chunk its rows x rows, and a close filter
# values x sign groups x rows (the clock is read before a filter once
# the cells are spent).  In certified solves on 2 cores at c0 = 1/500,
# reads come about every 0.8 ms on mammo under -2..2 (5 x 74 child
# blocks, filters up to 5 x 22 x 74), every 0.5 ms on breastcancer
# under {0, +-1, +-10} (5 x 683, filters up to 5 x 18 x 683, int16
# margins), and after every block of 131072 cells or more, so a block
# as large as 201 values x 20000 rows (tens of ms, its first use
# included) never runs twice past the deadline.  Seeding descends as
# many starts side by side as keep one level step's block (starts x
# the most values of a level x rows) within it, and at least one, and
# reads the clock before each step: a batch holds up to 590 starts on
# mammo under +-1, 38 on breastcancer under {0, +-1, +-10} and 14 on
# rows under +-1 (more than each has), and one under -100..100 on 683
# rows or more
WORK_QUANTUM = 1 << 17
# a coordinate with at least this many values is scored by
# CompiledInstance.value_losses, not by a block.  Per call on random
# tables of distinct rows (2 cores, numpy 2), block vs sweep: at about
# 680 rows they take equal time at 60-70 values (int16 margins: 46 vs
# 52 us at 61 values; int32: 49 vs 50 us), at about 2900 rows at 30
# values (int16: 96 vs 92 us at 31; int32: 110 vs 103 us), and 48 lies
# between the two; at 101 values the block takes 1.5x (680 rows) to
# 3.7x (12800 rows) longer; over 74 rows both take 3-30 us at any
# size.  With int64 margins the equal points lie lower, at about 31
# values over 680 rows and 21 over 2900
SWEEP_MIN_VALUES = 48
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
    """A solve's model and certificate.  nodes_explored counts the
    search's expansions: nodes whose children were bounded.  A
    completion scored exactly (a leaf, a child's all-zero completion, or
    one that a closed child scores) is not counted, nor is a closed
    child."""

    best: ScoringSystem
    objective: ObjectiveValue
    lower_bound: Fraction
    gap: float
    status: str                      # OPTIMAL or BUDGET
    trace: tuple[TracePoint, ...]
    nodes_explored: int


def _class_mean_diffs(d: Dataset) -> tuple[list[int], int]:
    """Exact mean(x_j | y=+1) - mean(x_j | y=-1) per column, as integer
    numerators over one common denominator q > 0: ([a_j], q), all a_j
    0 when a class is absent.  Column j's difference is
    (s_pos n_neg - s_neg n_pos) / (den_j n_pos n_neg), with s_pos and
    s_neg its class sums of numerators at its denominator den_j
    (Dataset.exact_column), so q = lcm(den_j) n_pos n_neg."""
    pos = d.y == 1
    n_pos = int(pos.sum())
    n_neg = d.n - n_pos
    if n_pos == 0 or n_neg == 0:
        return [0] * d.p, 1
    cols = [d.exact_column(j) for j in range(d.p)]
    den = math.lcm(*(cden for _, cden in cols))
    # class sums of the columns side by side, in the width that holds
    # every sum (int_dtype)
    block = np.stack([nums for nums, _ in cols], axis=1)
    block = block.astype(int_dtype(d.n * int(np.abs(block).max())), copy=False)
    sums = zip(block[pos].sum(axis=0).tolist(), block.sum(axis=0).tolist())
    out = [(s_pos * n_neg - (s_all - s_pos) * n_pos) * (den // cden)
           for (s_pos, s_all), (_, cden) in zip(sums, cols)]
    return out, den * n_pos * n_neg


def _nearest_index(vals, num: int, den: int) -> int:
    """Index of the value of vals (ascending ints) nearest num / den,
    den > 0; ties prefer small |value|, then small value.  Only the two
    values around the target can be nearest."""
    i = bisect.bisect_left(vals, num, key=lambda w: w * den)
    return min(range(max(i - 1, 0), min(i + 1, len(vals))),
               key=lambda k: (abs(vals[k] * den - num), abs(vals[k]), vals[k]))


def warm_start(d: Dataset, s: CoefficientSet) -> tuple[Fraction, ...]:
    """Feasible starting vector: per-column class-mean differences,
    rescaled so the largest lands on its domain's largest magnitude,
    then each coordinate snapped to the nearest domain value, all in
    exact integers.  Columns that do not separate the classes
    (constants included) snap to 0.
    """
    if s.p != d.p:
        raise ConfigError(f"coefficient set has {s.p} domains for {d.p} columns")
    return tuple(dom.values[k] for k, dom
                 in zip(_snap_diffs(_class_mean_diffs(d), s), s.domains))


def _snap_diffs(diffs: tuple[list[int], int], s: CoefficientSet) -> tuple[int, ...]:
    """warm_start as value indexes, from the class-mean differences
    diffs as _class_mean_diffs gives them: with scale the largest
    |a_j| and w_i the values of column j's domain times their common
    denominator (CoefficientDomain.scaled_values), column j's target
    at that denominator is a_j * max |w_i| / scale (0 when every a_j
    is)."""
    nums = diffs[0]
    scale = max(map(abs, nums), default=0) or 1
    out = []
    for a, dom in zip(nums, s.domains):
        vals, _ = dom.scaled_values()
        out.append(_nearest_index(vals, a * max(-vals[0], vals[-1]), scale))
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
    one, and the cost of the rows whose whole margin interval is <= 0,
    with the twin pairs whose interval is wider than a point priced up
    front (CompiledInstance.priced_costs): such a pair never has both
    rows' intervals <= 0, and any other pair has one.  No completion of
    the state can cost less; a fully fixed state gives evaluate()'s
    total exactly."""
    ci = state.instance
    if cfg != ci.cfg:
        raise ConfigError("state was compiled under a different config")
    pen = 0
    for j, v in enumerate(state.values):
        pen += int(ci.pen[j].min() if v is None
                   else ci.pen[j][ci.values[j].index(v)])
    lo, hi = state.margin_intervals()
    credit, cost = ci.priced_costs(lo[ci.twin_a] < hi[ci.twin_a])
    return Fraction(pen + int(credit) + int(cost[hi <= 0].sum()), ci.pen_den)


# --- engine internals ---------------------------------------------------------

def _block_bytes(a: np.ndarray) -> int:
    """Bytes a holds, counting each Python-int cell's int object too."""
    size = a.nbytes
    if a.dtype == object:
        size += sum(map(sys.getsizeof, a.flat))
    return size


class _Prep:
    """Instance arrays reindexed into search order, plus suffix tables.

    Level t fixes column order[t].  The order puts first the column
    whose values move the most loss: the largest cost-weighted margin
    range, the sum over rows of cost times (max - min) of the row's
    margin contribution.  A row is lost below a node only once no
    completion can lift its margin, so fixing the wide columns first
    makes lost rows, and so bounds that prune, appear sooner.  Ties go
    to the larger |class-mean difference|, then to the lower column
    index.  Each level's values run small |value| first.  PEN holds a
    level's penalties as an array for block arithmetic.  PENB holds the
    penalty part of its children's bounds, PEN[t] + sufminpen[t + 1]
    (the least penalty of the later levels) plus the twin credit of
    the pairs the later levels can still move (moving, credit[t + 1]);
    COST holds its two cost columns for CompiledInstance.lost_costs,
    the costs with those pairs priced up front and the plain ones;
    root_bound is the root's bound, priced the same way.  PENB, PENL
    and L1 hold Python ints: PENL the penalties, for the search's
    per-child bookkeeping, and L1 the l1 norms, with which the
    incumbent update breaks objective ties.  B, VI, zeros_margin and
    lost_at hold margins in ci.margin_dtype, as do the threshold blocks
    THR keeps (see thresholds), the chunks CHUNK keeps (see chunk) and
    the filter blocks FILT keeps (see filter_block) and the sign
    groups' rows SIGN keeps (see sign_rows).  filtered[t] tells whether a
    level below t has two or more nonzero values of one sign, the only
    levels whose children close_bounds filters.  diffs holds the
    class-mean differences by column, which also give solve its warm
    start."""

    def __init__(self, ci: CompiledInstance):
        self.ci = ci
        self.p = ci.p
        self.diffs = _class_mean_diffs(ci.d)
        diffs = self.diffs[0]
        ext = [ci.margin_extrema(j) for j in range(ci.p)]
        widths = [hi - lo for lo, hi in ext]
        # exact masses, in the width that holds every sum (int_dtype)
        dtype = int_dtype(int(ci.cost.sum()) * max(int(w.max()) for w in widths))
        cost = ci.cost.astype(dtype, copy=False)
        mass = [int(cost @ w.astype(dtype, copy=False)) for w in widths]
        self.order = sorted(range(ci.p), key=lambda j: (-mass[j], -abs(diffs[j]), j))
        self.B, self.VI, self.PEN, self.PENL, self.L1, self.KIDX = [], [], [], [], [], []
        for j in self.order:
            # vi runs in ascending order of value, so a stable sort on
            # |vi| puts -v before v
            pidx = np.argsort(np.abs(ci.vi[j]), kind="stable")
            self.B.append(ci.b_cols[j])
            self.VI.append(ci.vi[j][pidx])
            self.PEN.append(ci.pen[j][pidx])
            self.PENL.append(self.PEN[-1].tolist())
            self.L1.append(ci.l1i[j][pidx].tolist())
            self.KIDX.append(pidx.tolist())
        mx = [ext[j][1] for j in self.order]
        dtype = ci.margin_dtype
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
        self.sufnz2 = [INF] * (ci.p + 1)
        steps = [INF, INF]  # the two least steps of the levels below
        self.filtered = [False] * ci.p
        pairs = False  # a level below has two nonzero values of one sign
        for t in range(ci.p - 1, -1, -1):
            pens = self.PEN[t]  # value 0 first
            self.filtered[t] = pairs
            # ci.vi runs in ascending order: zero_index values lie below 0
            neg = ci.zero_index[self.order[t]]
            pairs = pairs or neg > 1 or len(pens) - neg - 1 > 1
            self.lost_at[t] = self.lost_at[t + 1] - mx[t]
            self.sufminpen[t] = self.sufminpen[t + 1] + int(pens.min())
            self.sufzeropen[t] = self.sufzeropen[t + 1] + int(pens[0])
            step = int(pens[1:].min()) - int(pens.min()) if len(pens) > 1 else INF
            steps = sorted(steps + [step])[:2]
            self.sufnz[t] = steps[0]
            # objectives may lie beyond float range, so no int meets INF
            self.sufnz2[t] = INF if steps[1] == INF else steps[0] + steps[1]
        # row t of credit and priced prices up front the twin pairs that
        # levels t.. can still move: the root's bound takes row 0, level
        # t's children row t + 1
        credit, priced = ci.priced_costs(self.moving(np.array(self.lost_at)))
        self.credit = credit = credit.tolist()
        self.root_bound = (self.sufminpen[0] + credit[0]
                           + int(priced[0][self.lost_at[0] >= 0].sum()))
        self.PENB = [[pen + self.sufminpen[t + 1] + credit[t + 1] for pen in pens]
                     for t, pens in enumerate(self.PENL)]
        self.COST = list(ci.cost_columns(np.stack(
            [priced[1:], np.broadcast_to(ci.cost, priced[1:].shape)], axis=1)))
        self.THR = [None] * ci.p
        self.thr_bytes = 0
        self.over_cap = [False] * ci.p
        self.CHUNK = [None] * ci.p
        self.FILT = [None] * ci.p
        self.SIGN = None

    def moving(self, at) -> np.ndarray:
        """The twin pairs whose margins levels t..p-1 can still move, for
        at = lost_at[t] (rows along the last axis): those with a row
        whose entry is nonzero."""
        ci = self.ci
        return (at[..., ci.twin_a] != 0) | (at[..., ci.twin_b] != 0)

    def thresholds(self, t: int) -> np.ndarray:
        """Level t's threshold block.  With out[k] the margin that value
        k adds to each row, its last K rows are -out (K values): a
        child's row is lost at its all-zero completion exactly when the
        node's margin is <= -out[k].  Above the last level its first K
        rows are lost_at[t + 1] - out: the row is then lost at every
        completion.  Each block is built on first use and kept while
        the kept blocks hold at most 64 MiB (_block_bytes); a level past
        that is marked over_cap, since the kept bytes only grow, and is
        rebuilt at each use without being measured again."""
        thr = self.THR[t]
        if thr is None:
            thr = self.VI[t][:, None] * -self.B[t][None, :]
            if t < self.p - 1:
                thr = np.concatenate([self.lost_at[t + 1][None, :] + thr, thr])
            if not self.over_cap[t]:
                size = _block_bytes(thr)
                if self.thr_bytes + size <= 64 << 20:
                    self.THR[t] = thr
                    self.thr_bytes += size
                else:
                    self.over_cap[t] = True
        return thr

    def value_losses(self, t: int, base):
        """Loss of each row of base (starts x rows of margins) plus the
        margins of each value of level t, in level order (starts x
        values): from one comparison with the block for small domains,
        from CompiledInstance.value_losses per start for large ones."""
        k = len(self.VI[t])
        if k < SWEEP_MIN_VALUES:
            lost = base[:, None, :] <= self.thresholds(t)[-k:]
            return self.ci.lost_cost(lost.reshape(-1, self.ci.n_rows)).reshape(-1, k)
        j, kidx = self.order[t], self.KIDX[t]
        return np.array([self.ci.value_losses(j, b)[kidx] for b in base])

    def child_bounds(self, t: int, margin, fpen: int = 0):
        """Bounds of the children of a level-t node whose fixed levels
        give the margins margin and the penalty fpen, one per value at
        level t, from one comparison with the level's thresholds and
        one product of the rows it marks with the level's two cost
        columns: the twin-priced costs (column 0, whose sums give the
        bounds) and the plain ones (column 1, whose sums give the losses
        of the all-zero completions).  Returns the bounds and those losses as lists of
        Python ints, and the -out rows of the thresholds, from which
        child k's margins are margin - neg_out[k].  The bounds are those
        of lower_bound_of, which is exact at the last level (there the
        block is the -out rows alone, and no twin pair can move, so the
        two columns are equal)."""
        k = len(self.VI[t])
        thr = self.THR[t]
        if thr is None:
            thr = self.thresholds(t)
        priced, plain = self.ci.lost_costs(margin <= thr, self.COST[t]).T.tolist()
        return ([fpen + pen + c for pen, c in zip(self.PENB[t], priced)],
                plain[-k:], thr[-k:])

    def chunk(self, u: int) -> tuple:
        """The chunk of the chain of zero values that starts at level u:
        levels u..w, as many as fit, their nonzero values' -out rows
        and, above the last level, the lost_at[w + 1] row in as many rows
        as level u's threshold block holds (level u always fits).  For a node at
        level u with margins m, one comparison of m with the block and
        one lost_costs product with COST[w] give, in the plain column,
        the loss of each completion that sets one of levels u..w to a
        nonzero value and every other free level to 0, and in the
        priced column the cost part of the bound of the node's zero
        node at level w + 1 (levels u..w set to 0).  Returns (block,
        COST[w], offs, tail, w + 1, zconst): offs holds each
        completion's penalty less that of the all-zero completion, tail
        its (level, value index), and zconst the zero node's
        bound less the all-zero completion's penalty and less the
        priced cost.  A chunk has at most the rows of level u's block,
        so it is kept exactly when that block is, and the kept chunks
        hold no more bytes than the kept blocks."""
        ch = self.CHUNK[u]
        if ch is not None:
            return ch
        room = len(self.thresholds(u)) - 1
        rows, offs, tail, w = [], [], [], u
        while w < self.p and len(self.VI[w]) - 1 <= room:
            k = len(self.VI[w])
            room -= k - 1
            rows.append(self.thresholds(w)[-k:][1:])
            pens = self.PENL[w]
            offs += [pens[kk] - pens[0] for kk in range(1, k)]
            tail += [(w, kk) for kk in range(1, k)]
            w += 1
        if w < self.p:  # the last level has no zero node below it
            rows.append(self.lost_at[w][None, :])
        zconst = self.sufminpen[w] + self.credit[w] - self.sufzeropen[w]
        ch = (np.concatenate(rows), self.COST[w - 1],
              np.array(offs, dtype=self.PEN[u].dtype), tail, w, zconst)
        if self.THR[u] is not None:
            self.CHUNK[u] = ch
        return ch

    def sign_rows(self) -> tuple:
        """The sign groups of every level, stacked, built on first use:
        for each group g of level u's nonzero values of one sign, the
        row R = -max over v in g of v * B[u] (a row whose margin is at
        most R is lost at every value of g; v * B[u] is linear in v, so
        the max is taken at the least or the largest |v| of g) and the
        step, the least penalty in g less that of value 0 (tier costs
        can make it negative).  Returns (R, steps, offs): level u's
        groups are rows offs[u]:offs[u + 1]."""
        if self.SIGN is None:
            rows, steps, offs = [], [], [0]
            for u, vi in enumerate(self.VI):
                pens = self.PENL[u]
                # VI runs small |value| first
                for g in (np.flatnonzero(vi > 0), np.flatnonzero(vi < 0)):
                    if not len(g):
                        continue
                    rows.append(-np.maximum(vi[g[0]] * self.B[u], vi[g[-1]] * self.B[u]))
                    steps.append(min(pens[k] for k in g) - pens[0])
                offs.append(len(rows))
            self.SIGN = (np.stack(rows), np.array(steps, dtype=self.PEN[0].dtype), offs)
        return self.SIGN

    def filter_block(self, t: int, neg_out):
        """Level t's filter block, for the -out rows neg_out of its
        threshold block: neg_out[k] + R for each of its K values and
        each of the G sign groups of the levels below it (sign_rows),
        K * G rows in all.  Child k's margin is at most R exactly when
        the node's margin is at most neg_out[k] + R.  The block is built
        on first use and kept while the kept blocks of both kinds fit
        the 64 MiB cap (thr_bytes) with room left for the threshold
        blocks of the levels below that are not built yet, which every
        expansion there needs (Python-int blocks are sized at their
        pointers' bytes until built); a level whose block does not fit
        is marked False and never filtered."""
        blk = self.FILT[t]
        if blk is None:
            R, _, offs = self.sign_rows()
            R = R[offs[t + 1]:]
            cells = len(neg_out) * len(R)
            for u in range(t + 1, self.p):
                if self.THR[u] is None and not self.over_cap[u]:
                    cells += len(self.VI[u]) * (1 + (u < self.p - 1))
            room = (64 << 20) - self.thr_bytes - cells * self.ci.n_rows * R.itemsize
            blk = False
            if room >= 0:
                full = (neg_out[:, None, :] + R[None, :, :]).reshape(-1, self.ci.n_rows)
                size = _block_bytes(full)
                if size - full.nbytes <= room:
                    blk = full
                    self.thr_bytes += size
            self.FILT[t] = blk
        return blk

    def close_bounds(self, t: int, margin, neg_out) -> list | None:
        """For each child k of a level-t node with margins margin, a
        lower bound on the objective of every completion of the child
        that sets one free level to a nonzero value and the rest to 0,
        less that of its all-zero completion: the least over the sign
        groups of the free levels of the group's step plus the plain
        cost of the child's rows whose margin is at most the group's R
        row.  One comparison with the level's filter block and one
        lost_cost product give them all; None when the block does not
        fit the cap."""
        blk = self.filter_block(t, neg_out)
        if blk is False:
            return None
        _, steps, offs = self.sign_rows()
        lost = self.ci.lost_cost(margin <= blk).reshape(len(neg_out), -1)
        return (lost + steps[offs[t + 1]:]).min(axis=1).tolist()


class _Engine:
    """The depth-first search and its certificate: the incumbent, the
    monotone lower-bound floor, the stop flag and deadline, the gap
    tolerance and the trace.  frames[u] holds the bounds of the
    children of the level-u node on the path being searched; prefix[u]
    is the child being searched, so the siblings after it are open."""

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
        self.root_lb = self.lb_floor = prep.root_bound
        self.trace: list[TracePoint] = []
        self.last_emit = -INF
        self.nodes = 0
        self.work = WORK_QUANTUM   # so the clock is read before the first expansion
        self.frames = [None] * prep.p

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
            self.sink(pt.csv_line() + "\n")

    def _korig(self, prefix: list) -> tuple:
        pr = self.prep
        k = list(pr.ci.zero_index)
        for t, kk in enumerate(prefix):
            k[pr.order[t]] = pr.KIDX[t][kk]
        return tuple(k)

    def _nnz(self, korig: tuple) -> int:
        zi = self.prep.ci.zero_index
        return sum(1 for j, k in enumerate(korig) if k != zi[j])

    def consider(self, obj: int, prefix: list):
        """Make prefix (the level value indexes of a vector, the levels
        after it at index 0, value 0) the incumbent if it is less in the
        (objective, l1, vector) order.  This is the only place that
        breaks objective ties: the l1 norm is summed only when obj can
        win, the vector built only when (obj, l1) can."""
        cur = self.best
        if cur is not None and obj > cur[0]:
            return
        l1 = sum(map(list.__getitem__, self.prep.L1, prefix))
        if cur is not None and (obj, l1) > cur[:2]:
            return
        korig = self._korig(prefix)
        if cur is not None and (obj, l1, korig) >= cur[:3]:
            return
        self.best = (obj, l1, korig, self._nnz(korig))
        self._emit(time.monotonic())

    def _checkpoint(self, t: int, prefix: list):
        """Clock check plus monotone lower-bound bookkeeping; called
        before the first expansion and then once per WORK_QUANTUM block
        cells, as the level-t node at prefix is expanded or closed.  The
        bound is the least over that node and the open siblings above
        it.  The node was not pruned, so its bound is at most the
        incumbent's."""
        now = time.monotonic()
        if self.deadline is not None and now >= self.deadline:
            self.stop = True
        fr = self.frames
        lb = fr[t - 1][prefix[t - 1]] if t else self.root_lb
        for u in range(t):
            lb = min(lb, min(fr[u][prefix[u] + 1:], default=lb))
        self.lb_floor = max(self.lb_floor, lb)
        if self.tol > 0:
            obj = Fraction(self.best[0], self.pen_den)
            gap = obj - Fraction(self.lb_floor, self.pen_den)
            if gap <= self.tol * max(obj, GAP_EPS):
                self.stop = True
        if now - self.last_emit >= TRACE_EVERY_S:
            self._emit(now)

    def dfs(self, t: int, margin, fpen: int, prefix: list):
        """Expand the level-t node at prefix, whose fixed levels give the
        margins margin and the penalty fpen: bound its children, then
        prune, score or search each in turn.

        Every test compares a bound with the incumbent's objective obj
        alone, and a completion whose objective equals obj is always
        searched or offered: consider alone breaks ties, so the returned
        vector is a pure function of the problem.  Child k's completions
        cost at least its bound bk, so the child is dropped when
        bk > obj.  Every completion but the all-zero one costs at least
        bk + sufnz[t + 1]; when that exceeds obj, the all-zero
        completion is scored exactly, from the loss child_bounds gives
        it along with the bounds.  A child that is searched reaches that
        completion anyway.  Likewise every completion with two or more
        nonzero free levels costs at least bk + sufnz2[t + 1]; when that
        exceeds obj, the child is closed: its all-zero completion is
        scored as above, and close scores the rest that can win, those
        with exactly one nonzero free level.  Below a filtered level,
        the first child to close has close_bounds bound those
        completions for every child in one block; a child whose bound
        plus its all-zero penalty exceeds obj has none that can win,
        and is not closed.  At the last level sufnz is infinite and the
        bounds are the exact objectives, so each leaf is scored as its
        own all-zero completion."""
        self.nodes += 1
        if self.work >= WORK_QUANTUM:
            self.work = 0
            self._checkpoint(t, prefix)
        if self.stop:
            return
        pr = self.prep
        bounds, zloss, neg_out = pr.child_bounds(t, margin, fpen)
        self.work += len(bounds) * pr.ci.n_rows
        self.frames[t] = bounds
        pens, zpen = pr.PENL[t], pr.sufzeropen[t + 1]
        nzpen, nz2pen = pr.sufnz[t + 1], pr.sufnz2[t + 1]
        # True until the first close asks for the children's close
        # bounds; then their list, or None when the level has no block
        cheap = pr.filtered[t]
        obj = self.best[0]  # read again after each call
        for k, bk in enumerate(bounds):
            if bk > obj:
                continue
            pk = fpen + pens[k]
            # bk + step > obj, with no int + INF: objectives may lie
            # beyond float range
            slack = obj - bk
            if nzpen > slack:
                zobj = pk + zpen + zloss[k]
                if zobj <= obj:
                    self.consider(zobj, prefix + [k])
                    obj = self.best[0]
                continue
            if nz2pen > slack:
                zpk = pk + zpen
                zobj = zpk + zloss[k]
                if zobj <= obj:
                    self.consider(zobj, prefix + [k])
                    obj = self.best[0]
                if cheap is True:
                    cheap = self.close_bounds(t, margin, neg_out, prefix)
                    if self.stop:
                        return
                if not cheap or cheap[k] <= obj - zpk:
                    self.close(t + 1, margin - neg_out[k], zpk, prefix + [k])
            else:
                self.dfs(t + 1, margin - neg_out[k], pk, prefix + [k])
            if self.stop:
                return
            obj = self.best[0]

    def close_bounds(self, t: int, margin, neg_out, prefix: list) -> list | None:
        """_Prep.close_bounds for the children of the level-t node at
        prefix, its block's cells counted as work; the clock is read
        before the block once WORK_QUANTUM cells are spent."""
        if self.work >= WORK_QUANTUM:
            self.work = 0
            self._checkpoint(t, prefix)
            if self.stop:
                return None
        pr = self.prep
        cheap = pr.close_bounds(t, margin, neg_out)
        if cheap is not None:
            self.work += len(pr.FILT[t]) * pr.ci.n_rows
        return cheap

    def close(self, u: int, margin, zpen: int, prefix: list):
        """Score exactly, and offer to consider, every completion that
        sets one free level of the level-u node at prefix to a nonzero
        value and the others to 0, the node's margins being margin and
        its all-zero completion's penalty zpen.  The walk takes the
        node's chain of zero values a chunk at a time (_Prep.chunk) and
        stops once the bound of the chunk's zero node plus sufnz of the
        levels below it exceeds the incumbent's objective: the
        completions left all lie below that node.  The clock is read
        once per WORK_QUANTUM block cells, as in dfs."""
        pr = self.prep
        while True:
            if self.work >= WORK_QUANTUM:
                self.work = 0
                self._checkpoint(len(prefix), prefix)
                if self.stop:
                    return
            block, cost, offs, tail, u, zconst = pr.chunk(u)
            loss = pr.ci.lost_costs(margin <= block, cost)
            self.work += len(block) * pr.ci.n_rows
            objs = (loss[:len(offs), 1] + offs).tolist()
            if objs and min(objs) <= self.best[0] - zpen:
                for extra, (v, kk) in zip(objs, tail):
                    if extra <= self.best[0] - zpen:
                        self.consider(zpen + extra,
                                      prefix + [0] * (v - len(prefix)) + [kk])
            if u == pr.p:
                return
            if pr.sufnz[u] > self.best[0] - (zpen + zconst + int(loss[-1, 0])):
                return


def _margins(prep: _Prep, assign) -> np.ndarray:
    """Margins (starts x rows) of assign, an array of level value indexes
    (starts x levels)."""
    margin = np.zeros((len(assign), prep.ci.n_rows), dtype=prep.zeros_margin.dtype)
    for t in range(prep.p):
        margin = margin + prep.VI[t][assign[:, t], None] * prep.B[t]
    return margin


def _offers(prep: _Prep, assign, margin) -> list:
    """(objective, assignment) of each row of assign, whose margins are
    margin, the objective at pen_den scale: one loss over all rows."""
    return [(loss + sum(map(list.__getitem__, prep.PENL, a)), a)
            for a, loss in zip(assign.tolist(), prep.ci.loss(margin).tolist())]


def _polish(prep: _Prep, starts: list, deadline: float | None = None) -> list:
    """Coordinate descent over the compiled arrays from each of starts
    (lists of level value indexes), the starts side by side: each level
    step scores every value for every start still descending, and
    moves each start to the first of its least (objective, index)
    pairs.  Deterministic and strictly improving, so it terminates.  A
    start stops after a sweep in which it did not move, or after 60
    sweeps.  Past the deadline every start stops mid-sweep; every step
    leaves a valid assignment.  Returns, in the order of starts, each
    descent's (objective, assignment) as _offers scores it, from
    the margins the descent ends with.  Used only to seed the
    incumbent."""
    out = np.array(starts, dtype=np.intp)
    live = np.arange(len(out))
    assign = out.copy()
    margin = _margins(prep, assign)
    out_margin = margin.copy()
    for _ in range(60):
        moved = np.zeros(len(live), dtype=bool)
        for t in range(prep.p):
            if deadline is not None and time.monotonic() >= deadline:
                out[live], out_margin[live] = assign, margin
                return _offers(prep, out, out_margin)
            vi, b = prep.VI[t], prep.B[t]
            base = margin - vi[assign[:, t], None] * b
            tot = prep.PEN[t] + prep.value_losses(t, base)
            # the first of equal minima: it beats the current value in
            # the (objective, index) order exactly when it is another
            best = tot.argmin(axis=1)
            moved |= best != assign[:, t]
            assign[:, t] = best
            margin = base + vi[best, None] * b
        out[live], out_margin[live] = assign, margin
        live, assign, margin = live[moved], assign[moved], margin[moved]
        if not len(live):
            break
    return _offers(prep, out, out_margin)


def _seed_incumbent(prep: _Prep, eng: _Engine, warm, deadline: float | None):
    """Offer the all-zero vector and the warm start warm (value indexes
    by column) to the incumbent, then the coordinate descent from each
    distinct start of this list, in order, each as it is found:

    - the warm start;
    - its truncations to its 1, 2, 3, 4, 6 and 8 largest coordinates:
      sparse starts escape local minima the dense one gets stuck in
      (descent can then move coefficients such as the intercept);
    - the all-zero vector;
    - the bias-only starts, a small value on the intercept's level (the
      last level without one) against an otherwise zero vector:
      descent then grows the strong coefficients, which truncation
      alone cannot do when partial scores sit exactly at zero.

    The distinct starts are descended together in batches, in list
    order, each batch as large as keeps one level step's comparison
    block (starts x values x rows, for the level with the most values)
    within WORK_QUANTUM cells, and at least one start; each batch's
    descents are offered in list order, so the offers are those of
    descending the starts one at a time.  Every offer is scored from
    margins already at hand (_offers): the plain starts' from one
    _margins call, each descent's from those _polish ends with.  Past
    the deadline no new batch starts."""
    ci, p = prep.ci, prep.p
    zero = (0,) * p
    w = tuple(prep.KIDX[t].index(warm[j]) for t, j in enumerate(prep.order))
    mag = [abs(ci.values[j][warm[j]]) for j in prep.order]
    ranked = sorted(range(p), key=lambda t: (-mag[t], t))
    t_bias = p - 1
    if ci.d.intercept_index is not None:
        t_bias = prep.order.index(ci.d.intercept_index)
    truncations = [tuple(w[t] if t in ranked[:keep] else 0 for t in range(p))
                   for keep in (1, 2, 3, 4, 6, 8) if keep < p]
    biases = [tuple(k if t == t_bias else 0 for t in range(p))
              for k in range(1, min(9, len(prep.KIDX[t_bias])))]
    plain = np.array([zero, w], dtype=np.intp)
    for offer in _offers(prep, plain, _margins(prep, plain)):
        eng.consider(*offer)
    starts = list(dict.fromkeys([w, *truncations, zero, *biases]))
    size = max(1, WORK_QUANTUM // (max(map(len, prep.VI)) * ci.n_rows))
    for i in range(0, len(starts), size):
        if deadline is not None and time.monotonic() >= deadline:
            return
        for offer in _polish(prep, starts[i:i + size], deadline):
            eng.consider(*offer)


def solve(d: Dataset, s: CoefficientSet, cfg: TrainConfig, *,
          jobs: int = 1, trace_sink=None) -> SolveResult:
    """Minimize the objective exactly over the coefficient set.

    Returns the optimum with status "optimal" when the tree is
    exhausted (or closed within cfg.gap_tolerance); if cfg.time_budget_s
    runs out first, returns the best incumbent with status
    "feasible_budget_exhausted" and a valid lower bound.  The budget
    counts from the call, so it covers compiling, seeding and search.
    One solve runs serially in one thread: jobs is accepted for
    compatibility and changes nothing, neither the model nor the
    status, bound, gap or node count (run_cv's jobs runs whole solves
    in worker processes).
    """
    if d.n < 1:
        raise ConfigError("dataset is empty")
    cfg = cfg.resolve(d.n, s)
    t0 = time.monotonic()
    ci = CompiledInstance(d, s, cfg)
    prep = _Prep(ci)
    eng = _Engine(prep, cfg, t0, trace_sink)
    _seed_incumbent(prep, eng, _snap_diffs(prep.diffs, s), eng.deadline)
    eng._emit(time.monotonic())
    eng.dfs(0, prep.zeros_margin, 0, [])

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

