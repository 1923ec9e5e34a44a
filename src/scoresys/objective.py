"""Training objective: weighted 0-1 loss plus sparsity penalties.

objective(lam) = w_pos/n * (misclassified positives)
              + w_neg/n * (misclassified negatives)
              + c0 * (number of nonzero coefficients)
              + c1 * (sum of |coefficient|)
              + sum of tier costs (when a tiered penalty is attached)

An example counts as misclassified when y_i * x_i . lam <= 0; a score
of exactly 0 is a miss.  All bookkeeping is exact rational arithmetic,
so two coefficient vectors never tie by floating-point accident.  The
compiled-instance view converts everything to integers at common
denominators once, which is what the branch-and-bound search runs on.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .coefset import CoefficientSet, tier_cost_in
from .data import Dataset
from .errors import ConfigError
from .exactnum import common_denominator, fraction_str, scaled_int, to_fraction

ZERO = Fraction(0)
ONE = Fraction(1)

_INT64_HEADROOM = 2**61  # leave slack for sums of two bounded quantities


def cost_sum_dtype(total: int):
    """The float in which nonnegative integer costs summing to total are
    summed exactly: float32 when total < 2**24, float64 when
    total < 2**53, else None (sum them as integers).

    A sum of costs over marked rows adds each marked cost once, so each
    partial sum, in whatever order BLAS adds, is a subset sum: an
    integer from 0 to total.  Every integer below 2**24 (2**53) is a
    float32 (float64), so each cost, each partial sum and the result
    are exact and the cast back to int64 loses nothing."""
    for dtype, bits in ((np.float32, 24), (np.float64, 53)):
        if total < 2**bits:
            return np.dtype(dtype)
    return None


@dataclass(frozen=True)
class TrainConfig:
    """Penalty multipliers, class weights, and solve controls.

    c1=None means "derive the default from the data and coefficient
    set at solve time" (see default_c1).  gamma only matters for MIP
    export: the trainer itself uses the exact score<=0 indicator.
    """

    c0: Fraction
    c1: Fraction | None = None
    w_pos: Fraction = ONE
    w_neg: Fraction = ONE
    gamma: Fraction = Fraction(1, 10)
    time_budget_s: float | None = None
    gap_tolerance: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "c0", to_fraction(self.c0))
        if self.c1 is not None:
            object.__setattr__(self, "c1", to_fraction(self.c1))
        object.__setattr__(self, "w_pos", to_fraction(self.w_pos))
        object.__setattr__(self, "w_neg", to_fraction(self.w_neg))
        object.__setattr__(self, "gamma", to_fraction(self.gamma))
        if self.c0 < 0:
            raise ConfigError(f"c0 must be >= 0, got {fraction_str(self.c0)}")
        if self.c1 is not None and self.c1 < 0:
            raise ConfigError(f"c1 must be >= 0, got {fraction_str(self.c1)}")
        if self.w_pos <= 0 or self.w_neg <= 0:
            raise ConfigError("class weights must be positive")
        if self.gamma <= 0:
            raise ConfigError("gamma must be positive")
        if self.time_budget_s is not None:
            b = float(self.time_budget_s)
            if not (b > 0) or not math.isfinite(b):
                raise ConfigError("time_budget_s must be positive or None")
            object.__setattr__(self, "time_budget_s", b)
        g = float(self.gap_tolerance)
        if not (0 <= g < 1):
            raise ConfigError("gap_tolerance must be in [0, 1)")
        object.__setattr__(self, "gap_tolerance", g)

    def resolve(self, n: int, s: CoefficientSet) -> "TrainConfig":
        """Fill in the automatic c1 and enforce its meaningful ceiling
        0 < c1 <= min(1/n, c0) / max_l1 for the given problem size."""
        max_l1 = s.max_l1()
        if self.c1 is None:
            return replace(self, c1=default_c1(n, self.c0, max_l1))
        if max_l1 == 0:
            if self.c1 > 0:
                raise ConfigError("c1 > 0 is meaningless when every domain is {0}")
            return self
        ceiling = min(Fraction(1, n), self.c0) / max_l1 if self.c0 > 0 else ZERO
        if not (ZERO < self.c1 <= ceiling):
            raise ConfigError(
                f"c1={fraction_str(self.c1)} outside the meaningful interval "
                f"(0, {fraction_str(ceiling)}] for n={n}, "
                f"c0={fraction_str(self.c0)}, max |lam|_1={fraction_str(max_l1)}")
        return self

    def canonical_dict(self) -> dict:
        return {
            "c0": fraction_str(self.c0),
            "c1": None if self.c1 is None else fraction_str(self.c1),
            "w_pos": fraction_str(self.w_pos),
            "w_neg": fraction_str(self.w_neg),
            "gamma": fraction_str(self.gamma),
            "gap_tolerance": self.gap_tolerance,
        }

    def content_hash(self) -> str:
        # deliberately excludes the time budget: it changes how long we
        # search, never what a given coefficient vector costs
        parts = sorted(f"{k}={v}" for k, v in self.canonical_dict().items())
        return hashlib.sha256(";".join(parts).encode()).hexdigest()


def c0_range(n: int) -> tuple[Fraction, Fraction]:
    """Meaningful c0 interval [1/n, 1]: below 1/n sparsity is never
    worth one extra error, above 1 the all-zero vector always wins."""
    if n < 1:
        raise ConfigError("n must be >= 1")
    return (Fraction(1, n), ONE)


def default_c1(n: int, c0, max_l1) -> Fraction:
    """Half the largest c1 that can never change which model wins on
    loss or l0 grounds: 0.5 * min(1/n, c0) / max_l1."""
    c0 = to_fraction(c0)
    max_l1 = to_fraction(max_l1)
    if n < 1:
        raise ConfigError("n must be >= 1")
    if max_l1 <= 0:
        return ZERO
    if c0 <= 0:
        raise ConfigError("default c1 needs c0 > 0")
    return min(Fraction(1, n), c0) / (2 * max_l1)


def default_weights(n: int, n_pos: int) -> tuple[Fraction, Fraction]:
    """Balanced class weights w_pos = n / (2 n_pos), w_neg = n / (2 n_neg);
    each class then contributes 1/2 to the loss of the all-zero model."""
    if not 0 < n_pos < n:
        raise ConfigError(f"need both classes present, got {n_pos} of {n} positive")
    return Fraction(n, 2 * n_pos), Fraction(n, 2 * (n - n_pos))


@dataclass(frozen=True)
class ObjectiveValue:
    total: Fraction
    loss_term: Fraction
    l0_term: Fraction
    l1_term: Fraction
    tier_term: Fraction
    misclassified_count: int
    nnz: int
    n: int

    def __post_init__(self):
        expect = self.loss_term + self.l0_term + self.l1_term + self.tier_term
        if self.total != expect:
            raise ValueError("objective terms do not sum to total")

    @property
    def error_rate(self) -> Fraction:
        return Fraction(self.misclassified_count, self.n)

    def to_dict(self) -> dict:
        return {
            "total": float(self.total),
            "total_exact": fraction_str(self.total),
            "loss": float(self.loss_term),
            "l0": float(self.l0_term),
            "l1": float(self.l1_term),
            "tier": float(self.tier_term),
            "misclassified": self.misclassified_count,
            "nnz": self.nnz,
            "n": self.n,
        }


def _coerce_lam(lam, p: int) -> list[Fraction]:
    vals = [to_fraction(v) for v in lam]
    if len(vals) != p:
        raise ConfigError(f"coefficient vector has {len(vals)} entries, expected {p}")
    return vals


def int_dtype(bound: int) -> np.dtype:
    """int64 when every integer of magnitude at most bound fits it
    (bound < 2**63), else object (Python ints): the width of each exact
    sum that is not a compiled margin (score_ints, and the solver's
    class sums and column masses)."""
    return np.dtype(np.int64) if bound < 2**63 else np.dtype(object)


def score_ints(d: Dataset, lam) -> tuple[np.ndarray, int]:
    """Exact per-example scores x_i . lam as (integer array, denominator):
    int64 when a bound on every |score| fits it, else Python ints."""
    vals = _coerce_lam(lam, d.p)
    cols = [(d.exact_column(j), v) for j, v in enumerate(vals) if v != 0]
    q = math.lcm(*(cden * v.denominator for (_, cden), v in cols))
    # (numerators, their multiplier at q, max |numerator|); an all-zero
    # column adds nothing, and its multiplier may lie beyond int64
    terms = [(nums, q // (cden * v.denominator) * v.numerator, top)
             for (nums, cden), v in cols if (top := int(np.abs(nums).max()))]
    dtype = int_dtype(sum(top * abs(mult) for _, mult, top in terms))
    total = np.zeros(d.n, dtype=dtype)
    for nums, mult, _ in terms:
        total += nums.astype(dtype, copy=False) * mult
    return total, q


def evaluate(d: Dataset, lam, cfg: TrainConfig, tiers=None) -> ObjectiveValue:
    """Exact objective of a coefficient vector (not restricted to any
    domain).  tiers, when given, is a per-coefficient tuple of Tier
    lists as stored on CoefficientSet.tiers."""
    if cfg.c1 is None:
        raise ConfigError("cfg.c1 is unresolved; call cfg.resolve(n, coefset) first")
    vals = _coerce_lam(lam, d.p)
    score, _ = score_ints(d, vals)
    miss = np.where(d.y == 1, score <= 0, score >= 0)  # y_i * score_i <= 0
    mis_pos = int(np.sum(miss & (d.y == 1)))
    mis_neg = int(np.sum(miss & (d.y == -1)))
    loss = (cfg.w_pos * mis_pos + cfg.w_neg * mis_neg) / d.n
    nnz = sum(1 for v in vals if v != 0)
    l0 = cfg.c0 * nnz
    l1 = cfg.c1 * sum((abs(v) for v in vals), ZERO)
    tier = ZERO
    if tiers is not None:
        if len(tiers) != d.p:
            raise ConfigError("tiers tuple must align with coefficients")
        tier = sum((tier_cost_in(tiers[j], vals[j], j) for j in range(d.p)), ZERO)
    return ObjectiveValue(
        total=loss + l0 + l1 + tier, loss_term=loss, l0_term=l0, l1_term=l1,
        tier_term=tier, misclassified_count=mis_pos + mis_neg, nnz=nnz, n=d.n)


# --- compiled integer view ---------------------------------------------------

class CompiledInstance:
    """Dataset x coefficient-set x config flattened to integer arrays.

    Rows are the distinct vectors y_i x_i: examples with equal vectors
    have equal margins under every lam, so they merge into one row
    whose loss cost is the sum of theirs (n_rows <= d.n); first[r] is
    the first example of row r.  Margins live at denominator
    margin_den: the margin of row r is
    (sum_j b_cols[j][r] * vi[j][k_j]) / margin_den where k_j indexes
    the chosen domain value.  Loss costs and per-value penalties live
    at denominator pen_den, so any two objective values compare as
    plain integers.  Rows twin_a[q] and twin_b[q] have opposite
    vectors, so their margins are m and -m: every lam loses at least
    one of them and pays at least twin_cost[q], the smaller cost
    (priced_costs).

    The integer widths are decided before any array is built, from two
    exact bounds (the largest |margin| and the largest objective) and
    the largest l1 value.  When twice each bound and every l1 value lie
    below 2**61 (int64_ok), cost, pen, l1i and twin_cost are int64, and
    the margin arrays b_cols and vi take margin_dtype: the narrowest of
    int16, int32 and int64 whose 2**(bits - 3) exceeds twice the margin
    bound and every |value|.  The slack keeps the search's sums and
    thresholds, each at most twice the margin bound, in range.
    breastcancer's margins under {0, +-1, +-10} fit int16, a quarter of
    int64's bytes.  Otherwise every array holds Python ints and
    margin_dtype is object.

    Columns whose domain and tiers are the same objects (load_domains
    shares them between the features of one descriptor) share one vi,
    pen and l1i array, worked out once: set-up scales with the distinct
    domains, not with the columns.

    lost_cost and lost_costs sum int64 costs by a BLAS product in
    sum_dtype, the narrowest float that holds every subset sum of the
    costs exactly (cost_sum_dtype): float32 while cost.sum() < 2**24,
    float64 while it is < 2**53.  Class weights are positive, so every
    cost is nonnegative, and so is every twin-priced cost, which is at
    most the plain one; each column's subset sums are then at most
    cost.sum() too.  Larger sums, and Python-int costs, are summed by
    an integer einsum and sum_dtype is None.
    """

    def __init__(self, d: Dataset, s: CoefficientSet, cfg: TrainConfig):
        if s.p != d.p:
            raise ConfigError(f"coefficient set has {s.p} domains for {d.p} columns")
        if cfg.c1 is None:
            raise ConfigError("cfg.c1 is unresolved; call cfg.resolve first")
        self.d, self.s, self.cfg = d, s, cfg
        self.p = d.p

        # each distinct (domain, tiers) pair, shared by the columns that
        # name it, is worked out once: its values' denominator den, their
        # integers v at it, and their penalties as integers pn over pd,
        # the least denominator at which every penalty is an integer
        index, pairs, pair_of = {}, [], []
        c0, c1 = cfg.c0, cfg.c1
        for j, dom in enumerate(s.domains):
            key = (id(dom), id(None if s.tiers is None else s.tiers[j]))
            if key not in index:
                index[key] = len(pairs)
                v, den = dom.scaled_values()
                tc = [s.tier_cost(j, x) for x in dom.values]
                pd = math.lcm(c0.denominator, c1.denominator * den, common_denominator(tc))
                a = c0.numerator * (pd // c0.denominator)
                b = c1.numerator * (pd // (c1.denominator * den))
                pn = [(a if x else 0) + b * abs(x) + t.numerator * (pd // t.denominator)
                      for x, t in zip(v, tc)]
                g = math.gcd(pd, *pn)
                pairs.append((den, v, [x // g for x in pn], pd // g))
            pair_of.append(index[key])
        cols = [d.exact_column(j) for j in range(d.p)]
        val_dens = [pairs[i][0] for i in pair_of]
        self.margin_den = math.lcm(*(val_dens[j] * cols[j][1] for j in range(d.p)))
        mults = [self.margin_den // (val_dens[j] * cden)
                 for j, (_, cden) in enumerate(cols)]

        cost_pos = cfg.w_pos / d.n
        cost_neg = cfg.w_neg / d.n
        self.pen_den = math.lcm(cost_pos.denominator, cost_neg.denominator,
                                *(pd for *_, pd in pairs))
        self.l1_den = math.lcm(*(den for den, *_ in pairs))
        cpos = scaled_int(cost_pos, self.pen_den)
        cneg = scaled_int(cost_neg, self.pen_den)
        # each pair's value, penalty and l1 integers, and its max |value|
        ints = [(v, [x * (self.pen_den // pd) for x in pn],
                 [abs(x) * (self.l1_den // den) for x in v], max(map(abs, v)))
                for den, v, pn, pd in pairs]

        # the width, from exact bounds on |margin| and on the objective;
        # max(1, .) also bounds the cells of a column whose domain is
        # {0}, and every l1 value (each at least |value|) must fit too
        num_max = [int(np.abs(nums).max()) for nums, _ in cols]
        margin_bound = sum(num_max[j] * mults[j] * max(1, ints[i][3])
                           for j, i in enumerate(pair_of))
        n_pos = d.n_pos
        pen_bound = (cpos * n_pos + cneg * (d.n - n_pos)
                     + sum(max(ints[i][1]) for i in pair_of))
        self.int64_ok = (2 * margin_bound < _INT64_HEADROOM
                         and 2 * pen_bound < _INT64_HEADROOM
                         and max(max(l1) for _, _, l1, _ in ints) < _INT64_HEADROOM)
        dtype = np.int64 if self.int64_ok else object
        # the margin width: the narrowest of int16, int32 and int64 whose
        # 2**(bits - 3) exceeds twice the margin bound and every |value|,
        # the test int64_ok makes for int64
        mtype = np.dtype(object)
        if self.int64_ok:
            need = max(2 * margin_bound, *(vmax for *_, vmax in ints))
            mtype = next(np.dtype(w) for w in (np.int16, np.int32, np.int64)
                         if need < 2 ** (np.iinfo(w).bits - 3))
        self.margin_dtype = mtype

        # np.array raises on a Python int beyond the width and never
        # wraps; the margin bound keeps every cell, and its product with
        # the multiplier, inside the margin width, but an all-zero column
        # may carry a multiplier beyond int64, and a class with no rows a
        # cost beyond it, which no row takes.  The columns of a pair
        # share its arrays
        y = d.y.astype(mtype)
        b_cols = [y * nums.astype(mtype) * (mult if top else 0)
                  for (nums, _), mult, top in zip(cols, mults, num_max)]
        arrays = [(np.array(v, dtype=mtype), np.array(pi, dtype=dtype),
                   np.array(l1, dtype=dtype)) for v, pi, l1, _ in ints]
        vi, pen, l1i = (list(a) for a in zip(*(arrays[i] for i in pair_of)))
        cost = np.where(d.y == 1, np.array(cpos if n_pos else 0, dtype),
                        np.array(cneg if n_pos < d.n else 0, dtype))
        first, group, twin_a, twin_b = _merge_rows(b_cols)
        self.first, self.n_rows = first, len(first)
        merged = np.zeros(self.n_rows, dtype=cost.dtype)
        np.add.at(merged, group, cost)
        self.b_cols = [b[first] for b in b_cols]
        self.vi, self.pen, self.l1i, self.cost = vi, pen, l1i, merged
        self.twin_a, self.twin_b = twin_a, twin_b
        self.twin_cost = np.minimum(merged[twin_a], merged[twin_b])
        self.sum_dtype = cost_sum_dtype(int(merged.sum())) if self.int64_ok else None
        self.cost_f = None if self.sum_dtype is None else merged.astype(self.sum_dtype)
        self.zero_index = [ints[i][0].index(0) for i in pair_of]
        self.values = [dom.values for dom in s.domains]  # aligned with vi/pen/l1i

    def loss(self, margins):
        """Loss (pen_den scale) of rows at these exact margins; rows run
        along the last axis."""
        return self.lost_cost(margins <= 0)

    def lost_cost(self, lost):
        """Cost (pen_den scale) of the rows marked in lost (rows along
        the last axis)."""
        if self.sum_dtype is None:
            return np.einsum("...r,r->...", lost, self.cost)
        return np.dot(lost, self.cost_f).astype(np.int64)

    def cost_columns(self, costs):
        """Cost vectors (rows along the last axis, each cost nonnegative
        and at most cost) as the columns of rows x m blocks for
        lost_costs, costs being (..., m, rows): Fortran-ordered in
        sum_dtype when the costs are summed by a float product."""
        dtype = self.cost.dtype if self.sum_dtype is None else self.sum_dtype
        return np.asarray(costs, dtype=dtype).swapaxes(-1, -2)

    def lost_costs(self, lost, columns):
        """Each column's cost (pen_den scale) of the rows marked in lost
        (rows along the last axis), for a block from cost_columns."""
        if self.sum_dtype is None:
            return np.einsum("...r,rc->...c", lost, columns)
        return np.dot(lost, columns).astype(np.int64)

    def priced_costs(self, moving):
        """Row costs with the twin pairs marked in moving (pairs along
        the last axis) priced up front: (credit, cost), one row of cost
        per row of moving.  credit sums those pairs' twin_cost, and cost
        takes twin_cost off both rows of each, so credit plus the cost
        of the rows a lam loses is at most its loss (it loses a row of
        every pair).  For a set of rows in which no marked pair has both
        rows and every other pair has one, credit plus their cost is
        their plain cost plus the cheaper row of each pair with neither
        row in the set."""
        tc = np.where(moving, self.twin_cost, 0)
        cost = np.broadcast_to(self.cost, tc.shape[:-1] + self.cost.shape).copy()
        cost[..., self.twin_a] -= tc
        cost[..., self.twin_b] -= tc
        return tc.sum(axis=-1), cost

    def value_losses(self, j: int, base):
        """loss(base + b_cols[j] * v) for every value v of domain j, in
        the ascending order of vi[j], by one threshold sweep instead of
        a K x n_rows block.  A row with b > 0 is lost exactly while
        v <= floor(-base / b), one with b < 0 exactly while
        v >= ceil(base / |b|), and one with b == 0 for every value or
        for none; each row adds its cost to a difference array over
        the value indexes, whose running sum is the loss.  Exact on
        int64 and on Python-int arrays alike."""
        b, vi, cost = self.b_cols[j], self.vi[j], self.cost
        k = len(vi)
        diff = np.zeros(k + 1, dtype=cost.dtype)
        # rows with b > 0 are lost on value indexes [0, cut)
        r = np.flatnonzero(b > 0)
        cut = np.searchsorted(vi, -base[r] // b[r], side="right")
        np.add.at(diff, cut, -cost[r])
        diff[0] += cost[r].sum() + cost[(b == 0) & (base <= 0)].sum()
        # rows with b < 0 are lost on value indexes [cut, k)
        r = np.flatnonzero(b < 0)
        cut = np.searchsorted(vi, -(base[r] // b[r]), side="left")
        np.add.at(diff, cut, cost[r])
        return np.cumsum(diff[:k])

    def margin_extrema(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-row min and max of the margin contribution of
        coefficient j over its domain (at margin_den scale)."""
        b = self.b_cols[j]
        lo, hi = self.vi[j][0], self.vi[j][-1]  # values sorted ascending
        a, c = b * lo, b * hi
        return np.minimum(a, c), np.maximum(a, c)


def _merge_rows(b_cols: list):
    """Group equal rows of the columns b_cols and pair opposite groups.

    Returns (first, group, twin_a, twin_b): the first row of each group,
    each row's group, and the groups whose rows are negations of each
    other.  A Python-int column is first coded as int64,
    sign(b) * (1 + the rank of |b| among the column's magnitudes), the
    ranks read from a dict of the sorted distinct magnitudes; the code
    is equal where b is equal and negated where b is negated.
    Each row is keyed with the sign that makes its first nonzero entry
    positive, so one sort finds both: a stable lexsort of the keyed
    columns, column 0 the most significant and the sign the least,
    numbers the groups in key order, and a key's positive group comes
    just before its negated twin."""
    coded = []
    for b in b_cols:
        if b.dtype == object:
            mags = np.abs(b).tolist()
            rank = {m: r for r, m in enumerate(sorted(set(mags)), start=1)}
            b = np.sign(b).astype(np.int64) * np.array([rank[m] for m in mags])
        coded.append(b)
    cols = np.stack(coded)
    n = cols.shape[1]
    neg = cols[(cols != 0).argmax(axis=0), np.arange(n)] < 0
    keyed = np.where(neg, -cols, cols)
    order = np.lexsort((neg, *keyed[::-1]))
    keyed, neg = keyed[:, order], neg[order]
    same = (keyed[:, 1:] == keyed[:, :-1]).all(axis=0)  # equal unsigned keys
    new = ~same | (neg[1:] != neg[:-1])
    gid = np.concatenate(([0], np.cumsum(new)))
    group = np.empty(n, dtype=gid.dtype)
    group[order] = gid
    first = order[np.concatenate(([True], new))]
    twin_a = gid[:-1][same & new]
    return first, group, twin_a, twin_a + 1
