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


def score_ints(d: Dataset, lam) -> tuple[np.ndarray, int]:
    """Exact per-example scores x_i . lam as (integer array, denominator)."""
    vals = _coerce_lam(lam, d.p)
    active = [j for j, v in enumerate(vals) if v != 0]
    total = np.zeros(d.n, dtype=object)
    if not active:
        return total, 1
    dens = []
    for j in active:
        _, cden = d.exact_column(j)
        dens.append(Fraction(1, cden * vals[j].denominator))
    q = common_denominator(dens)
    for j in active:
        nums, cden = d.exact_column(j)
        mult = q // (cden * vals[j].denominator) * vals[j].numerator
        total = total + nums * mult
    return total, q


def evaluate(d: Dataset, lam, cfg: TrainConfig, tiers=None) -> ObjectiveValue:
    """Exact objective of a coefficient vector (not restricted to any
    domain).  tiers, when given, is a per-coefficient tuple of Tier
    lists as stored on CoefficientSet.tiers."""
    if cfg.c1 is None:
        raise ConfigError("cfg.c1 is unresolved; call cfg.resolve(n, coefset) first")
    vals = _coerce_lam(lam, d.p)
    score, _ = score_ints(d, vals)
    y = d.y.astype(object)
    miss = np.asarray((score * y) <= 0, dtype=bool)
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
    whose loss cost is the sum of theirs (n_rows <= d.n).  Margins live
    at denominator margin_den: the margin of row r is
    (sum_j b_cols[j][r] * vi[j][k_j]) / margin_den where k_j indexes
    the chosen domain value.  Loss costs and per-value penalties live
    at denominator pen_den, so any two objective values compare as
    plain integers.  Rows twin_a[q] and twin_b[q] have opposite
    vectors, so their margins are m and -m: every lam loses at least
    one of them and pays at least twin_cost[q], the smaller cost.
    The integer width is decided before any array is built, from two
    exact bounds (the largest |margin| and the largest objective) and
    the largest l1 value: every array is int64 when all three fit
    comfortably, else a Python-int object array.
    """

    def __init__(self, d: Dataset, s: CoefficientSet, cfg: TrainConfig):
        if s.p != d.p:
            raise ConfigError(f"coefficient set has {s.p} domains for {d.p} columns")
        if cfg.c1 is None:
            raise ConfigError("cfg.c1 is unresolved; call cfg.resolve first")
        self.d, self.s, self.cfg = d, s, cfg
        self.p = d.p

        dom_vals = [dom.values for dom in s.domains]
        val_dens = [common_denominator(vs) for vs in dom_vals]
        cols = [d.exact_column(j) for j in range(d.p)]
        self.margin_den = math.lcm(*(val_dens[j] * cols[j][1] for j in range(d.p)))
        mults = [self.margin_den // (val_dens[j] * cden)
                 for j, (_, cden) in enumerate(cols)]
        v_ints = [[scaled_int(v, val_dens[j]) for v in vs]
                  for j, vs in enumerate(dom_vals)]

        pen_fracs = [[(cfg.c0 if v != 0 else ZERO) + cfg.c1 * abs(v)
                      + s.tier_cost(j, v) for v in vs]
                     for j, vs in enumerate(dom_vals)]
        cost_pos = cfg.w_pos / d.n
        cost_neg = cfg.w_neg / d.n
        self.pen_den = common_denominator(
            [cost_pos, cost_neg] + [f for fs in pen_fracs for f in fs])
        self.l1_den = math.lcm(*val_dens)
        pen_ints = [[scaled_int(f, self.pen_den) for f in fs] for fs in pen_fracs]
        cpos = scaled_int(cost_pos, self.pen_den)
        cneg = scaled_int(cost_neg, self.pen_den)

        l1_ints = [[abs(x) * (self.l1_den // val_dens[j]) for x in v_ints[j]]
                   for j in range(d.p)]

        # the width, from exact bounds on |margin| and on the objective;
        # max(1, .) also bounds the cells of a column whose domain is
        # {0}, and every l1 value (each at least |value|) must fit too
        num_max = [int(np.abs(nums).max()) for nums, _ in cols]
        margin_bound = sum(num_max[j] * mults[j] * max(1, *map(abs, v_ints[j]))
                           for j in range(d.p))
        n_pos = d.n_pos
        pen_bound = (cpos * n_pos + cneg * (d.n - n_pos)
                     + sum(max(pi) for pi in pen_ints))
        self.int64_ok = (2 * margin_bound < _INT64_HEADROOM
                         and 2 * pen_bound < _INT64_HEADROOM
                         and max(map(max, l1_ints)) < _INT64_HEADROOM)
        dtype = np.int64 if self.int64_ok else object

        # np.array raises on a Python int beyond int64 and never wraps;
        # an all-zero column may carry a multiplier beyond int64, and a
        # class with no rows a cost beyond it, which no row takes
        y = d.y.astype(dtype)
        b_cols = [y * nums.astype(dtype) * (mult if top else 0)
                  for (nums, _), mult, top in zip(cols, mults, num_max)]
        vi = [np.array(v, dtype=dtype) for v in v_ints]
        pen = [np.array(pi, dtype=dtype) for pi in pen_ints]
        l1i = [np.array(l1, dtype=dtype) for l1 in l1_ints]
        cost = np.where(d.y == 1, np.array(cpos if n_pos else 0, dtype),
                        np.array(cneg if n_pos < d.n else 0, dtype))
        first, group, twin_a, twin_b = _merge_rows(b_cols)
        self.n_rows = len(first)
        merged = np.zeros(self.n_rows, dtype=cost.dtype)
        np.add.at(merged, group, cost)
        self.b_cols = [b[first] for b in b_cols]
        self.vi, self.pen, self.l1i, self.cost = vi, pen, l1i, merged
        self.twin_a, self.twin_b = twin_a, twin_b
        self.twin_cost = np.minimum(merged[twin_a], merged[twin_b])
        self.zero_index = [int(np.nonzero(v == 0)[0][0]) for v in vi]
        self.values = dom_vals  # Fractions, aligned with vi/pen/l1i

    def loss(self, margins):
        """Loss (pen_den scale) of rows at these exact margins; rows run
        along the last axis."""
        return np.einsum("...r,r->...", margins <= 0, self.cost)

    def sure_loss(self, dead):
        """Least loss (pen_den scale) of any lam that loses every row
        marked in dead (rows along the last axis): the cost of those
        rows, plus the cheaper row of each twin pair with neither row
        marked.  With dead = margins <= 0 it equals loss(margins)."""
        loss = np.einsum("...r,r->...", dead, self.cost)
        if len(self.twin_a):
            live = ~(dead[..., self.twin_a] | dead[..., self.twin_b])
            loss = loss + np.einsum("...q,q->...", live, self.twin_cost)
        return loss

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
    sign(b) * (1 + the rank of |b| among the column's magnitudes),
    which is equal where b is equal and negated where b is negated.
    Each row is keyed with the sign that makes its first nonzero entry
    positive, so one sort finds both."""
    coded = []
    for b in b_cols:
        if b.dtype == object:
            _, rank = np.unique(np.abs(b), return_inverse=True)
            b = np.sign(b).astype(np.int64) * (rank + 1)
        coded.append(b)
    rows = np.stack(coded, axis=1)
    n, p = rows.shape
    lead = rows[np.arange(n), (rows != 0).argmax(axis=1)]
    neg = lead < 0
    keyed = np.ascontiguousarray(np.where(neg[:, None], -rows, rows))
    keys = keyed.view(np.dtype((np.void, keyed.itemsize * p))).ravel()
    _, key_of = np.unique(keys, return_inverse=True)
    ids, first, group = np.unique(2 * key_of + neg, return_index=True,
                                  return_inverse=True)
    twin_a = np.nonzero(ids[1:] // 2 == ids[:-1] // 2)[0]
    return first, group, twin_a, twin_a + 1
