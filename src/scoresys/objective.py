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

from .coefset import CoefficientSet
from .data import Dataset
from .errors import ConfigError, DomainError
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


def tier_cost_of(tiers_j, value: Fraction) -> Fraction:
    if tiers_j is None:
        return ZERO
    for t in tiers_j:
        if value in t.values:
            return t.cost
    raise DomainError(f"value {fraction_str(value)} is outside every tier")


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
        tier = sum((tier_cost_of(tiers[j], vals[j]) for j in range(d.p)), ZERO)
    return ObjectiveValue(
        total=loss + l0 + l1 + tier, loss_term=loss, l0_term=l0, l1_term=l1,
        tier_term=tier, misclassified_count=mis_pos + mis_neg, nnz=nnz, n=d.n)


# --- compiled integer view ---------------------------------------------------

class CompiledInstance:
    """Dataset x coefficient-set x config flattened to integer arrays.

    Margins live at denominator margin_den: the margin of example i is
    (sum_j b_cols[j][i] * vi[j][k_j]) / margin_den where k_j indexes
    the chosen domain value.  Loss costs and per-value penalties live
    at denominator pen_den, so any two objective values compare as
    plain integers.  Arrays are int64 when a precomputed worst-case
    bound fits comfortably, else Python-int object arrays.
    """

    def __init__(self, d: Dataset, s: CoefficientSet, cfg: TrainConfig):
        if s.p != d.p:
            raise ConfigError(f"coefficient set has {s.p} domains for {d.p} columns")
        if cfg.c1 is None:
            raise ConfigError("cfg.c1 is unresolved; call cfg.resolve first")
        self.d, self.s, self.cfg = d, s, cfg
        self.n, self.p = d.n, d.p

        dom_vals = [dom.values for dom in s.domains]
        val_dens = [common_denominator(vs) for vs in dom_vals]
        col_dens = [d.exact_column(j)[1] for j in range(d.p)]
        self.margin_den = math.lcm(*(val_dens[j] * col_dens[j] for j in range(d.p)))

        pen_fracs: list[list[Fraction]] = []
        for j, vs in enumerate(dom_vals):
            tiers_j = None if s.tiers is None else s.tiers[j]
            pen_fracs.append([
                (cfg.c0 if v != 0 else ZERO) + cfg.c1 * abs(v)
                + tier_cost_of(tiers_j, v) for v in vs])
        cost_pos = cfg.w_pos / d.n
        cost_neg = cfg.w_neg / d.n
        self.pen_den = common_denominator(
            [cost_pos, cost_neg] + [f for fs in pen_fracs for f in fs])
        self.l1_den = math.lcm(*val_dens)

        b_cols, vi, pen, l1i = [], [], [], []
        y = d.y.astype(object)
        margin_bound = 0
        for j in range(d.p):
            nums, cden = d.exact_column(j)
            mult = self.margin_den // (val_dens[j] * cden)
            b = y * nums * mult
            b_cols.append(b)
            v_int = np.array([scaled_int(v, val_dens[j]) for v in dom_vals[j]],
                             dtype=object)
            vi.append(v_int)
            pen.append(np.array([scaled_int(f, self.pen_den) for f in pen_fracs[j]],
                                dtype=object))
            l1i.append(np.array(
                [abs(x) * (self.l1_den // val_dens[j]) for x in v_int.tolist()],
                dtype=object))
            bmax = max((abs(int(v)) for v in b.tolist()), default=0)
            vmax = max(abs(int(v)) for v in v_int.tolist())
            margin_bound += bmax * vmax
        cost = np.array(
            [scaled_int(cost_pos if yy == 1 else cost_neg, self.pen_den)
             for yy in d.y.tolist()], dtype=object)
        pen_bound = int(cost.sum()) + sum(int(pp.max()) for pp in pen)
        self.int64_ok = (2 * margin_bound < _INT64_HEADROOM
                         and 2 * pen_bound < _INT64_HEADROOM)
        if self.int64_ok:
            b_cols = [b.astype(np.int64) for b in b_cols]
            vi = [v.astype(np.int64) for v in vi]
            pen = [p_.astype(np.int64) for p_ in pen]
            l1i = [l.astype(np.int64) for l in l1i]
            cost = cost.astype(np.int64)
        self.b_cols, self.vi, self.pen, self.l1i, self.cost = b_cols, vi, pen, l1i, cost
        self.zero_index = [int(np.nonzero(v == 0)[0][0]) for v in vi]
        self.values = dom_vals  # Fractions, aligned with vi/pen/l1i

    def margin_extrema(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-example min and max of the margin contribution of
        coefficient j over its domain (at margin_den scale)."""
        b = self.b_cols[j]
        lo, hi = self.vi[j][0], self.vi[j][-1]  # values sorted ascending
        a, c = b * lo, b * hi
        return np.minimum(a, c), np.maximum(a, c)
