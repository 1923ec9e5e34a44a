"""Shared builders for the test suite: random instances, a vectorized
brute-force minimizer, and paths to the bundled benchmark tables."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from scoresys.coefset import (CoefficientSet, bounded_integers, digit_values,
                              explicit_values, signed_integers, uniform)
from scoresys.data import Dataset
from scoresys.exactnum import common_denominator
from scoresys.objective import TrainConfig, evaluate

DATA = Path(__file__).resolve().parent / "data"


def bench_path(name: str) -> Path:
    """Real UCI table when fetch_uci.py has run, bundled stand-in otherwise."""
    real = DATA / "uci" / name
    return real if real.exists() else DATA / name


def rand_dataset(rng, n, p, lo=-3, hi=3, intercept=False) -> Dataset:
    """Integer-cell dataset with both labels present."""
    x = rng.integers(lo, hi + 1, size=(n, p)).astype(np.float64)
    names = [f"f{j}" for j in range(p)]
    ii = None
    if intercept:
        x[:, 0] = 1.0
        names[0] = "(Intercept)"
        ii = 0
    y = rng.choice([-1, 1], size=n)
    y[0], y[-1] = 1, -1  # keep both classes
    return Dataset(x=x, y=y, feature_names=tuple(names), intercept_index=ii)


def rand_domain(rng, max_values=7):
    """One of the supported domain shapes, at most max_values values."""
    kind = int(rng.integers(0, 4))
    if kind == 0:
        m = int(rng.integers(1, (max_values - 1) // 2 + 1))
        return bounded_integers(m)
    if kind == 1:
        m = int(rng.integers(1, max_values))
        return signed_integers("pos" if rng.integers(0, 2) else "neg", m)
    if kind == 2:
        pool = [1, -1, 2, -2, 3, -3, 5, -5, Fraction(1, 2), Fraction(-1, 2)]
        take = int(rng.integers(1, max_values))
        picks = rng.choice(len(pool), size=take, replace=False)
        return explicit_values([0] + [pool[i] for i in picks])
    vals = sorted({0, 1, -1, 10, -10}, key=lambda v: (abs(v), v))
    return explicit_values(vals[:max_values])


def rand_coefset(rng, p, max_values=7) -> CoefficientSet:
    return CoefficientSet(domains=tuple(rand_domain(rng, max_values)
                                        for _ in range(p)))


def brute_solve(d: Dataset, s: CoefficientSet, cfg: TrainConfig):
    """Exhaustive minimum of the training objective over the lattice.

    Everything runs on a single common integer denominator so the
    200-instance oracle loop stays well under its time limit while the
    comparison itself is exact.  Cells are read through
    Dataset.exact_column and scaled to one denominator on Python ints
    (an int64 column times the multiplier can leave int64), and the
    margins are computed in int64 only when a bound on every one of
    them fits, else on Python ints.
    Returns (best_total, best_combo) with the (total, l1, values)
    tie-break.
    """
    assert cfg.c1 is not None, "resolve the config first"
    dom_vals = [dom.values for dom in s.domains]
    den = common_denominator([v for vs in dom_vals for v in vs])
    combos = list(itertools.product(*dom_vals))
    cols = [d.exact_column(j) for j in range(d.p)]
    xden = math.lcm(*(cden for _, cden in cols))
    xs = np.stack([nums.astype(object) * (xden // cden) for nums, cden in cols], axis=1)
    cints = [[int(v * den) for v in c] for c in combos]
    cmax = max(abs(v) for c in cints for v in c)
    xmax = max(abs(int(v)) for v in xs.ravel().tolist())
    dtype = np.int64 if d.p * cmax * xmax < 2**62 else object
    cmat = np.array(cints, dtype=dtype)
    margins = (cmat @ xs.astype(dtype).T) * d.y[np.newaxis, :].astype(dtype)
    wden = common_denominator([cfg.w_pos, cfg.w_neg])
    wint = np.where(d.y > 0, int(cfg.w_pos * wden), int(cfg.w_neg * wden))
    loss_int = ((margins <= 0) * wint[np.newaxis, :]).sum(axis=1).tolist()

    # objective * scale is an integer for every combo
    scale = math.lcm(wden * d.n, cfg.c0.denominator, cfg.c1.denominator * den)
    tiers_flat = None
    if s.tiers is not None:
        costs = [s.tier_cost(j, v) for j, vs in enumerate(dom_vals) for v in vs]
        scale = math.lcm(scale, common_denominator(costs))
        tiers_flat = [{int(v * den): int(s.tier_cost(j, v) * scale)
                       for v in vs} for j, vs in enumerate(dom_vals)]
    m_loss = scale // (wden * d.n)
    m_l0 = int(cfg.c0 * scale)
    m_l1_num = cfg.c1.numerator * (scale // cfg.c1.denominator)
    assert m_l1_num % den == 0
    m_l1 = m_l1_num // den
    ks = [sum(1 for v in c if v) for c in cints]
    l1s = [sum(abs(v) for v in c) for c in cints]

    best = None
    for ci_, combo in enumerate(combos):
        tot = loss_int[ci_] * m_loss + ks[ci_] * m_l0 + l1s[ci_] * m_l1
        if tiers_flat is not None:
            tot += sum(tiers_flat[j][cints[ci_][j]] for j in range(len(combo)))
        key = (tot, l1s[ci_], combo)
        if best is None or key < best[0]:
            best = (key, combo)
    (tot, _, _), combo = best
    return Fraction(tot, scale), combo


def brute_check(d, s, cfg, tiers=None):
    """Slow cross-check of brute_solve through evaluate(); small K only."""
    best = None
    for combo in itertools.product(*[dom.values for dom in s.domains]):
        ov = evaluate(d, list(combo), cfg, tiers=tiers)
        key = (ov.total, sum(abs(v) for v in combo), combo)
        if best is None or key < best[0]:
            best = (key, combo, ov)
    return best[0][0], best[1]


def rand_dup_dataset(rng, n, p, lo=-3, hi=3, scale=1) -> Dataset:
    """Rows drawn with replacement from a pool of about n/3 distinct
    integer rows (times scale), each with a random label, so the table
    has repeated rows and rows whose twin has the opposite label."""
    pool = rng.integers(lo, hi + 1, size=(max(2, n // 3), p)) * scale
    x = pool[rng.integers(0, len(pool), size=n)].astype(np.float64)
    y = rng.choice([-1, 1], size=n)
    y[0], y[-1] = 1, -1  # keep both classes
    return Dataset(x=x, y=y, feature_names=tuple(f"f{j}" for j in range(p)),
                   intercept_index=None)


def first_of_signed_rows(d: Dataset) -> list[int]:
    """For each example i, the first example whose signed row y x equals
    y_i x_i: the example the exported loss row of i is named after."""
    first: dict = {}
    return [first.setdefault(tuple((y * row).tolist()), i)
            for i, (y, row) in enumerate(zip(d.y, d.x))]


def footnote_dataset() -> Dataset:
    """Two-point instance with two optimal unit-coefficient models."""
    x = np.array([[-1.0, 1.0], [1.0, -1.0]])
    y = np.array([1, -1])
    return Dataset(x=x, y=y, feature_names=("f0", "f1"), intercept_index=None)


def write_csv(path: Path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for r in rows:
            fh.write(",".join(str(v) for v in r) + "\n")
    return path
