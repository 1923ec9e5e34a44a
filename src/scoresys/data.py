"""Datasets: CSV loading, label conventions, folds.

A Dataset is a dense float matrix plus ±1 labels.  Labels may arrive
as {0,1} (0 becomes -1) or as {-1,+1}.  The matrix may carry an
all-ones intercept column; its position is remembered so reporting can
treat it specially.  Exact views of the columns (integer numerators at
a per-column denominator) are built lazily for the exact objective
code and cached on the instance.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field
from itertools import chain, compress

import numpy as np

from .errors import DataError, read_file
from .exactnum import common_denominator, scaled_int, to_fraction

INTERCEPT_NAME = "(Intercept)"
_MISSING = {"", "?", "na", "nan"}
_EXACT_INT_MAX = 2.0**53  # every integer up to here is a float, spelled by its repr


@dataclass(frozen=True, eq=False)
class Dataset:
    x: np.ndarray  # (n, p) float64
    y: np.ndarray  # (n,) int8, entries in {-1, +1}
    feature_names: tuple[str, ...]
    intercept_index: int | None = None
    label_name: str = "y"
    _exact_cols: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y)
        if x.ndim != 2:
            raise DataError("feature matrix must be 2-dimensional")
        n, p = x.shape
        if n == 0 or p == 0:
            raise DataError("dataset has no rows or no columns")
        if y.shape != (n,):
            raise DataError(f"labels have shape {y.shape}, expected ({n},)")
        if not np.all(np.isin(y, (-1, 1))):
            raise DataError("labels must be -1 or +1 after normalization")
        if len(self.feature_names) != p:
            raise DataError(f"{len(self.feature_names)} names for {p} columns")
        if len(set(self.feature_names)) != p:
            raise DataError("duplicate feature names")
        if not np.all(np.isfinite(x)):
            raise DataError("feature matrix contains non-finite values")
        ii = self.intercept_index
        if ii is not None and not np.all(x[:, ii] == 1.0):
            raise DataError("intercept column must be identically 1")
        x = x.copy()
        x.setflags(write=False)
        yc = y.astype(np.int8)
        yc.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", yc)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    @property
    def n_pos(self) -> int:
        return int(np.sum(self.y == 1))

    def exact_column(self, j: int) -> tuple[np.ndarray, int]:
        """Column j as (integer numerators, common denominator), exact.

        A column of integral floats with |x| <= 2**53 is read as integers
        directly, there every float being an integer whose repr spells
        it exactly, and its numerators are an int64 array at
        denominator 1.  Any other column goes cell by cell through
        to_fraction (1e23 reads as 10**23, which int(1e23) is not), and
        its numerators are Python ints in an object array.  An int64
        column's products can leave int64, so a caller that multiplies
        or sums numerators widens them first where the result could
        reach 2**63."""
        got = self._exact_cols.get(j)
        if got is None:
            col = self.x[:, j]
            if np.all(np.abs(col) <= _EXACT_INT_MAX) and np.all(col == np.trunc(col)):
                got = (col.astype(np.int64), 1)
            else:
                fracs = [to_fraction(v) for v in col.tolist()]
                denom = common_denominator(fracs)
                nums = np.array([scaled_int(f, denom) for f in fracs], dtype=object)
                got = (nums, denom)
            self._exact_cols[j] = got
        return got

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.intp)
        return Dataset(
            self.x[idx], self.y[idx], self.feature_names,
            intercept_index=self.intercept_index, label_name=self.label_name,
        )

    def content_hash(self) -> str:
        import hashlib  # here, so that loading a table does not load OpenSSL

        h = hashlib.sha256()
        h.update(("\x1f".join(self.feature_names)).encode())
        h.update(str(self.intercept_index).encode())
        h.update(np.ascontiguousarray(self.x).tobytes())
        h.update(np.ascontiguousarray(self.y).tobytes())
        return h.hexdigest()


def _normalize_labels(raw: np.ndarray, where) -> np.ndarray:
    vals = sorted(set(raw.tolist()))  # not np.unique, whose first call imports numpy.ma
    bad = [v for v in vals if v not in (-1.0, 0.0, 1.0)]
    if bad:
        raise DataError(f"label value {bad[0]!r} in {where}: expected 0/1 or -1/+1")
    if -1.0 in vals and 0.0 in vals:
        raise DataError(f"labels in {where} mix the 0/1 and -1/+1 conventions")
    if 0.0 in vals:
        raw = np.where(raw == 0.0, -1.0, raw)
    return raw.astype(np.int8)


def load_csv(source, *, label_column: str | None = None, add_intercept: bool = True,
             missing_policy: str = "drop", one_hot: tuple[str, ...] = ()) -> Dataset:
    """Read a labeled CSV into a Dataset.

    label_column defaults to the last column.  Missing markers are ""
    "?" "NA" "nan" (case-insensitive); missing_policy is "drop" (remove
    the row) or "impute_mean" (column mean of the observed values;
    rows whose *label* is missing are always dropped).  Columns named
    in one_hot are treated as categorical and expanded into one binary
    indicator per observed level, named "col=level" in sorted level
    order; missing cells in those columns are only accepted under
    "drop".  add_intercept prepends an all-ones "(Intercept)" column.
    An existing all-ones column already named "(Intercept)" is
    recognized instead when add_intercept is false.
    """
    if missing_policy not in ("drop", "impute_mean"):
        raise DataError(f"unknown missing_policy {missing_policy!r}")
    if isinstance(source, (str, os.PathLike)):
        rows = read_file(source, lambda fh: list(csv.reader(fh)), DataError)
    else:
        rows = list(csv.reader(source))
    rows = list(compress(rows, map(str.strip, map("".join, rows))))  # drop blank rows
    if len(rows) < 2:
        raise DataError("CSV needs a header row and at least one data row")
    header = [c.strip() for c in rows[0]]
    if label_column is None:
        label_column = header[-1]
    if label_column not in header:
        raise DataError(f"label column {label_column!r} not in header {header}")
    li = header.index(label_column)
    fi = [k for k in range(len(header)) if k != li]
    names = [header[k] for k in fi]
    hot = set(one_hot)
    unknown = hot - set(names)
    if unknown:
        raise DataError(f"one_hot column(s) not in data: {sorted(unknown)}")

    body, w = rows[1:], len(header)
    widths = np.fromiter(map(len, body), int, len(body))
    ragged = np.flatnonzero(widths != w)
    cut = int(ragged[0]) if ragged.size else len(body)  # parse only up to here
    # one table of the distinct raw cells: the stripped text, float() of
    # it (nan for a missing marker or a cell float() rejects), and whether
    # the cell is missing or bad; codes[i, k] indexes row i's cell k in it
    flat = list(chain.from_iterable(body[:cut]))
    raws = list(set(flat))
    text = [raw.strip() for raw in raws]
    missing = np.array([t.lower() in _MISSING for t in text], dtype=bool)
    num, bad = np.full(len(text), np.nan), np.zeros(len(text), dtype=bool)
    for c in np.flatnonzero(~missing).tolist():
        try:
            num[c] = float(text[c])
        except ValueError:
            bad[c] = True
    code = {raw: c for c, raw in enumerate(raws)}
    codes = np.fromiter(map(code.__getitem__, flat), np.intp, len(flat)).reshape(cut, w)
    lab = codes[:, li]
    if bad[lab].any():  # a bad label before the first ragged row comes first
        i = int(bad[lab].argmax())
        raise DataError(f"row {i + 2}, column {label_column!r}: "
                        f"bad label {text[lab[i]]!r}")
    if cut < len(body):
        raise DataError(f"row {cut + 2} has {len(body[cut])} cells, expected {w}")
    labeled = np.flatnonzero(~missing[lab])  # unlabeled rows are useless for training
    if not labeled.size:
        raise DataError("no labeled rows in CSV")
    codes = codes[labeled]
    vals, miss = num[codes], missing[codes]
    y = _normalize_labels(vals[:, li], "CSV")
    n = len(y)
    out_names, out_cols, out_miss = [], [], []  # out_miss: each column's missing cells
    for k, name in zip(fi, names):
        m = miss[:, k]
        if name in hot:
            if missing_policy == "impute_mean" and m.any():
                raise DataError(
                    f"row {labeled[m.argmax()] + 2}, column {name!r}: missing "
                    "categorical cell; impute_mean does not apply, "
                    "use missing_policy='drop'")
            cells = np.array(text, dtype=object)[codes[:, k]]
            for lev in sorted(set(cells[~m])):
                out_names.append(f"{name}={lev}")
                out_cols.append((cells == lev).astype(np.float64))
                out_miss.append(m)
        else:
            if bad[codes[:, k]].any():
                i = int(bad[codes[:, k]].argmax())
                raise DataError(f"row {labeled[i] + 2}, column {name!r}: "
                                f"bad numeric cell {text[codes[i, k]]!r}")
            out_names.append(name)
            out_cols.append(vals[:, k])
            out_miss.append(m)

    if missing_policy == "impute_mean":
        for col, miss in zip(out_cols, out_miss):
            if miss.all():
                raise DataError("a column is entirely missing; cannot impute")
            col[miss] = float(np.mean(col[~miss]))
    x = np.array(out_cols, dtype=np.float64).reshape(len(out_cols), n).T
    if missing_policy == "drop":
        keep = ~np.array(out_miss, dtype=bool).reshape(len(out_miss), n).any(axis=0)
        if not keep.any():
            raise DataError("every row was dropped by the missing-value policy")
        x, y = x[keep], y[keep]

    intercept_index = None
    if add_intercept:
        if INTERCEPT_NAME in out_names:
            raise DataError(f"data already has a column named {INTERCEPT_NAME}")
        x = np.hstack([np.ones((x.shape[0], 1)), x])
        out_names = [INTERCEPT_NAME] + out_names
        intercept_index = 0
    elif INTERCEPT_NAME in out_names:
        j = out_names.index(INTERCEPT_NAME)
        if np.all(x[:, j] == 1.0):
            intercept_index = j

    return Dataset(x, y, tuple(out_names), intercept_index=intercept_index,
                   label_name=label_column)


def _format_cell(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def to_csv(d: Dataset, target) -> None:
    """Write features + label column; load_csv(..., add_intercept=False)
    round-trips matrix, labels, and names exactly."""
    close_me = None
    if isinstance(target, (str, os.PathLike)):
        close_me = handle = open(target, "w", newline="", encoding="utf-8")
    else:
        handle = target
    try:
        w = csv.writer(handle, lineterminator="\n")
        w.writerow(list(d.feature_names) + [d.label_name])
        for i in range(d.n):
            w.writerow([_format_cell(v) for v in d.x[i]] + [str(int(d.y[i]))])
    finally:
        if close_me:
            close_me.close()


@dataclass(frozen=True)
class FoldAssignment:
    fold_of: np.ndarray  # (n,) int, entries in 0..k-1
    k: int
    seed: int
    stratified: bool

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of != fold)

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of == fold)


def split_folds(d: Dataset, k: int, seed: int = 0, stratify: bool = True) -> FoldAssignment:
    """Deterministic k-fold split; with stratify, per-fold counts of each
    class differ by at most one.  Pure function of (n, k, seed, labels)."""
    n = d.n
    if not 2 <= k <= n:
        raise DataError(f"k={k} must be between 2 and n={n}")
    rng = np.random.default_rng(seed)
    fold_of = np.empty(n, dtype=np.intp)
    if stratify:
        groups = [np.flatnonzero(d.y == 1), np.flatnonzero(d.y == -1)]
    else:
        groups = [np.arange(n)]
    start = 0
    for g in groups:
        perm = g[rng.permutation(len(g))]
        for t, idx in enumerate(perm):
            fold_of[idx] = (start + t) % k
        start += len(g)  # stagger so class remainders land on different folds
    fold_of.setflags(write=False)
    return FoldAssignment(fold_of=fold_of, k=k, seed=seed, stratified=stratify)
