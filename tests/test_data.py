import csv
import io
import os
import re
from fractions import Fraction

import numpy as np
import pytest

from scoresys.data import INTERCEPT_NAME, Dataset, load_csv, split_folds, to_csv
from scoresys.errors import DataError
from scoresys.exactnum import common_denominator, scaled_int, to_fraction

from helpers import write_csv


def _basic_csv(tmp_path, rows, header=("a", "b", "y")):
    return write_csv(tmp_path / "d.csv", header, rows)


def test_load_csv_basic(tmp_path):
    p = _basic_csv(tmp_path, [(1, 2, 1), (3, 4, -1), (5, 6, 1)])
    d = load_csv(p)
    assert d.n == 3 and d.p == 3
    assert d.feature_names == ("(Intercept)", "a", "b")
    assert d.intercept_index == 0
    assert np.array_equal(d.y, [1, -1, 1])
    assert np.array_equal(d.x[:, 0], [1.0, 1.0, 1.0])
    assert d.label_name == "y"


def test_load_csv_zero_one_labels(tmp_path):
    p = _basic_csv(tmp_path, [(1, 2, 0), (3, 4, 1)])
    d = load_csv(p)
    assert np.array_equal(d.y, [-1, 1])


def test_load_csv_rejects_other_labels(tmp_path):
    p = _basic_csv(tmp_path, [(1, 2, 2), (3, 4, 1)])
    with pytest.raises(DataError):
        load_csv(p)
    p2 = _basic_csv(tmp_path, [(1, 2, 0), (3, 4, -1)])  # mixes codings
    with pytest.raises(DataError):
        load_csv(p2)


def test_load_csv_label_column_by_name(tmp_path):
    p = write_csv(tmp_path / "d.csv", ("y", "a", "b"),
                  [(1, 10, 20), (-1, 30, 40)])
    d = load_csv(p, label_column="y")
    assert d.feature_names == ("(Intercept)", "a", "b")
    assert np.array_equal(d.x[:, 1], [10.0, 30.0])


def test_load_csv_drop_policy(tmp_path):
    p = _basic_csv(tmp_path, [(1, 2, 1), ("?", 4, -1), (5, "NA", 1), (7, 8, -1)])
    d = load_csv(p)
    assert d.n == 2
    assert np.array_equal(d.x[:, 1], [1.0, 7.0])


def test_load_csv_impute_mean(tmp_path):
    p = _basic_csv(tmp_path, [(1, 2, 1), ("", 4, -1), (3, 6, 1)])
    d = load_csv(p, missing_policy="impute_mean")
    assert d.n == 3
    assert d.x[1, 1] == 2.0  # mean of 1 and 3


def test_load_csv_missing_label_always_dropped(tmp_path):
    p = _basic_csv(tmp_path, [(1, 2, 1), (3, 4, "?"), (5, 6, -1)])
    d = load_csv(p, missing_policy="impute_mean")
    assert d.n == 2


def test_load_csv_one_hot(tmp_path):
    p = write_csv(tmp_path / "d.csv", ("color", "v", "y"),
                  [("red", 1, 1), ("blue", 2, -1), ("red", 3, 1)])
    d = load_csv(p, one_hot=("color",))
    assert d.feature_names == ("(Intercept)", "color=blue", "color=red", "v")
    assert np.array_equal(d.x[:, 1], [0.0, 1.0, 0.0])
    assert np.array_equal(d.x[:, 2], [1.0, 0.0, 1.0])


def test_load_csv_one_hot_unknown_column(tmp_path):
    p = _basic_csv(tmp_path, [(1, 2, 1), (3, 4, -1)])
    with pytest.raises(DataError):
        load_csv(p, one_hot=("nope",))


def test_load_csv_no_intercept(tmp_path):
    p = _basic_csv(tmp_path, [(1, 2, 1), (3, 4, -1)])
    d = load_csv(p, add_intercept=False)
    assert d.feature_names == ("a", "b")
    assert d.intercept_index is None


def test_load_csv_recognizes_existing_intercept(tmp_path):
    p = write_csv(tmp_path / "d.csv", ("(Intercept)", "a", "y"),
                  [(1, 2, 1), (1, 4, -1)])
    d = load_csv(p, add_intercept=False)
    assert d.intercept_index == 0
    with pytest.raises(DataError):
        load_csv(p)  # cannot add a second one


def test_load_csv_missing_file():
    with pytest.raises(FileNotFoundError):
        load_csv("/no/such/file.csv")


def test_load_csv_file_that_is_not_utf8(tmp_path):
    # the start of an executable: 0x80 after an ELF header is no UTF-8
    p = tmp_path / "binary"
    p.write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(128, 256)))
    with pytest.raises(DataError, match=re.escape(
            f"cannot read {p}: not UTF-8 text (invalid start byte)")):
        load_csv(p)
    with pytest.raises(UnicodeDecodeError):  # a stream's reader reports it
        load_csv(io.TextIOWrapper(io.BytesIO(p.read_bytes()), encoding="utf-8"))


def test_load_csv_skips_a_byte_order_mark(tmp_path):
    # Excel's "CSV UTF-8" starts the file with the UTF-8 byte-order mark
    p = tmp_path / "bom.csv"
    p.write_bytes(b"\xef\xbb\xbfa,b,y\nx,1,1\nz,2,-1\n")
    d = load_csv(p, one_hot=("a",))
    assert d.feature_names == ("(Intercept)", "a=x", "a=z", "b")
    assert d.x.tolist() == [[1, 1, 0, 1], [1, 0, 1, 2]]


def test_load_csv_ragged_row(tmp_path):
    with open(tmp_path / "d.csv", "w") as fh:
        fh.write("a,b,y\n1,2,1\n3,4\n")
    with pytest.raises(DataError):
        load_csv(tmp_path / "d.csv")


def test_load_csv_bad_numeric_cell(tmp_path):
    p = _basic_csv(tmp_path, [(1, "x", 1), (3, 4, -1)])
    with pytest.raises(DataError):
        load_csv(p)


# The row-at-a-time loader that load_csv replaced, kept verbatim (only
# renamed) as the reference for the column-at-a-time one.
_MISSING_REFERENCE = {"", "?", "na", "nan"}


def _normalize_labels_reference(raw, where) -> np.ndarray:
    vals = sorted(set(raw))
    bad = [v for v in vals if v not in (-1.0, 0.0, 1.0)]
    if bad:
        raise DataError(f"label value {bad[0]!r} in {where}: expected 0/1 or -1/+1")
    if -1.0 in vals and 0.0 in vals:
        raise DataError(f"labels in {where} mix the 0/1 and -1/+1 conventions")
    y = np.asarray(raw)
    if 0.0 in vals:
        y = np.where(y == 0.0, -1.0, y)
    return y.astype(np.int8)


def _load_csv_reference(source, *, label_column: str | None = None, add_intercept: bool = True,
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
    close_me = None
    if isinstance(source, (str, os.PathLike)):
        if not os.path.exists(source):
            raise FileNotFoundError(f"no such file: {source}")
        close_me = handle = open(source, newline="", encoding="utf-8")
    else:
        handle = source
    try:
        rows = list(csv.reader(handle))
    finally:
        if close_me:
            close_me.close()
    rows = [r for r in rows if r and any(c.strip() for c in r)]
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

    labels, cells, rownums = [], [], []
    for rix, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DataError(f"row {rix} has {len(row)} cells, expected {len(header)}")
        lab = row[li].strip()
        if lab.lower() in _MISSING_REFERENCE:
            continue  # unlabeled rows are useless for training
        try:
            labels.append(float(lab))
        except ValueError:
            raise DataError(
                f"row {rix}, column {label_column!r}: bad label {lab!r}") from None
        cells.append([None if row[k].strip().lower() in _MISSING_REFERENCE else row[k].strip()
                      for k in fi])
        rownums.append(rix)

    if not cells:
        raise DataError("no labeled rows in CSV")
    y = _normalize_labels_reference(labels, "CSV")

    # categorical expansion first, so numeric parsing only sees numeric columns
    out_names: list[str] = []
    out_cols: list[list] = []
    for c, name in enumerate(names):
        col = [r[c] for r in cells]
        if name in hot:
            if any(v is None for v in col):
                if missing_policy == "impute_mean":
                    bad = next(i for i, v in enumerate(col) if v is None)
                    raise DataError(
                        f"row {rownums[bad]}, column {name!r}: missing "
                        "categorical cell; impute_mean does not apply, "
                        "use missing_policy='drop'")
            levels = sorted({v for v in col if v is not None})
            for lev in levels:
                out_names.append(f"{name}={lev}")
                out_cols.append([None if v is None else float(v == lev) for v in col])
        else:
            parsed = []
            for i, v in enumerate(col):
                if v is None:
                    parsed.append(None)
                    continue
                try:
                    parsed.append(float(v))
                except ValueError:
                    raise DataError(
                        f"row {rownums[i]}, column {name!r}: bad numeric cell {v!r}"
                    ) from None
            out_names.append(name)
            out_cols.append(parsed)

    n = len(cells)
    keep = [i for i in range(n)
            if all(col[i] is not None for col in out_cols)] \
        if missing_policy == "drop" else list(range(n))
    if missing_policy == "impute_mean":
        for col in out_cols:
            seen = [v for v in col if v is not None]
            if not seen:
                raise DataError("a column is entirely missing; cannot impute")
            mean = float(np.mean(seen))
            for i, v in enumerate(col):
                if v is None:
                    col[i] = mean
    if not keep:
        raise DataError("every row was dropped by the missing-value policy")

    x = np.array([[col[i] for col in out_cols] for i in keep], dtype=np.float64)
    y = y[np.asarray(keep, dtype=np.intp)]

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


def _random_cell(rng, kind, fault):
    """One raw CSV cell: numbers with the spellings float() accepts,
    missing markers in mixed case with whitespace, a bad cell at rate
    fault, and quoting."""
    u = rng.random()
    if u < 0.1:
        cell = str(rng.choice(["", "?", "NA", "na", " Na ", "NaN", " nan", "?  ", " "]))
    elif u < 0.1 + fault:
        cell = str(rng.choice(["x1", "1..2", "1,5", "yes", "-nan", "inf"]))
    elif kind == "cat":
        cell = str(rng.choice(["a", "b", "B", " c", "a "]))
    elif kind == "one":
        cell = str(rng.choice(["1", "1.0", " 1", "+1", "1e0"] + ["2"] * (u > 0.97)))
    else:
        v = int(rng.integers(-3, 4))
        cell = str(rng.choice([f"{v}", f" {v} ", f"{v}.0", f"{v}e0", f"{v:+d}",
                               f"{v}.5", "-0"]))
    return f'"{cell}"' if rng.random() < 0.1 or "," in cell else cell


def _random_label(rng, codes, fault):
    u = rng.random()
    if u < 0.1:
        return str(rng.choice(["", "?", "NA", " nan ", "Nan"]))
    if u < 0.1 + fault:
        return str(rng.choice(["2", "yes", "0.5", "+", "-1", "0"]))
    return str(rng.choice(codes))


def _random_table(rng):
    """CSV text and load_csv keyword arguments for one random case."""
    p = int(rng.integers(1, 5))
    kinds = [str(rng.choice(["num", "num", "cat"])) for _ in range(p)]
    names = [f"f{j}" for j in range(p)]
    if rng.random() < 0.25:
        j = int(rng.integers(p))
        names[j], kinds[j] = "(Intercept)", "one"
    at = int(rng.integers(p + 1))
    header = names[:at] + ["y"] + names[at:]
    codes = [["0", "1", " 1", "1.0"], ["-1", "1", "+1", "-1.0 "]][int(rng.integers(2))]
    lines = [",".join(header)]
    fault = [0.01, 0.1][int(rng.random() < 0.25)]  # rate of each kind of bad row or cell
    for _ in range(int(rng.integers(1, 15))):
        if rng.random() < 0.05:
            lines.append(str(rng.choice(["", "  ", " , ,"])))
            continue
        cells = [_random_cell(rng, k, fault) for k in kinds]
        row = cells[:at] + [_random_label(rng, codes, fault)] + cells[at:]
        if rng.random() < fault:
            row = row[:-1] if rng.random() < 0.5 else row + ["1"]
        lines.append(",".join(row))
    cats = [n for n, k in zip(names, kinds) if k == "cat"]
    one_hot = [n for n in cats if rng.random() < 0.9] + ["zz"] * (rng.random() < 0.02)
    label = None if rng.random() < 0.5 else "y"
    kw = dict(label_column=label if at == p or rng.random() < 0.05 else "y",
              add_intercept=bool(rng.random() < 0.5),
              missing_policy=str(rng.choice(["drop", "impute_mean"])),
              one_hot=tuple(one_hot))
    return "\n".join(lines) + "\n", kw


def _outcome(load, text, kw):
    try:
        d = load(io.StringIO(text), **kw)
    except DataError as e:
        return ("error", str(e))
    return (d.content_hash(), d.feature_names, d.intercept_index, d.label_name)


def test_load_csv_matches_row_loader_reference():
    rng = np.random.default_rng(20261018)
    loaded = 0
    for _ in range(400):
        text, kw = _random_table(rng)
        got = _outcome(load_csv, text, kw)
        assert got == _outcome(_load_csv_reference, text, kw), (text, kw)
        loaded += got[0] != "error"
    assert loaded >= 150  # the cases are not all errors


def test_to_csv_round_trip(tmp_path):
    p = _basic_csv(tmp_path, [(1, 2, 1), (3, 4, -1), (5, 6, 1)])
    d = load_csv(p)
    buf = io.StringIO()
    to_csv(d, buf)
    d2 = load_csv(io.StringIO(buf.getvalue()), add_intercept=False)
    assert d2.feature_names == d.feature_names
    assert np.array_equal(d2.x, d.x)
    assert np.array_equal(d2.y, d.y)
    assert d2.intercept_index == d.intercept_index


def test_exact_column():
    x = np.array([[0.5, 2.0], [1.5, 3.0]])
    d = Dataset(x=x, y=np.array([1, -1]), feature_names=("a", "b"),
                intercept_index=None)
    ints, den = d.exact_column(0)
    assert den == 2
    assert ints.tolist() == [1, 3]


def _exact_column_by_fractions(col):
    """Reference: one to_fraction per cell, then a common denominator."""
    fracs = [to_fraction(v) for v in col]
    den = common_denominator(fracs)
    return [scaled_int(f, den) for f in fracs], den


@pytest.mark.parametrize("col", [
    [3.0, -7.0, -0.0, 0.0, 12.0],     # integer path
    [2.0**53, -(2.0**53), 1.0],       # integer path, at its limit
    [1.0, 1e23, -4.0],                # Fraction path: 10**23, not int(1e23)
    [1.0, 0.5, -3.0],                 # Fraction path: not integral
])
def test_exact_column_integer_path_matches_fractions(col):
    x = np.array(col)[:, None]
    d = Dataset(x=x, y=np.resize([1, -1], len(col)),
                feature_names=("a",), intercept_index=None)
    nums, den = d.exact_column(0)
    ref_nums, ref_den = _exact_column_by_fractions(col)
    assert (nums.tolist(), den) == (ref_nums, ref_den)
    assert all(type(v) is int for v in nums.tolist())


def test_subset_and_counts():
    x = np.arange(12, dtype=np.float64).reshape(6, 2)
    y = np.array([1, 1, -1, -1, 1, -1])
    d = Dataset(x=x, y=y, feature_names=("a", "b"), intercept_index=None)
    assert d.n_pos == 3
    sub = d.subset([0, 2, 4])
    assert sub.n == 3
    assert np.array_equal(sub.y, [1, -1, 1])
    assert np.array_equal(sub.x[:, 0], [0.0, 4.0, 8.0])


def test_content_hash_stability():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    d1 = Dataset(x=x, y=np.array([1, -1]), feature_names=("a", "b"),
                 intercept_index=None)
    d2 = Dataset(x=x.copy(), y=np.array([1, -1]), feature_names=("a", "b"),
                 intercept_index=None)
    assert d1.content_hash() == d2.content_hash()
    d3 = d1.subset([1, 0])
    assert d3.content_hash() != d1.content_hash()


def test_split_folds_partition():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(23, 2))
    y = np.where(rng.random(23) < 0.4, 1, -1)
    y[:2] = [1, -1]
    d = Dataset(x=x, y=y, feature_names=("a", "b"), intercept_index=None)
    fa = split_folds(d, 5, seed=3)
    seen = []
    for f in range(5):
        te = fa.test_indices(f)
        tr = fa.train_indices(f)
        assert set(te) | set(tr) == set(range(23))
        assert not set(te) & set(tr)
        seen.extend(te.tolist())
    assert sorted(seen) == list(range(23))


def test_split_folds_stratified_balance():
    y = np.array([1] * 10 + [-1] * 40)
    x = np.zeros((50, 1))
    d = Dataset(x=x, y=y, feature_names=("a",), intercept_index=None)
    fa = split_folds(d, 5, seed=0, stratify=True)
    for f in range(5):
        te = fa.test_indices(f)
        assert (d.y[te] == 1).sum() == 2  # 10 positives over 5 folds


def test_split_folds_seed_determinism():
    x = np.arange(30, dtype=np.float64).reshape(30, 1)
    y = np.array([1, -1] * 15)
    d = Dataset(x=x, y=y, feature_names=("a",), intercept_index=None)
    a = split_folds(d, 4, seed=9)
    b = split_folds(d, 4, seed=9)
    c = split_folds(d, 4, seed=10)
    assert all(np.array_equal(a.test_indices(f), b.test_indices(f))
               for f in range(4))
    assert any(not np.array_equal(a.test_indices(f), c.test_indices(f))
               for f in range(4))
