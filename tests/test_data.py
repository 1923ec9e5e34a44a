import io
from fractions import Fraction

import numpy as np
import pytest

from scoresys.data import Dataset, load_csv, split_folds, to_csv
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


def test_load_csv_ragged_row(tmp_path):
    with open(tmp_path / "d.csv", "w") as fh:
        fh.write("a,b,y\n1,2,1\n3,4\n")
    with pytest.raises(DataError):
        load_csv(tmp_path / "d.csv")


def test_load_csv_bad_numeric_cell(tmp_path):
    p = _basic_csv(tmp_path, [(1, "x", 1), (3, 4, -1)])
    with pytest.raises(DataError):
        load_csv(p)


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
