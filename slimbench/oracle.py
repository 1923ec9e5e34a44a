"""Checks on scoresys outputs that share no code with scoresys.

Tables are read from the CSV text with the csv module, and objectives
are recomputed with plain integers and Fractions:

    objective = misclassified / n + c0 * nnz + c1 * l1,
    c1 = min(1/n, c0) / (2 * max l1 of the coefficient set),

where a score of exactly 0 counts as a miss for either label.  Every
check raises CheckFailed with a message that names what disagreed.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

MISSING = {"", "?", "na", "nan"}
INTERCEPT = "(Intercept)"


class CheckFailed(Exception):
    pass


def check(ok: bool, msg: str):
    if not ok:
        raise CheckFailed(msg)


# --- tables and coefficient sets ----------------------------------------------

def _cell(text: str):
    f = Fraction(text.strip())
    return f.numerator if f.denominator == 1 else f


@dataclass(frozen=True)
class Table:
    """Labeled rows with an all-ones intercept column first; rows with a
    missing cell are dropped, labels are +-1."""

    names: tuple
    rows: tuple            # tuples of int or Fraction
    y: tuple               # +-1

    @property
    def n(self) -> int:
        return len(self.rows)

    def subset(self, idx) -> "Table":
        return Table(self.names, tuple(self.rows[i] for i in idx),
                     tuple(self.y[i] for i in idx))


def read_table(text: str) -> Table:
    records = [r for r in csv.reader(io.StringIO(text)) if r and any(c.strip() for c in r)]
    header = [c.strip() for c in records[0]]
    rows, y = [], []
    for r in records[1:]:
        if any(c.strip().lower() in MISSING for c in r):
            continue
        lab = Fraction(r[-1].strip())
        check(lab in (-1, 0, 1), f"label {r[-1]!r} is not 0/1 or -1/+1")
        y.append(1 if lab == 1 else -1)
        rows.append((1,) + tuple(_cell(c) for c in r[:-1]))
    return Table((INTERCEPT,) + tuple(header[:-1]), tuple(rows), tuple(y))


def domain_values(desc: dict) -> list:
    """Sorted values of the two descriptor kinds the workloads use."""
    if desc["type"] == "integer":
        m = desc["max"]
        return [Fraction(v) for v in range(-m, m + 1)]
    check(desc["type"] == "set", f"unsupported descriptor {desc!r}")
    return sorted({Fraction(v) for v in desc["values"]} | {Fraction(0)})


def domains_for(coefset: dict, names) -> list:
    return [domain_values(coefset.get(name, coefset["default"])) for name in names]


def max_l1(domains) -> Fraction:
    return sum((max(abs(v) for v in vs) for vs in domains), Fraction(0))


# --- objective ------------------------------------------------------------------

def c1_default(n: int, c0: Fraction, l1max: Fraction) -> Fraction:
    return min(Fraction(1, n), c0) / (2 * l1max)


def misclassified(t: Table, coefs) -> int:
    # scaling every coefficient by the same positive integer keeps each
    # score's sign and, on integer cells, keeps the sums in plain ints
    den = math.lcm(*(Fraction(c).denominator for c in coefs))
    active = [(j, int(c * den)) for j, c in enumerate(coefs) if c != 0]
    return sum(1 for row, lab in zip(t.rows, t.y)
               if lab * sum(row[j] * c for j, c in active) <= 0)


@dataclass(frozen=True)
class Value:
    total: Fraction
    nnz: int


def objective(t: Table, coefs, c0: Fraction, l1max: Fraction) -> Value:
    mis = misclassified(t, coefs)
    nnz = sum(1 for c in coefs if c != 0)
    l1 = sum((abs(c) for c in coefs), Fraction(0))
    total = Fraction(mis, t.n) + c0 * nnz + c1_default(t.n, c0, l1max) * l1
    return Value(total, nnz)


def model_coefs(doc: dict, t: Table) -> list:
    """Coefficients of a model JSON in the table's column order."""
    by_name = {f["name"]: Fraction(str(f["coef"])) for f in doc["features"]}
    check(doc.get("intercept") is not None, "model has no intercept entry")
    by_name[INTERCEPT] = Fraction(str(doc["intercept"]))
    check(set(by_name) == set(t.names),
          f"model names {sorted(by_name)} differ from the table's {sorted(t.names)}")
    return [by_name[name] for name in t.names]


# --- printed output ------------------------------------------------------------

def field(out: str, key: str) -> str:
    """First whitespace token after 'key:' on the line that starts with it."""
    for line in out.splitlines():
        if line.startswith(key + ":"):
            return line[len(key) + 1:].split()[0]
    raise CheckFailed(f"output has no {key!r} line")


def _terminating(f: Fraction) -> bool:
    d = f.denominator
    for p in (2, 5):
        while d % p == 0:
            d //= p
    return d == 1


def same_number(text: str, exact: Fraction) -> bool:
    """text spells exact: as its decimal when one exists, otherwise as
    the shortest float that rounds to it."""
    if _terminating(exact):
        return Fraction(text) == exact
    return float(text) == float(exact)


def check_printed(out: str, key: str, exact: Fraction, what: str):
    text = field(out, key)
    check(same_number(text, exact),
          f"{what}: printed {key} {text} but recomputed {exact} ({float(exact)!r})")


# --- optimality -------------------------------------------------------------------

def check_local(t: Table, coefs, domains, c0: Fraction, l1max: Fraction, what: str):
    """No single-coordinate move to another domain value improves the model."""
    x = np.array(t.rows, dtype=object)
    y = np.array(t.y, dtype=object)
    score = x.dot(np.array(coefs, dtype=object))
    base = objective(t, coefs, c0, l1max).total
    c1 = c1_default(t.n, c0, l1max)
    nnz = sum(1 for c in coefs if c != 0)
    l1 = sum((abs(c) for c in coefs), Fraction(0))
    for j, vs in enumerate(domains):
        for v in vs:
            if v == coefs[j]:
                continue
            moved = score + (v - coefs[j]) * x[:, j]
            mis = int(np.sum(y * moved <= 0))
            nnz_v = nnz - (coefs[j] != 0) + (v != 0)
            l1_v = l1 - abs(coefs[j]) + abs(v)
            total = Fraction(mis, t.n) + c0 * nnz_v + c1 * l1_v
            check(total >= base, f"{what}: setting coefficient {t.names[j]} to "
                  f"{v} lowers the objective from {base} to {total}")


def check_path(models, what: str):
    """models: (c0, objective, nnz) in increasing c0 order.  With c1 fixed
    the optimum is nondecreasing and its nnz nonincreasing in c0."""
    for (c0a, obja, nnza), (c0b, objb, nnzb) in zip(models, models[1:]):
        check(c0a < c0b, f"{what}: path is not increasing")
        check(obja <= objb, f"{what}: optimum falls from {obja} at c0={c0a} "
              f"to {objb} at c0={c0b}")
        check(nnza >= nnzb, f"{what}: nnz rises from {nnza} at c0={c0a} to "
              f"{nnzb} at c0={c0b}")


class Lattice:
    """Every coefficient vector of a finite integer coefficient set,
    scored against the distinct rows of an integer table.  Vectors are
    numbered in lexicographic order (ascending values per column), so
    the first of several equal keys is the lexicographically smallest
    vector, the tie rule scoresys documents."""

    CHUNK_CELLS = 4_000_000

    def __init__(self, t: Table, domains):
        check(all(isinstance(v, int) for row in t.rows for v in row),
              "exhaustive search needs integer cells")
        check(all(v.denominator == 1 for vs in domains for v in vs),
              "exhaustive search needs integer coefficient sets")
        self.t = t
        x = np.array(t.rows, dtype=np.int64)
        self.distinct, row_id = np.unique(x, axis=0, return_inverse=True)
        self.row_id = row_id.reshape(-1)
        self.vals = [np.array([int(v) for v in vs], dtype=np.int64) for vs in domains]
        self.count = math.prod(len(v) for v in self.vals)
        self.strides = [math.prod(len(v) for v in self.vals[j + 1:])
                        for j in range(len(self.vals))]
        self.l1max = max_l1(domains)
        self.top = int(sum(int(np.abs(v).max()) for v in self.vals)) + 1
        bound = int(np.abs(self.distinct).sum(axis=1).max()) * self.top
        check(bound < 2**52, "scores would not be exact in float64")

    def vectors(self, a: int, b: int) -> np.ndarray:
        idx = np.arange(a, b, dtype=np.int64)
        return np.stack([v[(idx // st) % len(v)] for v, st in zip(self.vals, self.strides)],
                        axis=1)

    def vector(self, i: int) -> list:
        return [Fraction(int(v)) for v in self.vectors(i, i + 1)[0]]

    def optima(self, row_sets, problems) -> list:
        """problems: (index into row_sets, c0).  For each, the index of
        the optimum (objective, then l1, then lexicographic) and its
        exact objective on those rows."""
        y = np.array(self.t.y)
        r = len(self.distinct)
        cpos = np.zeros((r, len(row_sets)))
        cneg = np.zeros((r, len(row_sets)))
        for s, idx in enumerate(row_sets):
            idx = np.asarray(idx)
            np.add.at(cpos[:, s], self.row_id[idx[y[idx] == 1]], 1)
            np.add.at(cneg[:, s], self.row_id[idx[y[idx] == -1]], 1)
        weights = []
        for s, c0 in problems:
            n = len(row_sets[s])
            c1 = c1_default(n, c0, self.l1max)
            scale = math.lcm(n, c0.denominator, c1.denominator)
            check(scale * (n + len(self.vals) * self.top) * self.top < 2**62,
                  "objective keys would overflow int64")
            weights.append((s, scale // n, int(c0 * scale), int(c1 * scale), scale))
        best = [(None, None)] * len(problems)
        xt = self.distinct.T.astype(np.float64)
        step = max(1, self.CHUNK_CELLS // r)
        for a in range(0, self.count, step):
            v = self.vectors(a, min(a + step, self.count))
            sc = v.astype(np.float64) @ xt
            miss = np.rint((sc <= 0) @ cpos + (sc >= 0) @ cneg).astype(np.int64)
            nnz = (v != 0).sum(axis=1)
            l1 = np.abs(v).sum(axis=1)
            for p, (s, w_loss, w0, w1, _) in enumerate(weights):
                key = (miss[:, s] * w_loss + nnz * w0 + l1 * w1) * self.top + l1
                k = int(np.argmin(key))
                if best[p][0] is None or key[k] < best[p][0]:
                    best[p] = (int(key[k]), a + k)
        return [(i, Fraction(key // self.top, w[4])) for (key, i), w in zip(best, weights)]
