"""Benchmark workloads: what each one feeds scoresys, built from a seed.

Every workload is a labeled CSV plus coefficient-set JSON files written
into a scratch directory.  scoresys sees only those files.  The table
is fixed per workload: the two bundled fixtures, or a synthetic table
drawn once from ROWS_TABLE_SEED.  The run's seed reorders its rows, but
only among rows that share a label and a cross-validation fold, so
every seed poses the same training problems and the same cv cells (the
same work) in a different row order.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from oracle import MISSING

CV_K = 5
CV_SEED = 0
BUDGET_C0 = Fraction(1, 500)
BUDGET_SET = {"default": {"type": "integer", "max": 100}}
# cheap enough that a run makes several rounds (run.py)
FIXTURE_PATH = (Fraction(1, 20), Fraction(1, 10))

# synthetic table: ROWS_N rows of ROWS_P integer features drawn
# uniformly from 0..ROWS_MAX, labeled by a planted model plus noise
ROWS_TABLE_SEED = 0
ROWS_N = 3000
ROWS_P = 7
ROWS_MAX = 9
ROWS_W = (3, -2, 2, -1, 1, 0, 0)
ROWS_BIAS = -8
ROWS_NOISE_SD = 3.0
ROWS_PATH = (Fraction(1, 500), Fraction(1, 20))


@dataclass(frozen=True)
class Spec:
    """One workload's fixed make-up (everything but the seed); why each
    workload exists is in BENCHMARK.json and README.md."""

    coefset: dict          # coefficient-set JSON for train, cv and export
    path: tuple            # c0 values, increasing
    exhaustive: bool       # small enough to enumerate every model per run
    budget_s: float        # B of the budgeted solve, below its seeding time on rows
    reps: dict             # repeats per round of each CLI path (see run.py)


SPECS = {
    "mammo": Spec(
        {"default": {"type": "integer", "max": 1}}, FIXTURE_PATH, True, 1.0,
        {"train": 3, "budget": 1, "cv": 1, "export_verify": 3}),
    "breastcancer": Spec(
        {"default": {"type": "set", "values": [0, 1, -1, 10, -10]}},
        FIXTURE_PATH, False, 1.0,
        {"train": 3, "budget": 1, "cv": 1, "export_verify": 3}),
    "rows": Spec(
        {"default": {"type": "integer", "max": 1}}, ROWS_PATH, True, 0.5,
        {"train": 4, "budget": 1, "cv": 3, "export_verify": 1}),
}


@dataclass(frozen=True)
class Inputs:
    spec: Spec
    seed: int
    csv: str               # path of the generated table
    coefset: str           # path of the train/cv/export coefficient set
    budget_coefset: str    # path of the budgeted solve's coefficient set


def fold_of(y, k: int = CV_K, seed: int = CV_SEED) -> np.ndarray:
    """Stratified k-fold labels as the scoresys README documents them:
    each class is shuffled by numpy's default_rng(seed) and dealt
    round-robin, the second class continuing where the first ended."""
    y = np.asarray(y)
    rng = np.random.default_rng(seed)
    out = np.empty(len(y), dtype=np.intp)
    start = 0
    for g in (np.flatnonzero(y == 1), np.flatnonzero(y == -1)):
        perm = g[rng.permutation(len(g))]
        out[perm] = (start + np.arange(len(g))) % k
        start += len(g)
    return out


def _label(text: str) -> int:
    v = float(text)
    return 1 if v == 1 else -1


def _permuted(text: str, seed: int) -> str:
    """The table's text with its kept rows reordered inside each
    (label, fold) class; rows the loader drops stay where they are."""
    lines = text.splitlines()
    header, body = lines[0], [ln for ln in lines[1:] if ln.strip()]
    kept = [i for i, ln in enumerate(body)
            if not any(c.strip().lower() in MISSING for c in ln.split(","))]
    y = np.array([_label(body[i].split(",")[-1]) for i in kept])
    folds = fold_of(y)
    rng = np.random.default_rng(seed)
    order = np.arange(len(kept))
    for lab in (1, -1):
        for f in range(CV_K):
            slots = np.flatnonzero((y == lab) & (folds == f))
            order[slots] = slots[rng.permutation(len(slots))]
    out = list(body)
    for slot, src in enumerate(order):
        out[kept[slot]] = body[kept[src]]
    return "\n".join([header] + out) + "\n"


def _synthetic_rows() -> str:
    rng = np.random.default_rng(ROWS_TABLE_SEED)
    x = rng.integers(0, ROWS_MAX + 1, size=(ROWS_N, ROWS_P))
    score = x @ np.array(ROWS_W) + ROWS_BIAS + rng.normal(0, ROWS_NOISE_SD, ROWS_N)
    y = np.where(score > 0, 1, 0)
    lines = [",".join(f"f{j}" for j in range(ROWS_P)) + ",y"]
    lines.extend(",".join(map(str, row)) + f",{lab}"
                 for row, lab in zip(x.tolist(), y.tolist()))
    return "\n".join(lines) + "\n"


def make_inputs(name: str, seed: int, root: str, work: str) -> Inputs:
    """Write the workload's files for this seed into work."""
    spec = SPECS[name]
    if name == "rows":
        text = _synthetic_rows()
    else:
        with open(os.path.join(root, "tests", "data", f"{name}.csv"),
                  encoding="utf-8") as fh:
            text = fh.read()
    text = _permuted(text, seed)
    files = {}
    for key, content in (("csv", text), ("coefset", json.dumps(spec.coefset)),
                         ("budget_coefset", json.dumps(BUDGET_SET))):
        files[key] = os.path.join(work, f"{name}.{key}" +
                                  (".csv" if key == "csv" else ".json"))
        with open(files[key], "w", encoding="utf-8") as fh:
            fh.write(content)
    return Inputs(spec=spec, seed=seed, **files)
