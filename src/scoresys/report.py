"""Scoring systems and their human-readable renderings.

A ScoringSystem is a trained coefficient vector with feature names.  It
can be rendered as a score sheet (the thing a clinician tapes to a
wall), collapsed into an equivalent decision table when its active
features are binary, serialized to JSON, and parsed back from a
rendered sheet.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .data import Dataset
from .errors import ReportError
from .exactnum import fraction_str, pow10_denominator, to_fraction
from .objective import score_ints

MAX_TABLE_FEATURES = 16

DEGENERATE_WARNING = "warning: degenerate model, all coefficients are zero"


@dataclass(frozen=True, eq=False)
class ScoringSystem:
    coefficients: tuple[Fraction, ...]
    feature_names: tuple[str, ...]
    intercept_index: int | None = None
    feature_ranges: tuple | None = None  # per-feature (min, max) or None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        coefs = tuple(to_fraction(c) for c in self.coefficients)
        names = tuple(self.feature_names)
        if len(coefs) != len(names):
            raise ReportError(f"{len(coefs)} coefficients for {len(names)} names")
        if self.intercept_index is not None and not (
                0 <= self.intercept_index < len(coefs)):
            raise ReportError("intercept_index out of range")
        if self.feature_ranges is not None and len(self.feature_ranges) != len(coefs):
            raise ReportError("feature_ranges must align with coefficients")
        object.__setattr__(self, "coefficients", coefs)
        object.__setattr__(self, "feature_names", names)

    @property
    def p(self) -> int:
        return len(self.coefficients)

    @property
    def nnz(self) -> int:
        """Nonzero coefficients, intercept included (the objective's view)."""
        return sum(1 for c in self.coefficients if c != 0)

    @property
    def model_size(self) -> int:
        """Nonzero non-intercept coefficients (the reporting view)."""
        return sum(1 for j, c in enumerate(self.coefficients)
                   if c != 0 and j != self.intercept_index)

    def scores(self, d: Dataset) -> list[Fraction]:
        ints, den = score_ints(d, self.coefficients)
        return [Fraction(int(v), den) for v in ints.tolist()]

    def predict(self, d: Dataset) -> np.ndarray:
        """+1 where the score is strictly positive, else -1 (a score of
        exactly 0 falls to the negative class)."""
        ints, _ = score_ints(d, self.coefficients)
        return np.where(np.asarray(ints > 0, dtype=bool), 1, -1).astype(np.int8)

    def to_json_dict(self) -> dict:
        feats = []
        for j, (name, c) in enumerate(zip(self.feature_names, self.coefficients)):
            if j == self.intercept_index:
                continue
            feats.append({"name": name, "coef": _json_num(c)})
        ii = self.intercept_index
        intercept = None if ii is None else _json_num(self.coefficients[ii])
        meta = dict(self.provenance)
        if self.feature_ranges is not None:
            meta["feature_ranges"] = [
                None if r is None else [r[0], r[1]] for r in self.feature_ranges]
        if ii is not None:
            meta["intercept_name"] = self.feature_names[ii]
            meta["intercept_index"] = ii
        return {"features": feats, "intercept": intercept, "meta": meta}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ScoringSystem":
        try:
            feats = doc["features"]
            names = [f["name"] for f in feats]
            coefs = [to_fraction(f["coef"]) for f in feats]
            meta = dict(doc.get("meta") or {})
            ranges = meta.pop("feature_ranges", None)
            intercept_index = None
            if doc.get("intercept") is not None:
                ii = meta.pop("intercept_index", 0)
                name = meta.pop("intercept_name", "(Intercept)")
                names.insert(ii, name)
                coefs.insert(ii, to_fraction(doc["intercept"]))
                intercept_index = ii
            else:
                meta.pop("intercept_index", None)
                meta.pop("intercept_name", None)
            if ranges is not None:
                ranges = tuple(None if r is None else (float(r[0]), float(r[1]))
                               for r in ranges)
        except (KeyError, TypeError, IndexError, ValueError) as e:
            raise ReportError(f"malformed model JSON: {e}") from None
        return cls(tuple(coefs), tuple(names), intercept_index=intercept_index,
                   feature_ranges=ranges, provenance=meta)

    @classmethod
    def from_json(cls, text: str) -> "ScoringSystem":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise ReportError(f"malformed model JSON: {e}") from None
        return cls.from_json_dict(doc)


def _json_num(c: Fraction):
    if c.denominator == 1:
        return int(c)
    # keep exactness for rationals with no terminating decimal (1/3)
    return float(c) if pow10_denominator(c) else f"{c.numerator}/{c.denominator}"


def _sheet_num(c: Fraction) -> str:
    s = (fraction_str(abs(c)) if pow10_denominator(c)
         else f"{abs(c.numerator)}/{c.denominator}")
    return ("-" if c < 0 else "+") + s


def _range_str(r) -> str:
    fmt = lambda v: str(int(v)) if float(v) == int(v) else repr(float(v))
    return f" ({fmt(r[0])} to {fmt(r[1])})"


def active_rows(m: ScoringSystem):
    """Nonzero non-intercept coefficients, |coef| descending, position
    breaking ties."""
    rows = [(j, c) for j, c in enumerate(m.coefficients)
            if c != 0 and j != m.intercept_index]
    rows.sort(key=lambda jc: (-abs(jc[1]), jc[0]))
    return rows


def render_score_sheet(m: ScoringSystem, labels: dict | None = None) -> str:
    """Text score sheet.

    One "Name (lo to hi) ... +c" row per nonzero non-intercept
    coefficient (largest |coef| first), a standalone "+c"/"-c" line for
    a nonzero intercept, a "Total = ..." row, and the prediction rule
    (positive class iff Total > 0; a total of exactly 0 predicts the
    negative class).  labels optionally maps {1: ..., -1: ...} to class
    names.  parse_score_sheet inverts the format exactly.
    """
    labels = labels or {}
    pos = str(labels.get(1, "+1"))
    neg = str(labels.get(-1, "-1"))
    lines = []
    for j, c in active_rows(m):
        rng = ""
        if m.feature_ranges is not None and m.feature_ranges[j] is not None:
            rng = _range_str(m.feature_ranges[j])
        lines.append(f"{m.feature_names[j]}{rng} ... {_sheet_num(c)}")
    ii = m.intercept_index
    if ii is not None and m.coefficients[ii] != 0:
        lines.append(_sheet_num(m.coefficients[ii]))
    lines.append("Total = ...")
    lines.append(f"predict {pos} if Total > 0, else {neg} "
                 f"(Total = 0 predicts {neg})")
    if m.nnz == 0:
        lines.append(DEGENERATE_WARNING)
    return "\n".join(lines) + "\n"


_NUM_RE = r"[+-](?:\d+/\d+|\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
_ICPT_RE = re.compile(rf"^({_NUM_RE})$")
_TRAIL_RANGE_RE = re.compile(r"\s*\([^()]*\bto\b[^()]*\)$")


def _parse_signed(s: str) -> Fraction:
    sign = -1 if s[0] == "-" else 1
    body = s[1:]
    if "/" in body:
        num, den = body.split("/")
        return Fraction(sign * int(num), int(den))
    return sign * to_fraction(body)


def parse_score_sheet(text: str) -> tuple[dict, Fraction]:
    """Invert render_score_sheet: ({feature: coefficient}, intercept).
    Features absent from the sheet have coefficient 0."""
    coefs: dict[str, Fraction] = {}
    intercept = Fraction(0)
    saw_total = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("Total"):
            saw_total = True
            continue
        if line.startswith("predict") or line.startswith("warning"):
            continue
        head, sep, tail = line.rpartition(" ... ")
        if sep and re.fullmatch(_NUM_RE, tail.strip()):
            name = _TRAIL_RANGE_RE.sub("", head).strip()
            if not name:
                raise ReportError(f"score-sheet row with empty name: {raw!r}")
            if name in coefs:
                raise ReportError(f"feature {name!r} appears twice in sheet")
            coefs[name] = _parse_signed(tail.strip())
            continue
        m = _ICPT_RE.match(line)
        if m:
            intercept += _parse_signed(m.group(1))
            continue
        raise ReportError(f"unparseable score-sheet line: {raw!r}")
    if not saw_total:
        raise ReportError("not a score sheet: no Total row")
    return coefs, intercept


# --- decision tables ---------------------------------------------------------

@dataclass(frozen=True)
class DecisionRule:
    conditions: tuple  # ((feature_name, 0 or 1), ...) in question order
    prediction: int    # +1 or -1


@dataclass(frozen=True)
class DecisionTable:
    questions: tuple[str, ...]  # feature names in the order they are asked
    rules: tuple[DecisionRule, ...]
    base_score: Fraction        # intercept plus folded constant features
    weights: dict               # question name -> coefficient

    def predict(self, assignment: dict) -> int:
        for rule in self.rules:
            if all(assignment[name] == v for name, v in rule.conditions):
                return rule.prediction
        raise ReportError(f"no rule matches assignment {assignment}")

    def to_text(self, labels: dict | None = None) -> str:
        labels = labels or {}
        name_of = lambda y: str(labels.get(y, f"{y:+d}"))
        lines = []
        for i, rule in enumerate(self.rules, start=1):
            cond = " and ".join(f"{name}={v}" for name, v in rule.conditions)
            cond = cond or "always"
            lines.append(f"{i}. if {cond}: predict {name_of(rule.prediction)}")
        return "\n".join(lines) + "\n"


def induce_decision_table(m: ScoringSystem, d: Dataset) -> DecisionTable:
    """Equivalent sequential question list for a model whose active
    features are binary in d.

    Constant columns (the intercept among them) fold into a base score.
    Questions are asked in |coefficient|-descending order and a branch
    closes as soon as every completion of the partial assignment yields
    the same sign, so the rules cover all 2^k combinations without
    listing them.  Refuses non-binary active features and k > 16.
    """
    if tuple(m.feature_names) != tuple(d.feature_names):
        raise ReportError("model and dataset feature names differ")
    base = Fraction(0)
    active = []
    for j, c in enumerate(m.coefficients):
        if c == 0:
            continue
        col = d.x[:, j]
        if np.all(col == col[0]):
            base += c * to_fraction(float(col[0]))
            continue
        vals = set(np.unique(col).tolist())
        if not vals <= {0.0, 1.0}:
            raise ReportError(
                f"feature {m.feature_names[j]!r} is not binary "
                f"(values {sorted(vals)[:4]}); decision table not applicable")
        active.append((j, c))
    if len(active) > MAX_TABLE_FEATURES:
        raise ReportError(
            f"{len(active)} active binary features exceed the table limit "
            f"of {MAX_TABLE_FEATURES}")
    active.sort(key=lambda jc: (-abs(jc[1]), jc[0]))
    questions = tuple(m.feature_names[j] for j, _ in active)
    weights = {m.feature_names[j]: c for j, c in active}

    rules: list[DecisionRule] = []

    def descend(idx: int, conds: tuple, partial: Fraction):
        rest = active[idx:]
        lo = partial + sum((min(c, Fraction(0)) for _, c in rest), Fraction(0))
        hi = partial + sum((max(c, Fraction(0)) for _, c in rest), Fraction(0))
        if lo > 0:  # every completion scores > 0
            rules.append(DecisionRule(conds, 1))
            return
        if hi <= 0:  # every completion scores <= 0
            rules.append(DecisionRule(conds, -1))
            return
        j, c = active[idx]
        name = m.feature_names[j]
        descend(idx + 1, conds + ((name, 1),), partial + c)
        descend(idx + 1, conds + ((name, 0),), partial)

    descend(0, (), base)
    return DecisionTable(questions=questions, rules=tuple(rules),
                         base_score=base, weights=weights)


# --- results tables ----------------------------------------------------------

def parse_label_map(spec: str | None) -> dict | None:
    """Turn a 'positive,negative' display string into the {1: ..., -1: ...}
    map the renderers take; None passes through."""
    if spec is None:
        return None
    parts = spec.split(",")
    if len(parts) != 2 or not all(p.strip() for p in parts):
        raise ReportError(f"labels must be 'positive,negative', got {spec!r}")
    return {1: parts[0].strip(), -1: parts[1].strip()}


def _pct(x) -> str:
    return f"{float(x) * 100:.1f}%"


def render_results_table(r) -> str:
    """Text table over the c0 grid of a harness CvReport: test and train
    error as mean +/- sample sd (one-decimal percents), median model
    size, and the model-size range "min - max"."""
    aggs = r.aggregates
    if not aggs:
        raise ReportError("empty report: no grid points to render")
    headers = ["c0", *(fraction_str(a.c0) for a in aggs)]
    rows = [
        ["test error",
         *(f"{_pct(a.test_error_mean)} +/- {_pct(a.test_error_sd)}" for a in aggs)],
        ["train error",
         *(f"{_pct(a.train_error_mean)} +/- {_pct(a.train_error_sd)}" for a in aggs)],
        ["model size", *(f"{a.size_median:g}" for a in aggs)],
        ["model range", *(f"{a.size_min} - {a.size_max}" for a in aggs)],
    ]
    widths = [max(len(row[k]) for row in [headers] + rows)
              for k in range(len(headers))]
    fmt = lambda row: "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
    out = [fmt(headers), fmt(["-" * w for w in widths])]
    out += [fmt(row) for row in rows]
    return "\n".join(out) + "\n"
