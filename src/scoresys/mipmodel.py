"""Mixed-integer program export of the training objective.

build_model emits the loss/sparsity formulation as explicit variables
and linear constraints; write_lp serializes it to a CPLEX-dialect LP
file that external solvers accept, parse_lp reads that text back, and
verify_solution checks a solver's assignment against every constraint
and against the exact objective.

Variable naming is fixed: z_i (loss indicators, one per distinct signed
row y_i x_i, named after the row's first example i), lam_j (coefficients),
alpha_j (nonzero indicators), beta_j (absolute values), I_j (penalty
totals), u_j_k / u_j_r_k (one-of-K value pickers), s_j_r (tier
pickers); indexes are 0-based.  Every number in a model is a decimal
fraction: values with no terminating decimal form (a weight of 1/3,
say) are rounded to their shortest float representation when the model
is built, so writing and re-parsing a model is lossless by
construction.  The one-of-K encoding covers domains with gaps, which
integer bounds cannot express, and tiered coefficients.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coefset import CoefficientSet, Tier
from .data import Dataset
from .errors import ConfigError, VerifyError
from .exactnum import NUM, fraction_str, pow10_denominator, to_fraction
from .objective import CompiledInstance, ObjectiveValue, TrainConfig, evaluate, score_ints

ZERO = Fraction(0)
ONE = Fraction(1)
TOL = Fraction(1, 10**6)


def _dec(f: Fraction) -> Fraction:
    """Nearest fraction with a terminating decimal expansion (identity
    for almost everything we ever emit)."""
    f = to_fraction(f)
    return f if pow10_denominator(f) else to_fraction(repr(float(f)))


@dataclass(frozen=True)
class Variable:
    name: str
    kind: str                    # binary | integer | continuous
    lower: Fraction | None       # None = unbounded
    upper: Fraction | None

    def __post_init__(self):
        if self.kind not in ("binary", "integer", "continuous"):
            raise ConfigError(f"unknown variable kind {self.kind!r}")


@dataclass(frozen=True)
class Constraint:
    name: str
    terms: tuple                 # ((var_name, coefficient), ...) nonzero
    sense: str                   # <= | >= | =
    rhs: Fraction

    def __post_init__(self):
        if self.sense not in ("<=", ">=", "="):
            raise ConfigError(f"unknown constraint sense {self.sense!r}")


@dataclass(frozen=True)
class MipModel:
    variables: tuple
    linear_constraints: tuple
    objective: tuple             # ((var_name, coefficient), ...) minimize

    def __post_init__(self):
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate variable names in model")
        rows = [c.name for c in self.linear_constraints]
        if len(set(rows)) != len(rows):
            raise ConfigError("duplicate constraint names in model")
        declared = set(names)
        # one set test; the loops below only name the first unknown
        if declared.issuperset([n for c in self.linear_constraints for n, _ in c.terms]
                               + [n for n, _ in self.objective]):
            return
        for name, _ in self.objective:
            if name not in declared:
                raise ConfigError(f"objective references unknown variable {name!r}")
        for c in self.linear_constraints:
            for name, _ in c.terms:
                if name not in declared:
                    raise ConfigError(
                        f"constraint {c.name!r} references unknown variable {name!r}")


def big_m_for(d: Dataset, s: CoefficientSet, gamma: Fraction, i: int) -> Fraction:
    """Loss activation constant for example i: gamma plus the largest
    value -y_i x_i . lam can take over the whole coefficient set.  With
    z_i = 1 the loss constraint is then satisfiable no matter how badly
    lam misclassifies the example."""
    total = to_fraction(gamma)
    y = int(d.y[i])
    for j in range(d.p):
        nums, den = d.exact_column(j)
        c = y * Fraction(int(nums[i]), den)
        vs = s.domains[j].values
        total += max(-c * vs[0], -c * vs[-1])
    return total


def build_model(d: Dataset, s: CoefficientSet, cfg: TrainConfig) -> MipModel:
    """Exact MIP over the coefficient set.

    The loss rows are the rows of CompiledInstance(d, s, cfg): examples
    with equal signed rows y_i x_i have equal margins under every lam,
    so they share one loss indicator z_i and one loss row loss_i, named
    after the first of them (i, CompiledInstance.first) and ordered by
    it.  The row's objective weight is its compiled cost, the class
    weights of its examples summed over n, and its big-M is gamma minus
    its least margin over the coefficient set (margin_extrema), the
    value big_m_for gives its first example.  A table with no repeated
    signed row gets one row per example.

    Every coefficient gets alpha_j, beta_j, the l0/l1 rows and
    I_j = c0 alpha_j + c1 beta_j + sum_r cost_r s_j_r, with tier terms
    only where it has tiers.  A gapped untiered domain picks at most one
    nonzero value (u_j_k, pick_j <= 1); a tiered coefficient picks
    exactly one value, 0 included so that lam_j = 0 pays its tier
    (u_j_r_k, pick_j = 1), and s_j_r sums tier r's picks (tier_j_r).
    """
    cfg = cfg.resolve(d.n, s)
    if s.p != d.p:
        raise ConfigError(f"coefficient set has {s.p} domains for {d.p} columns")

    gamma = _dec(cfg.gamma)
    p = d.p
    tiers = s.tiers or (None,) * p
    variables: list[Variable] = []
    constraints: list[Constraint] = []
    objective: list[tuple] = []

    # one loss row per row of the compiled instance (a distinct signed
    # row y_i x_i), named after its first example and in their order;
    # equal rows have equal margins under every lam, so their z's are one
    ci = CompiledInstance(d, s, cfg)
    order = np.argsort(ci.first)
    rows = ci.first[order]
    firsts = rows.tolist()
    y_rows = d.y[rows]

    for i in firsts:
        variables.append(Variable(f"z_{i}", "binary", ZERO, ONE))
    for j in range(p):
        dom = s.domains[j]
        lo, hi = dom.values[0], dom.values[-1]
        kind = "integer" if dom.is_contiguous_integers() else "continuous"
        variables.append(Variable(f"lam_{j}", kind, _dec(lo), _dec(hi)))
    variables += [Variable(f"alpha_{j}", "binary", ZERO, ONE) for j in range(p)]
    variables += [Variable(f"beta_{j}", "continuous", ZERO, _dec(s.domains[j].max_abs))
                  for j in range(p)]
    for j in range(p):
        variables.append(Variable(f"I_{j}", "continuous", ZERO, None))

    # loss indicators in the objective: a row's cost is the class
    # weights of its examples over n; rows with equal costs share one
    # weight
    costs = ci.cost[order].tolist()
    weight = {c: _dec(Fraction(c, ci.pen_den)) for c in set(costs)}
    for i, c in zip(firsts, costs):
        objective.append((f"z_{i}", weight[c]))
    for j in range(p):
        objective.append((f"I_{j}", ONE))

    # loss rows: M_i z_i + sum_j y_i x_ij lam_j >= gamma, where M_i is
    # gamma minus the row's least margin over the coefficient set
    # (big_m_for); rows share the M of each distinct least margin
    least = sum(ci.margin_extrema(j)[0] for j in range(p))[order].tolist()
    big_m = {lo: _dec(gamma - Fraction(lo, ci.margin_den)) for lo in set(least)}
    # column j's term in each row, None for a zero cell (a data cell is
    # a nonzero decimal, so _dec keeps it nonzero); rows share the term
    # of each distinct value
    lam_cols = []
    for j in range(p):
        nums, den = d.exact_column(j)
        nums = (y_rows * nums[rows]).tolist()
        term = {num: (f"lam_{j}", _dec(Fraction(num, den))) if num else None
                for num in set(nums)}
        lam_cols.append(list(map(term.__getitem__, nums)))
    for i, lo, row in zip(firsts, least, zip(*lam_cols)):
        constraints.append(Constraint(
            f"loss_{i}", ((f"z_{i}", big_m[lo]), *filter(None, row)), ">=", gamma))

    c0, c1 = _dec(cfg.c0), _dec(cfg.c1)
    for j in range(p):
        lam_cap = _dec(s.domains[j].max_abs)
        terms = [(f"I_{j}", ONE)]
        if c0 != 0:
            terms.append((f"alpha_{j}", -c0))
        if c1 != 0:
            terms.append((f"beta_{j}", -c1))
        terms.extend((f"s_{j}_{r}", -_dec(t.cost)) for r, t in enumerate(tiers[j] or ()))
        constraints.append(Constraint(f"def_I_{j}", tuple(terms), "=", ZERO))
        cap_term = ((f"alpha_{j}", lam_cap),) if lam_cap != 0 else ()
        constraints.append(Constraint(
            f"l0_pos_{j}", cap_term + ((f"lam_{j}", -ONE),), ">=", ZERO))
        constraints.append(Constraint(
            f"l0_neg_{j}", cap_term + ((f"lam_{j}", ONE),), ">=", ZERO))
        constraints.append(Constraint(
            f"l1_pos_{j}", ((f"beta_{j}", ONE), (f"lam_{j}", -ONE)),
            ">=", ZERO))
        constraints.append(Constraint(
            f"l1_neg_{j}", ((f"beta_{j}", ONE), (f"lam_{j}", ONE)),
            ">=", ZERO))

    # one-of-K pickers, lam_j = sum value_k u_k over the nonzero values
    uvars, svars, ucons = [], [], []
    for j in range(p):
        dom = s.domains[j]
        if tiers[j] is None and dom.is_contiguous_integers():
            continue
        # (tier, value, name) of each picker, tier None where there are none
        us = ([(None, v, f"u_{j}_{k}") for k, v in enumerate(v for v in dom.values if v)]
              if tiers[j] is None else
              [(r, v, f"u_{j}_{r}_{k}") for r, t in enumerate(tiers[j])
               for k, v in enumerate(sorted(t.values))])
        uvars.extend(Variable(u, "binary", ZERO, ONE) for _, _, u in us)
        for r in range(len(tiers[j] or ())):
            svars.append(Variable(f"s_{j}_{r}", "binary", ZERO, ONE))
            ucons.append(Constraint(f"tier_{j}_{r}", ((f"s_{j}_{r}", ONE), *(
                (u, -ONE) for q, _, u in us if q == r)), "=", ZERO))
        ucons.append(Constraint(f"def_lam_{j}", ((f"lam_{j}", ONE), *(
            (u, -_dec(v)) for _, v, u in us if v)), "=", ZERO))
        ucons.append(Constraint(f"pick_{j}", tuple((u, ONE) for _, _, u in us),
                                "<=" if tiers[j] is None else "=", ONE))
    variables.extend(uvars)
    variables.extend(svars)
    constraints.extend(ucons)

    return MipModel(
        variables=tuple(variables),
        linear_constraints=tuple(constraints),
        objective=tuple(objective))


# --- LP text ------------------------------------------------------------------

class _Numbers(dict):
    """fraction_str of each distinct number object, computed once (one
    instance per write_lp call, whose model keeps every object alive).
    The key is the object's id, so each term costs one dict lookup and
    no read of Fraction's numerator and denominator, which are
    Python-level properties; the value is the number's (first-term,
    later-term) spellings, e.g. 0.5 -> ("0.5", "+ 0.5"),
    -2 -> ("-2", "- 2")."""

    def spell(self, f: Fraction) -> tuple[str, str]:
        mag = fraction_str(abs(f))
        got = self[id(f)] = ((f"-{mag}", f"- {mag}") if f < 0 else (mag, f"+ {mag}"))
        return got


def _terms_str(terms, nums: _Numbers) -> str:
    get, spell = nums.get, nums.spell
    return " ".join([f"{(get(id(coef)) or spell(coef))[k > 0]} {name}"
                     for k, (name, coef) in enumerate(terms)])


def write_lp(m: MipModel, path=None) -> str:
    """Serialize to LP text; byte-stable for equal models.  Every
    variable gets a Bounds line (in declaration order), which is what
    lets parse_lp rebuild the exact model.  Every term is written as a
    number, a space and a name, the number signed by "+ " or "- "
    after the first term."""
    nums = _Numbers()

    def num(f):
        return (nums.get(id(f)) or nums.spell(f))[0]

    out = ["Minimize", f" obj: {_terms_str(m.objective, nums)}", "Subject To"]
    for c in m.linear_constraints:
        out.append(f" {c.name}: {_terms_str(c.terms, nums)} {c.sense} {num(c.rhs)}")
    out.append("Bounds")
    for v in m.variables:
        if v.lower is None and v.upper is None:
            out.append(f" {v.name} free")
        elif v.upper is None:
            out.append(f" {v.name} >= {num(v.lower)}")
        elif v.lower is None:
            out.append(f" {v.name} <= {num(v.upper)}")
        else:
            out.append(f" {num(v.lower)} <= {v.name} <= {num(v.upper)}")
    generals = [v.name for v in m.variables if v.kind == "integer"]
    binaries = [v.name for v in m.variables if v.kind == "binary"]
    for header, names in (("Generals", generals), ("Binaries", binaries)):
        if names:
            out.append(header)
            for k in range(0, len(names), 8):
                out.append(" " + " ".join(names[k:k + 8]))
    out.append("End")
    text = "\n".join(out) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


class _Tokens(dict):
    """to_fraction of each distinct numeric token, computed once (one
    per parse_lp call).  A term's key is its (sign, digits) pair, with
    digits None for no number; a string key, or a pair's digits, that
    to_fraction rejects (not a whole match of NUM) maps to None."""

    def __missing__(self, key):
        sign, num = (None, key) if isinstance(key, str) else key
        try:
            got = ONE if num is None else to_fraction(num)
        except ConfigError:
            got = None
        else:
            if sign == "-":
                got = -got
        self[key] = got
        return got


def _parse_terms(toks, tokens: _Tokens):
    """Terms from a list of whitespace-separated tokens: each term is a
    sign (+ or -), a number (a whole match of NUM) and a name, in that
    order, with either or both of the first two left out.  A name is a
    token for which isidentifier and isascii hold, which is exactly
    [A-Za-z_][A-Za-z0-9_]*, and a term's coefficient is
    tokens[sign, number], which checks and converts each distinct pair
    once.  Any other token, such as a term glued to its number (3x) or
    a sign glued to its number (+-3), and a sign or number with no name
    after it, is an error."""
    terms = []
    sign = coef = None
    for tok in toks:
        if tok.isidentifier() and tok.isascii():
            terms.append((tok, tokens[sign, None] if coef is None else coef))
            sign = coef = None
        elif coef is not None:
            break
        elif tok == "+" or tok == "-":
            if sign is not None:
                break
            sign = tok
        elif (coef := tokens[sign, tok]) is None:
            break
    else:
        if sign is None and coef is None:
            return tuple(terms)
    raise ConfigError(f"cannot parse LP terms near {tok!r}")


def parse_lp(text: str) -> MipModel:
    """Invert write_lp.  Reads the subset this module writes, its
    tokens separated by any whitespace: a Minimize block, one
    "name: terms sense rhs" line per constraint, one Bounds line per
    variable ("lo <= name <= hi", "name >= lo", "name <= hi" or
    "name free", the numbers whole matches of NUM), and Generals and
    Binaries name lists.  The variables are the Bounds lines, in file
    order, integer where Generals and binary where Binaries names them;
    a term naming a variable with no Bounds line is an error, and so is
    a Generals or Binaries name with none."""
    section = None
    obj_toks = []
    constraints = []
    bounds: list[tuple] = []      # (name, lower, upper) in file order
    generals: set = set()
    binaries: set = set()
    headers = {"minimize": "obj", "subject to": "cons", "bounds": "bounds",
               "generals": "gen", "binaries": "bin", "end": "end",
               "st": "cons", "st.": "cons", "s.t.": "cons"}
    longest = max(map(len, headers))  # lower() never shortens a line
    tokens = _Tokens()
    for raw in text.splitlines():
        line = raw.partition("\\")[0].strip()
        if not line:
            continue
        if len(line) <= longest and line.lower() in headers:
            section = headers[line.lower()]
            continue
        if section == "cons":
            name, colon, body = line.partition(":")
            name = name.strip()
            if not colon:
                raise ConfigError(f"constraint line without a name: {line!r}")
            parts = body.split()
            if len(parts) < 2 or parts[-2] not in ("<=", ">=", "="):
                raise ConfigError(f"constraint {name!r} has no sense before its "
                                  f"right-hand side")
            rhs = tokens[parts[-1]]
            if rhs is None:
                raise ConfigError(f"constraint {name!r}: bad right-hand side "
                                  f"{parts[-1]!r}")
            constraints.append(Constraint(
                name, _parse_terms(parts[:-2], tokens), parts[-2], rhs))
        elif section == "bounds":
            parts = line.split()
            lo = hi = None
            if len(parts) == 5 and parts[1] == parts[3] == "<=":
                name, lo, hi = parts[2], tokens[parts[0]], tokens[parts[4]]
                ok = lo is not None and hi is not None
            elif len(parts) == 3 and parts[1] == ">=":
                name, lo = parts[0], tokens[parts[2]]
                ok = lo is not None
            elif len(parts) == 3 and parts[1] == "<=":
                name, hi = parts[0], tokens[parts[2]]
                ok = hi is not None
            else:
                name, ok = parts[0], len(parts) == 2 and parts[1] == "free"
            if not (ok and name.isidentifier() and name.isascii()):
                raise ConfigError(f"cannot parse bounds line {line!r}")
            bounds.append((name, lo, hi))
        elif section == "obj":
            name, colon, body = line.partition(":")
            obj_toks += (body if colon else line).split()
        elif section == "gen":
            generals.update(line.split())
        elif section == "bin":
            binaries.update(line.split())
        elif section == "end":
            raise ConfigError(f"content after End: {line!r}")
        else:
            raise ConfigError(f"LP line outside any section: {line!r}")
    undeclared = (generals | binaries).difference(name for name, _, _ in bounds)
    if undeclared:
        raise ConfigError(f"{min(undeclared)} is in Generals or Binaries but has no "
                          f"Bounds line")
    variables = tuple(Variable(name, "binary" if name in binaries else
                               "integer" if name in generals else "continuous", lo, hi)
                      for name, lo, hi in bounds)
    return MipModel(variables=variables,
                    linear_constraints=tuple(constraints),
                    objective=_parse_terms(obj_toks, tokens))


def read_solution(text: str) -> dict:
    """Solution files are whitespace-separated name value pairs, one
    per line; blank lines and lines starting with # are skipped.  A name
    given twice is an error.  A value is a number as LP files spell
    them (a whole match of NUM).  Each distinct value string is
    converted once, and names with equal strings share one Fraction."""
    out = {}
    line_of = {}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != 2:
            raise VerifyError(f"solution line {lineno}: expected 'name value', "
                              f"got {raw!r}")
        name, val = parts
        if name in line_of:
            raise VerifyError(f"solution line {lineno}: {name} is already given "
                              f"on line {line_of[name]}")
        line_of[name] = lineno
        x = values.get(val)
        if x is None:
            try:
                x = values[val] = to_fraction(val)
            except ConfigError:
                raise VerifyError(f"solution line {lineno}: bad value {val!r}") from None
        out[name] = x
    return out


# --- verification -------------------------------------------------------------

_LAM_NAME = re.compile(r"lam_(\d+)")
_Z_NAME = re.compile(r"z_(\d+)")
_PICKER_INDEX = re.compile(r"u_(\d+)(?:_|$)")


@dataclass(frozen=True)
class _Layout:
    """The coefficient structure of a model, as build_model names it."""
    lams: dict              # j -> "lam_j", ascending in j (gaps allowed)
    gamma: Fraction | None  # right-hand side of the first loss row
    pickers: dict           # u name -> (j, value of lam_j it selects), model order
    domains: dict           # j -> values lam_j may take; None: an integer range
    tiers: dict             # j -> ((s name, cost, picker names), ...), one per tier;
                            # tiered coefficients only
    penalties: dict         # j -> terms of def_I_j

    def tier_sets(self):
        """tiers as CoefficientSet.tiers holds them: None for a model
        with no tiers, else one entry per lam, None where it has none."""
        if not self.tiers:
            return None
        return tuple(None if j not in self.tiers else
                     tuple(Tier(cost, frozenset(self.pickers[u][1] for u in members))
                           for _, cost, members in self.tiers[j]) for j in self.lams)


def _layout(m: MipModel) -> _Layout:
    """Read the naming scheme back from m, in one pass over its
    variables and one over its rows.  lam_j is coefficient j; the u
    terms of def_lam_j give the value each picker selects (a picker in
    no def_lam row selects 0 for the coefficient its name gives).  A
    coefficient has tiers when its def_I_j has s terms: they give the
    tier costs, and the u terms of tier_j_r the members of tier r.  A
    model that breaks the scheme raises VerifyError."""
    lams, u_names = {}, []
    for v in m.variables:
        if v.name.startswith("u_"):
            u_names.append(v.name)
        elif mm := _LAM_NAME.fullmatch(v.name):
            lams[int(mm[1])] = v.name
    lams = dict(sorted(lams.items()))
    rows = {c.name: c.terms for c in m.linear_constraints}
    gamma = next((c.rhs for c in m.linear_constraints if c.name.startswith("loss")), None)
    selects, domains = {}, {}
    for j in lams:
        terms = rows.get(f"def_lam_{j}")
        vals = {name: -coef for name, coef in terms or () if name.startswith("u_")}
        for name, val in vals.items():
            selects.setdefault(name, (j, val))
        domains[j] = None if terms is None else sorted({ZERO, *vals.values()})
    pickers = {}
    for name in u_names:
        if name not in selects:
            mm = _PICKER_INDEX.match(name)
            if mm is None or int(mm[1]) not in lams:
                raise VerifyError(f"picker {name} is in no def_lam row and its name "
                                  f"gives no lam variable")
            selects[name] = (int(mm[1]), ZERO)
        pickers[name] = selects[name]
    penalties = {j: rows[f"def_I_{j}"] for j in lams if f"def_I_{j}" in rows}
    tiers = {}
    for j, terms in penalties.items():
        cost = {name: -coef for name, coef in terms if name.startswith("s_")}
        if not cost:
            continue
        tiers[j], r = (), 0
        while (terms := rows.get(f"tier_{j}_{r}")) is not None:
            s = f"s_{j}_{r}"
            if s not in cost:
                raise VerifyError(f"tier_{j}_{r}: {s} has no cost in def_I_{j}")
            tiers[j] += ((s, cost[s], tuple(n for n, _ in terms if n.startswith("u_"))),)
            r += 1
        if not tiers[j]:
            raise VerifyError(f"def_I_{j} has tier costs but the model has no "
                              f"tier_{j}_r rows")
    return _Layout(lams, gamma, pickers, domains, tiers, penalties)


def complete_assignment(m: MipModel, d: Dataset, lam) -> dict:
    """The cheapest feasible assignment that realizes the coefficient
    vector lam: loss indicators exactly where the margin misses gamma,
    every auxiliary variable at its forced value.  z_i, for each z_i
    the model declares, is set from example i's margin, which serves a
    model with one loss row per example and one with a row per distinct
    signed row alike."""
    lam = [to_fraction(v) for v in lam]
    lay = _layout(m)
    if len(lam) != len(lay.lams):
        raise ConfigError(f"{len(lam)} coefficients for {len(lay.lams)} lam variables")
    if lay.gamma is None:
        raise ConfigError("model has no loss rows")
    out = dict(zip(lay.lams.values(), lam))
    value = dict(zip(lay.lams, lam))
    # margin_i = y_i score_i / q < gamma, compared as integers (q > 0)
    score, q = score_ints(d, lam)
    cut = lay.gamma.numerator * q
    ys, scores = d.y.tolist(), score.tolist()
    for var in m.variables:
        if mm := _Z_NAME.fullmatch(var.name):
            i = int(mm[1])
            if i >= d.n:
                raise ConfigError(f"model declares {var.name}, but the data has "
                                  f"{d.n} examples")
            out[var.name] = ONE if ys[i] * scores[i] * lay.gamma.denominator < cut else ZERO
    for j, v in value.items():
        out[f"alpha_{j}"] = ONE if v != 0 else ZERO
        out[f"beta_{j}"] = abs(v)
    picked: set = set()
    for name, (j, val) in lay.pickers.items():
        want = value[j] == val and (val != 0 or j in lay.tiers) and j not in picked
        out[name] = ONE if want else ZERO
        if want:
            picked.add(j)
    for rows in lay.tiers.values():
        for s, _, members in rows:
            out[s] = ONE if any(out[u] == ONE for u in members) else ZERO
    for j, terms in lay.penalties.items():
        try:
            out[f"I_{j}"] = -sum((w * out[n] for n, w in terms if n != f"I_{j}"), ZERO)
        except KeyError as e:
            raise VerifyError(f"def_I_{j}: no value for {e.args[0]}") from None
    return out


def _over_lcm(numbers: dict, den: int = 1) -> tuple[int, dict]:
    """The lcm L of den and of the denominators of numbers (id -> number
    object, each kept alive by the caller), and each number's value as
    an integer over L, by the same id.  Keying by id reads each distinct
    object's numerator and denominator, Python-level properties of
    Fraction, once, and avoids Fraction.__hash__, which costs a modular
    inverse per call."""
    pairs = [(i, x.numerator, x.denominator) for i, x in numbers.items()]
    den = math.lcm(den, *{d for _, _, d in pairs})
    return den, {i: n * (den // d) for i, n, d in pairs}


def model_objective_value(m: MipModel, assignment: dict) -> Fraction:
    """The objective at assignment, summed in integers: values over V,
    coefficients over C (the lcm of their denominators)."""
    vals = {name: to_fraction(assignment[name]) for name, _ in m.objective}
    V, over_v = _over_lcm({id(x): x for x in vals.values()})
    C, over_c = _over_lcm({id(k): k for _, k in m.objective})
    total = sum(over_c[id(k)] * over_v[id(vals[name])] for name, k in m.objective)
    return Fraction(total, C * V)


def _violations(m: MipModel, vals: dict) -> list[str]:
    """Every bound, integrality and constraint violation beyond TOL of
    vals (name -> Fraction, one per variable).

    All comparisons are of integers: values and bounds over V (the lcm
    of their denominators and of TOL's), coefficients and right-hand
    sides over C (the lcm of theirs), so TOL is exactly the integer
    V / 10**6 for a bound or an integer and V * C / 10**6 for a row.
    Each distinct number object is scaled once (_over_lcm), and a term
    looks its coefficient up by id."""
    numbers = {id(x): x for x in vals.values()}
    numbers.update((id(b), b) for v in m.variables
                   for b in (v.lower, v.upper) if b is not None)
    V, over_v = _over_lcm(numbers, TOL.denominator)
    xs = {name: over_v[id(x)] for name, x in vals.items()}
    tol = V // TOL.denominator
    out = []
    for v in m.variables:
        x = xs[v.name]
        lo, hi = v.lower, v.upper
        if lo is not None and x < over_v[id(lo)] - tol:
            out.append(f"bound {v.name} >= {fraction_str(lo)}")
        if hi is not None and x > over_v[id(hi)] + tol:
            out.append(f"bound {v.name} <= {fraction_str(hi)}")
        if v.kind in ("binary", "integer"):
            r = x % V               # x's fractional part, over V
            if min(r, V - r) > tol:
                out.append(f"integrality {v.name} = {float(vals[v.name])}")
    rows = m.linear_constraints
    numbers = {id(k): k for c in rows for _, k in c.terms}
    numbers.update((id(c.rhs), c.rhs) for c in rows)
    C, over_c = _over_lcm(numbers)
    tol *= C
    for c in rows:
        lhs = sum(over_c[id(k)] * xs[name] for name, k in c.terms)
        rhs = over_c[id(c.rhs)] * V
        ok = (lhs <= rhs + tol if c.sense == "<=" else
              lhs >= rhs - tol if c.sense == ">=" else
              abs(lhs - rhs) <= tol)
        if not ok:
            out.append(f"constraint {c.name}: {float(Fraction(lhs, V * C))} "
                       f"{c.sense} {float(c.rhs)}")
    return out


def verify_solution(m: MipModel, assignment: dict, d: Dataset,
                    cfg: TrainConfig) -> ObjectiveValue:
    """Check an external solver's assignment.

    The assignment must name every variable of the model and no other
    name (a solution to a model with other loss rows is refused).
    Every variable must be inside its bounds, and integral where
    declared so; every constraint must hold within 1e-6.  The
    coefficient vector is then extracted (snapped to the integer grid
    or the one-of-K values) and re-scored exactly; if the model's
    objective value disagrees with the exact objective beyond 1e-6 the
    verification fails.  Returns the exact objective.  Every check is
    exact; the sums are taken in integers over common denominators.
    """
    if cfg.c1 is None:
        raise ConfigError("cfg.c1 is unresolved; call cfg.resolve first")
    absent = [v.name for v in m.variables if v.name not in assignment]
    if absent:
        raise VerifyError(
            f"assignment is missing {len(absent)} variables "
            f"(first: {', '.join(absent[:5])})", violations=absent)
    # model names are distinct, so with none missing the assignment has
    # a name the model lacks exactly when it has more names
    if len(assignment) > len(m.variables):
        declared = {v.name for v in m.variables}
        extra = next(name for name in assignment if name not in declared)
        raise VerifyError(f"solution names {extra}, which the model does not declare",
                          violations=[extra])
    vals = {v.name: to_fraction(assignment[v.name]) for v in m.variables}
    violations = _violations(m, vals)
    if violations:
        raise VerifyError("infeasible solution: " + "; ".join(violations[:6]),
                          violations=violations)

    lay = _layout(m)
    lam = []
    for j, name in lay.lams.items():
        x = vals[name]
        allowed = lay.domains[j]
        snapped = (Fraction(round(x)) if allowed is None
                   else min(allowed, key=lambda v: (abs(v - x), abs(v))))
        if abs(x - snapped) > TOL:
            raise VerifyError(f"{name} = {float(x)} is not a domain value",
                              violations=[name])
        lam.append(snapped)
    true_obj = evaluate(d, lam, cfg, tiers=lay.tier_sets())
    model_obj = model_objective_value(m, vals)
    if abs(model_obj - true_obj.total) > TOL:
        raise VerifyError(
            f"objective mismatch: model {float(model_obj)} vs exact "
            f"{float(true_obj.total)}",
            violations=["objective"])
    return true_obj
