"""Mixed-integer program export of the training objective.

build_model emits the loss/sparsity formulation as explicit variables
and linear constraints; write_lp serializes it to a CPLEX-dialect LP
file that external solvers accept, parse_lp reads that text back, and
verify_solution checks a solver's assignment against every constraint
and against the exact objective.

Variable naming is fixed: z_i (loss indicators), lam_j (coefficients),
alpha_j (nonzero indicators), beta_j (absolute values), I_j (penalty
totals), u_j_k / u_j_r_k (one-of-K value pickers), s_j_r (tier
pickers); indexes are 0-based.  Every number in a model is a decimal
fraction: values with no terminating decimal form (a weight of 1/3,
say) are rounded to their shortest float representation when the model
is built, so writing and re-parsing a model is lossless by
construction.  The one-of-K encoding covers domains with gaps, which
integer bounds cannot express.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .coefset import CoefficientSet, Tier
from .data import Dataset
from .errors import ConfigError, DomainError, VerifyError
from .exactnum import fraction_str, to_fraction
from .objective import ObjectiveValue, TrainConfig, evaluate, score_ints

ZERO = Fraction(0)
ONE = Fraction(1)
TOL = Fraction(1, 10**6)

VARIANTS = ("standard", "weighted", "pilm")


def _dec(f: Fraction) -> Fraction:
    """Nearest fraction with a terminating decimal expansion (identity
    for almost everything we ever emit)."""
    f = to_fraction(f)
    s = fraction_str(f)
    g = to_fraction(s)
    return f if g == f else to_fraction(repr(float(f)))


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
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate variable names in model")
        declared = set(names)
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


def _big_m_numerators(signed: list, s: CoefficientSet,
                      gamma: Fraction) -> tuple[list[int], int]:
    """big_m_for of every example at once, as integer numerators over
    one common denominator.  signed[j] is (y_i x_ij numerators, their
    denominator) for column j."""
    den = gamma.denominator
    parts = []
    for (c, cden), dom in zip(signed, s.domains):
        vs = dom.values
        vden = math.lcm(vs[0].denominator, vs[-1].denominator)
        lo, hi = (int(v * vden) for v in (vs[0], vs[-1]))
        parts.append((np.maximum(c * -lo, c * -hi), cden * vden))
        den = math.lcm(den, cden * vden)
    total = np.full(len(signed[0][0]), gamma.numerator * (den // gamma.denominator),
                    dtype=object)
    for term, tden in parts:
        total = total + term * (den // tden)
    return total.tolist(), den


def build_model(d: Dataset, s: CoefficientSet, cfg: TrainConfig,
                variant: str = "standard") -> MipModel:
    """Exact MIP over the coefficient set.

    standard: per-example loss indicators z weighted 1/n, penalty
    variables I_j = c0 alpha_j + c1 beta_j.  weighted: the same with
    w_pos/n and w_neg/n loss coefficients, loss rows named by class.
    pilm: loss plus per-tier costs only, coefficients picked through
    one-of-K indicators u_j_r_k and tier indicators s_j_r.  Domains
    with gaps use the one-of-K encoding in every variant.
    """
    if variant not in VARIANTS:
        raise ConfigError(f"variant must be one of {VARIANTS}, got {variant!r}")
    cfg = cfg.resolve(d.n, s)
    if s.p != d.p:
        raise ConfigError(f"coefficient set has {s.p} domains for {d.p} columns")
    if variant == "standard" and not (cfg.w_pos == 1 and cfg.w_neg == 1):
        raise ConfigError("standard variant requires unit class weights; "
                          "use variant='weighted'")
    if variant == "pilm":
        if s.tiers is None:
            raise ConfigError("pilm variant needs a tiered coefficient set")
        for j in range(s.p):
            if not s.domains[j].values:
                raise DomainError(f"empty domain for coefficient {j}")

    gamma = _dec(cfg.gamma)
    n, p = d.n, d.p
    variables: list[Variable] = []
    constraints: list[Constraint] = []
    objective: list[tuple] = []

    for i in range(n):
        variables.append(Variable(f"z_{i}", "binary", ZERO, ONE))
    for j in range(p):
        dom = s.domains[j]
        lo, hi = dom.values[0], dom.values[-1]
        kind = "integer" if dom.is_contiguous_integers() else "continuous"
        variables.append(Variable(f"lam_{j}", kind, _dec(lo), _dec(hi)))
    if variant != "pilm":
        for j in range(p):
            variables.append(Variable(f"alpha_{j}", "binary", ZERO, ONE))
        for j in range(p):
            variables.append(Variable(f"beta_{j}", "continuous", ZERO,
                                      _dec(s.domains[j].max_abs)))
    for j in range(p):
        variables.append(Variable(f"I_{j}", "continuous", ZERO, None))

    # loss indicators in the objective
    wp = _dec(cfg.w_pos / n)
    wn = _dec(cfg.w_neg / n)
    for i in range(n):
        objective.append((f"z_{i}", wp if int(d.y[i]) == 1 else wn))
    for j in range(p):
        objective.append((f"I_{j}", ONE))

    # loss rows: M_i z_i + sum_j y_i x_ij lam_j >= gamma
    y = d.y.astype(object)
    signed = []
    for j in range(p):
        nums, den = d.exact_column(j)
        signed.append((y * nums, den))
    big_m, m_den = _big_m_numerators(signed, s, gamma)
    m_dec: dict = {}
    cols = [(f"lam_{j}", c.tolist(), den, {}) for j, (c, den) in enumerate(signed)]
    for i, (yi, mnum) in enumerate(zip(d.y.tolist(), big_m)):
        mi = m_dec.get(mnum)
        if mi is None:
            mi = m_dec[mnum] = _dec(Fraction(mnum, m_den))
        terms = [(f"z_{i}", mi)]
        for name, col, den, c_dec in cols:
            num = col[i]
            if num:  # a data cell is a nonzero decimal, so _dec keeps it nonzero
                c = c_dec.get(num)
                if c is None:
                    c = c_dec[num] = _dec(Fraction(num, den))
                terms.append((name, c))
        if variant == "weighted":
            name = f"loss_pos_{i}" if yi == 1 else f"loss_neg_{i}"
        else:
            name = f"loss_{i}"
        constraints.append(Constraint(name, tuple(terms), ">=", gamma))

    if variant != "pilm":
        c0, c1 = _dec(cfg.c0), _dec(cfg.c1)
        for j in range(p):
            lam_cap = _dec(s.domains[j].max_abs)
            terms = [(f"I_{j}", ONE)]
            if c0 != 0:
                terms.append((f"alpha_{j}", -c0))
            if c1 != 0:
                terms.append((f"beta_{j}", -c1))
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

        # domains with gaps: lam_j = sum_k value_k u_j_k, at most one pick
        uvars, ucons = [], []
        for j in range(p):
            dom = s.domains[j]
            if dom.is_contiguous_integers():
                continue
            nz = [v for v in dom.values if v != 0]
            terms = [(f"lam_{j}", ONE)]
            pick = []
            for k, v in enumerate(nz):
                uvars.append(Variable(f"u_{j}_{k}", "binary", ZERO, ONE))
                terms.append((f"u_{j}_{k}", -_dec(v)))
                pick.append((f"u_{j}_{k}", ONE))
            ucons.append(Constraint(f"def_lam_{j}", tuple(terms), "=", ZERO))
            ucons.append(Constraint(f"pick_{j}", tuple(pick), "<=", ONE))
        variables.extend(uvars)
        constraints.extend(ucons)
    else:
        uvars, svars, ucons = [], [], []
        for j in range(p):
            tiers_j = s.tiers[j]
            terms = [(f"lam_{j}", ONE)]
            pick = []
            pen_terms = [(f"I_{j}", ONE)]
            for r, tier in enumerate(tiers_j):
                tier_terms = [(f"s_{j}_{r}", ONE)]
                for k, v in enumerate(sorted(tier.values)):
                    uvars.append(Variable(f"u_{j}_{r}_{k}", "binary", ZERO, ONE))
                    coef = _dec(v)
                    if coef != 0:
                        terms.append((f"u_{j}_{r}_{k}", -coef))
                    pick.append((f"u_{j}_{r}_{k}", ONE))
                    tier_terms.append((f"u_{j}_{r}_{k}", -ONE))
                svars.append(Variable(f"s_{j}_{r}", "binary", ZERO, ONE))
                ucons.append(Constraint(f"tier_{j}_{r}", tuple(tier_terms), "=", ZERO))
                pen_terms.append((f"s_{j}_{r}", -_dec(tier.cost)))
            ucons.append(Constraint(f"def_I_{j}", tuple(pen_terms), "=", ZERO))
            ucons.append(Constraint(
                f"tiers_{j}", tuple((f"s_{j}_{r}", ONE) for r in range(len(tiers_j))),
                "=", ONE))
            ucons.append(Constraint(f"def_lam_{j}", tuple(terms), "=", ZERO))
            ucons.append(Constraint(f"pick_{j}", tuple(pick), "<=", ONE))
        variables.extend(uvars)
        variables.extend(svars)
        constraints.extend(ucons)

    return MipModel(
        variables=tuple(variables),
        linear_constraints=tuple(constraints),
        objective=tuple(objective),
        meta={"variant": variant, "n": n, "p": p})


# --- LP text ------------------------------------------------------------------

class _Numbers(dict):
    """fraction_str of each distinct number, computed once (one per
    write_lp call).  A value maps to (first-term, later-term) spellings,
    e.g. 0.5 -> ("0.5", "+ 0.5"), -2 -> ("-2", "- 2")."""

    def __missing__(self, f):
        mag = fraction_str(abs(f))
        got = self[f] = ((f"-{mag}", f"- {mag}") if f < 0 else (mag, f"+ {mag}"))
        return got


def _terms_str(terms, nums: _Numbers) -> str:
    parts = [f"{nums[coef][k > 0]} {name}" for k, (name, coef) in enumerate(terms)]
    return " ".join(parts)


def write_lp(m: MipModel, path=None) -> str:
    """Serialize to LP text; byte-stable for equal models.  Every
    variable gets a Bounds line (in declaration order), which is what
    lets parse_lp rebuild the exact model."""
    nums = _Numbers()

    def num(f):
        return nums[f][0]

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


_NUM = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_TERM_RE = re.compile(rf"([+-])?\s*({_NUM})?\s*([A-Za-z_][A-Za-z0-9_]*)")
_SENSE_RE = re.compile(r"(<=|>=|=)")
_BOUND_BOTH = re.compile(rf"^({_NUM})\s*<=\s*(\S+)\s*<=\s*({_NUM})$")
_BOUND_ONE = re.compile(rf"^(\S+)\s*(<=|>=)\s*({_NUM})$")


class _Tokens(dict):
    """to_fraction of each distinct numeric token, computed once (one
    per parse_lp call); a term's key is its (sign, digits) pair."""

    def __missing__(self, key):
        if isinstance(key, str):
            got = to_fraction(key)
        else:
            sign, num = key
            got = to_fraction(num) if num else ONE
            if sign == "-":
                got = -got
        self[key] = got
        return got


def _parse_terms(text: str, tokens: _Tokens):
    terms = []
    pos = 0
    while pos < len(text):
        mm = _TERM_RE.match(text, pos)
        if not mm:
            if text[pos:].strip():
                raise ConfigError(f"cannot parse LP terms near {text[pos:pos+30]!r}")
            break
        sign, num, name = mm.groups()
        terms.append((name, tokens[sign, num]))
        pos = mm.end()
        while pos < len(text) and text[pos].isspace():
            pos += 1
    return tuple(terms)


def parse_lp(text: str) -> MipModel:
    """Invert write_lp.  Understands the subset this module writes: a
    Minimize block, named constraints, one Bounds line per variable,
    Generals/Binaries name lists."""
    section = None
    objective: tuple = ()
    constraints = []
    bounds: list[tuple] = []      # (name, lower, upper) in file order
    generals: set = set()
    binaries: set = set()
    headers = {"minimize": "obj", "subject to": "cons", "bounds": "bounds",
               "generals": "gen", "binaries": "bin", "end": "end",
               "st": "cons", "st.": "cons", "s.t.": "cons"}
    pending_obj = []
    tokens = _Tokens()
    for raw in text.splitlines():
        line = raw.split("\\")[0].strip()
        if not line:
            continue
        low = line.lower()
        if low in headers:
            section = headers[low]
            continue
        if section == "obj":
            body = line.split(":", 1)[1] if ":" in line else line
            pending_obj.append(body.strip())
        elif section == "cons":
            if ":" not in line:
                raise ConfigError(f"constraint line without a name: {line!r}")
            name, body = line.split(":", 1)
            sm = list(_SENSE_RE.finditer(body))
            if not sm:
                raise ConfigError(f"constraint {name.strip()!r} has no sense")
            sense = sm[-1].group(1)
            lhs, rhs = body[: sm[-1].start()], body[sm[-1].end():]
            constraints.append(Constraint(
                name.strip(), _parse_terms(lhs.strip(), tokens), sense,
                tokens[rhs.strip()]))
        elif section == "bounds":
            mm = _BOUND_BOTH.match(line)
            if mm:
                bounds.append((mm.group(2), tokens[mm.group(1)],
                               tokens[mm.group(3)]))
                continue
            if line.endswith(" free"):
                bounds.append((line[:-5].strip(), None, None))
                continue
            mm = _BOUND_ONE.match(line)
            if not mm:
                raise ConfigError(f"cannot parse bounds line {line!r}")
            name, sense, num = mm.groups()
            if sense == ">=":
                bounds.append((name, tokens[num], None))
            else:
                bounds.append((name, None, tokens[num]))
        elif section == "gen":
            generals.update(line.split())
        elif section == "bin":
            binaries.update(line.split())
        elif section == "end":
            raise ConfigError(f"content after End: {line!r}")
        else:
            raise ConfigError(f"LP line outside any section: {line!r}")
    if pending_obj:
        objective = _parse_terms(" ".join(pending_obj), tokens)
    seen = [b[0] for b in bounds]
    mentioned = {n for n, _ in objective}
    for c in constraints:
        mentioned.update(n for n, _ in c.terms)
    missing = sorted(mentioned - set(seen))
    order = seen + missing
    variables = []
    by_name = {name: (lo, hi) for name, lo, hi in bounds}
    for name in order:
        lo, hi = by_name.get(name, (ZERO, None))
        if name in binaries:
            variables.append(Variable(name, "binary", lo if lo is not None else ZERO,
                                      hi if hi is not None else ONE))
        elif name in generals:
            variables.append(Variable(name, "integer", lo, hi))
        else:
            variables.append(Variable(name, "continuous", lo, hi))
    return MipModel(variables=tuple(variables),
                    linear_constraints=tuple(constraints),
                    objective=tuple(objective))


def read_solution(text: str) -> dict:
    """Solution files are whitespace-separated name value pairs, one
    per line; blank lines and lines starting with # are skipped."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise VerifyError(f"solution line {lineno}: expected 'name value', "
                              f"got {raw!r}")
        name, val = parts
        try:
            out[name] = to_fraction(val)
        except Exception:
            raise VerifyError(f"solution line {lineno}: bad value {val!r}") from None
    return out


# --- verification -------------------------------------------------------------

def _lam_names(m: MipModel) -> list[str]:
    names = [v.name for v in m.variables if re.fullmatch(r"lam_\d+", v.name)]
    return sorted(names, key=lambda s: int(s.split("_")[1]))


def _constraints_by_name(m: MipModel) -> dict:
    """name -> constraint; the first of equally named rows wins."""
    return {c.name: c for c in reversed(m.linear_constraints)}


def _domain_values_from_model(cons: dict, j: int) -> list[Fraction] | None:
    """Values the one-of-K rows allow for lam_j; None when lam_j is a
    plain integer range.  cons is _constraints_by_name of the model."""
    c = cons.get(f"def_lam_{j}")
    if c is None:
        return None
    vals = {ZERO}
    for name, coef in c.terms:
        if name.startswith("u_"):
            vals.add(-coef)
    # u variables for the value 0 carry no def_lam term
    return sorted(vals)


def tiers_from_model(m: MipModel):
    """Rebuild per-coefficient tier structures from a pilm model (costs
    from the I_j definition rows, membership from the tier rows)."""
    cost = {}
    for c in m.linear_constraints:
        if c.name.startswith("def_I_"):
            for name, coef in c.terms:
                if name.startswith("s_"):
                    cost[name] = -coef
    if not cost:
        return None
    lam_count = len(_lam_names(m))
    cons = _constraints_by_name(m)
    value_of = {}
    for c in m.linear_constraints:
        if c.name.startswith("def_lam_"):
            for name, coef in c.terms:
                if name.startswith("u_"):
                    value_of[name] = -coef
    tiers: list = []
    for j in range(lam_count):
        rows = []
        r = 0
        while True:
            row = cons.get(f"tier_{j}_{r}")
            if row is None:
                break
            members = [name for name, _ in row.terms if name.startswith("u_")]
            vals = frozenset(value_of.get(name, ZERO) for name in members)
            rows.append(Tier(cost=cost[f"s_{j}_{r}"], values=vals))
            r += 1
        if not rows:
            raise VerifyError(f"pilm model lacks tier rows for coefficient {j}")
        tiers.append(tuple(rows))
    return tuple(tiers)


def complete_assignment(m: MipModel, d: Dataset, lam) -> dict:
    """The cheapest feasible assignment that realizes the coefficient
    vector lam: loss indicators exactly where the margin misses gamma,
    every auxiliary variable at its forced value."""
    lam = [to_fraction(v) for v in lam]
    names = _lam_names(m)
    if len(lam) != len(names):
        raise ConfigError(f"{len(lam)} coefficients for {len(names)} lam variables")
    out = {}
    for j, v in enumerate(lam):
        out[f"lam_{j}"] = v
    gamma = None
    for c in m.linear_constraints:
        if c.name.startswith("loss"):
            gamma = c.rhs
            break
    if gamma is None:
        raise ConfigError("model has no loss rows")
    # margin_i = y_i score_i / q < gamma, compared as integers (q > 0)
    score, q = score_ints(d, lam)
    cut = gamma.numerator * q
    for i, (yi, si) in enumerate(zip(d.y.tolist(), score.tolist())):
        out[f"z_{i}"] = ONE if yi * si * gamma.denominator < cut else ZERO
    declared = {v.name for v in m.variables}
    for j in range(len(lam)):
        if f"alpha_{j}" in declared:
            out[f"alpha_{j}"] = ONE if lam[j] != 0 else ZERO
            out[f"beta_{j}"] = abs(lam[j])
    value_of = {}
    for c in m.linear_constraints:
        if c.name.startswith("def_lam_"):
            j = int(c.name.split("_")[-1])
            for name, coef in c.terms:
                if name.startswith("u_"):
                    value_of[name] = (j, -coef)
    tiered = _has_tiers(m)
    for v in m.variables:
        if v.name.startswith("u_") and v.name not in value_of:
            j = int(v.name.split("_")[1])
            value_of[v.name] = (j, ZERO)
    picked: set = set()
    for v in m.variables:
        if not v.name.startswith("u_"):
            continue
        j, val = value_of[v.name]
        want = lam[j] == val and (val != 0 or tiered) and j not in picked
        out[v.name] = ONE if want else ZERO
        if want:
            picked.add(j)
    cons = _constraints_by_name(m)
    for v in m.variables:
        if v.name.startswith("s_"):
            _, j, r = v.name.split("_")
            row = cons[f"tier_{j}_{r}"]
            members = [name for name, _ in row.terms if name.startswith("u_")]
            out[v.name] = ONE if any(out.get(name) == ONE for name in members) else ZERO
    for c in m.linear_constraints:
        if c.name.startswith("def_I_"):
            j = int(c.name.split("_")[-1])
            coef = dict(c.terms)
            out[f"I_{j}"] = -sum(
                (w * out[name] for name, w in coef.items() if name != f"I_{j}"),
                ZERO)
    return out


def _has_tiers(m: MipModel) -> bool:
    return any(v.name.startswith("s_") for v in m.variables)


def model_objective_value(m: MipModel, assignment: dict) -> Fraction:
    return sum((coef * assignment[name] for name, coef in m.objective), ZERO)


def verify_solution(m: MipModel, assignment: dict, d: Dataset,
                    cfg: TrainConfig) -> ObjectiveValue:
    """Check an external solver's assignment.

    Every variable must be present, inside its bounds, and integral
    where declared so; every constraint must hold within 1e-6.  The
    coefficient vector is then extracted (snapped to the integer grid
    or the one-of-K values) and re-scored exactly; if the model's
    objective value disagrees with the exact objective beyond 1e-6 the
    verification fails.  Returns the exact objective.
    """
    if cfg.c1 is None:
        raise ConfigError("cfg.c1 is unresolved; call cfg.resolve first")
    missing = [v.name for v in m.variables if v.name not in assignment]
    if missing:
        raise VerifyError(
            f"assignment is missing {len(missing)} variables "
            f"(first: {', '.join(missing[:5])})", violations=missing)
    violations = []
    vals = {v.name: to_fraction(assignment[v.name]) for v in m.variables}
    for v in m.variables:
        x = vals[v.name]
        if v.lower is not None and x < v.lower - TOL:
            violations.append(f"bound {v.name} >= {fraction_str(v.lower)}")
        if v.upper is not None and x > v.upper + TOL:
            violations.append(f"bound {v.name} <= {fraction_str(v.upper)}")
        if v.kind in ("binary", "integer"):
            nearest = Fraction(round(x))
            if abs(x - nearest) > TOL:
                violations.append(f"integrality {v.name} = {float(x)}")
    for c in m.linear_constraints:
        lhs = sum((coef * vals[name] for name, coef in c.terms), ZERO)
        ok = (lhs <= c.rhs + TOL if c.sense == "<=" else
              lhs >= c.rhs - TOL if c.sense == ">=" else
              abs(lhs - c.rhs) <= TOL)
        if not ok:
            violations.append(
                f"constraint {c.name}: {float(lhs)} {c.sense} {float(c.rhs)}")
    if violations:
        raise VerifyError("infeasible solution: " + "; ".join(violations[:6]),
                          violations=violations)

    lam = []
    cons = _constraints_by_name(m)
    for name in _lam_names(m):
        j = int(name.split("_")[1])
        x = vals[name]
        allowed = _domain_values_from_model(cons, j)
        snapped = (Fraction(round(x)) if allowed is None
                   else min(allowed, key=lambda v: (abs(v - x), abs(v))))
        if abs(x - snapped) > TOL:
            raise VerifyError(f"{name} = {float(x)} is not a domain value",
                              violations=[name])
        lam.append(snapped)
    tiers = tiers_from_model(m)
    true_obj = evaluate(d, lam, cfg, tiers=tiers)
    # a tier model's penalty is the tier costs alone; otherwise the
    # model encodes the full total
    encoded = (true_obj.loss_term + true_obj.tier_term if tiers is not None
               else true_obj.total)
    model_obj = model_objective_value(m, vals)
    if abs(model_obj - encoded) > TOL:
        raise VerifyError(
            f"objective mismatch: model {float(model_obj)} vs exact "
            f"{float(encoded)}",
            violations=["objective"])
    return true_obj
