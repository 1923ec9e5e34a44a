import itertools
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from scoresys.coefset import (CoefficientSet, Tier, bounded_integers,
                              digit_values, explicit_values, uniform)
from scoresys.data import Dataset
from scoresys.errors import ConfigError, VerifyError
from scoresys.exactnum import NUM, fraction_str, to_fraction
from scoresys.mipmodel import (TOL, _dec, _layout,
                               _parse_terms, _Tokens, _violations,
                               big_m_for, build_model, complete_assignment,
                               model_objective_value, parse_lp, read_solution,
                               verify_solution, write_lp)
from scoresys.objective import CompiledInstance, TrainConfig, default_weights, evaluate

from helpers import brute_solve, first_of_signed_rows, rand_dataset, rand_dup_dataset

# the kinds of instance whose exports the tests compare: an untiered set
# under unit class weights, the same under other class weights (the
# same rows, other z weights), and a set with tiers for every
# coefficient (tier rows on top of the same standard rows)
KINDS = ("standard", "weighted", "pilm")


def _resolved(d, s, **kw):
    kw.setdefault("c0", Fraction(1, 100))
    return TrainConfig(**kw).resolve(d.n, s)


def _lattice_min(m, d, s, cfg, tiers=None):
    """Exhaustive minimum of the exported model over feasible completions."""
    best = None
    for combo in itertools.product(*[dom.values for dom in s.domains]):
        a = complete_assignment(m, d, list(combo))
        val = model_objective_value(m, a)
        if best is None or val < best:
            best = val
    return best


def test_big_m_worked_example():
    x = np.array([[1.0, 2.0]])
    d = Dataset(x=x, y=np.array([1]), feature_names=("a", "b"),
                intercept_index=None)
    s = uniform(bounded_integers(10), 2)
    assert big_m_for(d, s, Fraction(1, 10), 0) == Fraction(301, 10)


def _per_cell_instance(table):
    """mixed: distinct rows with an intercept, a non-integral column and
    a gapped domain.  dup: repeated rows and twins (a row and its
    negation) under a one-digit decimal domain, so margin_den carries a
    value denominator, -100..100 and {0, +-1, +-10}; dup_1e18: the same
    table times 10**18, where CompiledInstance is on Python ints."""
    rng = np.random.default_rng(21)
    if table == "mixed":
        d0 = rand_dataset(rng, 12, 3, intercept=True)
        x = d0.x.copy()
        x[:, 2] = rng.integers(-8, 9, size=d0.n) * 0.25 + 0.1
        d = Dataset(x=x, y=d0.y, feature_names=d0.feature_names, intercept_index=0)
        return d, uniform(explicit_values([0, 1, -1, 10, -10]), d.p)
    d = rand_dup_dataset(rng, 30, 3, scale=10**18 if table == "dup_1e18" else 1)
    return d, CoefficientSet(domains=(digit_values(1, -1, 0), bounded_integers(100),
                                      explicit_values([0, 1, -1, 10, -10])))


@pytest.mark.parametrize("kind, table", [
    pytest.param(k, t, id=k if t == "mixed" else f"{k}-{t}")
    for t in ("mixed", "dup", "dup_1e18") for k in ("standard", "weighted")])
def test_loss_rows_match_per_cell_reference(kind, table):
    """The loss rows read from the compiled instance equal the per-example
    references: each is named after and ordered by the first example of
    its signed row, its z weight is the class weights of its examples
    over n, its big-M is big_m_for of its first example, and its terms
    are the per-cell Fractions; gamma has no terminating decimal."""
    d, s = _per_cell_instance(table)
    w = (1, 1) if kind == "standard" else default_weights(d.n, d.n_pos)
    cfg = _resolved(d, s, gamma=Fraction(1, 3), w_pos=w[0], w_neg=w[1])
    m = build_model(d, s, cfg)
    ci = CompiledInstance(d, s, cfg)
    assert (ci.margin_dtype == object) == (table == "dup_1e18")
    gamma = _dec(cfg.gamma)
    first_of = first_of_signed_rows(d)
    firsts = sorted(set(first_of))
    if table != "mixed":
        assert len(firsts) < d.n and len(ci.twin_a) > 0
    count = {i: [0, 0] for i in firsts}  # positives, negatives
    for f, y in zip(first_of, d.y.tolist()):
        count[f][y != 1] += 1
    rows = [c for c in m.linear_constraints if c.name.startswith("loss")]
    zs = [(name, w) for name, w in m.objective if name.startswith("z_")]
    assert [name for name, _ in zs] == [f"z_{i}" for i in firsts]
    assert len(rows) == len(firsts)
    for i, row, (_, z) in zip(firsts, rows, zs):
        y = int(d.y[i])
        assert row.name == f"loss_{i}"
        pos, neg = count[i]
        assert z == _dec((cfg.w_pos * pos + cfg.w_neg * neg) / d.n)
        terms = dict(row.terms)
        assert row.rhs == gamma
        assert terms.pop(f"z_{i}") == _dec(big_m_for(d, s, gamma, i))
        want = {f"lam_{j}": _dec(y * to_fraction(float(d.x[i, j])))
                for j in range(d.p) if d.x[i, j] != 0}
        assert terms == want


def test_standard_model_shape():
    rng = np.random.default_rng(1)
    d = rand_dataset(rng, 2, 2)
    s = uniform(bounded_integers(3), 2)
    m = build_model(d, s, _resolved(d, s))
    n, p = 2, 2
    assert len(m.linear_constraints) == n + 5 * p
    assert len(m.variables) == n + 4 * p
    kinds = {}
    for v in m.variables:
        kinds[v.kind] = kinds.get(v.kind, 0) + 1
    assert kinds["binary"] == n + p      # z_i and alpha_j
    assert kinds["integer"] == p         # lam_j on a contiguous domain
    names = [c.name for c in m.linear_constraints]
    assert names[0] == "loss_0"
    assert "def_I_0" in names and "l1_neg_1" in names


def test_loss_row_uses_big_m():
    x = np.array([[1.0, 2.0]])
    d = Dataset(x=x, y=np.array([1]), feature_names=("a", "b"),
                intercept_index=None)
    s = uniform(bounded_integers(10), 2)
    cfg = _resolved(d, s)
    m = build_model(d, s, cfg)
    row = next(c for c in m.linear_constraints if c.name == "loss_0")
    terms = dict(row.terms)
    assert terms["z_0"] == Fraction(301, 10)
    assert terms["lam_0"] == 1 and terms["lam_1"] == 2
    assert row.sense == ">=" and row.rhs == Fraction(1, 10)


def test_gapped_domain_uses_one_of_k():
    rng = np.random.default_rng(2)
    d = rand_dataset(rng, 3, 1)
    s = uniform(explicit_values([0, 1, 5, -5]), 1)
    m = build_model(d, s, _resolved(d, s))
    names = {v.name for v in m.variables}
    # one pick indicator per nonzero value, lam continuous
    assert {"u_0_1", "u_0_2", "u_0_3"} <= names or \
        sum(1 for nm in names if nm.startswith("u_0_")) == 3
    lam = next(v for v in m.variables if v.name == "lam_0")
    assert lam.kind == "continuous"
    cons = {c.name for c in m.linear_constraints}
    assert "def_lam_0" in cons and "pick_0" in cons


def test_class_weights_change_only_the_z_weights():
    """Class weights apart from 1 give the unit-weight model's variables
    and rows, the loss rows named loss_i after the first example of
    their signed row, in example order; only the z weights differ."""
    rng = np.random.default_rng(3)
    d = rand_dataset(rng, 4, 1)
    s = uniform(bounded_integers(2), 1)
    cfg = _resolved(d, s, w_pos=Fraction(2), w_neg=Fraction(1, 2))
    m = build_model(d, s, cfg)
    unit = build_model(d, s, _resolved(d, s))
    assert (m.variables, m.linear_constraints) == (unit.variables, unit.linear_constraints)
    loss_names = [c.name for c in m.linear_constraints
                  if c.name.startswith("loss_")]
    firsts = sorted(set(first_of_signed_rows(d)))
    assert firsts != list(range(d.n))  # the table repeats a signed row
    assert loss_names == [f"loss_{i}" for i in firsts]
    assert m.objective != unit.objective
    assert [name for name, _ in m.objective] == [name for name, _ in unit.objective]


@pytest.mark.parametrize("kind", KINDS)
def test_lp_round_trip_identity(kind):
    rng = np.random.default_rng(5)
    for trial in range(12):
        n = int(rng.integers(2, 8))
        p = int(rng.integers(1, 4))
        d = rand_dataset(rng, n, p)
        if kind == "pilm":
            s = _tiered_set(p)
            cfg = _resolved(d, s, c0=Fraction(1, 100))
        else:
            doms = [bounded_integers(int(rng.integers(1, 4))) if rng.random() < 0.5
                    else explicit_values([0, 1, -2, 5]) for _ in range(p)]
            s = CoefficientSet(domains=tuple(doms))
            w = ({"w_pos": Fraction(2), "w_neg": Fraction(1, 3)}
                 if kind == "weighted" else {})
            cfg = _resolved(d, s, c0=Fraction(1, 100), c1=Fraction(1, 10**6), **w)
        m = build_model(d, s, cfg)
        text = write_lp(m)
        back = parse_lp(text)
        assert back == m, trial
        assert write_lp(back) == text  # byte-stable
        assert parse_lp(text.replace("\n", "\r\n")) == m, trial
        assert parse_lp(_doubled_spaces(text)) == m, trial


def _doubled_spaces(text):
    """text with every space of the objective and constraint lines doubled."""
    lines = text.split("\n")
    end = lines.index("Bounds")
    return "\n".join(ln.replace(" ", "  ") if k < end and ln.startswith(" ") else ln
                     for k, ln in enumerate(lines))


def test_lp_writer_is_deterministic():
    rng = np.random.default_rng(6)
    d = rand_dataset(rng, 3, 2)
    s = uniform(bounded_integers(2), 2)
    cfg = _resolved(d, s)
    assert write_lp(build_model(d, s, cfg)) == write_lp(build_model(d, s, cfg))


def test_lp_sections_present():
    rng = np.random.default_rng(7)
    d = rand_dataset(rng, 2, 1)
    s = uniform(bounded_integers(2), 1)
    text = write_lp(build_model(d, s, _resolved(d, s)))
    for section in ("Minimize", "Subject To", "Bounds", "Generals",
                    "Binaries", "End"):
        assert section in text


def test_write_lp_to_file(tmp_path):
    rng = np.random.default_rng(8)
    d = rand_dataset(rng, 2, 1)
    s = uniform(bounded_integers(1), 1)
    m = build_model(d, s, _resolved(d, s))
    out = tmp_path / "m.lp"
    text = write_lp(m, out)
    assert out.read_text() == text


def test_parse_lp_accepts_a_bare_objective_name_line():
    rest = ("Subject To\n c1: x + y >= 1\nBounds\n 0 <= x <= 1\n 0 <= y <= 1\n"
            "End\n")
    for sign in ("+", "-"):
        one_line = parse_lp(f"Minimize\n obj: {sign} 2 x + 3 y\n{rest}")
        bare = parse_lp(f"Minimize\n obj:\n {sign} 2 x + 3 y\n{rest}")
        assert bare.objective == one_line.objective
        assert bare.objective == (("x", Fraction(f"{sign}2")), ("y", Fraction(3)))
    with pytest.raises(ConfigError, match="cannot parse LP terms"):
        parse_lp(f"Minimize\n obj:\n + 2 x + * y\n{rest}")


def _one_row_lp(coef="2", bound="20", rhs="1"):
    return (f"Minimize\n obj: x\nSubject To\n c: {coef} x >= {rhs}\n"
            f"Bounds\n 0 <= x <= {bound}\nEnd\n")


@pytest.mark.parametrize("num", ["2_0", "2e", "inf", "0x14"])
def test_parse_lp_reads_every_number_by_one_grammar(num):
    """A bound and a right-hand side are each a whole match of NUM, as
    a term's coefficient is; Decimal alone would also read 2_0 as 20."""
    with pytest.raises(ConfigError, match="^cannot parse bounds line"):
        parse_lp(_one_row_lp(bound=num))
    with pytest.raises(ConfigError, match=f"^constraint 'c': bad right-hand side '{num}'$"):
        parse_lp(_one_row_lp(rhs=num))
    m = parse_lp(_one_row_lp(coef="2.0e1", bound="2.0e1", rhs="2.0e1"))
    assert m.linear_constraints[0].terms == (("x", Fraction(20)),)
    assert m.linear_constraints[0].rhs == m.variables[0].upper == Fraction(20)


_TERM_LOOP_RE = re.compile(rf"([+-])?\s*({NUM})?\s*([A-Za-z_][A-Za-z0-9_]*)")


def _reference_parse_terms(text, tokens):
    """_parse_terms as a loop of one match per term, as it was before
    it became one tokenizer."""
    terms = []
    pos = 0
    while pos < len(text):
        mm = _TERM_LOOP_RE.match(text, pos)
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


# the form write_lp writes and other forms of whitespace-separated
# signs, numbers and names
_SPLIT_FORMS = ("2 x + 3 y - 0.5 z", "-2 x - 1 y + 0.0003333333333333333 z_0",
                "x + y", "- x", "-3 x", "+3 x", "+ -3 x", "- -3 x", "- +3 x",
                "2e5 x", "2E-5 x - .5 y + 5. z", "3 e x", "x y", "\t2\tx\t+ 3  y",
                "2 x\t+\t3 y", "x\u00a0+\u2003y", "\u0663 x", "- \u0663.5 x", "")
# glued forms, which one match per term reads, and forms it refuses too
_REFUSED_FORMS = ("3x", "+3x", "3x + 2y", "+-3 x", "-+3 x", "- -3x", "3e x", "3e5x",
                  "3ex", "2 x + 3", "x +", "3", "+", "+ - x", "3 4 x", "x * y",
                  "\u00e9 x", "2 \u00e9", "x \u0394", "\u0663x", "2 x\t+ 3y")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _split_parse_terms(text, tokens):
    return _parse_terms(text.split(), tokens)


def test_term_tokenizer_matches_loop_reference():
    """Where _parse_terms reads terms, they are the terms of one match
    per term; where it raises, one match per term raises too or the
    text is a glued form: some token is not a sign, a whole match of
    NUM or an ASCII identifier (3x, +-3 x), or one match per term reads
    a name out of a number (1E0 as 1 E0).  On the forms above and on
    random strings over the characters of the term grammar and a few
    outside it; the first forms are read and the second refused."""
    rng = np.random.default_rng(19)
    chars = list(" \t+-.0123eE_xz!\u0663\u00e9")
    randoms = ["".join(rng.choice(chars, size=int(rng.integers(0, 14))))
               for _ in range(4000)]
    glued = 0
    for text in _SPLIT_FORMS + _REFUSED_FORMS + tuple(randoms):
        got = _parsed_or_error(_split_parse_terms, text)
        want = _parsed_or_error(_reference_parse_terms, text)
        if isinstance(got, tuple):
            assert got == want, repr(text)
        elif isinstance(want, tuple):
            # a glued form: a token that is no sign, number or name (3x,
            # +-3), or a name the reference reads out of a number (1E0 as
            # the term 1 E0)
            toks = text.split()
            assert (not all(tok in ("+", "-") or re.fullmatch(NUM, tok)
                            or _NAME.fullmatch(tok) for tok in toks)
                    or [name for name, _ in want] != list(filter(_NAME.fullmatch, toks))
                    ), repr(text)
            glued += 1
    assert glued > 100
    for text in _SPLIT_FORMS + _REFUSED_FORMS:
        got = _parsed_or_error(_split_parse_terms, text)
        assert isinstance(got, tuple) == (text in _SPLIT_FORMS), repr(text)


def _parsed_or_error(parse, text):
    try:
        return parse(text, _Tokens())
    except ConfigError as e:
        return str(e)


def test_read_solution_parsing():
    text = "# comment\nz_0 1\nlam_0 -2\n\nI_0 0.5\n"
    sol = read_solution(text)
    assert sol == {"z_0": 1, "lam_0": -2, "I_0": Fraction(1, 2)}
    with pytest.raises(VerifyError):
        read_solution("z_0\n")
    with pytest.raises(VerifyError):
        read_solution("z_0 abc\n")


@pytest.mark.parametrize("value", ["1_5", "0x1", "nan", "inf", "1e"])
def test_read_solution_reads_values_by_the_lp_number_grammar(value):
    with pytest.raises(VerifyError, match=rf"^solution line 2: bad value '{value}'$"):
        read_solution(f"z_0 1\nlam_0 {value}\n")
    assert read_solution("lam_0 -1.5e1\n") == {"lam_0": Fraction(-15)}


def test_read_solution_rejects_a_name_given_twice():
    with pytest.raises(VerifyError, match=r"^solution line 4: z_0 is already "
                                          r"given on line 1$"):
        read_solution("z_0 1\nlam_0 -2\n# z_0 0\nz_0 0\n")


_REF_NAME = r"([A-Za-z_][A-Za-z0-9_]*)"
_REF_BOTH = re.compile(rf"({NUM})\s+<=\s+{_REF_NAME}\s+<=\s+({NUM})")
_REF_ONE = re.compile(rf"{_REF_NAME}\s+(<=|>=)\s+({NUM})")
_REF_FREE = re.compile(rf"{_REF_NAME}\s+free")


def _bound_reference(line):
    """A bounds line read by whole regex matches of the bounds grammar,
    its tokens separated by whitespace and its name an ASCII
    identifier: (name, lower, upper), or None where it is an error."""
    line = line.strip()
    if mm := _REF_BOTH.fullmatch(line):
        return mm[2], Fraction(mm[1]), Fraction(mm[3])
    if mm := _REF_FREE.fullmatch(line):
        return mm[1], None, None
    if mm := _REF_ONE.fullmatch(line):
        num = Fraction(mm[3])
        return (mm[1], num, None) if mm[2] == ">=" else (mm[1], None, num)
    return None


def _bounds_lp(line):
    return (f"Minimize\n obj: y\nSubject To\n c: y >= 0\nBounds\n {line}\n y >= 0\n"
            f"End\n")


def _refused_bounds_line(line):
    return pytest.raises(ConfigError, match="^cannot parse bounds line "
                                            f"{re.escape(repr(line.strip()))}$")


# names that are not identifiers, and glued forms
_GLUED_BOUNDS = ("1 <= 2", "0 <= <= <= 1", "x<=1 >= 2", "0<=x<=1", "x>=0", "x<=-1",
                 "0 <= x<=1", "0<=x <= 1", "0 <= x <=1", "x <=1", "x>= 2", "1<=x >= 2")


@pytest.mark.parametrize("line", [
    "0 <= x <= 1", "-2.5 <= lam_0 <= 1e3", "x >= 0", "x <= -1", "x free", "x\tfree",
    "  x \t >=   .5 ", *_GLUED_BOUNDS])
def test_bounds_lines_read_as_by_the_regex_reference(line):
    """A line the reference reads gives its variable, and a glued line
    is refused, as is a name that is not an identifier."""
    want = _bound_reference(line)
    assert (want is None) == (line in _GLUED_BOUNDS)
    if want is None:
        with _refused_bounds_line(line):
            parse_lp(_bounds_lp(line))
    else:
        v = parse_lp(_bounds_lp(line)).variables[0]
        assert (v.name, v.lower, v.upper) == want


@pytest.mark.parametrize("line", [
    "x", "x >=", "<= 5", "free", "x == 1", "x >= abc", "x >= 1 2",
    "abc <= x <= 1", "0 <= x <= 1_0", "0 <= x >= 1", "0 <= x <= 1 <= 2", "0 <= x",
    # free takes one name, not any text before it
    "a b free", "x >= free"])
def test_malformed_bounds_lines_are_rejected(line):
    assert _bound_reference(line) is None
    with _refused_bounds_line(line):
        parse_lp(_bounds_lp(line))


def test_exported_model_minimum_matches_objective():
    """Criterion-sized check: exhaustive search over the exported MIP's
    feasible completions equals the training objective's optimum."""
    rng = np.random.default_rng(9)
    sizes = [4, 5, 8, 10, 16, 20, 25]  # decimal-friendly n
    for trial in range(20):
        n = int(sizes[int(rng.integers(0, len(sizes)))])
        p = int(rng.integers(1, 3))
        d = rand_dataset(rng, n, p)
        doms = [bounded_integers(2) if rng.random() < 0.6
                else explicit_values([0, 1, -1, 3]) for _ in range(p)]
        s = CoefficientSet(domains=tuple(doms))
        cfg = _resolved(d, s, c0=Fraction(1, 100), c1=Fraction(1, 10**4))
        m = build_model(d, s, cfg)
        want, _ = brute_solve(d, s, cfg)
        assert _lattice_min(m, d, s, cfg) == want, trial


def _dup_instance(rng, kind):
    """A table with repeated signed rows, and rows merging (x, +1) with
    (-x, -1) (no intercept), its cells integers (int64 columns) or
    quarters (Python-int columns); a coefficient set and config of the
    kind (KINDS)."""
    n = int(rng.choice([8, 10, 16, 20, 25]))  # terminating 1/n
    p = int(rng.integers(1, 4))
    d = rand_dup_dataset(rng, n, p, lo=-2, hi=2)
    flip = rng.random(n) < 0.3
    x = np.where(flip[:, None], -d.x, d.x) * (0.25 if rng.random() < 0.5 else 1)
    d = Dataset(x=x, y=np.where(flip, -d.y, d.y), feature_names=d.feature_names,
                intercept_index=None)
    if kind == "pilm":
        s = _tiered_set(p)
        return d, s, _resolved(d, s, c0=Fraction(1, 100))
    doms = [bounded_integers(2) if rng.random() < 0.6
            else explicit_values([0, 1, -1, 3]) for _ in range(p)]
    s = CoefficientSet(domains=tuple(doms))
    w = (Fraction(3, 2), Fraction(1, 2)) if kind == "weighted" else (1, 1)
    return d, s, _resolved(d, s, c1=Fraction(1, 10**4), w_pos=w[0], w_neg=w[1])


@pytest.mark.parametrize("kind", KINDS)
def test_loss_rows_are_the_distinct_signed_rows(kind):
    """One loss row and one z per row of CompiledInstance, named after
    the first example of its signed row, in example order; the z weights
    sum to the loss of the all-miss model, (w_pos n_pos + w_neg n_neg)/n."""
    rng = np.random.default_rng(41)
    merged = 0
    for trial in range(15):
        d, s, cfg = _dup_instance(rng, kind)
        m = build_model(d, s, cfg)
        firsts = sorted(set(first_of_signed_rows(d)))
        rows = [c.name for c in m.linear_constraints if c.name.startswith("loss")]
        assert len(rows) == CompiledInstance(d, s, cfg).n_rows == len(firsts), trial
        assert rows == [f"loss_{i}" for i in firsts]
        zs = [(name, w) for name, w in m.objective if name.startswith("z_")]
        assert [name for name, _ in zs] == [f"z_{i}" for i in firsts]
        assert sum(w for _, w in zs) == (cfg.w_pos * d.n_pos
                                         + cfg.w_neg * (d.n - d.n_pos)) / d.n
        merged += d.n - len(firsts)
    assert merged > 50


@pytest.mark.parametrize("kind", ["standard", "weighted"])
def test_merged_model_minimum_matches_brute_force(kind):
    """On tables with repeated signed rows the exported MIP's minimum is
    the training optimum: each merged row carries the weight of all its
    examples, and verify accepts the completed optimum."""
    rng = np.random.default_rng(43)
    for trial in range(12):
        d, s, cfg = _dup_instance(rng, kind)
        m = build_model(d, s, cfg)
        want, lam = brute_solve(d, s, cfg)
        assert _lattice_min(m, d, s, cfg) == want, trial
        assert verify_solution(m, complete_assignment(m, d, lam), d, cfg).total == want


def test_complete_assignment_is_feasible_and_scored():
    rng = np.random.default_rng(10)
    d = rand_dataset(rng, 5, 2)  # decimal-friendly n: 1/5 prints exactly
    s = uniform(bounded_integers(2), 2)
    cfg = _resolved(d, s, c0=Fraction(1, 100), c1=Fraction(1, 10**4))
    m = build_model(d, s, cfg)
    for combo in [(0, 0), (1, -2), (2, 2)]:
        a = complete_assignment(m, d, [Fraction(v) for v in combo])
        ov = verify_solution(m, a, d, cfg)
        assert ov.total == evaluate(d, list(combo), cfg).total
        assert model_objective_value(m, a) == ov.total


def test_complete_assignment_loss_indicator_at_the_margin():
    # margins 1/2 - 1/4 = 1/4 (= gamma, row holds with z = 0) and
    # 1/2 - 1/2 = 0 (< gamma, needs z = 1); a non-integral column makes
    # the exact scores sit at a denominator other than 1
    x = np.array([[0.5, 0.25], [0.5, 0.5]])
    d = Dataset(x=x, y=np.array([1, 1]), feature_names=("a", "b"),
                intercept_index=None)
    s = uniform(bounded_integers(1), 2)
    cfg = _resolved(d, s, gamma=Fraction(1, 4))
    m = build_model(d, s, cfg)
    a = complete_assignment(m, d, [Fraction(1), Fraction(-1)])
    assert (a["z_0"], a["z_1"]) == (0, 1)
    verify_solution(m, a, d, cfg)


def test_non_decimal_n_drift_stays_inside_tolerance():
    # 1/6 has no finite decimal form; the written model carries the
    # nearest decimal, so the file objective drifts ~1e-16 but verify
    # still accepts and the exact recomputation is unaffected
    rng = np.random.default_rng(18)
    d = rand_dataset(rng, 6, 2)
    s = uniform(bounded_integers(2), 2)
    cfg = _resolved(d, s, c0=Fraction(1, 100), c1=Fraction(1, 10**4))
    m = build_model(d, s, cfg)
    a = complete_assignment(m, d, [Fraction(0), Fraction(0)])
    ov = verify_solution(m, a, d, cfg)
    assert ov.total == evaluate(d, [0, 0], cfg).total
    drift = abs(model_objective_value(m, a) - ov.total)
    assert 0 < drift < Fraction(1, 10**6)


def test_verify_rejects_missing_variable():
    rng = np.random.default_rng(11)
    d = rand_dataset(rng, 3, 1)
    s = uniform(bounded_integers(1), 1)
    cfg = _resolved(d, s, c0=Fraction(1, 10), c1=Fraction(1, 100))
    m = build_model(d, s, cfg)
    a = complete_assignment(m, d, [Fraction(1)])
    a.pop("z_0")
    with pytest.raises(VerifyError):
        verify_solution(m, a, d, cfg)


def test_verify_rejects_constructed_violations():
    rng = np.random.default_rng(12)
    rejected = 0
    while rejected < 10:
        n = int(rng.integers(3, 8))
        d = rand_dataset(rng, n, 2)
        s = uniform(bounded_integers(2), 2)
        cfg = _resolved(d, s, c0=Fraction(1, 100), c1=Fraction(1, 10**4))
        m = build_model(d, s, cfg)
        a = complete_assignment(m, d, [Fraction(1), Fraction(-1)])
        kind = rejected % 5
        if kind == 0:
            # lie about a loss indicator that is actually 1
            flips = [k for k, v in a.items() if k.startswith("z_") and v == 1]
            if not flips:
                continue
            a[flips[0]] = 0
        elif kind == 1:
            a["lam_0"] = Fraction(7)  # outside the bound
        elif kind == 2:
            a["alpha_0"] = Fraction(1, 2)  # fractional binary
        elif kind == 3:
            a["beta_1"] = Fraction(0)  # breaks l1_pos/l1_neg
        else:
            a["I_0"] = a["I_0"] + 1  # objective lies
        with pytest.raises(VerifyError):
            verify_solution(m, a, d, cfg)
        rejected += 1


def test_verify_requires_resolved_config():
    rng = np.random.default_rng(13)
    d = rand_dataset(rng, 3, 1)
    s = uniform(bounded_integers(1), 1)
    cfg = _resolved(d, s)
    m = build_model(d, s, cfg)
    a = complete_assignment(m, d, [Fraction(0)])
    with pytest.raises(ConfigError):
        verify_solution(m, a, d, TrainConfig(c0=Fraction(1, 100)))


def _tiered_set(p):
    tier = (Tier(Fraction(1, 100), frozenset({Fraction(0)})),
            Tier(Fraction(3, 100), frozenset({Fraction(1), Fraction(-1)})),
            Tier(Fraction(7, 100), frozenset({Fraction(2), Fraction(-2)})))
    return CoefficientSet(domains=(bounded_integers(2),) * p,
                          tiers=(tier,) * p)


def test_pilm_structure():
    """A tiered coefficient gets the standard alpha/beta rows, one
    picker per value (0 included), one s per tier with its tier row, an
    equality pick_j and no tiers_j row; def_I_j prices alpha, beta and
    the tiers, and the tiers read back from the model."""
    rng = np.random.default_rng(14)
    d = rand_dataset(rng, 4, 2)
    s = _tiered_set(2)
    cfg = _resolved(d, s, c0=Fraction(1, 1000))
    m = build_model(d, s, cfg)
    names = {v.name for v in m.variables}
    assert sum(1 for nm in names if nm.startswith("u_0_")) == 5
    assert {"s_0_0", "s_0_1", "s_0_2", "alpha_0", "beta_1"} <= names
    cons = {c.name: c for c in m.linear_constraints}
    assert {"tier_0_0", "tier_1_2", "def_lam_0", "l0_pos_0", "l1_neg_1"} <= cons.keys()
    assert not any(name.startswith("tiers_") for name in cons)
    assert cons["pick_0"].sense == "=" and cons["pick_0"].rhs == 1
    assert cons["def_I_0"].terms == (
        ("I_0", 1), ("alpha_0", -cfg.c0), ("beta_0", -cfg.c1),
        ("s_0_0", Fraction(-1, 100)), ("s_0_1", Fraction(-3, 100)),
        ("s_0_2", Fraction(-7, 100)))
    assert _layout(m).tier_sets() == s.tiers


def test_partly_tiered_set_gets_tier_rows_where_it_has_tiers():
    """A set with no tiers gets no tier rows.  A set with tiers on some
    coefficients only exports: the tiered ones get pickers, s variables,
    tier rows and an equality pick_j, the untiered ones none of these,
    and the model's minimum over the lattice is the least total."""
    rng = np.random.default_rng(15)
    d = rand_dataset(rng, 3, 1)
    s = uniform(bounded_integers(1), 1)
    names = {v.name for v in build_model(d, s, _resolved(d, s)).variables}
    assert "alpha_0" in names and not any(nm.startswith("s_") for nm in names)
    d = Dataset(x=np.array([[1.0, 2.0], [1.0, -1.0]]), y=np.array([1, -1]),
                feature_names=("a", "b"))
    t = (Tier(Fraction(1, 100), frozenset({Fraction(0)})),
         Tier(Fraction(3, 100), frozenset({Fraction(1), Fraction(-1)})))
    s = CoefficientSet(domains=(bounded_integers(1),) * 2, tiers=(t, None))
    cfg = _resolved(d, s)
    m = build_model(d, s, cfg)
    names = {v.name for v in m.variables}
    assert {"s_0_0", "s_0_1", "u_0_1_1", "alpha_1", "beta_1"} <= names
    assert not any(nm.startswith(("s_1_", "u_1_")) for nm in names)
    cons = {c.name: c for c in m.linear_constraints}
    assert cons["pick_0"].sense == "=" and "tier_0_1" in cons
    assert not {"pick_1", "def_lam_1", "tier_1_0"} & cons.keys()
    assert _layout(m).tier_sets() == s.tiers
    assert _lattice_min(m, d, s, cfg) == brute_solve(d, s, cfg)[0]


def test_pilm_minimum_matches_the_least_total():
    rng = np.random.default_rng(16)
    for trial in range(6):
        n = int([4, 5, 8, 10, 16, 20][trial])
        d = rand_dataset(rng, n, 2)
        s = _tiered_set(2)
        cfg = _resolved(d, s, c0=Fraction(1, 1000))
        m = build_model(d, s, cfg)
        best = min(evaluate(d, list(combo), cfg, tiers=s.tiers).total
                   for combo in itertools.product(*[dom.values for dom in s.domains]))
        assert _lattice_min(m, d, s, cfg) == best, trial


def test_pilm_verify_round_trip():
    rng = np.random.default_rng(17)
    d = rand_dataset(rng, 5, 2)
    s = _tiered_set(2)
    cfg = _resolved(d, s, c0=Fraction(1, 1000))
    m = build_model(d, s, cfg)
    a = complete_assignment(m, d, [Fraction(2), Fraction(-1)])
    ov = verify_solution(m, a, d, cfg)
    direct = evaluate(d, [2, -1], cfg, tiers=s.tiers)
    assert ov.total == direct.total
    assert ov.tier_term == direct.tier_term


@pytest.mark.parametrize("old,new,completing,verifying", [
    (" - 0.03 s_1_1", "", "tier_1_1: s_1_1 has no cost in def_I_1",
     "tier_1_1: s_1_1 has no cost in def_I_1"),
    ("u_0_0_0", "u_x", "picker u_x is in no def_lam row and its name gives no "
     "lam variable", "assignment is missing 1 variables (first: u_x)"),
    ("def_I_0: 1 I_0", "def_I_0: 1 I_0 - 1 I_1", "def_I_0: no value for I_1",
     "infeasible solution: constraint def_I_0:"),
    ("tier_1_", "other_1_", "def_I_1 has tier costs but the model has no tier_1_r rows",
     "def_I_1 has tier costs but the model has no tier_1_r rows"),
], ids=["tier-without-cost", "unplaced-picker", "unfillable-penalty", "no-tier-rows"])
def test_model_that_breaks_the_naming_scheme_is_rejected(old, new, completing,
                                                          verifying):
    """An edited tiered model whose rows or names break build_model's
    scheme raises VerifyError from complete_assignment, and from
    verify_solution given the intact model's completed assignment
    (whose rows still hold after the first and last edits), never a
    bare KeyError or ValueError."""
    rng = np.random.default_rng(17)
    d = rand_dataset(rng, 5, 2)
    s = _tiered_set(2)
    cfg = _resolved(d, s, c0=Fraction(1, 1000))
    m = build_model(d, s, cfg)
    text = write_lp(m)
    assert old in text
    bad = parse_lp(text.replace(old, new))
    lam = [Fraction(2), Fraction(0)]  # tier 0 for coefficient 1: s_1_1 = 0
    with pytest.raises(VerifyError, match="^" + re.escape(completing) + "$"):
        complete_assignment(bad, d, lam)
    with pytest.raises(VerifyError, match="^" + re.escape(verifying)):
        verify_solution(bad, complete_assignment(m, d, lam), d, cfg)


# --- exactness of the integer checks -------------------------------------------

EPS = Fraction(1, 10**12)
# numbers whose denominators divide no value's: 10**7, and 10**16 for
# a 1/3 rounded to 16 digits
FINE = (Fraction("0.1234567"), _dec(Fraction(1, 3)))


def _dot(terms, vals):
    return sum((coef * vals[name] for name, coef in terms), Fraction(0))


def _reference_violations(m, vals):
    """verify_solution's feasibility checks in Fraction arithmetic, as
    they were before it compared integers."""
    out = []
    for v in m.variables:
        x = vals[v.name]
        if v.lower is not None and x < v.lower - TOL:
            out.append(f"bound {v.name} >= {fraction_str(v.lower)}")
        if v.upper is not None and x > v.upper + TOL:
            out.append(f"bound {v.name} <= {fraction_str(v.upper)}")
        if v.kind in ("binary", "integer"):
            if abs(x - Fraction(round(x))) > TOL:
                out.append(f"integrality {v.name} = {float(x)}")
    for c in m.linear_constraints:
        lhs = _dot(c.terms, vals)
        ok = (lhs <= c.rhs + TOL if c.sense == "<=" else
              lhs >= c.rhs - TOL if c.sense == ">=" else
              abs(lhs - c.rhs) <= TOL)
        if not ok:
            out.append(f"constraint {c.name}: {float(lhs)} {c.sense} {float(c.rhs)}")
    return out


def _reference_verify(m, vals, d, cfg):
    """verify_solution in Fraction arithmetic, as it was before it
    compared integers."""
    violations = _reference_violations(m, vals)
    if violations:
        raise VerifyError("infeasible solution: " + "; ".join(violations[:6]),
                          violations=violations)
    lam = []
    lay = _layout(m)
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
    model_obj = _dot(m.objective, vals)
    if abs(model_obj - true_obj.total) > TOL:
        raise VerifyError(
            f"objective mismatch: model {float(model_obj)} vs exact "
            f"{float(true_obj.total)}", violations=["objective"])
    return true_obj


def _outcome(fn, *args):
    try:
        return fn(*args)
    except VerifyError as e:
        return str(e), e.violations


def _random_instance(rng, kind):
    """A small model of the kind (KINDS) with fine-denominator c0, c1
    and weights, and the completed assignment of a random coefficient
    vector."""
    d = rand_dataset(rng, int(rng.integers(3, 9)), 2)
    if kind == "pilm":
        s = _tiered_set(2)
        cfg = _resolved(d, s, c0=FINE[0])
    else:
        s = CoefficientSet(domains=(bounded_integers(2),
                                    explicit_values([0, 1, -1, 3])))
        w = (FINE[1], Fraction(1)) if kind == "weighted" else (1, 1)
        cfg = _resolved(d, s, c0=FINE[0], c1=FINE[1] / 100, w_pos=w[0], w_neg=w[1])
    m = build_model(d, s, cfg)
    lam = [dom.values[int(rng.integers(0, len(dom.values)))] for dom in s.domains]
    return d, cfg, m, complete_assignment(m, d, lam)


def _snapped(vals):
    """Every value rounded to a multiple of 10**-6."""
    return {k: Fraction(round(x * 10**6), 10**6) for k, x in vals.items()}


def _pick(rng, items):
    return items[int(rng.integers(0, len(items)))]


def _cases(rng, m, a):
    """(model, values, message prefix, outside): the check the message
    names sits exactly TOL or TOL + 1e-12 (outside=True) beyond a bound,
    an integer or a right-hand side; or, with every value a multiple of
    10**-6, a fine fraction of 10**-6 inside or outside TOL, with the
    bound, the right-hand side and one coefficient of the row at
    denominators the values do not have."""
    bounded = [v for v in m.variables if v.lower is not None]
    capped = [v for v in m.variables if v.upper is not None]
    whole = [v for v in m.variables if v.kind != "continuous"]
    rows = list(m.linear_constraints)
    for off, outside in ((TOL, False), (TOL + EPS, True)):
        v = _pick(rng, bounded)
        yield m, {**a, v.name: v.lower - off}, f"bound {v.name} >=", outside
        v = _pick(rng, capped)
        yield m, {**a, v.name: v.upper + off}, f"bound {v.name} <=", outside
        for sign in (1, -1):
            v = _pick(rng, whole)
            k = Fraction(round(a[v.name]))
            yield m, {**a, v.name: k + sign * off}, f"integrality {v.name} ", outside
            c = _pick(rng, rows)
            yield _missed_row(m, c, a, off), a, f"constraint {c.name}:", outside
    g = _snapped(a)
    for f in FINE:
        for outside in (False, True):
            off = TOL + f / 10**6 if outside else TOL - f / 10**6
            v = _pick(rng, bounded)
            yield (_with_var(m, replace(v, lower=g[v.name] + off)), g,
                   f"bound {v.name} >=", outside)
            v = _pick(rng, capped)
            yield (_with_var(m, replace(v, upper=g[v.name] - off)), g,
                   f"bound {v.name} <=", outside)
            c = _pick(rng, rows)
            k = int(rng.integers(0, len(c.terms)))
            terms = list(c.terms)
            terms[k] = (terms[k][0], terms[k][1] + f)
            yield _missed_row(m, replace(c, terms=tuple(terms)), g, off), g, \
                f"constraint {c.name}:", outside


def _with_var(m, var):
    return replace(m, variables=tuple(var if v.name == var.name else v
                                      for v in m.variables))


def _missed_row(m, c, vals, off):
    """m with c (a constraint of m, or a changed copy of one) in place
    of its namesake, and a right-hand side that c misses by off at vals."""
    lhs = _dot(c.terms, vals)
    c = replace(c, rhs=lhs + off if c.sense == ">=" else lhs - off)
    return replace(m, linear_constraints=tuple(
        c if r.name == c.name else r for r in m.linear_constraints))


@pytest.mark.parametrize("kind", KINDS)
def test_integer_checks_equal_fraction_reference(kind):
    """The integer checks give the violation list of the Fraction
    checks at every kind of edge, and the edge is TOL itself."""
    rng = np.random.default_rng(30)
    flagged = {False: 0, True: 0}
    for trial in range(12):
        _, _, m, a = _random_instance(rng, kind)
        assert model_objective_value(m, a) == _dot(m.objective, a)
        for mm, vals, name, outside in _cases(rng, m, a):
            got = _violations(mm, vals)
            assert got == _reference_violations(mm, vals), (trial, name)
            hit = any(msg.startswith(name) for msg in got)
            assert hit == outside, (trial, name, got)
            flagged[hit] += 1
            assert model_objective_value(mm, vals) == _dot(mm.objective, vals)
    assert min(flagged.values()) > 50


@pytest.mark.parametrize("kind", KINDS)
def test_objective_check_is_exact_at_tol(kind):
    """verify_solution equals its Fraction reference, and accepts a
    model objective exactly TOL off the exact one but not TOL + 1e-12."""
    rng = np.random.default_rng(31)
    for trial in range(8):
        d, cfg, m, a = _random_instance(rng, kind)
        want = evaluate(d, [a[name] for name in _layout(m).lams.values()], cfg,
                        tiers=_layout(m).tier_sets())
        drift = _dot(m.objective, a) - want.total
        name = next(k for k, x in a.items() if x != 0)
        for off, outside in ((TOL, False), (TOL + EPS, True)):
            for sign in (1, -1):
                mm = replace(m, objective=m.objective + (
                    (name, (sign * off - drift) / a[name]),))
                got = _outcome(verify_solution, mm, a, d, cfg)
                assert got == _outcome(_reference_verify, mm, a, d, cfg), trial
                if outside:
                    assert got[1] == ["objective"], (trial, got)
                else:
                    assert got == want, (trial, got)
