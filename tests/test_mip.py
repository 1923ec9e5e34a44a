import itertools
from fractions import Fraction

import numpy as np
import pytest

from scoresys.coefset import (CoefficientSet, Tier, bounded_integers,
                              explicit_values, uniform)
from scoresys.data import Dataset
from scoresys.errors import ConfigError, VerifyError
from scoresys.exactnum import to_fraction
from scoresys.mipmodel import (_dec, big_m_for, build_model, complete_assignment,
                               model_objective_value, parse_lp, read_solution,
                               tiers_from_model, verify_solution, write_lp)
from scoresys.objective import TrainConfig, default_weights, evaluate

from helpers import brute_solve, rand_dataset


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


@pytest.mark.parametrize("variant", ["standard", "weighted"])
def test_loss_rows_match_per_cell_reference(variant):
    """The column-wise loss rows equal the single-row big_m_for and the
    per-cell Fraction coefficients, on a table with a non-integral
    column, a gapped domain and a gamma with no terminating decimal."""
    rng = np.random.default_rng(21)
    d0 = rand_dataset(rng, 12, 3, intercept=True)
    x = d0.x.copy()
    x[:, 2] = rng.integers(-8, 9, size=d0.n) * 0.25 + 0.1
    d = Dataset(x=x, y=d0.y, feature_names=d0.feature_names, intercept_index=0)
    s = uniform(explicit_values([0, 1, -1, 10, -10]), d.p)
    w = (1, 1) if variant == "standard" else default_weights(d.n, d.n_pos)
    cfg = _resolved(d, s, gamma=Fraction(1, 3), w_pos=w[0], w_neg=w[1])
    m = build_model(d, s, cfg, variant)
    gamma = _dec(cfg.gamma)
    rows = [c for c in m.linear_constraints if c.name.startswith("loss")]
    assert len(rows) == d.n
    for i, row in enumerate(rows):
        y = int(d.y[i])
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


def test_weighted_variant_names_and_guard():
    rng = np.random.default_rng(3)
    d = rand_dataset(rng, 4, 1)
    s = uniform(bounded_integers(2), 1)
    cfg = _resolved(d, s, w_pos=Fraction(2), w_neg=Fraction(1, 2))
    with pytest.raises(ConfigError):
        build_model(d, s, cfg, variant="standard")
    m = build_model(d, s, cfg, variant="weighted")
    loss_names = [c.name for c in m.linear_constraints
                  if c.name.startswith("loss_")]
    assert all(nm.startswith(("loss_pos_", "loss_neg_")) for nm in loss_names)
    # global example index is preserved in the name
    idx = sorted(int(nm.rsplit("_", 1)[1]) for nm in loss_names)
    assert idx == list(range(4))


def test_unknown_variant():
    rng = np.random.default_rng(4)
    d = rand_dataset(rng, 2, 1)
    s = uniform(bounded_integers(1), 1)
    with pytest.raises(ConfigError):
        build_model(d, s, _resolved(d, s), variant="fancy")


def test_lp_round_trip_identity():
    rng = np.random.default_rng(5)
    for trial in range(12):
        n = int(rng.integers(2, 8))
        p = int(rng.integers(1, 4))
        d = rand_dataset(rng, n, p)
        doms = [bounded_integers(int(rng.integers(1, 4))) if rng.random() < 0.5
                else explicit_values([0, 1, -2, 5]) for _ in range(p)]
        s = CoefficientSet(domains=tuple(doms))
        cfg = _resolved(d, s, c0=Fraction(1, 100), c1=Fraction(1, 10**6))
        m = build_model(d, s, cfg)
        text = write_lp(m)
        back = parse_lp(text)
        assert back == m, trial
        assert write_lp(back) == text  # byte-stable


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


def test_read_solution_parsing():
    text = "# comment\nz_0 1\nlam_0 -2\n\nI_0 0.5\n"
    sol = read_solution(text)
    assert sol == {"z_0": 1, "lam_0": -2, "I_0": Fraction(1, 2)}
    with pytest.raises(VerifyError):
        read_solution("z_0\n")
    with pytest.raises(VerifyError):
        read_solution("z_0 abc\n")


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
        variant = "weighted" if trial % 3 == 0 else "standard"
        m = build_model(d, s, cfg, variant=variant)
        want, _ = brute_solve(d, s, cfg)
        assert _lattice_min(m, d, s, cfg) == want, trial


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
    rng = np.random.default_rng(14)
    d = rand_dataset(rng, 4, 2)
    s = _tiered_set(2)
    cfg = _resolved(d, s, c0=Fraction(1, 1000))
    m = build_model(d, s, cfg, variant="pilm")
    names = {v.name for v in m.variables}
    # per coefficient: 4 nonzero-value picks + pick for 0 via tiers
    assert sum(1 for nm in names if nm.startswith("u_0_")) == 5
    assert {"s_0_0", "s_0_1", "s_0_2"} <= names
    assert not any(nm.startswith(("alpha_", "beta_")) for nm in names)
    cons = {c.name for c in m.linear_constraints}
    assert {"tiers_0", "tiers_1", "def_lam_0", "def_I_0"} <= cons
    tiers = tiers_from_model(m)
    assert tiers is not None
    costs = [t.cost for t in tiers[0]]
    assert costs == [Fraction(1, 100), Fraction(3, 100), Fraction(7, 100)]


def test_pilm_requires_tiers():
    rng = np.random.default_rng(15)
    d = rand_dataset(rng, 3, 1)
    s = uniform(bounded_integers(1), 1)
    with pytest.raises(ConfigError):
        build_model(d, s, _resolved(d, s), variant="pilm")


def test_pilm_minimum_matches_loss_plus_tiers():
    rng = np.random.default_rng(16)
    for trial in range(6):
        n = int([4, 5, 8, 10, 16, 20][trial])
        d = rand_dataset(rng, n, 2)
        s = _tiered_set(2)
        cfg = _resolved(d, s, c0=Fraction(1, 1000))
        m = build_model(d, s, cfg, variant="pilm")
        best = None
        for combo in itertools.product(*[dom.values for dom in s.domains]):
            ov = evaluate(d, list(combo), cfg, tiers=s.tiers)
            val = ov.loss_term + ov.tier_term
            if best is None or val < best:
                best = val
        assert _lattice_min(m, d, s, cfg) == best, trial


def test_pilm_verify_round_trip():
    rng = np.random.default_rng(17)
    d = rand_dataset(rng, 5, 2)
    s = _tiered_set(2)
    cfg = _resolved(d, s, c0=Fraction(1, 1000))
    m = build_model(d, s, cfg, variant="pilm")
    a = complete_assignment(m, d, [Fraction(2), Fraction(-1)])
    ov = verify_solution(m, a, d, cfg)
    direct = evaluate(d, [2, -1], cfg, tiers=s.tiers)
    assert ov.total == direct.total
    assert ov.tier_term == direct.tier_term
