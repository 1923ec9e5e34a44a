import io
import json
import re
from fractions import Fraction

import numpy as np
import pytest

from scoresys.coefset import (CoefficientDomain, CoefficientSet, Tier,
                              bounded_integers, coprime_reduce, digit_values,
                              explicit_values, load_domains, signed_integers,
                              uniform)
from scoresys.errors import DomainError


def test_domain_sorts_and_requires_zero():
    dom = explicit_values([3, -1, 0, 1])
    assert dom.values == (Fraction(-1), Fraction(0), Fraction(1), Fraction(3))
    with pytest.raises(DomainError):
        explicit_values([1, 2, 3])


def test_domain_dedupes():
    dom = CoefficientDomain("set", (Fraction(0), Fraction(1), Fraction(1)))
    assert dom.values == (Fraction(0), Fraction(1))


def test_domain_contains_and_len():
    dom = explicit_values([0, 1, -2])
    assert len(dom) == 3
    assert Fraction(1) in dom
    assert 1 in dom
    assert 0.5 not in dom


def test_membership_test_leaves_repr_alone():
    dom = bounded_integers(2)
    before = repr(dom)
    assert 1 in dom and Fraction(1, 2) not in dom
    assert repr(dom) == before


def test_max_abs_and_contiguity():
    assert bounded_integers(5).max_abs == 5
    assert bounded_integers(5).is_contiguous_integers()
    assert not explicit_values([0, 1, 3]).is_contiguous_integers()
    assert not explicit_values([0, Fraction(1, 2)]).is_contiguous_integers()
    assert signed_integers("pos", 3).is_contiguous_integers()


def test_scaled_values_are_the_values_at_their_least_denominator():
    assert bounded_integers(2).scaled_values() == ((-2, -1, 0, 1, 2), 1)
    dom = explicit_values([0, Fraction(1, 2), Fraction(-2, 3), 4])
    assert dom.scaled_values() == ((-4, 0, 3, 24), 6)
    assert dom.scaled_values() is dom.scaled_values()


def test_bounded_integers_values():
    dom = bounded_integers(2)
    assert dom.values == tuple(Fraction(v) for v in (-2, -1, 0, 1, 2))
    with pytest.raises(DomainError):
        bounded_integers(0)


def test_signed_integers():
    pos = signed_integers("pos", 3)
    assert pos.values == tuple(Fraction(v) for v in range(0, 4))
    neg = signed_integers("neg", 2)
    assert neg.values == tuple(Fraction(v) for v in (-2, -1, 0))
    free = signed_integers("free", 2)
    assert free.values == bounded_integers(2).values
    with pytest.raises(DomainError):
        signed_integers("up", 2)


def test_digit_values_one_digit():
    dom = digit_values(1, -1, 1)
    vals = set(dom.values)
    assert Fraction(0) in vals
    assert Fraction(9, 10) in vals and Fraction(-9, 10) in vals
    assert Fraction(90) in vals
    # 0 plus +-d * 10^e for d in 1..9, e in {-1, 0, 1}
    assert len(vals) == 1 + 2 * 9 * 3


def test_digit_values_two_digits():
    dom = digit_values(2, 0, 0)
    vals = set(dom.values)
    assert Fraction(11, 10) in vals   # 1 + 0.1
    assert Fraction(-99, 10) in vals
    assert Fraction(3, 10) in vals    # d1=0 term keeps the low digit alone
    assert Fraction(0) in vals


def test_coefficient_set_basics():
    s = uniform(bounded_integers(2), 3)
    assert s.p == 3
    assert s.count() == 125
    assert s.max_l1() == 6
    assert s.contains([1, -2, 0])
    assert not s.contains([3, 0, 0])
    assert not s.contains([1, 1])
    combos = list(s.enumerate())
    assert len(combos) == 125
    with pytest.raises(DomainError):
        s.enumerate(limit=100)


def test_coefficient_set_shape_errors():
    with pytest.raises(DomainError):
        CoefficientSet(domains=())
    with pytest.raises(DomainError):
        CoefficientSet(domains=(bounded_integers(1),),
                       tiers=(None, None))


def test_tiers_must_partition():
    dom = bounded_integers(1)
    good = (Tier(Fraction(1, 100), frozenset({Fraction(0)})),
            Tier(Fraction(2, 100), frozenset({Fraction(1), Fraction(-1)})))
    s = CoefficientSet(domains=(dom,), tiers=(good,))
    assert s.tier_cost(0, 1) == Fraction(2, 100)
    assert s.tier_cost(0, 0) == Fraction(1, 100)

    overlap = (Tier(Fraction(1, 100), frozenset({Fraction(0), Fraction(1)})),
               Tier(Fraction(2, 100), frozenset({Fraction(1), Fraction(-1)})))
    with pytest.raises(DomainError):
        CoefficientSet(domains=(dom,), tiers=(overlap,))

    short = (Tier(Fraction(1, 100), frozenset({Fraction(0)})),)
    with pytest.raises(DomainError):
        CoefficientSet(domains=(dom,), tiers=(short,))

    decreasing = (Tier(Fraction(2, 100), frozenset({Fraction(0)})),
                  Tier(Fraction(1, 100), frozenset({Fraction(1), Fraction(-1)})))
    with pytest.raises(DomainError):
        CoefficientSet(domains=(dom,), tiers=(decreasing,))


def test_tier_cost_without_tiers_is_zero():
    s = uniform(bounded_integers(1), 2)
    assert s.tier_cost(0, 1) == 0


def test_coprime_reduce():
    assert coprime_reduce((2, 4, 6)) == (1, 2, 3)
    assert coprime_reduce((0, 0, 0)) == (0, 0, 0)
    assert coprime_reduce((3, 5)) == (3, 5)
    assert coprime_reduce((-4, 6)) == (-2, 3)
    assert coprime_reduce((0, -8)) == (0, -1)
    with pytest.raises(DomainError):
        coprime_reduce((Fraction(1, 2), 1))


def test_load_domains_default_and_override():
    doc = {
        "default": {"type": "integer", "max": 5},
        "(Intercept)": {"type": "integer", "max": 20},
        "f1": {"type": "set", "values": [0, 1, 5]},
    }
    s = load_domains(io.StringIO(json.dumps(doc)),
                     ("(Intercept)", "f0", "f1"))
    assert s.domains[0].max_abs == 20
    assert s.domains[1].max_abs == 5
    assert s.domains[2].values == (Fraction(0), Fraction(1), Fraction(5))


def test_load_domains_from_file(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"default": {"type": "digits", "digits": 1,
                                         "min_exp": 0, "max_exp": 1}}))
    s = load_domains(p, ("a", "b"))
    assert s.p == 2
    assert Fraction(90) in set(s.domains[0].values)


def test_load_domains_file_that_is_not_utf8(tmp_path):
    # the start of an executable: 0x80 after an ELF header is no UTF-8
    p = tmp_path / "binary"
    p.write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(128, 256)))
    with pytest.raises(DomainError, match=re.escape(
            f"cannot read {p}: not UTF-8 text (invalid start byte)")):
        load_domains(p, ["a"])
    with pytest.raises(UnicodeDecodeError):  # a stream's reader reports it
        load_domains(io.TextIOWrapper(io.BytesIO(p.read_bytes()), encoding="utf-8"),
                     ["a"])


def test_load_domains_requires_coverage():
    doc = {"f0": {"type": "integer", "max": 5}}
    with pytest.raises(DomainError):
        load_domains(io.StringIO(json.dumps(doc)), ("f0", "f1"))


def test_load_domains_bad_descriptor():
    bad = {"default": {"type": "gaussian"}}
    with pytest.raises(DomainError):
        load_domains(io.StringIO(json.dumps(bad)), ("a",))
    with pytest.raises(DomainError):
        load_domains(io.StringIO("[1, 2]"), ("a",))


def test_load_domains_with_tiers():
    doc = {"default": {
        "type": "integer", "max": 1,
        "tiers": [{"cost": 0.01, "values": [0]},
                  {"cost": 0.05, "values": [1, -1]}],
    }}
    s = load_domains(io.StringIO(json.dumps(doc)), ("a", "b"))
    assert s.tiers is not None
    assert s.tier_cost(1, -1) == Fraction(5, 100)


_TIER_REST = {"cost": 1, "values": [1, -1]}


@pytest.mark.parametrize("desc, message", [
    ({"type": "integer", "max": 1, "tiers": [{"cost": [1], "values": [0]}, _TIER_REST]},
     "tier 1: cannot interpret list as a number"),
    ({"type": "integer", "max": 1, "tiers": [{"cost": True, "values": [0]}, _TIER_REST]},
     "tier 1: boolean is not a numeric value"),
    ({"type": "integer", "max": 1, "tiers": [{"cost": "x", "values": [0]}, _TIER_REST]},
     "tier 1: not a finite decimal number: 'x'"),
    ({"type": "integer", "max": 1, "tiers": [
        {"cost": 0.5, "values": [0]}, {"cost": 1, "values": [[1], -1]}]},
     "tier 2: cannot interpret list as a number"),
    ({"type": "set", "values": [0, 1, 10], "tiers": [{"cost": 1, "values": "10"}]},
     "tier 1: 'values' must be a list, got '10'"),
    ({"type": "integer", "max": 1, "tiers": [
        {"cost": 0.01, "values": [0], "cots": 5}, {"cost": 0.02, "values": [1, -1]}]},
     "tier 1: unknown key(s) ['cots']"),
    ({"type": "set", "values": "10"}, "'values' must be a list, got '10'"),
    ({"type": "integer", "max": True}, "'max' must be an integer, got True"),
    ({"type": "integer", "max": 2.0}, "'max' must be an integer, got 2.0"),
    ({"type": "digits", "digits": True}, "'digits' must be an integer, got True"),
    ({"type": "digits", "min_exp": False}, "'min_exp' must be an integer, got False"),
    ({"type": "digits", "max_exp": "2"}, "'max_exp' must be an integer, got '2'"),
], ids=["tier_cost_list", "tier_cost_bool", "tier_cost_text", "tier_value_list",
        "tier_values_text", "tier_unknown_key", "set_values_text", "max_bool", "max_float", "digits_bool",
        "min_exp_bool", "max_exp_text"])
def test_malformed_descriptor_value_is_one_domain_error(desc, message):
    """Each malformed value, and a tier's unknown key, raises
    DomainError naming the feature (and the tier), never a TypeError,
    and no text is read as a list."""
    with pytest.raises(DomainError, match="^" + re.escape(f"feature 'a': {message}") + "$"):
        load_domains({"default": desc}, ("a",))


def _tiered(m, costs=(0.01, 0.05)):
    """An integer descriptor -m..m whose tiers are {0} and the rest."""
    rest = [v for v in range(-m, m + 1) if v]
    return {"type": "integer", "max": m,
            "tiers": [{"cost": costs[0], "values": [0]},
                      {"cost": costs[1], "values": rest}]}


def test_features_that_share_a_descriptor_share_one_domain():
    # a and b take "default"; c names an equal descriptor of its own, d
    # the same domain without tiers, e other tier costs
    doc = {"default": _tiered(3), "c": _tiered(3), "d": {"type": "integer", "max": 3},
           "e": _tiered(3, (0.02, 0.03))}
    s = load_domains(doc, ("a", "b", "c", "d", "e"))
    assert s.domains[0] is s.domains[1] and s.tiers[0] is s.tiers[1]
    for j in (2, 3, 4):
        assert s.domains[j] is not s.domains[0] and s.domains[j] == s.domains[0]
    assert s.tiers[2] is not s.tiers[0] and s.tiers[2] == s.tiers[0]
    assert s.tiers[3] is None
    assert s.tiers[4] != s.tiers[0]
    # an error names the first feature that reaches the bad descriptor
    with pytest.raises(DomainError, match="feature 'a'"):
        load_domains({"default": {"type": "integer", "max": 0}}, ("a", "b"))


def test_describe_smoke():
    for dom in (bounded_integers(3), signed_integers("neg", 2),
                digit_values(1, 0, 0), explicit_values([0, 2])):
        assert isinstance(dom.describe(), str) and dom.describe()
