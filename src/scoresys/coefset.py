"""Finite coefficient domains and per-feature coefficient sets.

Every trainable coefficient ranges over a finite set of exact decimal
values that always contains 0.  Four constructors cover the useful
shapes: symmetric integer ranges, sign-constrained integer ranges,
one- or two-significant-digit decimal grids, and explicit value lists.
Values are stored as Fractions (sorted, deduplicated), so membership
tests are exact: 0.003 is in a digit grid reaching exponent -3, while
0.0001 is not.

A CoefficientSet maps dataset columns to domains and optionally
attaches a tiered-penalty spec to a coefficient: tiers partition the
domain, carry strictly increasing positive costs, and charge the cost
of whichever tier the trained value lands in.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .errors import DomainError, read_file
from .exactnum import fraction_str, to_fraction

ZERO = Fraction(0)


@dataclass(frozen=True)
class CoefficientDomain:
    kind: str  # "integer" | "signed_integer" | "digits" | "set"
    values: tuple[Fraction, ...]  # sorted ascending, unique, 0 included
    _value_set: frozenset = field(init=False, repr=False, compare=False)
    _max_abs: Fraction = field(init=False, repr=False, compare=False)
    _scaled: tuple | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        vals = tuple(sorted(set(self.values)))
        if not vals:
            raise DomainError("empty coefficient domain")
        if ZERO not in vals:
            raise DomainError("every coefficient domain must contain 0")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_value_set", frozenset(vals))
        object.__setattr__(self, "_max_abs", max(abs(vals[0]), abs(vals[-1])))

    def __len__(self) -> int:
        return len(self.values)

    def __contains__(self, v) -> bool:
        try:
            return to_fraction(v) in self._value_set
        except (TypeError, ValueError):
            return False

    @property
    def max_abs(self) -> Fraction:
        return self._max_abs

    def scaled_values(self) -> tuple[tuple[int, ...], int]:
        """The values times their least common denominator, as Python
        ints in the same ascending order, and that denominator; worked
        out on first use and kept with the domain."""
        if self._scaled is None:
            den = math.lcm(*(v.denominator for v in self.values))
            object.__setattr__(self, "_scaled", (tuple(
                v.numerator * (den // v.denominator) for v in self.values), den))
        return self._scaled

    def is_contiguous_integers(self) -> bool:
        """True when the values are exactly lo, lo+1, ..., hi."""
        vs = self.values
        if any(v.denominator != 1 for v in vs):
            return False
        return vs[-1] - vs[0] + 1 == len(vs)

    def describe(self) -> str:
        if self.is_contiguous_integers():
            return f"integers {fraction_str(self.values[0])}..{fraction_str(self.values[-1])}"
        return "{" + ", ".join(fraction_str(v) for v in self.values) + "}"


def bounded_integers(max_coef: int = 100) -> CoefficientDomain:
    """{-max_coef, ..., max_coef}; cardinality 2*max_coef + 1."""
    m = int(max_coef)
    if m < 1 or m != max_coef:
        raise DomainError(f"max_coef must be a positive integer, got {max_coef!r}")
    return CoefficientDomain("integer", tuple(Fraction(v) for v in range(-m, m + 1)))


def signed_integers(sign: str, max_coef: int = 100) -> CoefficientDomain:
    """Sign-constrained integer range: pos -> 0..max, neg -> -max..0,
    free -> -max..max."""
    m = int(max_coef)
    if m < 1 or m != max_coef:
        raise DomainError(f"max_coef must be a positive integer, got {max_coef!r}")
    if sign == "free":
        return bounded_integers(m)
    if sign == "pos":
        vals = range(0, m + 1)
    elif sign == "neg":
        vals = range(-m, 1)
    else:
        raise DomainError(f"sign must be pos/neg/free, got {sign!r}")
    return CoefficientDomain("signed_integer", tuple(Fraction(v) for v in vals))


def digit_values(digits: int, min_exp: int, max_exp: int) -> CoefficientDomain:
    """Decimal grid with one or two significant digits.

    digits=1: {0} plus ±d*10^e for d in 1..9 and e in [min_exp, max_exp].
    digits=2: d1*10^e + d2*10^(e-1) for d1, d2 in {0, ±1..±9} and e in
    [min_exp, max_exp].  The two-term form deliberately also yields
    single-digit values whose exponent is e-1 at the low boundary.
    """
    if digits not in (1, 2):
        raise DomainError(f"digits must be 1 or 2, got {digits!r}")
    if min_exp > max_exp:
        raise DomainError(f"empty exponent range [{min_exp}, {max_exp}]")
    vals = {ZERO}
    if digits == 1:
        for e in range(min_exp, max_exp + 1):
            step = Fraction(10) ** e
            for d in range(1, 10):
                vals.add(d * step)
                vals.add(-d * step)
    else:
        ds = [d for a in range(1, 10) for d in (a, -a)] + [0]
        for e in range(min_exp, max_exp + 1):
            hi, lo = Fraction(10) ** e, Fraction(10) ** (e - 1)
            for d1 in ds:
                for d2 in ds:
                    vals.add(d1 * hi + d2 * lo)
    return CoefficientDomain("digits", tuple(vals))


def explicit_values(values) -> CoefficientDomain:
    """Arbitrary finite list of exact decimal values; must include 0."""
    return CoefficientDomain("set", tuple(to_fraction(v) for v in values))


@dataclass(frozen=True)
class Tier:
    cost: Fraction
    values: frozenset  # of Fraction


@dataclass(frozen=True)
class CoefficientSet:
    domains: tuple[CoefficientDomain, ...]
    tiers: tuple[tuple[Tier, ...] | None, ...] | None = None

    def __post_init__(self):
        if not self.domains:
            raise DomainError("coefficient set has no domains")
        object.__setattr__(self, "domains", tuple(self.domains))
        if self.tiers is not None:
            tiers = tuple(self.tiers)
            if len(tiers) != len(self.domains):
                raise DomainError("tiers must align with domains (use None entries)")
            checked = set()  # a (domain, tiers) pair shared by columns is checked once
            for j, spec in enumerate(tiers):
                if spec is None or (id(self.domains[j]), id(spec)) in checked:
                    continue
                _check_tiers(self.domains[j], spec, j)
                checked.add((id(self.domains[j]), id(spec)))
            object.__setattr__(self, "tiers", tiers)

    @property
    def p(self) -> int:
        return len(self.domains)

    def count(self) -> int:
        """Number of coefficient vectors in the lattice (exact big int)."""
        out = 1
        for d in self.domains:
            out *= len(d)
        return out

    def max_l1(self) -> Fraction:
        return sum((d.max_abs for d in self.domains), ZERO)

    def contains(self, lam) -> bool:
        lam = list(lam)
        if len(lam) != self.p:
            return False
        return all(v in d for v, d in zip(lam, self.domains))

    def enumerate(self, limit: int | None = 10_000_000):
        """Iterate every coefficient vector (tuples of Fraction).
        Guarded by limit since counts are products of cardinalities."""
        if limit is not None and self.count() > limit:
            raise DomainError(
                f"lattice has {self.count()} points, above the limit {limit}")
        return product(*(d.values for d in self.domains))

    def tier_cost(self, j: int, value) -> Fraction:
        """Cost of the tier containing value at coefficient j; 0 when the
        coefficient has no tiers."""
        return tier_cost_in(None if self.tiers is None else self.tiers[j], value, j)


def tier_cost_in(tiers_j, value, j: int) -> Fraction:
    """Cost of the tier in tiers_j (coefficient j's Tier list, or None
    for no tiers) that contains value; 0 when tiers_j is None."""
    if tiers_j is None:
        return ZERO
    v = to_fraction(value)
    for t in tiers_j:
        if v in t.values:
            return t.cost
    raise DomainError(
        f"value {fraction_str(v)} is outside every tier of coefficient {j}")


def _check_tiers(domain: CoefficientDomain, spec, j: int):
    seen = set()
    prev = ZERO
    if not spec:
        raise DomainError(f"coefficient {j}: empty tier list")
    for r, t in enumerate(spec, start=1):
        if t.cost <= prev:
            raise DomainError(
                f"coefficient {j}: tier costs must be strictly increasing "
                f"and positive (tier {r} cost {fraction_str(t.cost)})")
        prev = t.cost
        if not t.values:
            raise DomainError(f"coefficient {j}: tier {r} is empty")
        if seen & t.values:
            raise DomainError(f"coefficient {j}: tiers overlap")
        seen |= t.values
    if seen != set(domain.values):
        raise DomainError(
            f"coefficient {j}: tiers must partition the domain exactly")


def uniform(domain: CoefficientDomain, p: int) -> CoefficientSet:
    return CoefficientSet(domains=(domain,) * p)


def coprime_reduce(lam) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries.

    The all-zero vector is returned unchanged (gcd taken as 1).  Raises
    if any entry is not an exact integer.
    """
    ints = []
    for v in lam:
        f = to_fraction(v)
        if f.denominator != 1:
            raise DomainError(f"coprime_reduce needs integers, got {fraction_str(f)}")
        ints.append(f.numerator)
    g = math.gcd(*ints) if ints else 1
    if g <= 1:
        return tuple(ints)
    return tuple(v // g for v in ints)


# --- JSON grammar -----------------------------------------------------------
#
# A coefficient-set file is a JSON object mapping feature names to
# domain descriptors; the key "default" supplies the descriptor for
# any feature not named.  Descriptors:
#
#   {"type": "integer", "max": 100}                      symmetric range
#   {"type": "integer", "max": 10, "sign": "pos"}        sign-constrained
#   {"type": "digits", "digits": 1, "min_exp": -3, "max_exp": 2}
#   {"type": "set", "values": [0, 1, 5, -5, 0.5]}
#
# Any descriptor may add "tiers": [{"cost": 0.01, "values": [...]},
# ...]; tiers must partition the domain with strictly increasing
# positive costs.

def _domain_from_descriptor(desc: dict, where: str) -> tuple[CoefficientDomain, list | None]:
    if not isinstance(desc, dict) or "type" not in desc:
        raise DomainError(f"{where}: descriptor must be an object with a 'type'")
    kind = desc["type"]
    known = {"integer", "digits", "set"}
    if kind not in known:
        raise DomainError(f"{where}: unknown type {kind!r} (expected one of {sorted(known)})")
    extra = set(desc) - {"type", "max", "sign", "digits", "min_exp", "max_exp",
                         "values", "tiers"}
    if extra:
        raise DomainError(f"{where}: unknown key(s) {sorted(extra)}")
    try:
        if kind == "integer":
            sign = desc.get("sign", "free")
            dom = signed_integers(sign, _integer(desc, "max", 100))
        elif kind == "digits":
            dom = digit_values(_integer(desc, "digits", 1), _integer(desc, "min_exp", -3),
                               _integer(desc, "max_exp", 2))
        else:
            if "values" not in desc:
                raise DomainError("a 'set' descriptor needs 'values'")
            dom = explicit_values(_values(desc))
    except (TypeError, ValueError) as e:  # DomainError and ConfigError included
        raise DomainError(f"{where}: {e}") from None
    return dom, desc.get("tiers")


def _integer(desc: dict, key: str, default: int) -> int:
    v = desc.get(key, default)  # a JSON integer; bool is an int in Python
    if isinstance(v, bool) or not isinstance(v, int):
        raise DomainError(f"{key!r} must be an integer, got {v!r}")
    return v


def _values(desc: dict) -> list:
    v = desc["values"]  # a JSON list: a string would be read character by character
    if not isinstance(v, list):
        raise DomainError(f"'values' must be a list, got {v!r}")
    return v


def _tiers_from_descriptor(raw, where: str) -> tuple[Tier, ...]:
    if not isinstance(raw, list) or not raw:
        raise DomainError(f"{where}: 'tiers' must be a non-empty list")
    out = []
    for r, t in enumerate(raw, start=1):
        if not isinstance(t, dict) or "cost" not in t or "values" not in t:
            raise DomainError(f"{where}: tier {r} needs 'cost' and 'values'")
        try:
            out.append(Tier(cost=to_fraction(t["cost"]),
                            values=frozenset(map(to_fraction, _values(t)))))
        except (TypeError, ValueError) as e:  # DomainError and ConfigError included
            raise DomainError(f"{where}: tier {r}: {e}") from None
    return tuple(out)


def load_domains(source, feature_names) -> CoefficientSet:
    """Build a CoefficientSet for the named features from a JSON file,
    path, or already-parsed dict (see the grammar above).

    Features that share a descriptor (every feature "default" covers,
    say) share one CoefficientDomain and one tier tuple, built once;
    a feature with its own descriptor gets its own, even when equal."""
    is_path = isinstance(source, (str, os.PathLike))
    try:
        if is_path:
            spec = read_file(source, json.load, DomainError)
        elif isinstance(source, dict):
            spec = source
        else:
            spec = json.load(source)
    except json.JSONDecodeError as e:
        where = os.fspath(source) if is_path else getattr(source, "name", "stream")
        raise DomainError(f"coefficient-set file {where}: malformed JSON: {e}") from None
    if not isinstance(spec, dict):
        raise DomainError("coefficient-set JSON must be an object")
    unknown = set(spec) - set(feature_names) - {"default"}
    if unknown:
        raise DomainError(f"coefficient-set names unknown feature(s): {sorted(unknown)}")
    built, domains, tier_specs = {}, [], []  # built: id of a descriptor -> (domain, tiers)
    for name in feature_names:
        desc = spec.get(name, spec.get("default"))
        if desc is None:
            raise DomainError(f"no descriptor for feature {name!r} and no 'default'")
        if id(desc) not in built:
            dom, tiers_raw = _domain_from_descriptor(desc, f"feature {name!r}")
            built[id(desc)] = (dom, None if tiers_raw is None else
                               _tiers_from_descriptor(tiers_raw, f"feature {name!r}"))
        dom, tiers = built[id(desc)]
        domains.append(dom)
        tier_specs.append(tiers)
    any_tiers = any(t is not None for t in tier_specs)
    return CoefficientSet(domains=tuple(domains),
                          tiers=tuple(tier_specs) if any_tiers else None)
