"""Exact decimal arithmetic helpers.

Data cells, coefficient values, and penalty weights are all finite
numbers that the rest of the package must compare without floating
point ties, so everything is normalized to Fraction once at the
boundary and stays rational from there.  Floats are interpreted by
their shortest round-trip repr: to_fraction(0.1) == 1/10, not the
binary expansion.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
from fractions import Fraction

from .errors import ConfigError

Numeric = int | float | str | Fraction | Decimal

# a finite decimal as LP files, solution files, flags and coefficient
# sets spell it: an optional sign, digits with an optional point (or a
# point and digits) and an optional exponent; no underscores, no
# "inf" or "nan"
NUM = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_NUM_RE = re.compile(NUM)
# the largest decimal exponent (of the leading digit) a string may
# carry: Fraction(Decimal("1e-10000000")) alone builds a ten-million-
# digit integer, seconds before any range check could refuse it
MAX_EXPONENT = 9999


def to_fraction(x: Numeric) -> Fraction:
    """Exact value of x, reading floats and strings as decimals.  A
    string that is not, once stripped, a whole match of NUM, or whose
    leading digit's exponent lies beyond +-MAX_EXPONENT, raises
    ConfigError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):  # bool is an int but never a sensible number here
        raise TypeError("boolean is not a numeric value")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"non-finite value {x!r}")
        return Fraction(Decimal(repr(x)))
    if isinstance(x, Decimal):
        if not x.is_finite():
            raise ValueError(f"non-finite value {x!r}")
        return Fraction(x)
    if isinstance(x, str):
        text = x.strip()
        if not _NUM_RE.fullmatch(text):
            raise ConfigError(f"not a finite decimal number: {x!r}")
        dec = Decimal(text)
        if abs(dec.adjusted()) > MAX_EXPONENT:
            raise ConfigError(f"number out of range (exponent beyond "
                              f"+-{MAX_EXPONENT}): {x!r}")
        return Fraction(dec)
    raise TypeError(f"cannot interpret {type(x).__name__} as a number")


def common_denominator(fracs) -> int:
    """lcm of the denominators, 1 for an empty collection."""
    d = 1
    for f in fracs:
        d = math.lcm(d, f.denominator)
    return d


def scaled_int(f: Fraction, denom: int) -> int:
    """f * denom, which is exact when denom is a multiple of f's denominator."""
    q, r = divmod(f.numerator * denom, f.denominator)
    if r:
        raise ValueError(f"{f} does not scale to an integer at denominator {denom}")
    return q


def pow10_denominator(f: Fraction) -> bool:
    """True when f has a finite decimal expansion."""
    d = f.denominator
    for p in (2, 5):
        while d % p == 0:
            d //= p
    return d == 1


def fraction_str(f: Fraction) -> str:
    """Shortest exact decimal string if one exists, else repr(float).

    Used anywhere a number must be written to a text artifact
    deterministically (LP files, score sheets, CSV reports).
    """
    if f.denominator == 1:
        return str(f.numerator)
    if pow10_denominator(f):
        d, twos, fives = f.denominator, 0, 0
        while d % 2 == 0:
            d //= 2
            twos += 1
        while d % 5 == 0:
            d //= 5
            fives += 1
        places = max(twos, fives)
        units = f.numerator * 10**places // f.denominator  # exact by construction
        digits = str(abs(units)).rjust(places + 1, "0")
        text = digits[:-places] + "." + digits[-places:]
        text = text.rstrip("0").rstrip(".")
        return ("-" if units < 0 else "") + text
    return repr(float(f))
