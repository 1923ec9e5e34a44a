import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from scoresys.exactnum import (common_denominator, fraction_str,
                               pow10_denominator, scaled_int, to_fraction)


def test_to_fraction_reads_floats_as_decimals():
    assert to_fraction(0.1) == Fraction(1, 10)
    assert to_fraction(0.006) == Fraction(6, 1000)
    assert to_fraction(-2.5) == Fraction(-5, 2)


def test_to_fraction_other_types():
    assert to_fraction(3) == Fraction(3)
    assert to_fraction("0.30") == Fraction(3, 10)
    assert to_fraction("  -7 ") == Fraction(-7)
    assert to_fraction(Decimal("1.25")) == Fraction(5, 4)
    f = Fraction(2, 3)
    assert to_fraction(f) is f


def test_to_fraction_rejects_junk():
    with pytest.raises(TypeError):
        to_fraction(True)
    with pytest.raises(ValueError):
        to_fraction(float("nan"))
    with pytest.raises(ValueError):
        to_fraction(float("inf"))
    with pytest.raises(ValueError):
        to_fraction("1/2ish")
    for text in ("inf", "nan"):
        with pytest.raises(ValueError):
            to_fraction(text)
    with pytest.raises(TypeError):
        to_fraction([1])


def test_common_denominator():
    assert common_denominator([]) == 1
    fr = [Fraction(1, 4), Fraction(1, 6), Fraction(3)]
    assert common_denominator(fr) == 12


def test_scaled_int():
    assert scaled_int(Fraction(3, 4), 8) == 6
    assert scaled_int(Fraction(-5), 3) == -15
    with pytest.raises(ValueError):
        scaled_int(Fraction(1, 3), 10)


def test_pow10_denominator():
    assert pow10_denominator(Fraction(1, 10))
    assert pow10_denominator(Fraction(7, 40))
    assert pow10_denominator(Fraction(4))
    assert not pow10_denominator(Fraction(1, 3))
    assert not pow10_denominator(Fraction(1, 6830000 * 3))


def test_fraction_str_decimal_forms():
    assert fraction_str(Fraction(3)) == "3"
    assert fraction_str(Fraction(-12)) == "-12"
    assert fraction_str(Fraction(1, 4)) == "0.25"
    assert fraction_str(Fraction(6, 1000)) == "0.006"
    assert fraction_str(Fraction(-1, 8)) == "-0.125"


def test_fraction_str_falls_back_to_float_repr():
    assert fraction_str(Fraction(1, 3)) == repr(1 / 3)
    assert fraction_str(Fraction(1, 6830000)) == repr(1 / 6830000)


def test_fraction_str_round_trips_decimals():
    # any fraction with a 2^a 5^b denominator must survive the text trip
    rng = np.random.default_rng(11)
    for _ in range(200):
        num = int(rng.integers(-10**6, 10**6))
        den = 2 ** int(rng.integers(0, 8)) * 5 ** int(rng.integers(0, 8))
        f = Fraction(num, den)
        assert to_fraction(fraction_str(f)) == f


def test_fraction_str_fallback_is_shortest_repr():
    rng = np.random.default_rng(12)
    for _ in range(100):
        f = Fraction(int(rng.integers(1, 999)), int(rng.integers(1, 999)))
        s = fraction_str(f)
        assert math.isclose(float(s), float(f), rel_tol=0, abs_tol=0) or \
            float(s) == float(f)
