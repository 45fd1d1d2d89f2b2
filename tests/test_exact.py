import math
import random
from fractions import Fraction as F

import pytest

from delayswitch.exact import RatParseError, rat_format, rat_parse, rat_to_decimal


class PairRat:
    """Independent oracle: unreduced (num, den) pairs, den > 0, no gcd ever.

    Equality is by cross-multiplication, so results can be compared with the
    canonical representation without sharing any normalization code.
    """

    def __init__(self, num, den=1):
        if den == 0:
            raise ZeroDivisionError
        if den < 0:
            num, den = -num, -den
        self.num, self.den = num, den

    def __add__(self, other):
        return PairRat(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        return PairRat(self.num * other.den - other.num * self.den, self.den * other.den)

    def __mul__(self, other):
        return PairRat(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if other.num == 0:
            raise ZeroDivisionError
        return PairRat(self.num * other.den, self.den * other.num)

    def equals(self, frac: F) -> bool:
        return self.num * frac.denominator == frac.numerator * self.den


def long_division(num: int, den: int, digits: int) -> str:
    """Digit-by-digit decimal oracle (truncation, no rounding)."""
    sign = "-" if num < 0 else ""
    num = abs(num)
    whole, rem = divmod(num, den)
    out = []
    for _ in range(digits):
        rem *= 10
        digit, rem = divmod(rem, den)
        out.append(str(digit))
    return f"{sign}{whole}." + "".join(out)


def test_parse_ratio_and_decimal():
    assert rat_parse("4/3") == F(4, 3)
    assert rat_parse("1.5") == F(3, 2)
    assert rat_parse("63/43") == F(63, 43)
    assert rat_parse("-3/4") == F(-3, 4)
    assert rat_parse("  7 ") == F(7)
    assert rat_parse(".25") == F(1, 4)
    assert rat_parse("-0.1") == F(-1, 10)


def test_parse_canonical_form():
    a = rat_parse("126/86")
    assert (a.numerator, a.denominator) == (63, 43)


def test_parse_rejects_garbage():
    # "\d" would match any Unicode digit, and int() reads them all
    non_ascii = ("\u0664/\u0663", "1.\u0664", "\u0664", "\uff14/\uff13", "4/\u0663", "1\u0669.5")
    for bad in ("", "abc", "1/0", "4//3", "1.2.3", "1e5", "nan", "3/-4", *non_ascii):
        with pytest.raises(RatParseError):
            rat_parse(bad)
    with pytest.raises(RatParseError, match="zero denominator"):
        rat_parse("1/0")


def test_to_decimal():
    assert rat_to_decimal(F(4, 3), 6) == "1.333333"
    assert rat_to_decimal(F(0), 4) == "0.0000"
    assert rat_to_decimal(F(-23, 43), 6) == "-0.534884"
    assert rat_to_decimal(F(3, 2), 3) == "1.500"
    with pytest.raises(ValueError):
        rat_to_decimal(F(1), 0)


def test_to_decimal_against_long_division():
    # where the truncated expansion does not end in a rounding-up digit,
    # the two must agree; 63/43 = 1.4651162... rounds down at 6 digits
    assert rat_to_decimal(F(63, 43), 6) == long_division(63, 43, 6) == "1.465116"
    rng = random.Random(1009)
    for _ in range(300):
        num = rng.randint(-999, 999)
        den = rng.randint(1, 999)
        digits = rng.randint(1, 12)
        truncated = long_division(num, den, digits)
        rounded = rat_to_decimal(F(num, den), digits)
        # correctly rounded value differs from truncation by at most one ulp
        delta = abs(F(rounded) - F(truncated))
        assert delta <= F(1, 10**digits)
        assert abs(F(rounded) - F(num, den)) <= F(1, 2 * 10**digits)


def test_round_half_even():
    assert rat_to_decimal(F(1, 8), 2) == "0.12"  # 0.125 -> even
    assert rat_to_decimal(F(3, 8), 2) == "0.38"  # 0.375 -> even
    assert rat_to_decimal(F(-1, 8), 2) == "-0.12"


def test_format_round_trip():
    rng = random.Random(2024)
    for _ in range(500):
        a = F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        assert rat_parse(rat_format(a)) == a
    assert rat_format(F(6, 3)) == "2"
    assert rat_format(F(-1, 3)) == "-1/3"


def test_field_axioms_against_pair_oracle():
    rng = random.Random(99)

    def sample():
        return F(rng.randint(-30, 30), rng.randint(1, 30))

    for _ in range(400):
        a, b, c = sample(), sample(), sample()
        pa, pb, pc = (PairRat(v.numerator, v.denominator) for v in (a, b, c))
        assert (pa + pb).equals(a + b)
        assert (pa - pb).equals(a - b)
        assert (pa * pb).equals(a * b)
        if b != 0:
            assert (pa / pb).equals(a / b)
        # associativity / distributivity, both routes
        assert ((pa + pb) + pc).equals((a + b) + c)
        assert (pa * (pb + pc)).equals(a * b + a * c)


def test_results_stay_canonical():
    rng = random.Random(7)
    for _ in range(300):
        a = F(rng.randint(-40, 40), rng.randint(1, 40))
        b = F(rng.randint(-40, 40), rng.randint(1, 40))
        for value in (a + b, a - b, a * b) + ((a / b,) if b else ()):
            assert value.denominator > 0
            assert math.gcd(abs(value.numerator), value.denominator) == 1
