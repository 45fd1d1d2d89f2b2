"""Exact rationals at the package's API boundary.

Every quantity the package reports (the delay, event times, positions,
switch coordinates) is an exact rational.  The engine's event loop runs on
plain integers scaled by the delay's denominator q (all its quantities lie
in (1/q)*Z); a trace keeps those rows and builds its ``Rat`` views when
they are first read.  ``Rat`` is :class:`fractions.Fraction`, which already
provides the canonical form the rest of the package relies on: positive
denominator, numerator and denominator coprime, unbounded integers, exact
total order.  This module adds the strict text round-trip used by the CLI
and the file formats ("p/q" or a finite decimal in, "p/q" out) and
correctly rounded decimal companions for human-readable output.  Core
logic never consumes the decimal strings.  The text has no digit limit.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction

Rat = Fraction

_INT_RE = re.compile(r"[+-]?\d+\Z", re.ASCII)
_RATIO_RE = re.compile(r"(?P<num>[+-]?\d+)/(?P<den>\d+)\Z", re.ASCII)
_DECIMAL_RE = re.compile(r"(?P<sign>[+-]?)(?P<int>\d*)\.(?P<frac>\d*)\Z", re.ASCII)


class RatParseError(ValueError):
    """Raised when a rational literal cannot be parsed."""


def _convert(to, value):
    """``to(value)`` for ``to`` int (on digit text) or str (on an int), at any length."""
    try:
        return to(value)  # faster than Decimal below the cap
    except ValueError:  # the cap (Python 3.10.7 on); Decimal converts exactly and has none
        return to(Decimal(value))


def rat_parse(text: str) -> Rat:
    """Parse "p/q", a plain integer "p", or a finite decimal into a Rat.

    Decimals convert exactly as digits/10^n; they are never routed through
    binary floating point (the dynamics are discontinuous in the delay at
    rational points, so "1.35" must mean 27/20 exactly).
    """
    token = text.strip()
    if _INT_RE.match(token):
        return Fraction(_convert(int, token))
    m = _RATIO_RE.match(token)
    if m:
        den = _convert(int, m.group("den"))
        if den == 0:
            raise RatParseError(f"zero denominator in {token!r}")
        return Fraction(_convert(int, m.group("num")), den)
    m = _DECIMAL_RE.match(token)
    if m and (m.group("int") or m.group("frac")):
        frac_digits = m.group("frac") or ""
        digits = (m.group("int") or "0") + frac_digits
        value = Fraction(_convert(int, digits), 10 ** len(frac_digits))
        return -value if m.group("sign") == "-" else value
    raise RatParseError(f"not a rational literal: {token!r}")


def rat_format(a: Rat) -> str:
    """Canonical text form: "p/q", or plain "p" for integers."""
    if a.denominator == 1:
        return _convert(str, a.numerator)
    return f"{_convert(str, a.numerator)}/{_convert(str, a.denominator)}"


def rat_to_decimal(a: Rat, digits: int) -> str:
    """Correctly rounded (half-to-even) decimal string with ``digits`` places.

    Reporting aid only; exact consumers must use :func:`rat_format`.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    scale = 10**digits
    q, r = divmod(abs(a.numerator) * scale, a.denominator)
    if 2 * r > a.denominator or (2 * r == a.denominator and q % 2 == 1):
        q += 1
    sign = "-" if a < 0 and q > 0 else ""
    whole, frac = divmod(q, scale)
    return f"{sign}{_convert(str, whole)}.{_convert(str, frac).zfill(digits)}"
