"""Exact rational helpers used across the package.

All user-facing numbers are `fractions.Fraction`. JSON carries them as
strings ("3/2"), CSV renders them both exactly and as 12-significant-digit
decimals. Integer-exponent searches against huge magnitudes (q**n with n in
the hundreds) stay exact because Fraction sits on Python bigints.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal
from fractions import Fraction

from .errors import InputError

Rat = Fraction


def rat(value) -> Fraction:
    """Coerce ints, strings like '3/2' or '0.25', and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        # a float stands for its shortest repr, as written in a config:
        # 0.1 is 1/10 and 1e-13 is 1/10**13; nan and inf are rejected below
        value = repr(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a rational: {value!r}") from exc
    raise InputError(f"not a rational: {value!r}")


def integer(value) -> int:
    """Coerce like `rat`, then insist on an integer: 1.5 and '3/2' are
    rejected, never truncated."""
    exact = rat(value)
    if exact.denominator != 1:
        raise InputError(f"not an integer: {value!r}")
    return int(exact)


def fmt(value: Fraction) -> str:
    """Exact string form, '3/2' or '5'."""
    return str(Fraction(value))


def dec(value: Fraction) -> str:
    """Decimal approximation, 12 significant digits, deterministic."""
    value = Fraction(value)
    try:
        return format(float(value), ".12g")
    except OverflowError:
        # beyond the float range: round the exact quotient to 12 digits
        ctx = Context(prec=12)
        digits = ctx.divide(value.numerator, Decimal(value.denominator))
        return format(digits.normalize(ctx), ".12g")


def flog(value: Fraction) -> float:
    """log of a positive rational, safe for astronomically large num/den."""
    if value <= 0:
        raise InputError("log of nonpositive rational")
    return math.log(value.numerator) - math.log(value.denominator)


def ipow_floor_log(q: Fraction, v: Fraction) -> int:
    """Largest n (any sign) with q**n <= v, for rational q > 1, v > 0.

    Float estimate plus exact correction; exact for all magnitudes.
    """
    if q <= 1:
        raise InputError("base must exceed 1")
    if v <= 0:
        raise InputError("value must be positive")
    n = int(math.floor(flog(v) / flog(q)))
    while q**n > v:
        n -= 1
    while q ** (n + 1) <= v:
        n += 1
    return n


def _base_power(q: Fraction, base: Fraction):
    """The k >= 1 with base**k == q, or None."""
    k = ipow_floor_log(base, q)
    return k if k >= 1 and base ** k == q else None
