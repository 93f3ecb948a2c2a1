"""Exact rational helpers used across the package.

All user-facing numbers are `fractions.Fraction`. JSON carries them as
strings ("3/2"), CSV renders them both exactly and as 12-significant-digit
decimals. Integer-exponent searches against huge magnitudes (q**n with n in
the hundreds) stay exact because Fraction sits on Python bigints.
"""

from __future__ import annotations

import functools
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
    # Fraction(value) would rebuild a Fraction it was given: an ABC check
    # and a gcd
    return str(value if type(value) is Fraction else Fraction(value))


def dec(value: Fraction) -> str:
    """Decimal approximation, 12 significant digits, deterministic."""
    if type(value) is not Fraction:
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


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for integers n >= 0, k >= 1, by integer Newton."""
    x = 1 << -(-n.bit_length() // k)  # at least the root
    while (y := ((k - 1) * x + n // x ** (k - 1)) // k) < x:
        x = y
    return x


@functools.lru_cache(maxsize=256)
def _primitive_root(q: Fraction):
    """(r, k) with q == r**k and k maximal, for rational q > 1. In lowest
    terms q = n/d is a k-th power exactly when n and d are, and r > 1
    needs r's numerator >= 2, so k < n.bit_length()."""
    n, d = q.numerator, q.denominator
    for k in range(n.bit_length() - 1, 1, -1):
        rn, rd = _iroot(n, k), _iroot(d, k)
        if rn ** k == n and rd ** k == d:
            return Fraction(rn, rd), k
    return q, 1


def lcm(a: Fraction, b: Fraction) -> Fraction:
    """Least common multiple of two rationals, 0 standing for any."""
    if not a or not b:
        return a or b
    return Fraction(math.lcm(a.numerator, b.numerator),
                    math.gcd(a.denominator, b.denominator))


def common_power(p: Fraction, q: Fraction):
    """The least r > 1 lying in both p**Z and q**Z, exact, or None when p
    and q are incommensurable (no common power). The factor 1 stands for
    "every factor", so common_power(1, q) is q (and 1 for q == 1)."""
    if p == 1 or q == 1:
        return max(p, q)
    (r, a), (s, b) = _primitive_root(p), _primitive_root(q)
    return r ** math.lcm(a, b) if r == s else None
