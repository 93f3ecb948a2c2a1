"""Boundary numbers: floats read from configs and decimal rendering."""

from decimal import Context, Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from farfield.errors import InputError
from farfield.rationals import common_power, dec, fmt, integer, rat


def test_rat_reads_a_float_as_its_shortest_repr():
    assert rat(1e-13) == F(1, 10**13)
    assert rat(0.1) == F(1, 10)
    assert rat(2.5) == F(5, 2)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(InputError):
            rat(bad)


def test_integer_rejects_what_it_would_truncate():
    assert integer(3) == 3
    assert integer("2") == 2
    assert integer(2.0) == 2
    assert integer("-4/2") == -2
    for bad in (1.5, "3/2", True, None, "x"):
        with pytest.raises(InputError):
            integer(bad)


def test_dec_renders_beyond_the_float_range():
    assert dec(F(2) ** 5000) == "1.41246703214e+1505"
    assert dec(-F(2) ** 5000 / 3) == "-4.70822344046e+1504"
    assert dec(F(10) ** 400) == "1e+400"
    # inside the float range the float rendering stays as it was
    assert dec(F(1, 3)) == "0.333333333333"
    assert dec(F(2) ** 1000) == "1.07150860719e+301"


@pytest.mark.parametrize("p, q, common", [
    (F(4), F(8), F(64)),  # 2**2 and 2**3 meet at 2**6
    (F(2), F(2), F(2)),
    (F(9, 4), F(27, 8), F(3, 2) ** 6),
    (F(12, 11), F(144, 121), F(144, 121)),
    (F(2) ** 100, F(2) ** 150, F(2) ** 300),
    (F(3) ** 40 * 5, F(3) ** 20 * 5, None),  # 3**40*5 is no power of the other
    (F(2), F(3), None),
    (F(3, 2), F(9, 8), None),
    (F(1), F(5, 4), F(5, 4)),  # 1 stands for every factor
    (F(1), F(1), F(1)),
])
def test_common_power_is_exact(p, q, common):
    assert common_power(p, q) == common
    assert common_power(q, p) == common



def coerced_dec(value):
    """dec as it read every input: through Fraction(value) first."""
    value = F(value)
    try:
        return format(float(value), ".12g")
    except OverflowError:
        ctx = Context(prec=12)
        digits = ctx.divide(value.numerator, Decimal(value.denominator))
        return format(digits.normalize(ctx), ".12g")


BIG = 10 ** 400


@settings(max_examples=300, deadline=None)
@given(value=st.one_of(
    st.integers(-BIG, BIG),
    st.fractions(),
    st.builds(F, st.integers(-BIG, BIG), st.integers(1, 10 ** 30)),
    st.fractions().map(str),
    st.decimals(-10 ** 12, 10 ** 12, allow_nan=False, places=12).map(str)))
def test_fmt_and_dec_read_a_fraction_as_given(value):
    # a Fraction is formatted as it is; ints and rational strings are
    # coerced as before
    assert fmt(value) == str(F(value))
    assert dec(value) == coerced_dec(value)
