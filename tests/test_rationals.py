"""Boundary numbers: floats read from configs and decimal rendering."""

from fractions import Fraction as F

import pytest

from farfield.errors import InputError
from farfield.rationals import dec, integer, rat


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
