"""Boundary numbers: floats read from configs and decimal rendering."""

from fractions import Fraction as F

import pytest

from farfield.errors import InputError
from farfield.rationals import common_power, dec, integer, rat


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

