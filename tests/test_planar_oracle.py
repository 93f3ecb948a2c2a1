"""Planar bands against an oracle of their own.

A strip {(u, v): u >= 0, c1 <= v <= c2} and the planar ray (the
nonnegative u-axis) are checked through sampled points only: membership
on a rational grid, nearest points against every sampled set point,
covering sups against the distances of the source's edge points, and the
subset test against those sups. The oracle writes the ray's edges down
itself and measures squared Euclidean distances, so it shares no formula
with the library's band code.
"""

import math
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from farfield import (
    HalfPlaneStrip,
    PlanarRay,
    UnsupportedGeometryError,
    contains,
    distance_to_set,
    nearest_point,
    sphere_slice,
)
from farfield.equivalence import is_structural_subset, sup_distance

GRID = [F(k, 4) for k in range(-20, 21)]


def fractions(lo, hi, den):
    return st.integers(lo * den, hi * den).map(lambda k: F(k, den))


BANDS = st.one_of(
    st.builds(HalfPlaneStrip, fractions(-3, -1, 4).map(lambda x: x / 2),
              fractions(1, 6, 4).map(lambda x: x / 2)),
    st.just(PlanarRay()),
)
POINTS = st.one_of(
    st.tuples(st.sampled_from(GRID), st.sampled_from(GRID)),
    # corners whose distance to an edge end is a whole 3-4-5 triangle
    st.tuples(st.sampled_from([F(-3), F(-3, 2)]),
              st.sampled_from([F(-4), F(-2), F(2), F(4)])),
)


def edges(band):
    if band == PlanarRay():
        return F(0), F(0)
    return band.c1, band.c2


def in_band(band, point):
    lo, hi = edges(band)
    return point[0] >= 0 and lo <= point[1] <= hi


def samples(band, us):
    """Set points with first coordinates us and second coordinates on the
    edges and at every multiple of 1/8 between them."""
    lo, hi = edges(band)
    vs = {lo, hi} | {F(k, 8) for k in range(-24, 25) if lo <= F(k, 8) <= hi}
    return [(u, v) for u in us for v in vs]


def squared(p, q):
    return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2


def is_square(x):
    return all(math.isqrt(n) ** 2 == n for n in (x.numerator, x.denominator))


@settings(max_examples=200, deadline=None)
@given(band=BANDS, point=POINTS)
def test_membership_and_nearest_point_match_the_samples(band, point):
    assert contains(band, point) == in_band(band, point)
    closest = min(squared(point, x)
                  for x in samples(band, [u for u in GRID if u >= 0]))
    try:
        d = distance_to_set(band, point)
    except UnsupportedGeometryError:
        # only an irrational corner distance is refused
        assert not is_square(closest)
        return
    near = nearest_point(band, point)
    assert in_band(band, near)
    assert squared(point, near) == d * d
    assert closest >= d * d


@settings(max_examples=200, deadline=None)
@given(source=BANDS, target=BANDS)
def test_band_sup_is_the_farthest_edge_point(source, target):
    us = (F(0), F(5))
    edge_points = [(u, v) for u in us for v in edges(source)]

    def far(x):
        return min(squared(x, y) for y in samples(target, us))

    got = sup_distance(source, target)
    assert got.finite
    assert got.value ** 2 == max(far(x) for x in edge_points)
    assert all(far(x) <= got.value ** 2 for x in samples(source, us[:1]))
    assert is_structural_subset(source, target) == (got.value == 0)


def test_planar_ray_slice_is_two_axis_points():
    got = sphere_slice(PlanarRay(), (F(3), F(0)), F(2))
    assert got.kind == "points"
    assert got.points == ((F(1), F(0)), (F(5), F(0)))
