"""Planar models against an oracle of their own.

A strip {(u, v): u >= 0, c1 <= v <= c2} and the planar ray (the
nonnegative u-axis) are checked through sampled points only: membership
on a rational grid, nearest points against every sampled set point,
covering sups against the distances of the source's edge points, and the
subset test against those sups. The oracle writes the ray's edges down
itself and measures squared Euclidean distances, so it shares no formula
with the library's planar code.

Products of small 1-D trees, strips, the planar ray and unions of strips
are checked the same way, against a union of boxes X x Y that the oracle
writes down per kind (never through `setmodels.factors`), each coordinate
listed by the 1-D oracle of test_setmodels_oracle.
"""

import bisect
import math
from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

from farfield import (
    FiniteModification,
    FiniteUnion,
    GeometricBlocks,
    HalfPlaneStrip,
    PlanarRay,
    Product2D,
    Ray,
    Reflected,
    UnsupportedGeometryError,
    contains,
    distance_to_set,
    nearest_point,
    sphere_slice,
)
from farfield.equivalence import is_structural_subset, sup_distance
from farfield.setmodels import Segment
from test_setmodels_oracle import TINY, coalesce, member, oracle, trees

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


# ---------------------------------------------------------------------------
# Products, strips, the planar ray and unions of strips


STRIPS = st.builds(HalfPlaneStrip, fractions(-3, -1, 2), fractions(1, 3, 2))
PLANAR = st.one_of(
    st.builds(Product2D, trees(1), trees(1)),
    STRIPS,
    st.just(PlanarRay()),
    st.lists(st.one_of(STRIPS, st.just(PlanarRay())), min_size=2,
             max_size=3).map(lambda parts: FiniteUnion(tuple(parts))),
)
# Sampled coordinates stay inside [-W, W]. The 1-D oracle lists [-200, 200],
# and every set has a point within 14 of 0, so it lists every nearest one.
W = F(24)


def boxes(model):
    """The planar set as a list of products X x Y of 1-D models."""
    if isinstance(model, FiniteUnion):
        return [box for part in model.parts for box in boxes(part)]
    if isinstance(model, HalfPlaneStrip):
        return [(Ray(F(0)), Segment(model.c1, model.c2))]
    if isinstance(model, PlanarRay):
        return [(Ray(F(0)), Segment(F(0), F(0)))]
    return [(model.x, model.y)]


def removed(m):
    """Every point removed anywhere in a 1-D tree, and its mirror image."""
    if isinstance(m, FiniteModification):
        return {*m.removed, *(-x for x in m.removed)} | removed(m.base)
    if isinstance(m, FiniteUnion):
        return set().union(*map(removed, m.parts))
    return removed(m.base) if isinstance(m, Reflected) else set()


class Side:
    """One coordinate of a box: the oracle's pieces of the 1-D factor,
    coalesced, whether it accumulates at 0, and its membership. Away from
    the removed points, the pieces hold exactly the members."""

    def __init__(self, m):
        pieces, acc = ([(m.lo, m.hi)], ()) if isinstance(m, Segment) \
            else oracle(m)
        self.pieces, self.acc = coalesce(pieces), bool(acc)
        self.los = [lo for lo, _ in self.pieces]
        holes = removed(m)
        self.member = lambda x: member(m, x) if x in holes else self.covers(x)

    def covers(self, x):
        i = bisect.bisect_right(self.los, x)
        return i > 0 and x <= self.pieces[i - 1][1]

    def distance(self, x):
        i = bisect.bisect_right(self.los, x)
        near = [abs(x)] if self.acc else []
        if i:
            near.append(max(F(0), x - self.pieces[i - 1][1]))
        if i < len(self.pieces):
            near.append(self.pieces[i][0] - x)
        return min(near)


class Planar:
    """The oracle's view of a planar model: a pair of sides per box."""

    def __init__(self, model):
        self.boxes = [(Side(x), Side(y)) for x, y in boxes(model)]

    def contains(self, point):
        return any(xs.member(point[0]) and ys.member(point[1])
                   for xs, ys in self.boxes)

    def squared_distances(self, point):
        return [xs.distance(point[0]) ** 2 + ys.distance(point[1]) ** 2
                for xs, ys in self.boxes]

    def squared_distance(self, point):
        return min(self.squared_distances(point))


def coordinates(side, targets=()):
    """Sample coordinates of one side of a source box inside [-W, W],
    nearest 0 first: its piece ends, and the midpoint of every gap between
    the pieces of a target side, or of all of them, where it meets a
    source piece. The distance to a target side peaks there or at a piece
    end; so does the distance to a union of boxes that share one side.
    Within TINY of 0 the oracle stops listing an accumulation, so a piece
    end or a gap midpoint there may be measured against blocks that are
    not listed: both are dropped."""
    ends = (max(-W, min(end, W)) for a, b in side.pieces
            if a <= W and b >= -W for end in (a, b))
    out = {end for end in ends if not 0 < abs(end) < TINY}
    every = coalesce(piece for t in targets for piece in t.pieces)
    for listed in [t.pieces for t in targets] + [every]:
        for (_, g1), (g2, _) in zip(listed, listed[1:]):
            mid = (g1 + g2) / 2
            if abs(mid) <= W and not 0 < abs(mid) < TINY \
                    and side.covers(mid):
                out.add(mid)
    return sorted(out, key=lambda x: (abs(x), x))


def pareto(side, targets):
    """The sample coordinates whose distances to the target sides no other
    one beats on every side: the sup over a box is attained among them."""
    rows = sorted(((tuple(t.distance(c) for t in targets), c)
                   for c in coordinates(side, targets)), reverse=True)
    kept = []
    for dist, c in rows:
        if not any(all(k >= d for k, d in zip(kd, dist)) for kd, _ in kept):
            kept.append((dist, c))
    return [c for _, c in kept]


def sup_samples(source, target):
    """Source points among which the largest sampled distance to the
    target is attained, box by box."""
    out = []
    for xs, ys in source.boxes:
        us = pareto(xs, [t[0] for t in target.boxes])
        vs = pareto(ys, [t[1] for t in target.boxes])
        out += [(u, v) for u in us for v in vs]
    return out


def sqrt_up(x):
    """A rational at least sqrt(x) and within 10**-6 of it."""
    return F(math.isqrt(math.ceil(x * 10 ** 12)) + 1, 10 ** 6)


@settings(max_examples=150, deadline=None)
@given(model=PLANAR, point=POINTS)
def test_product_membership_and_nearest_points_match_the_oracle(model,
                                                                point):
    planar = Planar(model)
    assert contains(model, point) == planar.contains(point)
    d2 = planar.squared_distance(point)
    # attained where a nearest box attains the distance in both coordinates
    attained = any(
        box_d2 == d2 and all(
            any(side.member(x + s * side.distance(x)) for s in (-1, 1))
            for side, x in zip(box, point))
        for box, box_d2 in zip(planar.boxes,
                               planar.squared_distances(point)))
    try:
        near = nearest_point(model, point)
    except UnsupportedGeometryError:
        assert not attained
        near = nearest_point(model, point, eps=F(1, 64))
        assert planar.contains(near)
        assert squared(point, near) <= (sqrt_up(d2) + F(1, 64)) ** 2
    else:
        assert planar.contains(near)
        assert squared(point, near) == d2


@settings(max_examples=150, deadline=None)
@given(source=PLANAR, target=PLANAR)
# the source piece end 3**-26 lies below the target's lowest listed block
# 2**-41, though GeometricBlocks(2, 1, 2) covers all of (0, inf)
@example(source=Product2D(Ray(F(0), -1), GeometricBlocks(F(3), F(1), F(5, 4))),
         target=Product2D(Reflected(Ray(F(0), 1)),
                          GeometricBlocks(F(2), F(1), F(2))))
def test_product_sups_and_subsets_hold_on_the_samples(source, target):
    src, tgt = Planar(source), Planar(target)
    worst = max(map(tgt.squared_distance, sup_samples(src, tgt)))
    got = sup_distance(source, target)
    if got.kind == "value":
        assert worst <= got.value ** 2
        # attained, or approached where a removed point or an
        # accumulation at 0 keeps it from being attained
        assert worst >= max(F(0), got.value - F(1, 10 ** 6)) ** 2
    elif got.kind == "infinite":
        assert worst > 0
    else:
        assert got.value is None or worst <= got.value ** 2
        # only a factor sup that is unknown, or an irrational hypotenuse
        (xs,), (xt,) = ({x for x, _ in boxes(m)} for m in (source, target))
        ys, yt = (FiniteUnion(tuple(y for _, y in boxes(m)))
                  for m in (source, target))
        x_sup, y_sup = sup_distance(xs, xt), sup_distance(ys, yt)
        assert not (x_sup.finite and y_sup.finite) or not is_square(
            x_sup.value ** 2 + y_sup.value ** 2)
    if is_structural_subset(source, target):
        assert got.kind == "value" and got.value == 0
        for xs, ys in src.boxes:
            us = [u for u in coordinates(xs)[:40] if xs.member(u)]
            vs = [v for v in coordinates(ys)[:40] if ys.member(v)]
            assert all(tgt.contains((u, v)) for u in us for v in vs)
