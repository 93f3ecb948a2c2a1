"""Differential test of every 1-D query derived from the component cursor.

Random union / modification / reflection trees up to depth 3 over the 1-D
leaves are checked against a brute-force oracle. The oracle lists each
leaf's components by its index formula inside [-B, B] (GeometricBlocks down
to the scale TINY, plus the side from which it accumulates at 0), applies
the combinators to those finite lists and answers every query by scanning
them; it never goes through the cursor.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from farfield import (
    FiniteModification,
    FiniteUnion,
    FullLine,
    GeometricBlocks,
    GeometricPoints,
    Lattice,
    PeriodicBlocks,
    Ray,
    Reflected,
    UnsupportedGeometryError,
    contains,
    distance_to_set,
    longest_gap,
    max_element,
    min_element,
    nearest_point,
    next_point_ge,
    prev_point_le,
    window_structure,
)
from farfield.setmodels import (
    intersects_open_interval,
    is_nonnegative_model,
    points_in_open_interval,
)

B = F(200)
TINY = F(1, 10**12)
QUERY_SPAN = 12  # query points and windows stay inside [-12, 12]


# ---------------------------------------------------------------------------
# Oracle


def oracle(model, B=B):
    """(pieces, acc): closed pieces (lo, hi) of the set clipped to [-B, B],
    uncoalesced, and the sides (+1 above, -1 below) from which it
    accumulates at 0."""
    if isinstance(model, Lattice):
        k_lo = math.ceil((-B - model.offset) / model.step)
        k_hi = math.floor((B - model.offset) / model.step)
        return [(model.point(k), model.point(k))
                for k in range(k_lo, k_hi + 1) if model.k_range_ok(k)], set()
    if isinstance(model, Ray):
        if model.direction == 1:
            return [(model.origin, B)], set()
        return [(-B, model.origin)], set()
    if isinstance(model, FullLine):
        return [(-B, B)], set()
    if isinstance(model, GeometricPoints):
        out, n = [], model.n0
        while model.point(n) <= B:
            out.append((model.point(n), model.point(n)))
            n += 1
        return out, set()
    if isinstance(model, GeometricBlocks):
        out, n = [], 0
        while model.block(n)[1] >= TINY:
            n -= 1
        while model.block(n)[0] <= B:
            lo, hi = model.block(n)
            out.append((lo, min(hi, B)))
            n += 1
        return out, {1}
    if isinstance(model, PeriodicBlocks):
        out, k = [], 0
        while model.offset + k * model.period <= B:
            base = model.offset + k * model.period
            out += [(base + lo, min(base + hi, B))
                    for lo, hi in model.blocks if base + lo <= B]
            k += 1
        return out, set()
    if isinstance(model, FiniteUnion):
        pieces, acc = [], set()
        for part in model.parts:
            got, side = oracle(part, B)
            pieces += got
            acc |= side
        return pieces, acc
    if isinstance(model, FiniteModification):
        pieces, acc = oracle(model.base, B)
        pieces = [(a, b) for a, b in pieces
                  if a != b or a not in model.removed]
        pieces += [(a, a) for a in model.added
                   if a not in model.removed and abs(a) <= B]
        return pieces, acc
    if isinstance(model, Reflected):
        pieces, acc = oracle(model.base, B)
        return [(-b, -a) for a, b in pieces], {-s for s in acc}
    raise AssertionError(f"oracle has no case for {model!r}")


def member(model, x):
    if isinstance(model, FiniteModification):
        if x in model.removed:
            return False
        return x in model.added or member(model.base, x)
    if isinstance(model, FiniteUnion):
        return any(member(p, x) for p in model.parts)
    if isinstance(model, Reflected):
        return member(model.base, -x)
    return any(a <= x <= b for a, b in oracle(model)[0])


def o_distance(pieces, acc, x):
    return min([max(a - x, x - b, F(0)) for a, b in pieces]
               + ([abs(x)] if acc else []))


# The accumulation at 0 from above sorts after every piece with lo <= 0 and
# before the rest; from below, before every piece with hi < 0 when
# descending. Sort keys: (lo, 0, hi) for pieces, (0, 1, 0) for the marker.
ABOVE, BELOW = (F(0), 1, F(0)), (F(0), -1, F(0))


def o_next(pieces, acc, x):
    items = [(a, 0, b) for a, b in pieces if b >= x]
    if 1 in acc and x <= 0:
        items.append(ABOVE)
    if not items:
        return None
    first = min(items)
    return None if first == ABOVE else max(x, first[0])


def o_prev(pieces, acc, x):
    items = [(b, 0, a) for a, b in pieces if a <= x]
    if -1 in acc and x >= 0:
        items.append(BELOW)
    if not items:
        return None
    first = max(items)
    return None if first == BELOW else min(x, first[0])


def o_extreme(model, direction):
    """min (direction +1) or max (-1) of the set: an end that moves when
    the listing bound grows past the next point of every leaf is
    unbounded."""
    ends = []
    for bound in (B, 4 * B):
        pieces, acc = oracle(model, bound)
        if direction == 1:
            first = min([(a, 0, b) for a, b in pieces]
                        + ([ABOVE] if 1 in acc else []))
        else:
            first = max([(b, 0, a) for a, b in pieces]
                        + ([BELOW] if -1 in acc else []))
        ends.append(first[:2])
    first = ends[0]
    if first != ends[1] or first[1] != 0:
        return None
    return first[0] if member(model, first[0]) else None


def o_meets(acc, lo, hi):
    return (1 in acc and lo <= 0 < hi) or (-1 in acc and lo < 0 <= hi)


def o_intersects(pieces, acc, lo, hi):
    return o_meets(acc, lo, hi) or any(a < hi and b > lo for a, b in pieces)


def o_points(pieces, acc, lo, hi, limit):
    items = sorted([(a, 0, b) for a, b in pieces if a < hi and b > lo]
                   + ([ABOVE] if 1 in acc and lo <= 0 < hi else []))
    out = []
    for item in items:
        if len(out) >= limit:
            break
        if item == ABOVE or item[0] != item[2]:
            return None
        if not out or out[-1] != item[0]:
            out.append(item[0])
    return out


def coalesce(items):
    out = []
    for lo, hi in sorted(items):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def o_window(pieces, lo, hi):
    return coalesce((max(a, lo), min(b, hi))
                    for a, b in pieces if a <= hi and b >= lo)


def beyond(intervals, r):
    """The intervals cut down to |x| >= r."""
    out = []
    for a, b in intervals:
        if b >= r:
            out.append((max(a, r), b))
        if a <= -r:
            out.append((a, min(b, -r)))
    return coalesce(out)


def o_longest_gap(pieces, acc, h):
    best = prev = F(0)
    for a, b in o_window(pieces, F(0), h):
        if prev > 0 or 1 not in acc:  # nothing is listed below TINY
            best = max(best, a - prev)
        prev = b
    return max(best, h - prev)


# ---------------------------------------------------------------------------
# Random model trees


def fractions(lo, hi, den):
    return st.integers(lo * den, hi * den).map(lambda k: F(k, den))


LEAVES = st.one_of(
    st.builds(Lattice, st.sampled_from([F(1, 2), F(1), F(3, 2), F(2)]),
              fractions(-2, 2, 4), st.sampled_from(["full", "plus", "minus"])),
    st.builds(Ray, fractions(-3, 3, 2), st.sampled_from([1, -1])),
    st.just(FullLine()),
    st.builds(GeometricPoints, st.sampled_from([F(3, 2), F(2), F(3)]),
              st.sampled_from([F(1, 4), F(1, 2), F(1), F(3, 2)]),
              st.integers(-2, 2)),
    st.sampled_from([GeometricBlocks(F(q), F(1), b) for q, b in (
        (2, F(3, 2)), (2, F(2)), (3, F(5, 4)), (3, F(2)), (4, F(2)))]),
    st.builds(PeriodicBlocks, st.sampled_from([F(2), F(3)]),
              st.sampled_from([((F(0), F(0)),), ((F(1, 2), F(1)),),
                               ((F(0), F(1, 2)), (F(1), F(1)))]),
              fractions(-2, 2, 2)),
)
# removed points aimed at the leaves' small points, plus 0
HITS = st.one_of(fractions(-4, 4, 4),
                 st.sampled_from([F(0), F(1, 4), F(9, 4), F(3), F(9, 2)]))


def trees(depth):
    if depth == 0:
        return LEAVES
    sub = trees(depth - 1)
    return st.one_of(
        LEAVES,
        st.lists(sub, min_size=2, max_size=3).map(
            lambda parts: FiniteUnion(tuple(parts))),
        st.builds(lambda base, added, removed: FiniteModification(
            base, tuple(added), tuple(removed)),
            sub, st.lists(fractions(-10, 10, 4), max_size=2),
            st.lists(HITS, max_size=2)),
        sub.map(Reflected),
    )


POINTS = fractions(-QUERY_SPAN, QUERY_SPAN, 8)


def windows():
    return st.tuples(POINTS, POINTS).filter(lambda w: w[0] != w[1]).map(
        lambda w: (min(w), max(w)))


# ---------------------------------------------------------------------------
# The differential checks


@settings(max_examples=150, deadline=None)
@given(model=trees(3), xs=st.lists(POINTS, min_size=1, max_size=5),
       spans=st.lists(windows(), min_size=1, max_size=3),
       limit=st.integers(1, 4))
def test_derived_queries_match_the_oracle(model, xs, spans, limit):
    pieces, acc = oracle(model)
    assert is_nonnegative_model(model) == (
        -1 not in acc and all(a >= 0 for a, _ in pieces))
    assert min_element(model) == o_extreme(model, 1)
    assert max_element(model) == o_extreme(model, -1)
    for x in xs:
        assert contains(model, x) == member(model, x), x
        d = o_distance(pieces, acc, x)
        assert distance_to_set(model, x) == d, x
        assert next_point_ge(model, x) == o_next(pieces, acc, x), x
        assert prev_point_le(model, x) == o_prev(pieces, acc, x), x
        attained = [c for c in (x - d, x + d) if member(model, c)]
        if attained:
            assert nearest_point(model, x) == attained[0], x
        else:
            with pytest.raises(UnsupportedGeometryError):
                nearest_point(model, x)
            near = nearest_point(model, x, eps=F(1, 64))
            assert member(model, near) and abs(near - x) <= d + F(1, 64)
    for lo, hi in spans:
        assert intersects_open_interval(model, lo, hi) \
            == o_intersects(pieces, acc, lo, hi), (lo, hi)
        assert points_in_open_interval(model, lo, hi, limit) \
            == o_points(pieces, acc, lo, hi, limit), (lo, hi)
        ws = window_structure(model, lo, hi)
        expected = o_window(pieces, lo, hi)
        assert (ws.truncated_below is not None) == o_meets(acc, lo, hi)
        if ws.truncated_below is None:
            assert list(ws.intervals) == expected, (lo, hi)
        else:
            # exact beyond the scale; below it only the marker remains
            r = max(-lo, hi) / 2**20
            assert 0 < ws.truncated_below < r
            assert beyond(ws.intervals, r) == beyond(expected, r), (lo, hi)
        if is_nonnegative_model(model) and hi > 0:
            try:
                gap = longest_gap(model, hi)
            except UnsupportedGeometryError:
                assert acc, "only a truncated window may stay inconclusive"
            else:
                assert gap == o_longest_gap(pieces, acc, hi), hi
