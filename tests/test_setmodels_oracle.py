"""Differential test of every 1-D query derived from the component cursor.

Random union / modification / reflection trees up to depth 3 over the 1-D
leaves are checked against a brute-force oracle. The oracle lists each
leaf's components by its index formula inside [-B, B] (GeometricBlocks down
to the scale TINY, plus the side from which it accumulates at 0), applies
the combinators to those finite lists and answers every query by scanning
them; it never goes through the cursor. The porosity walk `longest_gaps` is
also checked against per-horizon window decompositions on random
nonnegative trees, and the fields of `frames` against the oracle past
the reach. The same trees, with the planar kinds, check the JSON
round trips and `scale_model` at the oracle's piece ends.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from farfield import (
    FiniteModification,
    FiniteUnion,
    FullLine,
    GeometricBlocks,
    GeometricPoints,
    HalfPlaneStrip,
    Lattice,
    PeriodicBlocks,
    PlanarRay,
    Product2D,
    Ray,
    Reflected,
    InputError,
    UnsupportedGeometryError,
    contains,
    distance_to_set,
    longest_gap,
    longest_gaps,
    max_element,
    min_element,
    model_from_dict,
    model_from_json,
    model_to_dict,
    model_to_json,
    nearest_point,
    next_point_ge,
    prev_point_le,
    porosity_at_infinity,
    scale_model,
    window_structure,
)
from farfield import setmodels
from farfield.porosity import _grid
from farfield.setmodels import (
    ambient_dim,
    intersects_open_interval,
    is_nonnegative_model,
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


def trees(depth, leaves=LEAVES):
    if depth == 0:
        return leaves
    sub = trees(depth - 1, leaves)
    return st.one_of(
        leaves,
        st.lists(sub, min_size=2, max_size=3).map(
            lambda parts: FiniteUnion(tuple(parts))),
        st.builds(lambda base, added, removed: FiniteModification(
            base, tuple(added), tuple(removed)),
            sub, st.lists(fractions(-10, 10, 4), max_size=2),
            st.lists(HITS, max_size=2)),
        sub.map(Reflected),
    )


def geometric_leaves(rho):
    """GeometricPoints and GeometricBlocks leaves with bases rho**k, k in
    1..3: any tree over them rescales onto itself by a power of rho."""
    bases = st.integers(1, 3).map(lambda k: rho ** k)
    return st.one_of(
        st.builds(GeometricPoints, bases,
                  st.sampled_from([F(1, 2), F(1), F(3, 2)]),
                  st.integers(-1, 2)),
        st.builds(lambda q, b: GeometricBlocks(q, F(1), b), bases,
                  st.sampled_from([F(5, 4), F(3, 2)])))


# trees whose leaves all have bases in 2**N or in (3/2)**N, and pairs of them
COMMENSURABLE = st.sampled_from([F(2), F(3, 2)]).flatmap(
    lambda rho: trees(2, geometric_leaves(rho)))
COMMENSURABLE_PAIRS = st.sampled_from([F(2), F(3, 2)]).flatmap(
    lambda rho: st.tuples(*[trees(2, geometric_leaves(rho))] * 2))

POINTS = fractions(-QUERY_SPAN, QUERY_SPAN, 8)


def windows():
    return st.tuples(POINTS, POINTS).filter(lambda w: w[0] != w[1]).map(
        lambda w: (min(w), max(w)))


# ---------------------------------------------------------------------------
# The differential checks


@settings(max_examples=150, deadline=None)
@given(model=trees(3), xs=st.lists(POINTS, min_size=1, max_size=5),
       spans=st.lists(windows(), min_size=1, max_size=3))
def test_derived_queries_match_the_oracle(model, xs, spans):
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


# ---------------------------------------------------------------------------
# The porosity walk against per-horizon windows


NONNEG_LEAVES = st.one_of(
    st.builds(Lattice, st.sampled_from([F(1, 2), F(1), F(3, 2), F(2)]),
              fractions(0, 2, 4), st.just("plus")),
    st.builds(Ray, fractions(0, 6, 2), st.just(1)),
    st.builds(GeometricPoints, st.sampled_from([F(3, 2), F(2), F(3)]),
              st.sampled_from([F(1, 4), F(1, 2), F(1), F(3, 2)]),
              st.integers(-2, 2)),
    st.sampled_from([GeometricBlocks(F(q), F(1), b) for q, b in (
        (2, F(3, 2)), (2, F(2)), (3, F(5, 4)), (3, F(2)), (4, F(2)))]),
    st.builds(PeriodicBlocks, st.sampled_from([F(2), F(3)]),
              st.sampled_from([((F(0), F(0)),), ((F(1, 2), F(1)),),
                               ((F(0), F(1, 2)), (F(1), F(1)))]),
              fractions(0, 2, 2)),
)
# removed points aimed at block ends, geometric points and 0
NONNEG_HITS = st.one_of(fractions(0, 8, 4), st.sampled_from(
    [F(0), F(1, 4), F(1, 2), F(1), F(3, 2), F(2), F(9, 4), F(3), F(4)]))


def nonneg_trees(depth):
    if depth == 0:
        return NONNEG_LEAVES
    sub = nonneg_trees(depth - 1)
    return st.one_of(
        st.lists(sub, min_size=2, max_size=3).map(
            lambda parts: FiniteUnion(tuple(parts))),
        st.builds(lambda base, added, removed: FiniteModification(
            base, tuple(added), tuple(removed)),
            sub, st.lists(fractions(0, 20, 4), max_size=2),
            st.lists(NONNEG_HITS, max_size=3)),
    )


def window_gap(model, h):
    """l(h) read off the window decomposition of [0, h], one window per
    horizon: gaps counted from the truncation scale, inconclusive below
    it."""
    ws = window_structure(model, F(0), h)
    trunc = ws.truncated_below
    best = F(0)
    prev = F(0) if trunc is None else trunc
    for lo, hi in ws.intervals:
        best = max(best, lo - prev)
        prev = max(prev, hi)
    best = max(best, h - prev)
    if trunc is not None and best < trunc:
        raise UnsupportedGeometryError(
            "gap search inconclusive below the truncation scale")
    return best


def per_horizon(model, hs):
    """(gaps, message): window_gap up to the first horizon that raises,
    and that error's message (None when none does)."""
    gaps = []
    for h in hs:
        try:
            gaps.append(window_gap(model, h))
        except UnsupportedGeometryError as exc:
            return gaps, str(exc)
    return gaps, None


def assert_walk_matches_windows(model, hs):
    """The walk gives the per-horizon gaps, or raises the same error at
    the same horizon; returns per_horizon's answer."""
    gaps, message = per_horizon(model, hs)
    if message is None:
        assert longest_gaps(model, hs) == gaps
    else:
        with pytest.raises(UnsupportedGeometryError) as raised:
            longest_gaps(model, hs)
        assert str(raised.value) == message
        assert longest_gaps(model, hs[:len(gaps)]) == gaps
    return gaps, message


HORIZONS = st.sets(st.integers(1, 1600), min_size=1, max_size=6).map(
    lambda ks: [F(k, 8) for k in sorted(ks)])


@settings(max_examples=150, deadline=None)
@given(model=nonneg_trees(3), hs=HORIZONS,
       cap=st.sampled_from([60, setmodels.WINDOW_CAP]))
def test_longest_gaps_walk_matches_the_windows_and_the_oracle(model, hs,
                                                              cap):
    # A model with a period is walked only up to reach + 2 periods, and one
    # with a gap bound only until its longest gap meets the bound, so it
    # gets its exact gaps even where a window lists too many components.
    # It gives up only where the windows do: with "too rich", or with a
    # gap bound also by the truncation check of a later horizon.
    frame = setmodels.frames(model)[1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(setmodels, "WINDOW_CAP", cap)
        if frame.period is None and frame.gap is None:
            gaps, message = assert_walk_matches_windows(model, hs)
        else:
            window_gaps, window_message = per_horizon(model, hs)
            try:
                gaps, message = longest_gaps(model, hs), None
            except UnsupportedGeometryError as exc:
                assert str(exc) == window_message or (
                    frame.gap is not None and "truncation" in str(exc))
                gaps, message = window_gaps, window_message
                assert longest_gaps(model, hs[:len(gaps)]) == gaps
    pieces, acc = oracle(model)
    for h, gap in zip(hs, gaps):
        assert gap == o_longest_gap(pieces, acc, h), h
    if message is not None and cap > 60:
        assert acc, "only a truncated window may stay inconclusive"


# Trees without a period or a gap bound, whose walk is seeded at the first
# horizon by a descent: slow bases put many components below it.
FAR_BASES = [F(9, 8), F(5, 4), F(3, 2), F(2), F(3)]
FAR_LEAVES = st.one_of(
    # a first point up to far past the horizons: the lead gap can win
    st.builds(GeometricPoints, st.sampled_from(FAR_BASES),
              st.sampled_from([F(1, 2), F(1), F(3, 2)]), st.integers(-2, 40)),
    st.sampled_from([GeometricBlocks(q, F(1), b) for q, b in (
        (F(3, 2), F(5, 4)), (F(2), F(3, 2)), (F(2), F(2)), (F(3), F(5, 4)),
        (F(4), F(2)))]),
)
# removed points aimed at the points of FAR_LEAVES, which open gaps, and
# added points, 0 among them, which split gaps
FAR_HITS = st.builds(lambda q, c, n: c * q**n, st.sampled_from(FAR_BASES),
                     st.sampled_from([F(1, 2), F(1), F(3, 2)]),
                     st.integers(0, 100)).filter(lambda x: x <= 2**22)
FAR_ADDED = st.one_of(st.just(F(0)), st.integers(1, 2**22).map(F))


def far_combinators(sub):
    return st.one_of(
        st.lists(sub, min_size=2, max_size=3).map(
            lambda parts: FiniteUnion(tuple(parts))),
        st.builds(lambda base, added, removed: FiniteModification(
            base, tuple(added), tuple(removed)),
            sub, st.lists(FAR_ADDED, max_size=2),
            st.lists(FAR_HITS, max_size=3)))


# a combinator at the root: a bare leaf answers by its closed form
FAR_TREES = far_combinators(st.recursive(FAR_LEAVES, far_combinators,
                                         max_leaves=3))
FAR_HORIZONS = st.sets(st.integers(2**15, 2**25), min_size=1,
                       max_size=5).map(lambda ks: [F(k, 8) for k in sorted(ks)])


@settings(max_examples=150, deadline=None)
@given(model=FAR_TREES, hs=FAR_HORIZONS)
# one point below the horizon: the lead gap from 0 wins
@example(model=FiniteModification(GeometricPoints(F(3, 2), F(1), 30)),
         hs=[F(2) ** 18])
def test_seeded_walk_matches_the_windows_and_the_oracle(model, hs):
    frame = setmodels.frames(model)[1]
    assert frame.period is None and frame.gap is None
    size = setmodels._window_bound(model, hs[-1])
    assert size <= setmodels.WINDOW_CAP
    for h in hs:  # the components each window lists, uncoalesced
        assert len(setmodels._window(model, F(0), h)[0]) <= size, h
    gaps, message = assert_walk_matches_windows(model, hs)
    pieces, acc = oracle(model, B=hs[-1])
    for h, gap in zip(hs, gaps):
        assert gap == o_longest_gap(pieces, acc, h), h
    if message is not None:
        assert acc, "only a truncated window may stay inconclusive"


@settings(max_examples=150, deadline=None)
@given(model=trees(3), steps=st.lists(st.integers(1, 96), min_size=1,
                                      max_size=6))
def test_frames_hold_past_the_reach(model, steps):
    sides = setmodels.frames(model)
    frame = sides[1]
    # reach and period are the same on both sides
    assert (sides[-1].reach, sides[-1].period) == (frame.reach, frame.period)
    pieces, _ = oracle(model)

    def inside(x):  # no added or removed point lies past the reach
        return any(a <= x <= b for a, b in pieces)

    shift = frame.period or F(1, 8)  # period 0: every shift is a period
    for x in (frame.reach + F(k, 8) for k in steps):
        if frame.period is not None:
            assert inside(x) == inside(x + shift), x
            assert inside(-x) == inside(-x - shift), -x
        for side in (1, -1):
            # a point removed just inside the reach can leave a hole just
            # past it, so the cover is checked one cover further out
            cover = sides[side].cover
            if cover is not None:
                far = side * (x + cover)
                assert distance_to_set(model, far) <= cover, far


@settings(max_examples=150, deadline=None)
@given(model=st.one_of(trees(3), COMMENSURABLE),
       steps=st.lists(st.integers(1, 96), min_size=1, max_size=6))
# log periods 64 (not 8) and none (not 2)
@example(model=FiniteUnion((GeometricPoints(F(4), F(1), 0),
                            GeometricPoints(F(8), F(1), 0))), steps=[1])
@example(model=FiniteUnion((GeometricPoints(F(3, 2), F(1), 0),
                            GeometricBlocks(F(2), F(1), F(3, 2)))), steps=[1])
def test_dilation_holds_past_the_reach(model, steps):
    for side, frame in setmodels.frames(model).items():
        if frame.rho is None:
            continue
        # the factor's reach is at most the frame's
        assert frame.rho_reach <= frame.reach
        rho = frame.rho if frame.rho > 1 else F(3, 2)  # 1: every factor
        top = frame.rho_reach * rho + 12
        pieces, _ = oracle(model, rho * top + 1)

        def inside(x):  # no added or removed point lies past the reach
            return any(a <= x <= b for a, b in pieces)

        # where membership changes: the piece ends, and the points that
        # one factor maps onto them (above the oracle's listing scale)
        ends = {side * e for piece in pieces for e in piece}
        xs = {frame.rho_reach + F(k, 8) for k in steps} | {
            x for e in ends for x in (e, e / rho)
            if max(frame.rho_reach, F(1, 64)) < x <= top}
        for x in xs:
            assert inside(side * x) == inside(side * rho * x), (side, x)


@settings(max_examples=150, deadline=None)
@given(model=nonneg_trees(3))
def test_gap_bound_holds_on_four_reaches(model):
    frame = setmodels.frames(model)[1]
    if frame.gap is not None:
        pieces, acc = oracle(model)
        assert o_longest_gap(pieces, acc, 4 * frame.reach) <= frame.gap


def mirrored(model):
    """The reflection of a tree, pushed down to its leaves."""
    if isinstance(model, Lattice):
        half = {"full": "full", "plus": "minus", "minus": "plus"}[model.half]
        return Lattice(model.step, -model.offset, half)
    if isinstance(model, Ray):
        return Ray(-model.origin, -model.direction)
    if isinstance(model, FiniteUnion):
        return FiniteUnion(tuple(mirrored(p) for p in model.parts))
    if isinstance(model, FiniteModification):
        return FiniteModification(mirrored(model.base),
                                  tuple(-a for a in model.added),
                                  tuple(-r for r in model.removed))
    return Reflected(model)


@settings(max_examples=150, deadline=None)
@given(base=nonneg_trees(2))
def test_reflected_gap_bound_holds_on_four_reaches(base):
    # the same nonnegative set, its frame read through one reflection,
    # which swaps the sides
    model = Reflected(mirrored(base))
    sides, inner = setmodels.frames(model), setmodels.frames(model.base)
    assert all(sides[d] == inner[-d] for d in (-1, 1))
    # the leaf rules read the mirrored leaves as the base's, side for side
    frame = sides[1]
    assert frame == setmodels.frames(base)[1]
    assert (frame.gap is None) == (setmodels.frames(base)[1].gap is None)
    if frame.gap is not None:
        pieces, acc = oracle(model)
        assert o_longest_gap(pieces, acc, 4 * frame.reach) <= frame.gap


# ---------------------------------------------------------------------------
# The tree read as its leaves


def geometric_parts(model):
    """The GeometricPoints and GeometricBlocks reached through unions,
    modifications and double reflections (the same set); a single
    reflection hides its subtree."""
    if isinstance(model, FiniteUnion):
        return [leaf for part in model.parts for leaf in geometric_parts(part)]
    if isinstance(model, FiniteModification):
        return geometric_parts(model.base)
    if isinstance(model, Reflected) and isinstance(model.base, Reflected):
        return geometric_parts(model.base.base)
    return [model] if isinstance(model, (GeometricPoints,
                                         GeometricBlocks)) else []


@settings(max_examples=150, deadline=None)
@given(model=trees(3), xs=st.lists(POINTS, min_size=1, max_size=8),
       sign=st.sampled_from([1, -1]))
# a point added below and removed above, and one added and removed at once
@example(model=FiniteModification(FiniteUnion((
    FiniteModification(Lattice(F(1), F(0)), added=(F(1, 2), F(3, 2)),
                       removed=(F(3, 2),)),
    Ray(F(3)))), removed=(F(1, 2), F(1))), xs=[F(1, 4)], sign=-1)
def test_leaves_reassemble_membership(model, xs, sign):
    points, found = setmodels.leaves(model, sign)
    tree = model if sign == 1 else Reflected(model)
    removed = {x for _, rem in found for x in rem}
    for x in {*xs, *points, *removed}:
        assert member(tree, x) == (x in points or any(
            member(leaf, x) and x not in rem for leaf, rem in found)), x


@settings(max_examples=150, deadline=None)
@given(model=trees(3), lo=fractions(0, 4, 16).filter(lambda x: x > 0),
       width=fractions(0, 180, 4))
def test_critical_horizons_are_the_geometric_component_starts(model, lo,
                                                              width):
    hi = lo + width  # below B, so the oracle lists every start
    want = {a for leaf in geometric_parts(model) for a, _ in oracle(leaf)[0]
            if lo <= a <= hi}
    assert setmodels.critical_gap_h_values(model, lo, hi) == tuple(
        sorted(want))


def test_longest_gaps_reads_two_periods_past_the_reach():
    # reach 8 and period 3; the added points split every gap of length 3
    # below the reach, and the first one left runs from 37/4 to 49/4,
    # across reach + p = 11
    model = FiniteModification(Lattice(F(3), F(1, 4), "plus"),
                               added=(F(7, 4), F(19, 4), F(7)))
    assert longest_gaps(model, [F(13), F(2) ** 40]) == [F(3), F(3)]


def test_frames_have_no_window_law_in_the_plane():
    with pytest.raises(UnsupportedGeometryError, match="no window law"):
        setmodels.frames(setmodels.PlanarRay())


GB2 = GeometricBlocks(F(2), F(1), F(3, 2))
GP2 = GeometricPoints(F(2), F(1), 0)


@pytest.mark.parametrize("model, hs, expected", [
    # 41 lattice points up to 20, 81 up to 40: the windows give up at 40,
    # the walk stops at the gap bound 1/2 and answers every horizon
    (FiniteUnion((Lattice(F(1, 2), F(0), "plus"), GP2)),
     [F(1), F(10), F(20), F(40), F(80)], [F(1, 2)] * 5),
    # the window up to 2**30 lists only the blocks above 2**10, while the
    # walk from the scale of h = 1 has passed 20 blocks more
    (FiniteUnion((GB2, GP2)), [F(1), F(2) ** 30], [F(1, 4), F(2) ** 28]),
    (FiniteUnion((GB2, Lattice(F(1), F(0), "plus"))),
     [F(1), F(16), F(32), F(64)], [F(1, 4), F(1), F(1), F(1)]),
    (FiniteModification(FiniteUnion((GB2, GeometricPoints(F(3), F(1), 0))),
                        added=(F(5),), removed=(F(1),)),
     [F(1, 4), F(3), F(2) ** 20, F(2) ** 40],
     [F(1, 16), F(1, 2), F(2) ** 18, F(252223018333)]),
])
def test_longest_gaps_applies_the_window_cap_as_the_windows_do(
        monkeypatch, model, hs, expected):
    monkeypatch.setattr(setmodels, "WINDOW_CAP", 60)
    if setmodels.frames(model)[1].gap is None:
        assert_walk_matches_windows(model, hs)
    else:  # it may answer where the windows give up
        gaps, _ = per_horizon(model, hs)
        assert longest_gaps(model, hs)[:len(gaps)] == gaps
    if len(expected) < len(hs):
        with pytest.raises(UnsupportedGeometryError,
                           match="window structure too rich"):
            longest_gaps(model, hs)
    assert longest_gaps(model, hs[:len(expected)]) == expected


def test_longest_gaps_keeps_the_components_at_zero():
    # [0, inf) covers every gap; without it the blocks would leave gaps
    model = FiniteUnion((Ray(F(0), 1), GB2))
    with pytest.raises(UnsupportedGeometryError, match="truncation"):
        longest_gaps(model, [F(1, 8)])
    with pytest.raises(UnsupportedGeometryError, match="truncation"):
        longest_gap(model, F(1, 8))


def test_truncation_reads_few_components_under_a_ray(monkeypatch):
    # [1, inf) holds start = 1 at every large scale; a cursor from the
    # scale 2**40 would pass 2**41 lattice points before the block [1/2, 3/4]
    model = FiniteUnion((GB2, Ray(F(1), 1), Lattice(F(1, 2), F(0), "plus")))
    components = setmodels.components

    def bounded(*args):
        for n, c in enumerate(components(*args)):
            assert n < 100, "read too many components"
            yield c

    monkeypatch.setattr(setmodels, "components", bounded)
    assert setmodels._truncation(model, F(2) ** 60) == (F(1), F(3, 4))


@pytest.mark.parametrize("model", [
    GP2, FiniteUnion((GP2, Lattice(F(1), F(0), "plus")))])
def test_longest_gaps_rejects_descending_horizons(model):
    with pytest.raises(InputError, match="ascend"):
        longest_gaps(model, [F(2), F(1)])


def test_porosity_of_the_pinned_union_lists_no_window(count_calls):
    calls = count_calls(setmodels, "window_structure", "longest_gaps")
    model = FiniteUnion((GeometricPoints(F(12, 11), F(1), 0),
                         GeometricPoints(F(12, 11), F(23, 22), 0)))
    result = porosity_at_infinity(model, 180)
    assert calls == {"window_structure": 0, "longest_gaps": 1}
    assert result.value == F(1, 23) and len(result.trace) == 100


def test_the_seeded_walk_reads_few_components_of_the_pinned_union(
        monkeypatch):
    # the walk from 0 read 721 components, every point below the last
    # horizon 2**45; the descent from 2**40 stops near 2**40/23, where no
    # lower gap can beat the gap already seen
    model = FiniteUnion((GeometricPoints(F(12, 11), F(1), 0),
                         GeometricPoints(F(12, 11), F(23, 22), 0)))
    hs = _grid(model, 180)
    read = []

    def counted(cursor):
        def walk(m, x):
            for c in cursor(m, x):
                read.append(c)
                yield c
        return walk

    monkeypatch.setitem(setmodels._CURSORS, GeometricPoints, tuple(
        map(counted, setmodels._CURSORS[GeometricPoints])))
    setmodels.longest_gaps(model, hs)
    assert len(read) == 161


# ---------------------------------------------------------------------------
# The grid walk against the oracle


# a grid point: a repeat, a close neighbour (windows that overlap) or a
# jump that leaves the cursor behind (it must re-seek), and t < 0 as well,
# since grid_hits answers any window (p + (t - eps) r, p + (t + eps) r)
GRID_TS = fractions(-2, 6, 8)
RADII = st.sampled_from([F(1, 2), F(1), F(3, 2), F(2), F(4), F(8)])
EPSILONS = st.sampled_from([F(1, 16), F(1, 8), F(1, 4), F(3, 4)])


@settings(max_examples=150, deadline=None)
@given(model=trees(3), data=st.data(),
       budget=st.sampled_from([1, 2, setmodels.SEEK_AFTER]))
def test_carried_sweep_matches_the_oracle(model, data, budget):
    pieces, acc = oracle(model)
    ends = sorted({e for piece in pieces for e in piece})
    near = [e for e in ends if abs(e) <= QUERY_SPAN]
    # a base point at a query point, at 0 (where GeometricBlocks
    # accumulates) or at a component end; windows stay inside [-B/2, B/2]
    p = data.draw(st.one_of(POINTS, st.just(F(0)),
                            st.sampled_from(near or [F(0)])))
    eps = data.draw(EPSILONS)
    grid = data.draw(st.lists(GRID_TS, min_size=1, max_size=12))
    radii = data.draw(st.lists(RADII, min_size=1, max_size=4))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(setmodels, "SEEK_AFTER", budget)
        got = setmodels.grid_hits(model, p, grid, eps, radii)
    windows = [[(p + (t - eps) * r, p + (t + eps) * r) for r in radii]
               for t in grid]
    assert got == [tuple(i for i, (lo, hi) in enumerate(row)
                         if o_intersects(pieces, acc, lo, hi))
                   for row in windows]
    assert got == [tuple(i for i, (lo, hi) in enumerate(row)
                         if intersects_open_interval(model, lo, hi))
                   for row in windows]


def test_carried_sweep_steps_past_the_accumulation_at_zero():
    # from lo <= 0 the blocks' cursor stops at the marker at 0; the walk
    # must re-seek to see the blocks above it. At r = 1 and eps = 1/16 the
    # windows are (-1/8, 0), (0, 1/8), (5/4, 11/8) twice, (31/16, 33/16)
    # and 2**20 -+ 1/16
    model = FiniteUnion((GB2, GeometricPoints(F(3), F(1), 0)))
    grid = [F(-1, 16), F(1, 16), F(21, 16), F(21, 16), F(2), F(2) ** 20]
    assert setmodels.grid_hits(model, F(0), grid, F(1, 16), [F(1)]) == [
        (), (0,), (0,), (0,), (0,), (0,)]
    assert setmodels.grid_hits(GB2, F(0), grid[2:3], F(1, 16), [F(1)]) \
        == [(0,)]


def test_cover_rule_needs_windows_wider_than_twice_the_cover():
    # past the reach 2 of a step-1 lattice (cover 1/2), the window (3, 4)
    # of eps * r = 1/2 holds no point; the wider (15/4, 5) holds 4
    lattice = Lattice(F(1), F(0), "plus")
    assert setmodels.grid_hits(lattice, F(0), [F(7, 4)], F(1, 4),
                               [F(2), F(5, 2)]) == [(1,)]


@settings(max_examples=100, deadline=None)
@given(model=trees(3), p=POINTS, eps=EPSILONS,
       grid=st.lists(GRID_TS, min_size=1, max_size=5).flatmap(
           lambda ts: st.permutations(ts * 2)),
       radii=st.lists(RADII, min_size=1, max_size=4))
def test_grid_hits_answer_an_unsorted_grid_like_its_sorted_set(
        model, p, eps, grid, radii):
    ts = sorted(set(grid))
    rows = dict(zip(ts, setmodels.grid_hits(model, p, ts, eps, radii)))
    assert setmodels.grid_hits(model, p, grid, eps, radii) \
        == [rows[t] for t in grid]


# ---------------------------------------------------------------------------
# JSON round trips and rescaling


PLANAR = st.one_of(
    st.builds(HalfPlaneStrip, fractions(-3, -1, 4), fractions(1, 3, 4)),
    st.just(PlanarRay()),
    st.builds(Product2D, trees(1), trees(1)),
)


def piece_ends(model):
    """The ends of the oracle's pieces inside [-12, 12] of a 1-D model; in
    the plane, pairs of a few of the factors' ends, or a grid that holds
    the edges of a strip or ray."""
    if isinstance(model, Product2D):
        xs, ys = piece_ends(model.x), piece_ends(model.y)
        return [(a, b) for a in xs[::len(xs) // 6 + 1]
                for b in ys[::len(ys) // 6 + 1]]
    if ambient_dim(model) == 2:
        return [(u, F(v, 4)) for u in (F(-1), F(0), F(1))
                for v in range(-13, 14)]
    pieces, _ = oracle(model, F(QUERY_SPAN))
    return sorted({end for piece in pieces for end in piece})


@settings(max_examples=150, deadline=None)
@given(model=st.one_of(trees(3), PLANAR),
       k=st.sampled_from([F(1, 2), F(2), F(3, 5), F(7, 3)]))
def test_models_round_trip_and_rescale(model, k):
    assert model_from_dict(model_to_dict(model)) == model
    assert model_from_json(model_to_json(model)) == model
    scaled = scale_model(model, k)
    for x in piece_ends(model):
        kx = (k * x[0], k * x[1]) if isinstance(x, tuple) else k * x
        assert contains(scaled, kx) == contains(model, x), x
