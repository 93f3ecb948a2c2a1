"""Membership, distance, gap, and window semantics of the 1-D set models.

Each oracle below re-derives the answer by bounded enumeration straight
from the constructor fields, so any drift between the closed forms in the
library and the intended set semantics shows up here.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from farfield import (
    FiniteModification,
    FiniteUnion,
    FullLine,
    GeometricBlocks,
    GeometricPoints,
    HalfPlaneStrip,
    InputError,
    Lattice,
    PeriodicBlocks,
    PlanarRay,
    Product2D,
    Ray,
    Reflected,
    SphereSlice,
    UnsupportedGeometryError,
    complement_components,
    contains,
    distance_to_set,
    longest_gap,
    max_element,
    min_element,
    model_from_dict,
    model_from_json,
    model_to_json,
    nearest_point,
    scale_model,
    sphere_slice,
)
from farfield import setmodels
from farfield.setmodels import Segment, components, frames, model_to_dict

F = Fraction


# ---------------------------------------------------------------------------
# Oracles


def member_oracle(model, x):
    """Membership by scanning indices instead of inverting closed forms."""
    if isinstance(model, Lattice):
        k0 = math.floor((x - model.offset) / model.step)
        return any(
            model.point(k) == x and model.k_range_ok(k)
            for k in range(k0 - 2, k0 + 3)
        )
    if isinstance(model, Ray):
        return x >= model.origin if model.direction == 1 else x <= model.origin
    if isinstance(model, FullLine):
        return True
    if isinstance(model, GeometricPoints):
        n = model.n0
        while model.point(n) <= x:
            if model.point(n) == x:
                return True
            n += 1
        return False
    if isinstance(model, GeometricBlocks):
        if x <= 0:
            return False
        for n in range(-80, 80):
            lo, hi = model.block(n)
            if lo <= x <= hi:
                return True
            if lo > x:
                break
        return False
    if isinstance(model, PeriodicBlocks):
        if x < model.offset:
            return False
        k = 0
        while model.offset + (k + 1) * model.period <= x:
            k += 1
        base = model.offset + k * model.period
        return any(base + lo <= x <= base + hi for lo, hi in model.blocks)
    if isinstance(model, FiniteUnion):
        return any(member_oracle(p, x) for p in model.parts)
    if isinstance(model, FiniteModification):
        if x in model.removed:
            return False
        return x in model.added or member_oracle(model.base, x)
    if isinstance(model, Reflected):
        return member_oracle(model.base, -x)
    raise AssertionError(f"oracle has no case for {model!r}")


def oracle_intervals(model, lo, hi):
    """E cap [lo, hi] by enumeration; requires lo > 0 for block models
    that accumulate at the origin."""
    out = []
    if isinstance(model, Lattice):
        k = math.ceil((lo - model.offset) / model.step)
        while model.point(k) <= hi:
            if model.k_range_ok(k) and model.point(k) >= lo:
                p = model.point(k)
                out.append((p, p))
            k += 1
    elif isinstance(model, Ray):
        if model.direction == 1 and model.origin <= hi:
            out.append((max(lo, model.origin), hi))
        elif model.direction == -1 and model.origin >= lo:
            out.append((lo, min(hi, model.origin)))
    elif isinstance(model, FullLine):
        out.append((lo, hi))
    elif isinstance(model, GeometricPoints):
        n = model.n0
        while model.point(n) <= hi:
            if model.point(n) >= lo:
                p = model.point(n)
                out.append((p, p))
            n += 1
    elif isinstance(model, GeometricBlocks):
        assert lo > 0, "oracle cannot enumerate down to the accumulation"
        for n in range(-200, 200):
            blo, bhi = model.block(n)
            if bhi < lo:
                continue
            if blo > hi:
                break
            out.append((max(blo, lo), min(bhi, hi)))
    elif isinstance(model, PeriodicBlocks):
        k = 0
        while model.offset + k * model.period <= hi:
            base = model.offset + k * model.period
            for blo, bhi in model.blocks:
                a, b = base + blo, base + bhi
                if b >= lo and a <= hi:
                    out.append((max(a, lo), min(b, hi)))
            k += 1
    elif isinstance(model, FiniteUnion):
        for p in model.parts:
            out.extend(oracle_intervals(p, lo, hi))
    elif isinstance(model, FiniteModification):
        base = oracle_intervals(model.base, lo, hi)
        # removing a point only moves the infimum when the point was
        # isolated; interior holes vanish under closure
        out.extend(iv for iv in base
                   if not (iv[0] == iv[1] and iv[0] in model.removed))
        out.extend((a, a) for a in model.added if lo <= a <= hi)
    elif isinstance(model, Reflected):
        out.extend((-b, -a) for a, b in oracle_intervals(model.base, -hi, -lo))
    else:
        raise AssertionError(f"oracle has no case for {model!r}")
    merged = []
    for a, b in sorted(out):
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return merged


def oracle_longest_gap(model, h):
    """Scan the enumerated intervals of [tiny, h] and take the widest
    uncovered stretch, counting the leading one from 0."""
    if isinstance(model, GeometricBlocks):
        lo = model.a * model.q ** -60
    else:
        lo = F(0)
    ivals = oracle_intervals(model, lo, F(h)) if lo > 0 else \
        oracle_intervals(model, F(0), F(h))
    best = F(0)
    prev = F(0)
    for a, b in ivals:
        best = max(best, a - prev)
        prev = max(prev, b)
    return max(best, F(h) - prev)


SAMPLE_MODELS = (
    Lattice(F(1), F(0)),
    Lattice(F(3, 2), F(-1, 3)),
    Lattice(F(2), F(5), "plus"),
    Lattice(F(1, 2), F(0), "minus"),
    Ray(F(0), 1),
    Ray(F(-7, 2), -1),
    FullLine(),
    GeometricPoints(F(2), F(1), 0),
    GeometricPoints(F(3, 2), F(4), -2),
    GeometricBlocks(F(4), F(1), F(2)),
    GeometricBlocks(F(3), F(5, 4), F(2)),
    PeriodicBlocks(F(3), ((F(0), F(1)), (F(3, 2), F(7, 4)))),
    PeriodicBlocks(F(2), ((F(1, 2), F(1, 2)),), F(5)),
    FiniteUnion((Ray(F(0), -1), Ray(F(1), 1))),
    FiniteUnion((Lattice(F(2), F(0)), Lattice(F(2), F(1, 2)))),
    FiniteModification(Lattice(F(1), F(0)), added=(F(1, 3),), removed=(F(2),)),
    Reflected(Ray(F(0), 1)),
)


def grid_points(lo, hi, denom=4):
    x = F(math.ceil(lo * denom), denom)
    while x <= hi:
        yield x
        x += F(1, denom)


# ---------------------------------------------------------------------------
# Membership


@pytest.mark.parametrize("model", SAMPLE_MODELS, ids=repr)
def test_contains_matches_enumeration(model):
    for x in grid_points(F(-6), F(20)):
        assert contains(model, x) == member_oracle(model, x), x


def test_contains_exact_members_only():
    gp = GeometricPoints(F(2), F(1), 0)
    assert contains(gp, F(16))
    assert not contains(gp, F(16) + F(1, 10**12))
    assert not contains(gp, F(1, 2))  # below n0
    lat = Lattice(F(1, 3), F(1, 7))
    assert contains(lat, F(1, 7) + 5 * F(1, 3))
    assert not contains(lat, F(1, 7) + F(1, 2))


# ---------------------------------------------------------------------------
# Distance and nearest point


@pytest.mark.parametrize("model", SAMPLE_MODELS, ids=repr)
def test_distance_matches_interval_oracle(model):
    for x in grid_points(F(1, 4), F(12), denom=3):
        pad = F(1)
        cands = []
        while not cands and pad < F(64):
            lo = max(x - pad, F(1, 10**9)) if isinstance(
                model, GeometricBlocks) else x - pad
            cands = oracle_intervals(model, lo, x + pad)
            pad *= 2
        if not cands:
            continue
        want = min(max(F(0), a - x, x - b) for a, b in cands)
        assert distance_to_set(model, x) == want, x


def test_distance_to_accumulating_blocks_from_left():
    gb = GeometricBlocks(F(4), F(1), F(2))
    # blocks pile up at 0, so the infimum from any x <= 0 is |x|
    assert distance_to_set(gb, F(0)) == 0
    assert distance_to_set(gb, F(-3)) == 3


def test_nearest_point_is_member_at_exact_distance():
    for model in SAMPLE_MODELS:
        for x in (F(1, 3), F(7, 2), F(11)):
            d = distance_to_set(model, x)
            try:
                p = nearest_point(model, x)
            except UnsupportedGeometryError:
                continue
            assert contains(model, p)
            assert abs(p - x) == d


def test_nearest_point_unattained_infimum_needs_eps():
    gb = GeometricBlocks(F(4), F(1), F(2))
    with pytest.raises(UnsupportedGeometryError):
        nearest_point(gb, F(-1))
    p = nearest_point(gb, F(-1), eps=F(1, 100))
    assert contains(gb, p)
    assert abs(p - F(-1)) <= 1 + F(1, 100)


def test_removed_isolated_point_moves_the_distance():
    m = FiniteModification(Lattice(F(1), F(0)), removed=(F(3),))
    assert distance_to_set(m, F(3)) == 1  # neighbors at 2 and 4
    assert nearest_point(m, F(3)) == 2  # tie breaks low


def test_removed_interior_point_keeps_zero_infimum():
    m = FiniteModification(Ray(F(0), 1), removed=(F(3),))
    assert distance_to_set(m, F(3)) == 0
    with pytest.raises(UnsupportedGeometryError):
        nearest_point(m, F(3))
    p = nearest_point(m, F(3), eps=F(1, 16))
    assert p != 3 and contains(m, p) and abs(p - 3) <= F(1, 16)


# ---------------------------------------------------------------------------
# Gaps


GAP_MODELS = (
    Lattice(F(1), F(0), "plus"),
    Lattice(F(3, 2), F(2), "plus"),
    GeometricPoints(F(2), F(1), 0),
    GeometricPoints(F(5, 2), F(1, 2), 1),
    GeometricBlocks(F(4), F(1), F(2)),
    GeometricBlocks(F(2), F(1), F(3, 2)),
    PeriodicBlocks(F(3), ((F(0), F(1)), (F(3, 2), F(7, 4)))),
    PeriodicBlocks(F(2), ((F(1, 2), F(1, 2)),), F(5)),
    Ray(F(4), 1),
    FiniteUnion((Lattice(F(2), F(0), "plus"), Lattice(F(3), F(1), "plus"))),
)


@pytest.mark.parametrize("model", GAP_MODELS, ids=repr)
def test_longest_gap_matches_scan(model):
    for h in (F(1), F(3, 2), F(4), F(7), F(16), F(33, 2), F(64)):
        assert longest_gap(model, h) == oracle_longest_gap(model, h), h


def test_longest_gap_rejects_two_sided_models():
    with pytest.raises(InputError):
        longest_gap(FullLine(), F(10))
    with pytest.raises(InputError):
        longest_gap(Lattice(F(1), F(0)), F(10))


# ---------------------------------------------------------------------------
# Complement components in a window [-h, h]


@pytest.mark.parametrize(
    "model",
    [m for m in SAMPLE_MODELS if not isinstance(
        m, (FiniteModification, Reflected, FullLine))],
    ids=repr,
)
def test_window_structure_matches_enumeration(model):
    # the complement in [-h, h], read off the set enumerated over
    # [-3h, 3h] (above the accumulation scale for blocks at 0)
    h = max(setmodels.required_window(model), F(18))
    blocks = isinstance(model, GeometricBlocks)
    lo = h / 2**10 if blocks else -3 * h
    ivals = oracle_intervals(model, lo, 3 * h)
    got = complement_components(model, h)
    assert (got.truncated_below is not None) == blocks
    assert [g for g in got.bounded if g[0] >= lo] == [
        (b1, a2) for (_, b1), (a2, _) in zip(ivals, ivals[1:])
        if a2 > -h and b1 < h]
    # each set here that is bounded on one side ends inside [-h, h]
    tails = [("left", ivals[0][0])] if not blocks and ivals[0][0] > -h \
        else []
    if ivals[-1][1] < h:
        tails.append(("right", ivals[-1][1]))
    assert list(got.unbounded) == tails


def test_window_keeps_hull_on_interior_removal():
    m = FiniteModification(Ray(F(0), 1), removed=(F(2),))
    got = complement_components(m, F(5))
    assert got.bounded == () and got.unbounded == (("left", F(0)),)
    assert got.punctures == (F(2),)


def test_window_drops_removed_isolated_point():
    m = FiniteModification(Lattice(F(1), F(0)), removed=(F(2),))
    got = complement_components(m, F(4))
    assert (F(1), F(3)) in got.bounded
    assert (F(1), F(2)) not in got.bounded and (F(2), F(3)) not in got.bounded
    assert got.punctures == ()


def test_window_truncation_marker_for_accumulating_blocks():
    gb = GeometricBlocks(F(4), F(1), F(2))
    got = complement_components(gb, F(8))
    assert got.truncated_below is not None
    assert got.truncated_below <= F(8) / 2**20
    # every gap reported sits above the marker, and no tail runs into it
    assert all(a >= got.truncated_below for a, _ in got.bounded)
    assert got.bounded and got.unbounded == ()


def test_window_intervals_sorted_disjoint():
    for model in SAMPLE_MODELS:
        got = complement_components(
            model, max(setmodels.required_window(model), F(10)))
        for (a1, b1), (a2, b2) in zip(got.bounded, got.bounded[1:]):
            assert a1 < b1 <= a2 < b2


# ---------------------------------------------------------------------------
# Scaling


@given(
    num=st.integers(min_value=1, max_value=9),
    den=st.integers(min_value=1, max_value=9),
    x_num=st.integers(min_value=-40, max_value=40),
    x_den=st.integers(min_value=1, max_value=6),
    idx=st.integers(min_value=0, max_value=len(SAMPLE_MODELS) - 1),
)
@settings(max_examples=150, deadline=None)
def test_scale_model_membership_commutes(num, den, x_num, x_den, idx):
    k = F(num, den)
    x = F(x_num, x_den)
    model = SAMPLE_MODELS[idx]
    assert contains(scale_model(model, k), k * x) == contains(model, x)


def test_scale_model_scales_distances():
    gb = GeometricBlocks(F(4), F(1), F(2))
    for x in (F(5, 2), F(9), F(100, 7)):
        assert distance_to_set(scale_model(gb, F(3)), 3 * x) \
            == 3 * distance_to_set(gb, x)


# ---------------------------------------------------------------------------
# Extremes, slices, serialization


def test_min_max_elements():
    assert min_element(Ray(F(2), 1)) == 2
    assert max_element(Ray(F(2), -1)) == 2
    assert min_element(Lattice(F(3), F(1), "plus")) == 1
    assert max_element(Lattice(F(3), F(1), "minus")) == 1
    assert min_element(GeometricPoints(F(2), F(3), 2)) == 12
    assert min_element(PeriodicBlocks(F(2), ((F(1, 2), F(1)),), F(4))) \
        == F(9, 2)
    assert min_element(FullLine()) is None
    assert max_element(Ray(F(0), 1)) is None


def test_min_max_after_removing_the_minimum():
    # the minimum is found past removed points of any base, nested or not
    nested = FiniteModification(
        FiniteModification(GeometricPoints(F(2), F(1), 0)),
        added=(F(55, 2), F(20, 3)), removed=(F(4), F(1)))
    union = FiniteModification(
        FiniteUnion((GeometricPoints(F(2), F(1), 0),
                     Lattice(F(3), F(1), "plus"))), removed=(F(1),))
    assert min_element(nested) == 2
    assert min_element(union) == 2
    assert max_element(Reflected(nested)) == -2
    # an infimum at a removed point or at an accumulation is not attained
    assert min_element(FiniteModification(Ray(F(0), 1),
                                          removed=(F(0),))) is None
    assert min_element(GeometricBlocks(F(4), F(1), F(2))) is None


def test_sphere_slice_line_cases():
    lat = Lattice(F(1), F(0))
    s = sphere_slice(lat, F(1, 2), F(1, 2))
    assert s.kind == "points" and set(s.points) == {F(0), F(1)}
    s0 = sphere_slice(lat, F(3), F(0))
    assert s0.points == (F(3),)
    missing = sphere_slice(lat, F(1, 2), F(1, 4))
    assert missing.is_empty()


def test_sphere_slice_strip_arc_clamps():
    strip = HalfPlaneStrip(F(-1), F(2))
    arc = sphere_slice(strip, (F(4), F(0)), F(3))
    assert arc.kind == "arc"
    assert arc.v_lo == -1 and arc.v_hi == 2
    small = sphere_slice(strip, (F(4), F(0)), F(1, 2))
    assert small.v_lo == F(-1, 2) and small.v_hi == F(1, 2)


def test_sphere_slice_below_a_band_is_empty():
    # the radius stops short of the band [2, 3]: no arc, not an inverted one
    band = Product2D(Ray(F(0)), Segment(F(2), F(3)))
    assert sphere_slice(band, (F(0), F(0)), F(1)).is_empty()
    assert sphere_slice(band, (F(0), F(0)), F(2)) == SphereSlice(
        "arc", v_lo=F(2), v_hi=F(2))
    with pytest.raises(InputError, match="lo <= hi"):
        Segment(F(2), F(1))


@pytest.mark.parametrize("model", SAMPLE_MODELS + (
    HalfPlaneStrip(F(-1), F(2)),
    PlanarRay(),
), ids=repr)
def test_json_roundtrip(model):
    assert model_from_json(model_to_json(model)) == model


def test_constructor_validation():
    with pytest.raises(InputError):
        Lattice(F(0), F(1))
    with pytest.raises(InputError):
        Ray(F(0), 2)
    with pytest.raises(InputError):
        GeometricPoints(F(1), F(1), 0)
    with pytest.raises(InputError):
        GeometricBlocks(F(2), F(1), F(5))  # b > a*q
    with pytest.raises(InputError):
        PeriodicBlocks(F(2), ((F(1), F(3)),))  # block leaves the period
    with pytest.raises(InputError):
        HalfPlaneStrip(F(1), F(2))


def test_geometric_blocks_normalization():
    # representation is canonical: index shift lands a in [1, q)
    assert GeometricBlocks(F(4), F(8), F(16)) == GeometricBlocks(
        F(4), F(2), F(4))
    gb = GeometricBlocks(F(4), F(1, 8), F(1, 4))
    assert 1 <= gb.a < 4


@pytest.mark.parametrize("direction, sign", [("+", 1), (1, 1), ("-", -1),
                                             (-1, -1)])
def test_ray_direction_spellings(direction, sign):
    data = {"kind": "ray", "origin": "2", "direction": direction}
    assert model_from_dict(data) == Ray(F(2), sign)


@pytest.mark.parametrize("direction", ["+1", "plus", 2, 0, True, 1.0, None])
def test_other_ray_directions_are_rejected(direction):
    # never read as (-inf, origin] by default
    with pytest.raises(InputError, match="ray direction"):
        model_from_dict({"kind": "ray", "origin": "2", "direction": direction})


INF = math.inf


@pytest.mark.parametrize("model, lo, hi", [
    (Ray(F(2)), F(2), INF),
    (Ray(F(-3, 2), -1), -INF, F(-3, 2)),
    (FullLine(), -INF, INF),
    (Segment(F(-1), F(5, 2)), F(-1), F(5, 2)),
    (Segment(F(0), F(0)), F(0), F(0)),
], ids=repr)
def test_rays_the_line_and_segments_read_one_interval_rule(model, lo, hi):
    assert model.ends == (lo, hi)
    for x in (F(k, 2) for k in range(-8, 9)):
        assert contains(model, x) == (lo <= x <= hi)
        assert list(components(model, x)) == ([(lo, hi)] if x <= hi else [])
        assert list(components(model, x, -1)) == (
            [(lo, hi)] if x >= lo else [])
    far = max((abs(e) for e in (lo, hi) if abs(e) != INF), default=F(0))
    sides = frames(model)
    assert {(f.reach, f.period) for f in sides.values()} == {(far + 1, 0)}
    assert sides[1].gap == (max(F(0), lo) if hi == INF and lo != -INF
                            else None)
    assert sides[-1].gap == (max(F(0), -hi) if lo == -INF and hi != INF
                             else None)
    assert {d: f.cover for d, f in sides.items()} == {
        -1: 0 if lo == -INF else None, 1: 0 if hi == INF else None}
    assert {d: f.long_runs for d, f in sides.items()} == {
        -1: lo == -INF, 1: hi == INF}
    assert {(f.rho, f.rho_reach) for f in sides.values()} == {(F(1), far)}


def test_a_segment_has_no_json_kind():
    with pytest.raises(InputError, match="not a model"):
        model_to_dict(Segment(F(-1), F(1)))
    with pytest.raises(InputError, match="unknown model kind"):
        model_from_dict({"kind": "segment", "lo": "-1", "hi": "1"})
    assert setmodels.ambient_dim(Segment(F(-1), F(1))) == 1
