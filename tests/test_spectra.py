"""Distance-set models and scaled window probes.

The central identity: s belongs to the distance set from p exactly when
p+s or p-s belongs to the original set, so every distance-set case is
checked pointwise against raw membership. Window hits are cross-checked
by enumerating the candidate set points inside the pulled-back interval.
"""

import math
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
    GeometricScaling,
    HalfPlaneStrip,
    InputError,
    InterleaveScaling,
    Lattice,
    PlanarRay,
    PolynomialScaling,
    Ray,
    UnsupportedGeometryError,
    compare_spectra,
    contains,
    distance_set,
    window_hits,
)
from farfield import setmodels
from test_setmodels_oracle import fractions, intersects_open_interval, trees

F = Fraction


def s_grid(hi, denom=4):
    return [F(k, denom) for k in range(0, hi * denom + 1)]


# ---------------------------------------------------------------------------
# Distance sets


DS_CASES = [
    (FullLine(), F(7, 3)),
    (Ray(F(0), 1), F(0)),
    (Ray(F(0), 1), F(3)),
    (Ray(F(2), 1), F(0)),
    (Ray(F(1), -1), F(4)),
    (Lattice(F(1), F(0)), F(0)),
    (Lattice(F(1), F(0)), F(5)),
    (Lattice(F(1), F(0)), F(1, 3)),
    (Lattice(F(3, 2), F(1, 4)), F(2)),
    (Lattice(F(1), F(0), "plus"), F(2)),
    (Lattice(F(1), F(0), "plus"), F(-3)),
    (GeometricBlocks(F(4), F(1), F(2)), F(0)),
    (FiniteUnion((Ray(F(0), -1), Ray(F(1), 1))), F(0)),
]


@pytest.mark.parametrize("model,p", DS_CASES,
                         ids=[f"case{i}" for i in range(len(DS_CASES))])
def test_distance_set_matches_membership(model, p):
    ds = distance_set(model, p)
    for s in s_grid(12, denom=6):
        want = contains(model, p + s) or contains(model, p - s)
        assert contains(ds, s) == want, s


def test_distance_set_structured_forms():
    assert distance_set(FullLine(), F(9)) == Ray(F(0), 1)
    assert distance_set(Ray(F(0), 1), F(3)) == Ray(F(0), 1)
    assert distance_set(Lattice(F(1), F(0)), F(5)) \
        == Lattice(F(1), F(0), "plus")
    thirds = distance_set(Lattice(F(1), F(0)), F(1, 3))
    assert isinstance(thirds, FiniteUnion) and len(thirds.parts) == 2


def test_distance_set_plane_cases():
    strip = HalfPlaneStrip(F(-1), F(2))
    assert distance_set(strip, (F(4), F(0))) == Ray(F(0), 1)
    assert distance_set(PlanarRay(), (F(2), F(0))) == Ray(F(0), 1)
    with pytest.raises(UnsupportedGeometryError):
        distance_set(strip, (F(1), F(1)))


def test_distance_set_dimension_guard():
    with pytest.raises(InputError):
        distance_set(FullLine(), (F(1), F(1)))


# ---------------------------------------------------------------------------
# Window hits


def gb_blocks_between(model, lo, hi):
    out = []
    for n in range(-100, 100):
        a, b = model.block(n)
        if b < lo:
            continue
        if a > hi:
            break
        out.append((a, b))
    return out


def oracle_hit_gb(model, t, eps, r):
    lo, hi = (t - eps) * r, (t + eps) * r
    if hi <= 0:
        return False
    lo = max(lo, F(0))
    # a block meets the open window iff it starts below hi and ends above lo
    for a, b in gb_blocks_between(model, max(lo / 2, F(1, 10 ** 9)), hi * 2):
        if a < hi and b > lo:
            return True
    return hi > 0 and lo == 0  # accumulation at the origin fills (0, hi)


def test_window_hits_match_block_enumeration():
    gb = GeometricBlocks(F(4), F(1), F(2))
    eps = F(1, 100)
    for base, coef in ((F(4), F(4)), (F(4), F(2))):
        scaling = GeometricScaling(base, coef)
        for t in (F(0), F(1, 4), F(3, 4), F(1), F(3, 2), F(2)):
            hits = window_hits(gb, F(0), t, eps, scaling, 12)
            want = tuple(
                n for n in range(1, 13)
                if oracle_hit_gb(gb, t, eps, scaling.eval(n))
            )
            assert hits == want, (t, base, coef)


def test_window_hits_monotone_in_epsilon():
    lat = Lattice(F(1), F(0))
    scaling = GeometricScaling(F(2), F(1))
    for t in (F(0), F(1, 2), F(5, 4)):
        small = set(window_hits(lat, F(0), t, F(1, 200), scaling, 30))
        large = set(window_hits(lat, F(0), t, F(1, 20), scaling, 30))
        assert small <= large


def test_window_hit_input_guards():
    lat = Lattice(F(1), F(0))
    scaling = GeometricScaling(F(2), F(1))
    with pytest.raises(InputError):
        window_hits(lat, F(0), F(-1), F(1, 10), scaling, 10)
    with pytest.raises(InputError):
        window_hits(lat, F(0), F(1), F(0), scaling, 10)
    with pytest.raises(InputError):
        window_hits(lat, F(0), F(1), F(1, 10), scaling, 0)
    with pytest.raises(InputError):
        compare_spectra(lat, F(0), scaling, scaling, [F(1)], F(1, 10), 10, 0)


# ---------------------------------------------------------------------------
# Comparison over a grid


def test_porous_set_separates_the_two_scalings():
    gb = GeometricBlocks(F(4), F(1), F(2))
    s1 = GeometricScaling(F(4), F(4))
    s2 = GeometricScaling(F(4), F(2))
    grid = [F(k, 8) for k in range(0, 33)]
    comp = compare_spectra(gb, F(0), s1, s2, grid, F(1, 100), 50, 10)
    assert F(3, 4) in comp.differing_t
    row = next(r for r in comp.rows if r[0] == F(3, 4))
    assert row[1] == "absent_at_horizon" and row[2] == "present"
    assert row[3] is not None  # some index witnesses the divergence


def test_nonporous_sets_agree_everywhere():
    s1 = GeometricScaling(F(4), F(4))
    s2 = GeometricScaling(F(4), F(2))
    grid = [F(k, 8) for k in range(0, 33)]
    for model in (Ray(F(0), 1), Lattice(F(1), F(0))):
        comp = compare_spectra(model, F(0), s1, s2, grid, F(1, 100), 50, 10)
        assert comp.differing_t == ()
        assert all(row[1] == row[2] for row in comp.rows)


def test_comparison_rows_cover_the_grid():
    lat = Lattice(F(1), F(0))
    s1 = GeometricScaling(F(2), F(1))
    s2 = GeometricScaling(F(3), F(1))
    grid = [F(0), F(1, 2), F(1)]
    comp = compare_spectra(lat, F(0), s1, s2, grid, F(1, 10), 20, 5)
    assert [row[0] for row in comp.rows] == grid


def test_strip_spectrum_full():
    strip = HalfPlaneStrip(F(-1), F(2))
    s1 = GeometricScaling(F(4), F(4))
    s2 = GeometricScaling(F(4), F(2))
    grid = [F(k, 4) for k in range(0, 9)]
    comp = compare_spectra(strip, (F(0), F(0)), s1, s2, grid, F(1, 100))
    assert comp.differing_t == ()
    assert all(row[1] == "present" for row in comp.rows)


class CountingScaling:
    def __init__(self, base):
        self.base, self.calls = base, 0

    def eval(self, n):
        self.calls += 1
        return self.base.eval(n)


def test_comparison_evaluates_each_radius_once():
    gb = GeometricBlocks(F(4), F(1), F(2))
    s1 = CountingScaling(GeometricScaling(F(4), F(4)))
    s2 = CountingScaling(GeometricScaling(F(4), F(2)))
    grid = [F(k, 8) for k in range(0, 17)]
    comp = compare_spectra(gb, F(0), s1, s2, grid, F(1, 100), 12, 5)
    assert (s1.calls, s2.calls) == (12, 12)
    for t, status_1, status_2, first in comp.rows:
        hits_1 = set(window_hits(gb, F(0), t, F(1, 100), s1.base, 12))
        hits_2 = set(window_hits(gb, F(0), t, F(1, 100), s2.base, 12))
        assert status_1 == ("present" if len(hits_1) >= 5
                            else "absent_at_horizon")
        assert status_2 == ("present" if len(hits_2) >= 5
                            else "absent_at_horizon")
        assert first == min(hits_1 ^ hits_2, default=None)


def test_comparison_checks_each_grid_point_in_order():
    lat = Lattice(F(1), F(0))
    s1 = GeometricScaling(F(2), F(1))
    s2 = GeometricScaling(F(3), F(1))
    # an empty grid is a bad input, not an empty answer
    with pytest.raises(InputError, match="at least one point"):
        compare_spectra(lat, F(0), s1, s2, [], F(1, 10))
    with pytest.raises(InputError):
        compare_spectra(lat, F(0), s1, s2, [F(1), F(-1)], F(1, 10), 10, 5)
    with pytest.raises(InputError):
        compare_spectra(lat, F(0), s1, s2, [F(1)], F(1, 10), 0, 5)
    with pytest.raises(InputError, match="persistence"):
        compare_spectra(lat, F(0), s1, s2, [F(1)], F(1, 10), 10, 0)
    with pytest.raises(InputError, match="dimension"):
        compare_spectra(lat, (F(1), F(0)), s1, s2, [F(1)], F(1, 10), 10, 5)


@pytest.mark.parametrize("model, p", [
    (Lattice(F(1), F(0)), F(0)),            # two-sided: both windows
    (Lattice(F(1), F(1, 3), "plus"), F(0)),  # nonnegative: one window
    (Lattice(F(1), F(1, 3), "plus"), F(5, 2)),
])
def test_window_hits_match_direct_distances(model, p):
    # a distance |x - p| of a lattice point lies in the open window
    scaling = GeometricScaling(F(3, 2), F(1))
    eps = F(1, 20)
    points = [model.offset + model.step * k for k in range(-60, 61)]
    points = [x for x in points if contains(model, x)]
    for t in (F(0), F(1, 3), F(1), F(7, 4)):
        want = tuple(
            n for n in range(1, 9)
            if any((t - eps) * scaling.eval(n) < abs(x - p)
                   < (t + eps) * scaling.eval(n) for x in points))
        assert window_hits(model, p, t, eps, scaling, 8) == want, t


# ---------------------------------------------------------------------------
# The grid walk against one query per window


def per_window_hits(model, p, t, eps, scaling, horizon):
    """Window hits by one intersects_open_interval query per window and
    side, in index order, read off the original set (or its distance set
    in the plane)."""
    if isinstance(p, tuple):
        model, p = distance_set(model, p), F(0)
    hits = []
    for n in range(1, horizon + 1):
        r = scaling.eval(n)
        lo, hi = (t - eps) * r, (t + eps) * r
        if hi <= 0:
            continue
        if lo < 0:
            hit = intersects_open_interval(model, p - hi, p + hi)
        else:
            hit = (intersects_open_interval(model, p + lo, p + hi)
                   or intersects_open_interval(model, p - hi, p - lo))
        if hit:
            hits.append(n)
    return tuple(hits)


GP2 = GeometricPoints(F(2), F(1), 0)
LAT = Lattice(F(1), F(1, 3))
GEO = GeometricScaling(F(2), F(1))
# odd n from n**2, even n from 3**(n/2): the radii are not monotone
MIXED = InterleaveScaling(PolynomialScaling(2), GeometricScaling(F(3), F(1)))
SWEEP_CASES = [
    # (model, p, scaling): radii out of order
    (FiniteUnion((GP2, Lattice(F(5), F(0), "plus"))), F(0), MIXED),
    # p != 0 on a two-sided lattice: the windows left of p count
    (LAT, F(5, 2), PolynomialScaling(1, F(1, 2))),
    (LAT, F(-7, 4), MIXED),
    # t < eps: the windows around p are nested
    (GeometricBlocks(F(4), F(1), F(2)), F(0), GEO),
    (FiniteModification(GP2, (F(3), F(-5, 2)), (F(1), F(4))), F(1), GEO),
    # the nearest point 2 sits at 8/5 = (0 + 1/20) * 2**5: window 5 is
    # (-6/5, 2), open at the point
    (FiniteModification(GP2, (), (F(1),)), F(2, 5), GEO),
    (HalfPlaneStrip(F(-1), F(2)), (F(3), F(0)), MIXED),
]
SWEEP_GRID = [F(0), F(1, 50), F(1, 20), F(1, 10), F(1, 3), F(1, 2), F(1),
              F(3, 2), F(7, 3)]


@pytest.mark.parametrize("model, p, scaling", SWEEP_CASES,
                         ids=[f"case{i}" for i in range(len(SWEEP_CASES))])
def test_sweep_matches_one_query_per_window(model, p, scaling):
    eps, horizon = F(1, 20), 16
    want = {t: per_window_hits(model, p, t, eps, scaling, horizon)
            for t in SWEEP_GRID}
    for t in SWEEP_GRID:
        assert window_hits(model, p, t, eps, scaling, horizon) == want[t], t
    comp = compare_spectra(model, p, scaling, GEO, SWEEP_GRID, eps, horizon,
                           3)
    for t, status_1, status_2, first in comp.rows:
        hits_1 = set(want[t])
        hits_2 = set(per_window_hits(model, p, t, eps, GEO, horizon))
        assert status_1 == ("present" if len(hits_1) >= 3
                            else "absent_at_horizon"), t
        assert status_2 == ("present" if len(hits_2) >= 3
                            else "absent_at_horizon"), t
        assert first == min(hits_1 ^ hits_2, default=None), t


def test_union_grid_sweeps_instead_of_querying_each_window(count_calls):
    calls = count_calls(setmodels, "ipow_floor_log")
    # the union spectrum slot of the benchmark's query mix
    model = FiniteUnion((GP2, GeometricPoints(F(3), F(3, 2), 0)))
    s1 = PolynomialScaling(2, F(3, 2))
    s2 = InterleaveScaling(PolynomialScaling(1, F(2)),
                           GeometricScaling(F(3), F(3)))
    grid = [F(k, 8) for k in range(33)]
    compare_spectra(model, F(0), s1, s2, grid, F(1, 50), 50, 8)
    assert calls["ipow_floor_log"] <= 2000


def test_cover_rule_marks_a_dense_grid_without_a_walk(count_calls):
    calls = count_calls(setmodels, "components", "ipow_floor_log")
    # the lattice spectrum slot of the benchmark's query mix: from r = 4**2
    # on, 2*eps*r exceeds the step, and from r = 4**4 on every window lies
    # past the reach 2, where each one meets a lattice point
    model = Lattice(F(1), F(0), "plus")
    grid = [F(k, 16) for k in range(21)]
    eps, horizon = F(1, 25), 50
    scalings = GeometricScaling(F(4)), GeometricScaling(F(4), F(2))
    comp = compare_spectra(model, F(0), *scalings, grid, eps, horizon, 40)
    # two for the distance from p (t = 0 < eps), then at most one walk for
    # each radius
    assert calls["components"] <= 2 + 2 * horizon
    assert calls["ipow_floor_log"] <= 2000
    for t, status_1, status_2, first in comp.rows:
        hits = [set(per_window_hits(model, F(0), t, eps, scaling, horizon))
                for scaling in scalings]
        assert (status_1, status_2) == ("present", "present"), t
        assert first == min(hits[0] ^ hits[1], default=None), t


# scalings whose radii are geometric, polynomial and interleaved (out of
# order); the oracle's queries stay cheap up to the horizon
ORACLE_SCALINGS = st.sampled_from([
    GEO, GeometricScaling(F(3, 2), F(1, 2)), PolynomialScaling(2, F(1, 2)),
    PolynomialScaling(1, F(3)), MIXED])


@settings(max_examples=100, deadline=None)
@given(model=trees(3), p=fractions(-6, 6, 4), data=st.data(),
       scalings=st.tuples(ORACLE_SCALINGS, ORACLE_SCALINGS))
def test_grid_scan_matches_one_query_per_window(model, p, data, scalings):
    # p of either sign, so both sides are scanned; a grid with repeats,
    # t < eps, t = eps (the window's lower end at p) and t past the reach
    eps = data.draw(st.sampled_from([F(1, 20), F(1, 8), F(1, 2)]))
    reach = setmodels.frames(model)[1].reach
    ts = st.one_of(fractions(0, 3, 8), st.sampled_from(
        [F(0), eps / 2, eps, reach, reach + 1, 2 * reach + eps]))
    grid = data.draw(st.lists(ts, min_size=1, max_size=8))
    grid += data.draw(st.lists(st.sampled_from(grid), max_size=2))
    horizon = 10
    want = [{t: per_window_hits(model, p, t, eps, scaling, horizon)
             for t in grid} for scaling in scalings]
    for t in grid:
        assert window_hits(model, p, t, eps, scalings[0], horizon) \
            == want[0][t], t
    comp = compare_spectra(model, p, *scalings, grid, eps, horizon, 3)
    assert [row[0] for row in comp.rows] == grid
    for t, status_1, status_2, first in comp.rows:
        hits_1, hits_2 = set(want[0][t]), set(want[1][t])
        assert status_1 == ("present" if len(hits_1) >= 3
                            else "absent_at_horizon"), t
        assert status_2 == ("present" if len(hits_2) >= 3
                            else "absent_at_horizon"), t
        assert first == min(hits_1 ^ hits_2, default=None), t
