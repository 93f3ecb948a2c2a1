"""Covering bounds, divergence witnesses, and the verdict ladder."""

import math
import time
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
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
    SupDistance,
    check_eps_net,
    contains,
    decide_strong_equivalence,
    distance_to_set,
    epsilon_curve,
    epsilon_t,
    sup_distance,
)
from farfield import equivalence, setmodels
from farfield.equivalence import (
    DEFAULT_THRESHOLD,
    RUNG_RADII,
    WitnessFamily,
    _family_membership_persists,
    _gap_midpoint_family,
    _numeric_verdict,
    is_structural_subset,
)
from farfield.errors import InputError, InternalInvariantError
from farfield.rationals import common_power
from test_setmodels_oracle import (
    COMMENSURABLE_PAIRS,
    LEAVES,
    TINY,
    coalesce,
    member,
    o_distance,
    oracle,
    trees,
)


def eps_pair_oracle(y_model, z_model, p, t):
    """Recompute the directed pair from raw membership and distances."""
    base = F(0) if p is None else F(p)

    def one_side(slice_model, target):
        worst = F(0)
        for s in (base - t, base + t):
            if contains(slice_model, s):
                worst = max(worst, distance_to_set(target, s))
        return worst

    return one_side(z_model, y_model), one_side(y_model, z_model)


GP2 = GeometricPoints(F(2), F(1), 0)
GP3 = GeometricPoints(F(3), F(1), 0)
GB412 = GeometricBlocks(F(4), F(1), F(2))
UNIT_LATTICE = Lattice(F(1), F(0))


# -- exact covering bounds ------------------------------------------------


def test_full_line_and_unit_lattice_are_equivalent_exact():
    for y, z in ((FullLine(), UNIT_LATTICE), (UNIT_LATTICE, FullLine())):
        verdict = decide_strong_equivalence(y, z)
        assert verdict.status == "equivalent_exact"
        assert verdict.bound == F(1, 2)
        assert verdict.witness is None
        assert "covering" in verdict.note


def test_strip_and_planar_ray_are_equivalent_exact():
    strip = HalfPlaneStrip(F(-1), F(2))
    ray = PlanarRay()
    for y, z in ((strip, ray), (ray, strip)):
        verdict = decide_strong_equivalence(y, z)
        assert verdict.status == "equivalent_exact"
        assert verdict.bound == F(2)


HALF_PLANE = Product2D(Ray(F(0)), FullLine())
HALF_PLANE_ROWS = Product2D(Ray(F(0)), UNIT_LATTICE)
STRIP = HalfPlaneStrip(F(-1), F(2))
TWO_STRIPS = FiniteUnion((HalfPlaneStrip(F(-1), F(1)),
                          HalfPlaneStrip(F(-2), F(1, 2))))


@pytest.mark.parametrize("y, z, to_z, to_y", [
    # the rows hold the integer heights; the half plane every height
    (HALF_PLANE, HALF_PLANE_ROWS, F(1, 2), F(0)),
    # the union is [0, inf) x [-2, 1], read as one strip: the strip's top
    # edge lies 1 above it, and the union's bottom edge 1 below the strip
    (STRIP, TWO_STRIPS, F(1), F(1)),
])
def test_planar_products_get_exact_sups_both_ways(y, z, to_z, to_y):
    assert sup_distance(y, z) == SupDistance("value", to_z)
    assert sup_distance(z, y) == SupDistance("value", to_y)
    for a, b in ((y, z), (z, y)):
        verdict = decide_strong_equivalence(a, b)
        assert verdict.status == "equivalent_exact"
        assert verdict.bound == max(to_z, to_y)


def test_an_irrational_product_sup_is_unknown_below_the_factor_sum():
    grid = Product2D(UNIT_LATTICE, UNIT_LATTICE)
    plane = Product2D(FullLine(), FullLine())
    assert sup_distance(grid, plane) == SupDistance("value", F(0))
    assert is_structural_subset(grid, plane)
    # every factor sup is 1/2, and the hypotenuse sqrt(2)/2 is irrational
    assert sup_distance(plane, grid) == SupDistance("unknown", F(1))


@pytest.mark.parametrize("step", [F(1), F(3, 2), F(2), F(5, 3)])
def test_lattice_covering_bound_is_half_the_step(step):
    verdict = decide_strong_equivalence(FullLine(), Lattice(step, F(1, 7)))
    assert verdict.status == "equivalent_exact"
    assert verdict.bound == step / 2


# -- divergence witnesses -------------------------------------------------


def test_powers_of_two_versus_ray_produce_a_witness():
    verdict = decide_strong_equivalence(GP2, Ray(F(0), 1))
    assert verdict.status == "not_equivalent"
    w = verdict.witness
    assert (w.coef, w.q, w.start, w.shift) == (F(3, 2), F(2), 0, F(0))
    assert w.c == F(1, 3)
    assert w.t_values == (F(3, 2), F(3), F(6))
    assert w.t(5) == F(48)
    for m in range(6):
        assert w.t(m) == F(3, 2) * F(2) ** m


def test_witness_ratio_recomputed_from_scratch():
    # every gap midpoint of the doubling set sits a third of its own
    # height away from the set, so eps(t)/t stays at 1/3 along the family
    verdict = decide_strong_equivalence(GP2, Ray(F(0), 1))
    for m in range(8):
        t = verdict.witness.t(m)
        pair = epsilon_t(GP2, Ray(F(0), 1), F(0), t)
        assert max(pair) == t / 3
        assert pair == eps_pair_oracle(GP2, Ray(F(0), 1), F(0), t)


def test_gap_midpoint_distances_behind_the_witness():
    for m in range(1, 7):
        mid = F(3, 2) * F(2) ** m
        assert distance_to_set(GP2, mid) == F(2) ** (m - 1)
        mid_b = F(3) * F(4) ** m
        assert distance_to_set(GB412, mid_b) == F(4) ** m


def test_blocks_against_full_line_produce_a_witness():
    verdict = decide_strong_equivalence(GB412, FullLine())
    assert verdict.status == "not_equivalent"
    w = verdict.witness
    # the gap (2, 4) opens in the first log period (1, 4] past reach 0
    assert (w.coef, w.q, w.start, w.c) == (F(3), F(4), 0, F(1, 3))
    assert w.t_values == (F(3), F(12), F(48))


@pytest.mark.parametrize("other, coef, q, start", [
    # the union's period is 1/2, but its full-line part holds everything
    (FiniteUnion((FullLine(), Lattice(F(1, 2), F(0)))), F(1, 2), F(3, 2), 0),
    # 3*2**(m-1) lies in the blocks [2k, 2k+1]
    (PeriodicBlocks(F(2), ((F(0), F(1)),)), F(3, 2), F(2), 1),
    # past its reach the union is Z, period 2 divides 2*3**m
    (FiniteUnion((Lattice(F(2), F(0)), Lattice(F(2), F(1)))), F(1), F(3), 0),
    # a modification of a geometric set, past the removed point
    (FiniteModification(GeometricBlocks(F(2), F(1), F(3, 2)),
                        removed=(F(1),)), F(5, 2), F(4), 0),
])
def test_family_membership_persists(other, coef, q, start):
    assert _family_membership_persists(other, coef, q, start)


def test_family_membership_needs_an_integer_ratio_against_a_period():
    # 4, 6 and 9 lie in Z, 27/2 does not
    assert not _family_membership_persists(UNIT_LATTICE, F(4), F(3, 2), 0)


@settings(max_examples=300, deadline=None)
@given(other=trees(2), coef=st.sampled_from(
    [F(1, 2), F(1), F(3, 2), F(2), F(5, 2), F(3), F(5, 4)]),
    q=st.sampled_from([F(2), F(3), F(4), F(3, 2), F(5, 2)]),
    start=st.integers(0, 3))
def test_family_membership_persistence_matches_brute_force(other, coef, q,
                                                           start):
    if _family_membership_persists(other, coef, q, start):
        assert all(contains(other, coef * q ** m)
                   for m in range(start, start + 40))


def test_verdict_status_is_symmetric_in_the_arguments():
    pairs = [
        (FullLine(), UNIT_LATTICE),
        (GP2, Ray(F(0), 1)),
        (HalfPlaneStrip(F(-1), F(2)), PlanarRay()),
        (GB412, FullLine()),
    ]
    for y, z in pairs:
        assert (decide_strong_equivalence(y, z).status
                == decide_strong_equivalence(z, y).status)


# -- exact verdicts from proven bounds on unknown sups ---------------------


def test_a_bounded_unknown_sup_certifies_with_its_bound():
    # the extra points 1/5*(3/2)**n come within 1/2 of the lattice, but
    # none walked reaches 1/2 and the ratio 3/2 keeps no residue orbit, so
    # the sup is unknown, yet at most 1/2
    union = FiniteUnion((UNIT_LATTICE, GeometricPoints(F(3, 2), F(1, 5), 0)))
    assert sup_distance(union, UNIT_LATTICE) \
        == SupDistance("unknown", F(1, 2))
    verdict = decide_strong_equivalence(UNIT_LATTICE, union)
    assert (verdict.status, verdict.bound) == ("equivalent_exact", F(1, 2))
    assert "a bound on the sup rather than the sup" in verdict.note
    # the plane lies within sqrt(2)/2 of Z x Z: irrational, at most 1
    plane = Product2D(FullLine(), FullLine())
    grid = Product2D(UNIT_LATTICE, UNIT_LATTICE)
    assert sup_distance(plane, grid) == SupDistance("unknown", F(1))
    verdict = decide_strong_equivalence(plane, grid)
    assert (verdict.status, verdict.bound) == ("equivalent_exact", F(1))
    assert "a bound on the sup" in verdict.note


STEPS = st.sampled_from([F(1), F(1, 2), F(3, 2), F(2)])


@st.composite
def bounded_unknown_pairs(draw):
    """(Y, Z), either way round: a lattice against itself with the powers
    of a ratio that keeps no residue orbit added, or the plane against a
    grid."""
    step = draw(STEPS)
    if draw(st.booleans()):
        lattice = Lattice(step, draw(st.sampled_from([F(0), step / 3])))
        sparse = GeometricPoints(draw(st.sampled_from([F(3, 2), F(5, 3)])),
                                 draw(st.sampled_from([F(1, 5), F(2, 7)])), 0)
        pair = [lattice, FiniteUnion((lattice, sparse))]
    else:
        pair = [Product2D(FullLine(), FullLine()),
                Product2D(Lattice(step, F(0)), Lattice(draw(STEPS), F(0)))]
    return pair if draw(st.booleans()) else pair[::-1]


@given(pair=bounded_unknown_pairs(),
       t=st.fractions(1, 10 ** 4, max_denominator=60),
       m=st.fractions(-1, 1, max_denominator=60))
@settings(max_examples=60, deadline=None)
def test_eps_stays_within_a_bound_from_an_unknown_sup(pair, t, m):
    y, z = pair
    sups = [sup_distance(z, y), sup_distance(y, z)]
    assume("unknown" in [sup.kind for sup in sups])
    verdict = decide_strong_equivalence(y, z)
    assert verdict.status == "equivalent_exact"
    bound = verdict.bound
    assert bound == max(sup.value for sup in sups)
    if setmodels.ambient_dim(y) == 1:
        assert max(epsilon_t(y, z, None, t)) <= bound
        return
    # the plane's t-circle at its rational point (t*(1 - m*m), 2*t*m) /
    # (1 + m*m), against the grid; the grid's points lie in the plane
    grid = z if y == Product2D(FullLine(), FullLine()) else y
    u, v = t * (1 - m * m) / (1 + m * m), 2 * t * m / (1 + m * m)
    du, dv = distance_to_set(grid.x, u), distance_to_set(grid.y, v)
    assert du * du + dv * dv <= bound * bound


# -- the two numeric rungs of the ladder ----------------------------------


def test_numeric_decay_is_reported_but_not_certified():
    # a lattice beside a geometric part has neither a period nor a factor,
    # so neither sup has a bound, and only the grid decides
    sparse = [GeometricPoints(q, F(1, 5), 0) for q in (F(3, 2), F(5, 4))]
    verdict = decide_strong_equivalence(
        *(FiniteUnion((UNIT_LATTICE, part)) for part in sparse))
    assert verdict.status == "equivalent_numerical"
    assert verdict.max_ratio == 0
    assert verdict.bound is None and verdict.witness is None
    assert "not certified" in verdict.note


def test_gap_midpoints_inside_periodic_blocks_refute():
    # the midpoints 3*2**(m-1) of GP(2) lie in the blocks [2k, 2k+1] from
    # m = 1 on, at relative distance 1/3 from GP(2)
    blocks = PeriodicBlocks(F(2), ((F(0), F(1)),))
    verdict = decide_strong_equivalence(GP2, blocks)
    assert verdict.status == "not_equivalent"
    assert verdict.witness.c == F(1, 3)
    assert verdict.witness.coef == F(3, 2) and verdict.witness.q == 2


def test_numeric_stall_is_inconclusive():
    verdict = decide_strong_equivalence(GP3, GP2)
    assert verdict.status == "inconclusive"
    assert verdict.bound is None and verdict.witness is None
    # the ratio genuinely refuses to decay for these two scales
    assert verdict.max_ratio > F(1, 10)


def full_curve_rung(y, z, p, growth, horizon, threshold):
    """(status, max_ratio) of the numeric rung read off the whole grid
    growth**1 .. growth**horizon, each row its own `epsilon_t` call: the
    largest eps(t)/t over the last min(RUNG_RADII, horizon) rows."""
    ts = [growth ** k for k in range(1, horizon + 1)]
    ratios = [max(epsilon_t(y, z, p, t)) / t for t in ts]
    worst = max(ratios[-min(RUNG_RADII, horizon):])
    status = "equivalent_numerical" if worst < threshold else "inconclusive"
    return status, worst


GEOMETRIC = st.builds(GeometricPoints,
                      st.sampled_from([F(3, 2), F(2), F(3)]),
                      st.sampled_from([F(1), F(1, 2), F(3, 5)]),
                      st.just(0))
LINE_SETS = st.one_of(
    GEOMETRIC,
    st.tuples(GEOMETRIC, GEOMETRIC).map(FiniteUnion),
    st.builds(FiniteModification, GEOMETRIC,
              st.sampled_from([(), (F(5),), (F(7, 2), F(-3))]),
              st.sampled_from([(), (F(1),), (F(2), F(4))])),
    st.builds(lambda step, gp: FiniteUnion((Lattice(step, F(0)), gp)),
              st.sampled_from([F(1), F(5, 2)]), GEOMETRIC))
LINE_PAIRS = st.tuples(LINE_SETS, LINE_SETS,
                       st.sampled_from([F(0), F(1), F(-1, 2)]))
STRIPS = st.one_of(
    st.just(PlanarRay()),
    st.builds(HalfPlaneStrip, st.sampled_from([F(-1), F(-2), F(-1, 2)]),
              st.sampled_from([F(1, 2), F(1), F(2), F(3)])))
STRIP_PAIRS = st.tuples(STRIPS, STRIPS, st.sampled_from(
    [(F(0), F(0)), (F(1), F(0)), (F(1, 2), F(0))]))


@settings(max_examples=80, deadline=None)
@given(pair=st.one_of(LINE_PAIRS, STRIP_PAIRS),
       growth=st.sampled_from([F(3, 2), F(2), F(3)]),
       horizon=st.integers(4, 40),
       threshold=st.sampled_from([DEFAULT_THRESHOLD, F(1, 10), F(1, 2)]))
@example(pair=(GP3, GP2, F(0)), growth=F(2), horizon=32,
         threshold=DEFAULT_THRESHOLD)
@example(pair=(GP3, GP2, F(0)), growth=F(2), horizon=5,
         threshold=DEFAULT_THRESHOLD)
def test_numeric_rung_matches_the_full_curve(pair, growth, horizon,
                                             threshold):
    # the rung evaluates only the radii it reads; reading them off the
    # whole grid, with no arc sup shared between rows, gives the same
    y, z, p = pair
    expected = full_curve_rung(y, z, p, growth, horizon, threshold)
    rung = _numeric_verdict(y, z, p, growth, horizon, threshold)
    assert (rung.status, rung.max_ratio) == expected
    verdict = decide_strong_equivalence(y, z, p, growth, horizon, threshold)
    if verdict.status in ("equivalent_numerical", "inconclusive"):
        assert (verdict.status, verdict.max_ratio) == expected


def test_numeric_rung_evaluates_only_the_radii_it_reads(count_calls):
    calls = count_calls(equivalence, "epsilon_t")
    for horizon, rows in ((200, 10), (5, 5)):
        calls["epsilon_t"] = 0
        _numeric_verdict(GP3, GP2, F(0), F(2), horizon, DEFAULT_THRESHOLD)
        assert calls["epsilon_t"] == rows
    # through the whole ladder the witness probe adds the same calls at
    # every horizon, so only the rung's rows tell the two apart
    made = []
    for horizon in (200, 5):
        calls["epsilon_t"] = 0
        assert decide_strong_equivalence(
            GP3, GP2, horizon=horizon).status == "inconclusive"
        made.append(calls["epsilon_t"])
    assert made[0] - made[1] == 10 - 5


def test_decay_threshold_must_be_positive():
    for threshold in (F(0), F(-1)):
        with pytest.raises(InputError, match="threshold"):
            decide_strong_equivalence(GP2, GP3, threshold=threshold)


# -- sup distances --------------------------------------------------------


def test_sup_distance_known_values():
    cases = [
        (FullLine(), UNIT_LATTICE, F(1, 2)),
        (UNIT_LATTICE, FullLine(), F(0)),
        (Ray(F(0), 1), FullLine(), F(0)),
        (Lattice(F(2), F(0)), UNIT_LATTICE, F(0)),
        (UNIT_LATTICE, Lattice(F(2), F(0)), F(1)),
        (FullLine(), Lattice(F(3, 2), F(1, 4)), F(3, 4)),
        (GP2, Ray(F(0), 1), F(0)),
    ]
    for source, target, expected in cases:
        got = sup_distance(source, target)
        assert got.kind == "value"
        assert got.value == expected


HALF_LATTICE_2_5_8 = Lattice(F(3), F(2), "plus")


@pytest.mark.parametrize("source, expected", [
    (Ray(F(0), 1), F(2)),
    (FiniteModification(Ray(F(0), 1), removed=(F(0),)), F(2)),
    (GB412, F(2)),
    (FiniteUnion((Ray(F(5), 1), GeometricPoints(F(2), F(1, 8), 0))),
     F(15, 8)),
])
def test_sup_distance_counts_the_half_lattice_lead_gap(source, expected):
    # long runs reach step/2 = 3/2 far out, but the points near the
    # source's infimum sit up to 2 - inf from the lattice end point 2
    got = sup_distance(source, HALF_LATTICE_2_5_8)
    assert got.kind == "value"
    assert got.value == expected
    mirrored = sup_distance(Reflected(source), Lattice(F(3), F(-2), "minus"))
    assert mirrored.kind == "value"
    assert mirrored.value == expected


def test_sup_distance_infinite_cases():
    assert sup_distance(FullLine(), Ray(F(0), 1)).kind == "infinite"
    assert sup_distance(FullLine(), GP2).kind == "infinite"
    assert sup_distance(Ray(F(0), 1), GP2).kind == "infinite"


B_BLOCKS = GeometricBlocks(F(2), F(1), F(3, 2))
# the blocks [2**n, 2**(n+1)] cover all of (0, inf)
TOUCHING = GeometricBlocks(F(2), F(1), F(2))


@pytest.mark.parametrize("source, target", [
    # every 2**n is the left end of a block [2**n, 3/2 * 2**n]
    (GP2, B_BLOCKS),
    (GeometricPoints(F(2), F(5, 4), 0), B_BLOCKS),
    (FiniteUnion((B_BLOCKS, GP2)), B_BLOCKS),
    (Ray(F(1), 1), TOUCHING),
    (GP3, TOUCHING),
])
def test_sup_distance_into_geometric_blocks(source, target):
    assert sup_distance(source, target) == sup_distance(target, target)
    assert sup_distance(source, target).value == 0


def test_a_union_with_points_inside_blocks_is_exact():
    union = FiniteUnion((B_BLOCKS, GP2))
    assert is_structural_subset(GP2, B_BLOCKS)
    assert sup_distance(union, B_BLOCKS) == sup_distance(B_BLOCKS, union) \
        == SupDistance("value", F(0))
    verdict = decide_strong_equivalence(B_BLOCKS, union)
    assert (verdict.status, verdict.bound) == ("equivalent_exact", 0)


@pytest.mark.parametrize("a, b, inside", [
    # 5/4 is removed from the block [1, 3/2], whose hull stays whole
    (B_BLOCKS, FiniteModification(B_BLOCKS, removed=(F(5, 4),)), False),
    (FiniteModification(B_BLOCKS, removed=(F(5, 4),)), B_BLOCKS, True),
    (GeometricPoints(F(4), F(5, 4), 0),
     FiniteModification(B_BLOCKS, removed=(F(5, 4),)), False),
    (GeometricPoints(F(4), F(5, 4), 1),
     FiniteModification(B_BLOCKS, removed=(F(5, 4),)), True),
])
def test_containment_sees_points_removed_inside_a_hull(a, b, inside):
    assert is_structural_subset(a, b) == inside


@pytest.mark.parametrize("source, target, expected", [
    # far out the blocks meet the widest lattice gap; near 0 the gap
    # (0, 1/2) or (0, 1/3) holds blocks at its midpoint
    (B_BLOCKS, FiniteUnion((UNIT_LATTICE, Lattice(F(1), F(1, 2)))),
     F(1, 4)),
    (B_BLOCKS, FiniteModification(UNIT_LATTICE, added=(F(1, 3),)), F(1, 2)),
    (B_BLOCKS, FiniteModification(Ray(F(0), 1), removed=(F(5),)), F(0)),
    # approached at 0, where the blocks accumulate in the gap (-inf, 1)
    (B_BLOCKS, FiniteUnion((Ray(F(1), 1), GP2)), F(1)),
    (GeometricPoints(F(3, 2), F(1), 0),
     FiniteModification(Ray(F(0), 1), removed=(F(1),)), F(0)),
    (GeometricPoints(F(3, 2), F(1), 0),
     FiniteUnion((Ray(F(2), 1), Ray(F(-1), -1))), F(1)),
    # the blocks accumulate at 0 inside the hull of (-inf, 5]: the target's
    # gaps are sought on past that hull
    (Ray(F(-3), 1), FiniteUnion((Ray(F(5), -1), TOUCHING)), F(0)),
    # far out the powers of 3/2 meet the lattice's gaps without a residue
    # orbit, but the lattice points of the source stand 1/2 off already
    (FiniteUnion((UNIT_LATTICE, GeometricPoints(F(3, 2), F(1, 3), 0))),
     UNIT_LATTICE, F(1, 2)),
])
def test_sup_distance_read_in_the_target_frame(source, target, expected):
    got = sup_distance(source, target)
    assert (got.kind, got.value) == ("value", expected)


@pytest.mark.parametrize("source, target, expected", [
    # 300,000 source points in the ray's gap (-inf, 300): read at once
    (Lattice(F(1, 1000), F(0), "plus"), Ray(F(300), 1), F(300)),
    # a ray across a million lattice gaps: one period of them shows all
    (Ray(F(1000), 1), Lattice(F(1, 1000), F(0)), F(1, 2000)),
    (Ray(F(-1000), 1), Lattice(F(1, 1000), F(0)), F(1, 2000)),
    (Lattice(F(1), F(0)), Lattice(F(1, 10**6), F(0)), F(0)),
])
def test_dense_pairs_take_a_step_per_gap_met(source, target, expected):
    start = time.perf_counter()
    got = sup_distance(source, target)
    assert (got.kind, got.value) == ("value", expected)
    assert is_structural_subset(source, target) == (expected == 0)
    # a step per source point or per target gap would take minutes
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("a, b", [
    (Lattice(F(2), F(0)), UNIT_LATTICE),
    (Lattice(F(2), F(1), "plus"), Lattice(F(1), F(0), "plus")),
    (GeometricPoints(F(3, 2), F(1), 0), FullLine()),
    (B_BLOCKS, Ray(F(0), 1)),
    # a million points per unit: the walk stops at the full line's only
    # gap, which opens past the window
    (Lattice(F(1, 10**6), F(0)), FullLine()),
])
def test_subset_answers_of_the_frame_walks(a, b):
    assert is_structural_subset(a, b)


def test_a_sup_of_zero_is_not_containment():
    # the ray [0, inf) stays within 0 of the touching blocks, but 0 itself
    # is only their accumulation point
    assert sup_distance(Ray(F(0), 1), TOUCHING).value == 0
    assert not is_structural_subset(Ray(F(0), 1), TOUCHING)
    assert is_structural_subset(Ray(F(1), 1), TOUCHING)


def test_touching_blocks_have_no_gap_to_witness_with():
    assert _gap_midpoint_family(TOUCHING) is None
    verdict = decide_strong_equivalence(TOUCHING, Ray(F(0), 1))
    assert (verdict.status, verdict.bound) == ("equivalent_exact", 0)
    with pytest.raises(InternalInvariantError):
        WitnessFamily(F(3), F(2), 0, F(0), ())


def test_gap_midpoints_take_the_common_log_period():
    # GP(4) u GP(8) rescales by 64, not by 4 or 8; of the gaps that open
    # in one log period past its reach 1/4, (1, 4) and (16, 64) are the
    # widest, and the first one is taken
    union = FiniteUnion((GeometricPoints(F(4), F(1), 0),
                         GeometricPoints(F(8), F(1), 0)))
    assert _gap_midpoint_family(union) == (F(5, 2), F(64), 0, F(3, 5))


def test_sup_distance_dominates_sampled_points():
    pairs = [
        (FullLine(), UNIT_LATTICE),
        (FullLine(), Lattice(F(3, 2), F(1, 4))),
        (Lattice(F(2), F(0)), UNIT_LATTICE),
        (Ray(F(0), 1), FullLine()),
        (GP2, Ray(F(0), 1)),
        # the periodic pattern only runs forward from its offset, so the
        # source must stay on that side for the sup to be finite
        (Ray(F(0), 1), PeriodicBlocks(F(2), ((F(0), F(1)),))),
    ]
    for source, target in pairs:
        sup = sup_distance(source, target)
        assert sup.kind == "value"
        hit = False
        for k in range(-48, 49):
            x = F(k, 4)
            if not contains(source, x):
                continue
            assert distance_to_set(target, x) <= sup.value
            if distance_to_set(target, x) == sup.value:
                hit = True
        assert hit, "sampling never attained the reported sup"


@pytest.mark.parametrize("source, target, expected", [
    # the removed lattice point 0 no longer counts
    (FiniteModification(Lattice(F(1), F(0), "plus"), removed=(F(0),)),
     Lattice(F(1), F(10), "plus"), F(9)),
    (FiniteModification(PeriodicBlocks(F(1), ((F(0), F(0)),)),
                        removed=(F(0),)),
     Lattice(F(1), F(5), "plus"), F(4)),
    # -9/2 is added by the inner modification and removed by the outer one
    (FiniteModification(
        FiniteModification(Lattice(F(5, 2), F(1, 3), "plus"),
                           added=(F(-9, 2), F(1)),
                           removed=(F(47, 6), F(17, 6))),
        added=(F(3, 2), F(-4)), removed=(F(1, 3), F(-9, 2))),
     Lattice(F(6), F(4, 3), "plus"), F(16, 3)),
    # a union holding GeometricBlocks reaches down to 0, not attained
    (FiniteUnion((GB412, GP2)), Ray(F(1), 1), F(1)),
    (FiniteUnion((GB412, GP2)), PeriodicBlocks(F(2), ((F(1), F(3, 2)),)),
     F(1)),
    # the infimum 0 of (0, inf) is not attained
    (FiniteModification(Ray(F(0), 1), removed=(F(0),)), Ray(F(1), 1), F(1)),
    # the block [-1, -1/2] holds the midpoint -3/4 of a lattice gap
    (PeriodicBlocks(F(2), ((F(0), F(1, 2)), (F(1), F(1))), F(-1)),
     Lattice(F(1), F(-1, 4)), F(1, 2)),
    # the points added at 4, 14 and 24 (reach 25) shield every source point
    # up to reach + period = 35; the far ones sit 4 from the lattice
    (PeriodicBlocks(F(10), ((F(6), F(6)),)),
     FiniteModification(Lattice(F(10), F(0), "plus"),
                        added=(F(4), F(14), F(24))), F(4)),
    # powers of 2 against a union by their residue orbit modulo 1
    (GP2, FiniteUnion((Lattice(F(1), F(0), "plus"), Lattice(F(1, 3), F(0)))),
     F(0)),
    (GeometricPoints(F(3), F(1, 2), 0),
     FiniteModification(Lattice(F(1), F(0), "plus"), removed=(F(0),)),
     F(1, 2)),
    # the orbit is read past the target's reach, where 1 is not removed
    (GeometricPoints(F(2), F(2), 0),
     FiniteModification(Lattice(F(1), F(0), "plus"), removed=(F(1),)), F(0)),
    # the lattice points inside the ray open no gaps; past 10 the target
    # holds 11, 12, ...
    (FullLine(), FiniteUnion((Ray(F(10), -1), Lattice(F(4), F(0), "plus"),
                              Lattice(F(1), F(11), "plus"))), F(1, 2)),
    # a part that runs to +inf ends the target's gaps
    (FullLine(), Reflected(FiniteUnion((Lattice(F(1, 2), F(0)), FullLine()))),
     F(0)),
    (Ray(F(0), 1), FiniteUnion((Ray(F(3), 1), Lattice(F(1), F(0), "minus"))),
     F(3, 2)),
])
def test_sup_distance_regressions(source, target, expected):
    got = sup_distance(source, target)
    assert got.kind == "value"
    assert got.value == expected


def test_sup_distance_reads_each_frame_pair_once(count_calls):
    # the subset test and the reads of the target's parts meet the pairs
    # the sup read itself: (source, union), (source, lattice) and
    # (source, GP(2)) are each walked once, not twice
    calls = count_calls(equivalence, "_frame_sup")
    source = Lattice(F(1), F(1, 2), "plus")
    target = FiniteUnion((Lattice(F(1), F(0), "plus"),
                          GeometricPoints(F(2), F(1), 0)))
    assert sup_distance(source, target) == SupDistance("unknown")
    assert calls["_frame_sup"] == 3
    # a new call reads its pairs afresh
    assert sup_distance(source, target) == SupDistance("unknown")
    assert calls["_frame_sup"] == 6


def test_long_runs_read_no_cover_off_a_modification_target():
    # far out the source meets the lattice's gaps, 1/4 wide at most, but
    # the lattice point 0 of the source is 1/2 from the target
    source = FiniteUnion((GeometricBlocks(F(2), F(1), F(3, 2)),
                          Lattice(F(1, 2), F(0))))
    target = FiniteModification(Lattice(F(1, 2), F(0)), removed=(F(0),))
    got = sup_distance(source, target)
    assert (got.kind, got.value) == ("value", F(1, 2))


GP2_PLUS_3 = FiniteModification(GP2, added=(F(3),))


@pytest.mark.parametrize("source, target, expected", [
    # the source lies in the target up to finitely many points
    (GP2_PLUS_3, GP2, F(1)),
    (GeometricPoints(F(2), F(1), 0), GeometricPoints(F(2), F(1), 3), F(7)),
    (FiniteModification(GeometricPoints(F(2), F(1), 0), removed=(F(1),)),
     GeometricPoints(F(2), F(1), 3), F(6)),
    (FiniteUnion((GeometricPoints(F(4), F(1), 0), FiniteModification(
        GP2, added=(F(3, 2), F(5))))), GP2, F(1)),
    (FiniteModification(GB412, added=(F(3),)), GB412, F(1)),
    # a progression of base target.q**k and coefficient target.c*q**j
    (GeometricBlocks(F(4), F(1), F(3, 2)),
     GeometricBlocks(F(2), F(1), F(3, 2)), F(0)),
    (GeometricPoints(F(2), F(8), 0), GeometricPoints(F(2), F(1), 5), F(24)),
    (GeometricPoints(F(4), F(2), -1), GeometricPoints(F(2), F(1), 5),
     F(63, 2)),
])
def test_sup_distance_against_a_geometric_target(source, target, expected):
    got = sup_distance(source, target)
    assert got.kind == "value"
    assert got.value == expected


def test_geometric_target_with_finitely_many_extra_points():
    assert sup_distance(GP2, GP2_PLUS_3) == SupDistance("value", F(0))
    assert sup_distance(GP2_PLUS_3, GP2) == SupDistance("value", F(1))
    verdict = decide_strong_equivalence(GP2, GP2_PLUS_3)
    assert verdict.status == "equivalent_exact" and verdict.bound == F(1)
    # a leaf outside the target still diverges
    assert sup_distance(GeometricPoints(F(3), F(1), 0), GP2).kind \
        == "infinite"


SCAN = F(64)
FAR = F(2**11)
# every union, modification and reflection of these has a period dividing
# 6, and repeats with it past 17 (reach at most 11)
TARGETS = trees(2, LEAVES.filter(lambda m: isinstance(
    m, (Lattice, Ray, FullLine, PeriodicBlocks))))


def has_fractional_ratio(model):
    if isinstance(model, GeometricPoints):
        return model.q.denominator != 1
    if isinstance(model, FiniteUnion):
        return any(has_fractional_ratio(p) for p in model.parts)
    if isinstance(model, (FiniteModification, Reflected)):
        return has_fractional_ratio(model.base)
    return False


def o_reaches(model, side):
    """Whether the set has points beyond SCAN on that side. Every leaf of
    the random trees keeps a bounded side within 12 of 0 and has a point
    in each (r, 4r] toward an unbounded side."""
    pieces, _ = oracle(model, 4 * SCAN)
    return any(side * a > SCAN or side * b > SCAN for a, b in pieces)


def scanned_sup(source, target):
    """max of the distance to the target over the source's points in
    [-SCAN, SCAN] on the grid Z/8, the piece ends, and 0 where the source
    accumulates. All parameters are multiples of 1/4, so the distance
    peaks on that grid. The scan covers every walk of the target's frame;
    past it the isolated points up to FAR, which hold the residue orbits,
    are read at their residue modulo 6 (every long run past 17 has shown
    a whole period inside the scan)."""
    pieces, acc = oracle(source, FAR)
    xs = {F(0)} if acc else set()
    for a, b in pieces:
        if a == b and abs(a) > SCAN:
            xs.add(48 + a % 6 if a > 0 else -48 - -a % 6)
            continue
        a, b = max(a, -SCAN), min(b, SCAN)
        if a <= b:
            xs |= {a, b} | {F(k, 8) for k in range(math.ceil(a * 8),
                                                    math.floor(b * 8) + 1)}
    return max(distance_to_set(target, x) for x in xs)


@settings(max_examples=100, deadline=None)
@given(source=trees(2), target=TARGETS)
def test_sup_distance_matches_a_window_scan(source, target):
    got = sup_distance(source, target)
    runs_off = any(o_reaches(source, side) and not o_reaches(target, side)
                   for side in (-1, 1))
    assert (got.kind == "infinite") == runs_off
    if runs_off:
        return
    if got.kind == "unknown":
        # only a ratio that keeps no residue orbit stays open, below the
        # bound that comes with it
        assert has_fractional_ratio(source)
        assert got.value is None or got.value >= scanned_sup(source, target)
    else:
        assert got.kind == "value" and got.value == scanned_sup(source, target)


# -- epsilon curves --------------------------------------------------------


def test_epsilon_t_matches_direct_recomputation():
    grids = [F(3, 2), F(2), F(7, 3), F(4), F(11, 2), F(12)]
    pairs = [
        (FullLine(), UNIT_LATTICE, None),
        (FullLine(), UNIT_LATTICE, F(5)),
        (GP2, Ray(F(0), 1), F(0)),
        (GB412, FullLine(), None),
        (Ray(F(0), 1), Lattice(F(1), F(0), half="plus"), F(0)),
    ]
    for y, z, p in pairs:
        for t in grids:
            assert epsilon_t(y, z, p, t) == eps_pair_oracle(y, z, p, t)


def test_epsilon_t_is_a_directed_pair():
    # integer radii land on lattice points, so only the line side pays
    assert epsilon_t(FullLine(), UNIT_LATTICE, None, F(3, 2)) == (F(0), F(1, 2))
    assert epsilon_t(UNIT_LATTICE, FullLine(), None, F(3, 2)) == (F(1, 2), F(0))


def test_epsilon_curve_samples_and_ratio():
    curve = epsilon_curve(FullLine(), UNIT_LATTICE, None, [F(3, 2), F(5, 2)])
    assert curve.samples == (
        (F(3, 2), F(0), F(1, 2), F(1, 2), F(1, 3)),
        (F(5, 2), F(0), F(1, 2), F(1, 2), F(1, 5)),
    )
    assert curve.max_ratio() == F(1, 3)


def test_epsilon_curve_rejects_bad_grids():
    y, z = FullLine(), UNIT_LATTICE
    with pytest.raises(InputError):
        epsilon_curve(y, z, None, [])
    with pytest.raises(InputError):
        epsilon_curve(y, z, None, [F(2), F(1)])
    with pytest.raises(InputError):
        epsilon_curve(y, z, None, [F(0), F(1)])


def test_epsilon_curve_reads_each_arc_sup_once(count_calls):
    # strip(-1, 2) against the planar ray: the strip's arc is (-1/2, 1/2)
    # at t = 1/2, (-1, 1) at t = 1 and (-1, 2) at every t >= 2
    strip, ray = HalfPlaneStrip(F(-1), F(2)), PlanarRay()
    grid = [F(1, 2), F(1)] + [F(2) ** k for k in range(1, 13)]
    rows = [epsilon_t(strip, ray, None, t) for t in grid]
    calls = count_calls(equivalence, "sup_distance")
    curve = epsilon_curve(strip, ray, None, grid)
    assert calls["sup_distance"] == 3
    assert [row[1:3] for row in curve.samples] == rows


def test_base_point_must_match_the_dimension():
    with pytest.raises(InputError):
        epsilon_t(HalfPlaneStrip(F(-1), F(2)), PlanarRay(), F(0), F(2))
    with pytest.raises(InputError):
        epsilon_t(FullLine(), UNIT_LATTICE, (F(0), F(0)), F(2))


# -- eps-net checks --------------------------------------------------------


def test_eps_net_certified_at_half():
    verdict = check_eps_net(FullLine(), UNIT_LATTICE, F(1, 2))
    assert verdict.status == "certified"
    assert "covering" in verdict.note


def test_eps_net_inconclusive_below_half():
    verdict = check_eps_net(FullLine(), UNIT_LATTICE, F(1, 3))
    assert verdict.status == "inconclusive"
    assert "no witness" in verdict.note


def test_eps_net_counterexample_names_a_far_point():
    verdict = check_eps_net(Ray(F(0), 1), GP2, F(1))
    assert verdict.status == "counterexample"
    assert verdict.from_side == "Y"
    assert contains(Ray(F(0), 1), verdict.point)
    assert verdict.distance == distance_to_set(GP2, verdict.point)
    assert verdict.distance > F(1)


@pytest.mark.parametrize("target, point", [
    (Ray(F(2), 1), F(-1)),
    (Lattice(F(1), F(0), "minus"), F(3)),
    # the side a periodic pattern or a reflection leaves empty
    (PeriodicBlocks(F(2), ((F(0), F(1)),)), F(-3)),
    (Reflected(FiniteModification(Lattice(F(1), F(0), "plus"),
                                  removed=(F(0),))), F(2)),
])
def test_eps_net_probes_the_side_the_target_leaves_empty(target, point):
    verdict = check_eps_net(FullLine(), target, F(2))
    assert verdict.status == "counterexample"
    assert (verdict.from_side, verdict.point) == ("Y", point)
    assert verdict.distance == 3


def test_eps_net_between_planar_sets_has_no_side_to_probe():
    # the strip is 2 from the axis, and neither set has a side to probe
    verdict = check_eps_net(HalfPlaneStrip(F(-1), F(2)), PlanarRay(), F(1))
    assert verdict.status == "inconclusive"


def test_eps_net_rejects_nonpositive_epsilon():
    with pytest.raises(InputError):
        check_eps_net(FullLine(), FullLine(), F(0))


# -- commensurable geometric trees against a brute-force scan ---------------


def removed_points(model):
    if isinstance(model, FiniteModification):
        return set(model.removed) | removed_points(model.base)
    if isinstance(model, FiniteUnion):
        return set().union(*map(removed_points, model.parts))
    if isinstance(model, Reflected):
        return {-x for x in removed_points(model.base)}
    return set()


def scan(source, target, bound, reach):
    """(sup, far, inside) over the source points in [-bound, bound]: the
    largest distance to the target's closure, whether a point beyond
    reach is at a positive distance, and whether every point lies in the
    target. Over a piece the distance peaks at an end or at the midpoint
    of a target gap inside it; an accumulation at 0 counts as the point 0
    for the sup, and the pieces below the oracle's listing scale are left
    out (their distances are below it)."""
    pieces, acc = oracle(source, bound)
    pieces = [(a, b) for a, b in pieces
              if not 0 < max(abs(a), abs(b)) <= 2 * TINY]
    t_pieces, t_acc = oracle(target, 2 * bound)
    hulls = coalesce(t_pieces)
    mids = [(h1 + l2) / 2 for (_, h1), (l2, _) in zip(hulls, hulls[1:])]
    holes = [x for x in removed_points(target) if not member(target, x)]
    best = o_distance(t_pieces, t_acc, F(0)) if acc else F(0)
    far, inside = False, True
    for a, b in pieces:
        for x in [a, b] + [m for m in mids if a < m < b]:
            d = o_distance(t_pieces, t_acc, x)
            best = max(best, d)
            far = far or (d > 0 and abs(x) > reach)
        inside = inside and any(lo <= a and b <= hi for lo, hi in hulls)
        inside = inside and not any(a <= x <= b and member(source, x)
                                    for x in holes)
    return best, far, inside


@settings(max_examples=120, deadline=None)
@given(pair=COMMENSURABLE_PAIRS)
def test_dilation_rules_match_a_scan_of_three_log_periods(pair):
    source, target = pair
    fs, ft = setmodels.frames(source), setmodels.frames(target)
    sides = [(max(fs[d].rho_reach, ft[d].rho_reach),
              common_power(fs[d].rho, ft[d].rho)) for d in (-1, 1)]
    reach = max(r for r, _ in sides)
    bound = max((r or 1) * max(L, F(2)) ** 3 for r, L in sides)
    best, far, inside = scan(source, target, bound, reach)
    # both accumulate at 0 from the same side
    shared = bool(oracle(source, F(1))[1] & oracle(target, F(1))[1])
    got = sup_distance(source, target)
    if got.kind == "value":
        assert got.value == best and not far
    elif got.kind == "infinite":
        assert far
    else:
        assert shared, "only a shared accumulation stays open"
    if is_structural_subset(source, target):
        assert inside
    else:
        assert shared or not inside

