"""Relative-gap limsup values: closed forms, the probe, and verdicts.

The closed forms are re-derived here from first principles (the widest
relative gap a geometric structure can realize below a horizon), and the
probe is cross-checked against a dense independent h-grid built only from
longest_gap, which test_setmodels already pins down by enumeration.
"""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from farfield import (
    FiniteModification,
    FiniteUnion,
    GeometricBlocks,
    GeometricPoints,
    InputError,
    Lattice,
    PeriodicBlocks,
    Ray,
    Reflected,
    horizon_estimate,
    is_porous_at_infinity,
    longest_gap,
    porosity_at_infinity,
)
from farfield import setmodels
from farfield.porosity import (DEFAULT_HORIZON_EXPONENT, _exact_closed_form,
                               _grid)
from test_setmodels_oracle import (
    NONNEG_HITS,
    coalesce,
    fractions,
    geometric_leaves,
    oracle,
)

F = Fraction


# ---------------------------------------------------------------------------
# Frozen exact values


def test_doubling_points_value():
    r = porosity_at_infinity(GeometricPoints(F(2), F(1), 0))
    assert r.kind == "exact"
    assert r.value == F(1, 2)


def test_quadrupling_blocks_value():
    r = porosity_at_infinity(GeometricBlocks(F(4), F(1), F(2)))
    assert r.kind == "exact"
    assert r.value == F(1, 2)


def test_half_lattice_value():
    r = porosity_at_infinity(Lattice(F(1), F(0), "plus"))
    assert r.kind == "exact"
    assert r.value == 0


def test_nonnegative_ray_value():
    r = porosity_at_infinity(Ray(F(0), 1))
    assert r.kind == "exact"
    assert r.value == 0


# ---------------------------------------------------------------------------
# Closed forms re-derived


@pytest.mark.parametrize("q,c,n0", [
    (F(2), F(1), 0), (F(3), F(5), -1), (F(7, 2), F(1, 3), 2),
    (F(11, 10), F(2), 0),
])
def test_point_family_closed_form(q, c, n0):
    # gap before c*q**n is c*q**n - c*q**(n-1); dividing by h = c*q**n
    # gives 1 - 1/q, and no horizon does better
    r = porosity_at_infinity(GeometricPoints(q, c, n0))
    assert r.value == 1 - 1 / q
    # deep enough that the gap between the last two points beats the
    # leading gap from the origin
    h = c * q ** (n0 + 40)
    assert longest_gap(GeometricPoints(q, c, n0), h) / h == 1 - 1 / q


@pytest.mark.parametrize("q,a,b", [
    (F(4), F(1), F(2)), (F(2), F(1), F(3, 2)), (F(3), F(5, 4), F(3)),
])
def test_block_family_closed_form(q, a, b):
    # gap between [a*q**n, b*q**n] and the next block is a*q**(n+1) - b*q**n;
    # dividing by h = a*q**(n+1) gives 1 - b/(a*q)
    model = GeometricBlocks(q, a, b)
    r = porosity_at_infinity(model)
    assert r.value == 1 - model.b / (model.a * model.q)
    h = model.a * model.q ** 9
    assert longest_gap(model, h) / h == r.value


def test_finite_modification_does_not_move_value():
    base = GeometricPoints(F(2), F(1), 0)
    poked = FiniteModification(base, added=(F(3), F(100)), removed=(F(4),))
    assert porosity_at_infinity(poked).value == F(1, 2)
    assert porosity_at_infinity(poked).kind == "exact"


def test_periodic_blocks_are_nonporous():
    m = PeriodicBlocks(F(3), ((F(0), F(1)), (F(3, 2), F(7, 4))))
    r = porosity_at_infinity(m)
    assert r.kind == "exact" and r.value == 0


@pytest.mark.parametrize("model", [
    FiniteUnion((Lattice(F(1), F(0), "plus"), Lattice(F(1), F(1, 2), "plus"),
                 GeometricPoints(F(2), F(1), 0))),
    # the same set, each part and the union reflected twice
    Reflected(FiniteUnion((Reflected(Lattice(F(1), F(0), "plus")),
                           Reflected(Lattice(F(1), F(1, 2), "plus")),
                           Reflected(GeometricPoints(F(2), F(1), 0))))),
])
def test_union_gap_bound_reads_its_periodic_parts(model):
    # each lattice's gap bound is 1, but their union's gaps are 1/2: the
    # union bound is read off the lattices' union, so the walk stops at its
    # first gap instead of running on to WINDOW_CAP
    start = time.perf_counter()
    r = porosity_at_infinity(model)
    assert time.perf_counter() - start < 0.1
    assert (r.kind, r.value) == ("exact", 0)
    assert r.notes == "all gaps bounded by 1/2"
    assert [h for h, _, _ in r.trace] == _grid(model,
                                               DEFAULT_HORIZON_EXPONENT)
    assert all(gap == F(1, 2) for _, gap, _ in r.trace)


def test_union_gap_bound_reads_the_parts_of_nested_unions():
    # the lattices one union deeper: their union is still read, and the
    # walk stops at the first gap 1/2 (it ran on to WINDOW_CAP before)
    model = FiniteUnion((
        FiniteUnion((Lattice(F(1), F(0), "plus"),
                     Lattice(F(1), F(1, 2), "plus"))),
        GeometricPoints(F(2), F(1), 0)))
    r = porosity_at_infinity(model)
    assert (r.kind, r.value) == ("exact", 0)
    assert r.notes == "all gaps bounded by 1/2"
    assert len(r.trace) == 81


def commensurable_nonneg_trees(rho, depth=2):
    sub = (geometric_leaves(rho) if depth == 1
           else commensurable_nonneg_trees(rho, depth - 1))
    return st.one_of(
        geometric_leaves(rho),
        st.lists(sub, min_size=2, max_size=3).map(
            lambda parts: FiniteUnion(tuple(parts))),
        st.builds(lambda base, added, removed: FiniteModification(
            base, tuple(added), tuple(removed)),
            sub, st.lists(fractions(0, 20, 4), max_size=2),
            st.lists(NONNEG_HITS, max_size=2)))


@settings(max_examples=100, deadline=None)
@given(model=st.sampled_from([F(2), F(3, 2)]).flatmap(
    commensurable_nonneg_trees))
def test_closed_form_matches_three_log_periods_of_gaps(model):
    # in each of three log periods past the reach, the widest gap over its
    # right end, read off the oracle's coalesced pieces
    value, _ = _exact_closed_form(model)
    frame = setmodels.frames(model)[1]
    a = frame.rho_reach or 1
    hulls = coalesce(oracle(model, a * frame.rho ** 4)[0])
    for j in range(3):
        lo, hi = a * frame.rho ** j, a * frame.rho ** (j + 1)
        ratios = [(l2 - h1) / l2 for (_, h1), (l2, _) in zip(hulls, hulls[1:])
                  if lo < h1 <= hi and l2 > h1]
        assert max(ratios, default=F(0)) == value, j


# ---------------------------------------------------------------------------
# Probe against an independent grid


@pytest.mark.parametrize("model,value", [
    (GeometricPoints(F(2), F(1), 0), F(1, 2)),
    (GeometricBlocks(F(4), F(1), F(2)), F(1, 2)),
    (GeometricPoints(F(3), F(1), 0), F(2, 3)),
])
def test_probed_ratios_never_beat_the_limsup(model, value):
    # dense sweep: 32 horizons per octave across twelve octaves
    best = F(0)
    h0 = F(2) ** 8
    for j in range(12 * 32):
        h = h0 * (F(2) ** (j // 32)) * (32 + j % 32) / 32
        best = max(best, longest_gap(model, h) / h)
    assert best <= value
    assert value - best < F(1, 50)


def test_estimator_tracks_exact_values():
    cases = [
        (GeometricPoints(F(2), F(1), 0), F(1, 2)),
        (GeometricBlocks(F(4), F(1), F(2)), F(1, 2)),
        (Lattice(F(1), F(0), "plus"), F(0)),
        (Ray(F(0), 1), F(0)),
    ]
    for model, exact in cases:
        est = horizon_estimate(model)
        assert est.kind == "horizon_estimate"
        assert abs(est.value - exact) <= F(1, 10 ** 6)
        if exact > 0:
            # probed sup approaches the limsup from below and the critical
            # horizons are injected, so it lands exactly
            assert est.value == exact


def test_estimator_trace_rows_are_consistent():
    est = horizon_estimate(GeometricPoints(F(2), F(1), 0), 200)
    assert est.trace
    for h, gap, ratio in est.trace:
        assert ratio == gap / h
        assert 0 <= ratio < 1
    assert est.value == max(row[2] for row in est.trace)
    assert all(est.trace[i][0] < est.trace[i + 1][0]
               for i in range(len(est.trace) - 1))


def test_estimator_horizon_cap():
    est = horizon_estimate(GeometricPoints(F(2), F(1), 0))
    assert max(row[0] for row in est.trace) == F(2) ** 60


# ---------------------------------------------------------------------------
# Verdicts


def test_verdict_porous_with_witness():
    v = is_porous_at_infinity(GeometricBlocks(F(4), F(1), F(2)))
    assert v.status == "porous"
    assert v.witness_ratio == F(1, 2)
    assert longest_gap(GeometricBlocks(F(4), F(1), F(2)), v.witness_h) \
        == v.witness_ratio * v.witness_h


def test_verdict_nonporous_needs_certificate():
    v = is_porous_at_infinity(Lattice(F(1), F(0), "plus"))
    assert v.status == "nonporous_certified"
    v2 = is_porous_at_infinity(Ray(F(5), 1))
    assert v2.status == "nonporous_certified"


@pytest.mark.parametrize("model", [
    Reflected(Lattice(F(1), F(0), "minus")),  # {0, 1, 2, ...}
    FiniteUnion((Reflected(Ray(F(-2), -1)), GeometricPoints(F(2), F(1), 0))),
])
def test_reflected_sets_certify_nonporosity(model):
    # a reflected set's gap bound is its base's on the other side
    result = porosity_at_infinity(model, 170)
    assert (result.kind, result.value) == ("exact", 0)
    assert is_porous_at_infinity(model).status == "nonporous_certified"


def test_verdict_porous_estimate_without_closed_form():
    # incommensurable doubling and tripling points: no closed form, probed
    # ratio 1/2
    u = FiniteUnion((GeometricPoints(F(2), F(1), 0),
                     GeometricPoints(F(3), F(1), 0)))
    v = is_porous_at_infinity(u, horizon_exponent=200)
    assert v.status == "porous"
    assert v.witness_ratio == F(1, 2)
    assert v.result.kind == "horizon_estimate"


def test_verdict_inconclusive_below_threshold():
    # incommensurable slow scales: ratios top out at 1/13 < 1/10 and no
    # certificate applies
    u = FiniteUnion((GeometricPoints(F(12, 11), F(1), 0),
                     GeometricPoints(F(13, 12), F(1), 0)))
    v = is_porous_at_infinity(u, threshold=F(1, 10), horizon_exponent=180)
    assert v.status == "inconclusive_at_horizon"
    assert v.result.value == F(1, 13)


@pytest.mark.parametrize("parts, value", [
    # interleaved doubling families: the gaps (4/3, 2) and (1, 3/2)
    ((GeometricPoints(F(2), F(1), 0), GeometricPoints(F(2), F(4, 3), 0)),
     F(1, 3)),
    ((GeometricPoints(F(2), F(1), 0), GeometricPoints(F(2), F(3, 2), 0)),
     F(1, 3)),
    # the pinned slow union: (12/11, 138/121) over its right end
    ((GeometricPoints(F(12, 11), F(1), 0),
      GeometricPoints(F(12, 11), F(23, 22), 0)), F(1, 23)),
    ((GeometricPoints(F(12, 11), F(1), 0),
      GeometricPoints(F(12, 11), F(1), 0)), F(1, 12)),
    # log period 4: the gaps (3, 4), (4, 8), (8, 12)
    ((GeometricPoints(F(2), F(1), 0), GeometricPoints(F(4), F(3), 0)),
     F(1, 2)),
])
def test_commensurable_unions_are_exact(parts, value):
    result = porosity_at_infinity(FiniteUnion(parts), 180)
    assert (result.kind, result.value) == ("exact", value)
    # the probe's critical horizons land on the widest gap's right end
    assert max(row[2] for row in result.trace) == value


@pytest.mark.parametrize("first, second, value", [
    (GeometricPoints(F(5, 2), F(1), 0), GeometricPoints(F(3), F(1), 0),
     F(3, 5)),
    (GeometricPoints(F(7, 3), F(1), 0), GeometricBlocks(F(3), F(1), F(5, 4)),
     F(4, 7)),
])
def test_a_double_reflection_keeps_the_critical_horizons(first, second,
                                                         value):
    # Reflected(Reflected(X)) is X, so it brings X's critical horizons to
    # the grid; a single reflection stays a leaf (see the oracle tests)
    plain = porosity_at_infinity(FiniteUnion((first, second)))
    doubled = porosity_at_infinity(
        FiniteUnion((Reflected(Reflected(first)), second)))
    assert (plain.kind, plain.value) == ("horizon_estimate", value)
    assert doubled == plain


def test_truncation_is_read_once_per_probe(count_calls):
    # the walk from 0 read it at every horizon (63 calls); the seeded walk
    # reads it for the first horizon only, as no gap falls below h/2**20
    calls = count_calls(setmodels, "truncation")
    model = FiniteUnion((GeometricPoints(F(5, 4), F(1), 0),
                         GeometricBlocks(F(3, 2), F(1), F(5, 4))))
    porosity_at_infinity(model, 188)
    assert calls == {"truncation": 1}


# ---------------------------------------------------------------------------
# Input guards


def test_two_sided_models_rejected():
    with pytest.raises(InputError):
        porosity_at_infinity(Lattice(F(1), F(0)))
    with pytest.raises(InputError):
        porosity_at_infinity(Ray(F(0), -1))


def test_tiny_horizon_rejected():
    with pytest.raises(InputError):
        horizon_estimate(Ray(F(0), 1), 2)
