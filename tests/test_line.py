"""Complement components, affine isometry search, and line classification."""

from collections import Counter
from fractions import Fraction as F

import pytest

from farfield import (
    FiniteModification,
    FiniteUnion,
    FullLine,
    GeometricBlocks,
    GeometricPoints,
    HalfPlaneStrip,
    Lattice,
    PeriodicBlocks,
    Ray,
    Reflected,
    classify_line_subspace,
    complement_components,
    contains,
    line_isometry_test,
    required_window,
    scaling_self_similarity,
)
from farfield import line
from farfield.setmodels import first_point
from farfield.errors import InputError, WindowTooSmallError
from farfield.line import DEFAULT_K_SAMPLES

GB412 = GeometricBlocks(F(4), F(1), F(2))
UNIT_LATTICE = Lattice(F(1), F(0))


def punctured_line(*removed):
    return FiniteModification(FullLine(), added=(), removed=tuple(removed))


# -- classification --------------------------------------------------------


def test_half_line_classifies_as_half_line():
    got = classify_line_subspace(Ray(F(5), 1))
    assert got.status == "isometric_to_R_plus"


def test_full_line_classifies_as_line():
    got = classify_line_subspace(FullLine())
    assert got.status == "isometric_to_R"


def test_line_minus_unit_interval_fails_at_doubling():
    model = FiniteUnion((Ray(F(0), -1), Ray(F(1), 1)))
    got = classify_line_subspace(model)
    assert got.status == "fails_condition_with"
    assert got.k == F(2)
    assert got.witness == F(1, 2)
    assert got.note == "gap_length"


def test_lattice_fails_at_doubling():
    got = classify_line_subspace(UNIT_LATTICE)
    assert got.status == "fails_condition_with"
    assert (got.k, got.witness) == (F(2), F(1, 2))


def test_punctured_line_stays_inconclusive():
    # one removed point never changes any length statistic, so the sampled
    # factors cannot separate it from the line and the verdict says so
    got = classify_line_subspace(punctured_line(F(3)))
    assert got.status == "inconclusive"
    assert "no sampled factor" in got.note


def test_classification_reads_each_complement_report_once(monkeypatch):
    # the sampled factors compare the model with its images over windows
    # that often coincide; one classification reads each (model, window)
    # once, where it used to read 11 reports of 7 pairs
    model = punctured_line(F(2))
    seen = Counter()
    original = line.complement_components

    def counted(m, h):
        seen[m, h] += 1
        return original(m, h)

    monkeypatch.setattr(line, "complement_components", counted)
    got = classify_line_subspace(model)
    assert got.status == "inconclusive"
    assert len(seen) == 7
    assert set(seen.values()) == {1}
    # the shared reports give each factor the verdict it gets alone
    for k in DEFAULT_K_SAMPLES:
        assert scaling_self_similarity(model, k).is_consistent
    # and nothing is kept across calls
    seen.clear()
    classify_line_subspace(model)
    assert len(seen) == 7


def test_classification_rejects_bad_factors():
    with pytest.raises(InputError):
        classify_line_subspace(UNIT_LATTICE, k_samples=[F(0)])
    with pytest.raises(InputError):
        classify_line_subspace(HalfPlaneStrip(F(-1), F(2)))


def test_covered_window_keeps_the_scale_of_the_blocks():
    # (-inf, 6] u [9, 18] u ...: the window [-6, 6] is covered edge to edge
    # and the gap (6, 9) opens just past it, so only the blocks' scale
    # keeps the empty complement from reading as the line
    model = FiniteUnion((Ray(F(3), -1), GeometricBlocks(F(3), F(1), F(2))))
    assert required_window(model) == F(6)
    got = classify_line_subspace(model)
    assert got.status == "fails_condition_with"
    assert (got.k, got.witness) == (F(2), F(3, 2))


# -- isometry between subsets ---------------------------------------------


def test_opposite_rays_are_isometric_by_reflection():
    got = line_isometry_test(Ray(F(5), 1), Ray(F(-7), -1))
    assert got.is_isometric
    assert (got.eps, got.shift) == (-1, F(-2))
    assert got.eps * F(5) + got.shift == F(-7)


def test_shifted_lattices_are_isometric():
    got = line_isometry_test(Lattice(F(1), F(1, 3)), UNIT_LATTICE)
    assert got.is_isometric
    assert (got.eps, got.shift) == (1, F(-1, 3))


def test_self_isometry_is_the_identity():
    for model in (UNIT_LATTICE, GB412, Ray(F(0), 1)):
        got = line_isometry_test(model, model)
        assert (got.eps, got.shift) == (1, F(0))


def test_different_lattice_steps_are_not_isometric():
    got = line_isometry_test(UNIT_LATTICE, Lattice(F(2), F(0)))
    assert got.status == "not_isometric"
    assert "length multisets" in got.statistic
    assert got.witness == F(1)


def test_reflected_geometric_points_are_isometric():
    gp = GeometricPoints(F(2), F(1), 0)
    got = line_isometry_test(gp, Reflected(gp))
    assert got.is_isometric
    assert (got.eps, got.shift) == (-1, F(0))


def test_translated_punctures_are_isometric():
    got = line_isometry_test(punctured_line(F(3)), punctured_line(F(5)))
    assert got.is_isometric
    assert (got.eps, got.shift) == (1, F(2))
    pair = line_isometry_test(punctured_line(F(0), F(1)),
                              punctured_line(F(4), F(5)))
    assert pair.is_isometric
    assert pair.eps == 1


def test_puncture_spacings_rule_maps_out():
    # {0,1} and {0,2} admit no slope +-1 bijection even though both leave
    # the length statistics of the line untouched
    got = line_isometry_test(punctured_line(F(0), F(1)),
                             punctured_line(F(0), F(2)))
    assert got.status == "not_isometric"
    assert "puncture spacing" in got.statistic
    assert got.witness == F(1)


def test_a_lone_point_against_a_ray_differs_in_its_tails():
    # the ray [0, inf) with -3 added, against (-inf, -3] u [0, inf): both
    # complements hold the gap (-3, 0) and no puncture, but only the first
    # has a left tail
    got = line_isometry_test(
        FiniteModification(Ray(F(0), 1), added=(F(-3),)),
        FiniteUnion((Ray(F(-3), -1), Ray(F(0), 1))))
    assert got.status == "not_isometric"
    assert got.statistic == "tail structure differs"
    assert got.witness is None


def test_homometric_punctures_match_no_alignment():
    # {0, 1, 4, 10, 12, 17} and {0, 1, 8, 11, 13, 17} are homometric: the
    # same multiset of differences, and neither is a translate or a mirror
    # image of the other
    a = (0, 1, 4, 10, 12, 17)
    b = (0, 1, 8, 11, 13, 17)
    assert Counter(y - x for x in a for y in a if y > x) \
        == Counter(y - x for x in b for y in b if y > x)
    got = line_isometry_test(punctured_line(*map(F, a)),
                             punctured_line(*map(F, b)))
    assert got.status == "not_isometric"
    assert got.statistic == "no slope +1 or -1 alignment matches the windows"
    assert got.witness is None


def test_puncture_against_the_full_line():
    got = line_isometry_test(punctured_line(F(3)), FullLine())
    assert got.status == "not_isometric"
    assert "empty" in got.statistic


# -- complement reports ----------------------------------------------------


def test_lattice_complement_is_unit_gaps():
    rep = complement_components(UNIT_LATTICE, F(5))
    assert rep.length_multiset == (F(1),) * 10
    assert rep.unbounded == ()
    assert rep.punctures == ()
    assert rep.truncated_below is None


def test_ray_complement_is_one_tail():
    rep = complement_components(Ray(F(0), 1), F(2))
    assert rep.bounded == ()
    assert rep.unbounded == (("left", F(0)),)


def test_blocks_complement_truncates_near_zero():
    rep = complement_components(GB412, F(8))
    assert rep.truncated_below is not None
    assert (F(2), F(4)) in rep.bounded
    assert (F(1, 2), F(1)) in rep.bounded
    for lo, hi in rep.bounded:
        assert lo >= rep.truncated_below
        assert hi == 2 * lo  # every gap runs from a block top to 2x it
    assert rep.unbounded == ()


def test_blocks_under_the_full_line_keep_their_scale():
    rep = complement_components(FiniteUnion((FullLine(), GB412)), F(8))
    assert rep.bounded == () and rep.unbounded == ()
    assert rep.truncated_below is not None


def test_hull_at_zero_that_ends_below_the_scale():
    # [-1, t] u [3, 4 + t] u ... beside GB(4, 1, 2): the window [-9, 9]
    # reads the blocks from start = 2**-18, so the gap below start opens
    # at t, and it is kept only where t is the truncation scale itself
    def report(t):
        hull = PeriodicBlocks(F(4), ((F(0), 1 + t),), F(-1))
        return complement_components(FiniteUnion((hull, GB412)), F(9))
    low = report(F(1, 2**30))
    assert low.truncated_below == F(1, 2**19)
    assert low.bounded[0] == (F(1, 2**17), F(1, 2**16))
    at_scale = report(F(3, 2**20))
    assert at_scale.truncated_below == F(3, 2**20)
    assert at_scale.bounded[0] == (F(3, 2**20), F(1, 2**18))


def test_window_without_set_points_names_the_next_point():
    # the prefix ends at 21, yet the points left are 30, 40, ...
    model = FiniteModification(Lattice(F(10), F(0), "plus"), (),
                               (F(0), F(10), F(20)))
    assert required_window(model) == F(21)
    with pytest.raises(WindowTooSmallError, match="no set points") as err:
        complement_components(model, F(21))
    assert err.value.required == F(31)
    assert complement_components(model, F(31)).unbounded \
        == (("left", F(30)),)


def test_window_must_cover_the_structural_prefix():
    assert required_window(UNIT_LATTICE) == F(2)
    with pytest.raises(WindowTooSmallError) as err:
        complement_components(UNIT_LATTICE, F(1))
    assert err.value.required == F(2)
    with pytest.raises(InputError):
        complement_components(UNIT_LATTICE, F(0))
    with pytest.raises(InputError):
        complement_components(HalfPlaneStrip(F(-1), F(2)), F(4))


# -- next and previous set points -------------------------------------------


def test_next_and_previous_points():
    assert first_point(UNIT_LATTICE, F(1, 2), 1) == F(1)
    assert first_point(UNIT_LATTICE, F(1, 2), -1) == F(0)
    gp = GeometricPoints(F(2), F(1), 0)
    assert first_point(gp, F(5), -1) == F(4)
    assert first_point(gp, F(5), 1) == F(8)
    assert first_point(Ray(F(0), -1), F(-3), 1) == F(-3)
    assert first_point(Ray(F(0), -1), F(1), 1) is None
    assert first_point(Ray(F(0), 1), F(-1), -1) is None
    assert first_point(Ray(F(0), 1), F(7, 2), -1) == F(7, 2)
    minus = Lattice(F(1), F(0), half="minus")
    assert first_point(minus, F(1, 2), 1) is None
    assert first_point(minus, F(1, 2), -1) == F(0)


def test_returned_points_are_set_members():
    models = [UNIT_LATTICE, GeometricPoints(F(2), F(1), 0), GB412,
              Ray(F(-3), 1), PeriodicBlocks(F(2), ((F(0), F(1)),))]
    for model in models:
        for k in range(-12, 13):
            x = F(k, 3)
            up = first_point(model, x, 1)
            if up is not None:
                assert up >= x and contains(model, up)
            down = first_point(model, x, -1)
            if down is not None:
                assert down <= x and contains(model, down)


# -- scaling self-similarity -------------------------------------------------


def test_unit_factor_is_trivially_consistent():
    got = scaling_self_similarity(UNIT_LATTICE, F(1))
    assert got.is_consistent
    assert got.note == "unit factor"


def test_lattice_scaling_is_refuted_with_the_gap_length():
    got = scaling_self_similarity(UNIT_LATTICE, F(2))
    assert got.status == "refuted"
    assert (got.witness, got.witness_kind) == (F(1, 2), "gap_length")
    assert scaling_self_similarity(UNIT_LATTICE, F(4)).witness == F(1, 4)


def test_two_punctures_are_refuted_by_their_spacing():
    # the line minus {0, 1} against its image minus {0, 1/2}: no gap to
    # compare, and the puncture spacings 1 and 1/2 differ
    model = punctured_line(F(0), F(1))
    got = scaling_self_similarity(model, 2)
    assert got.status == "refuted"
    assert (got.witness, got.witness_kind) == (F(1, 2), "puncture_gap")
    assert classify_line_subspace(model) == (
        "fails_condition_with", F(2), F(1, 2), "puncture_gap")


def test_blocks_are_self_similar_exactly_at_their_own_base():
    assert scaling_self_similarity(GB412, F(4)).is_consistent
    assert scaling_self_similarity(GB412, F(16)).is_consistent
    assert scaling_self_similarity(GB412, F(2)).status == "refuted"


def test_periodic_blocks_are_refuted_at_doubling():
    pb = PeriodicBlocks(F(2), ((F(0), F(1)),))
    got = scaling_self_similarity(pb, F(2))
    assert got.status == "refuted"
    assert got.witness == F(1, 2)


def test_scaling_rejects_nonpositive_factors():
    with pytest.raises(InputError):
        scaling_self_similarity(UNIT_LATTICE, F(0))
    with pytest.raises(InputError):
        scaling_self_similarity(UNIT_LATTICE, F(-2))
