"""Acceptance gate: one test per shipped guarantee, with pinned budgets.

Each criterion prints its own PASS or FAIL line so a log scan shows the
whole gate at a glance; runtime limits are asserted, not aspirational.
"""

import contextlib
import functools
import json
import random
import time
from fractions import Fraction as F

from farfield import (
    FiniteUnion,
    FullLine,
    GeometricBlocks,
    GeometricPoints,
    HalfPlaneStrip,
    Lattice,
    PlanarRay,
    Ray,
    classify_line_subspace,
    compare_spectra,
    complement_components,
    decide_strong_equivalence,
    epsilon_t,
    exists_isometry,
    exists_pseudoisometry,
    metric_identify,
    required_window,
    scale_model,
)
import farfield.porosity as por
import farfield.seqlab as sl
from farfield.cli import main as cli_main

import test_pseudometric as pm_helpers
import test_seqlab as lab_helpers


@contextlib.contextmanager
def budget(seconds):
    t0 = time.monotonic()
    yield
    elapsed = time.monotonic() - t0
    assert elapsed < seconds, f"runtime {elapsed:.2f}s exceeds {seconds}s"


def crit(number, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number}: FAIL ({label})")
                raise
            print(f"criterion {number}: PASS ({label})")
            return result
        return wrapper
    return deco


GP2 = GeometricPoints(F(2), F(1), 0)
GB412 = GeometricBlocks(F(4), F(1), F(2))


@crit(1, "porosity exact values and horizon estimator")
def test_criterion_1_porosity_exactness():
    with budget(1):
        cases = [
            (GP2, F(1, 2)),
            (GB412, F(1, 2)),
            (Lattice(F(1), F(0), half="plus"), F(0)),
            (Ray(F(0), 1), F(0)),
        ]
        for model, expected in cases:
            exact = por.porosity_at_infinity(model)
            assert exact.kind == "exact"
            assert exact.value == expected
            est = por.horizon_estimate(model)
            assert abs(est.value - exact.value) <= F(1, 10 ** 6)
            if exact.value > 0:
                # critical horizons are probed, so the estimator lands on
                # the limsup exactly and from below
                assert est.value == exact.value
            assert all(h <= F(2) ** 60 for h, _, _ in est.trace)


@crit(2, "equivalence verdicts for line/lattice and points/ray")
def test_criterion_2_strong_equivalence_verdicts():
    with budget(1):
        positive = decide_strong_equivalence(FullLine(), Lattice(F(1), F(0)))
        assert positive.status == "equivalent_exact"
        assert positive.bound == F(1, 2)

        negative = decide_strong_equivalence(GP2, Ray(F(0), 1))
        assert negative.status == "not_equivalent"
        w = negative.witness
        assert w.c >= F(1, 3) - F(1, 10 ** 12)
        for t in w.t_values:
            pair = epsilon_t(GP2, Ray(F(0), 1), F(0), t)
            assert max(pair) == w.c * t


@crit(3, "strip against planar ray with bound 2")
def test_criterion_3_strip_versus_ray():
    with budget(1):
        verdict = decide_strong_equivalence(HalfPlaneStrip(F(-1), F(2)),
                                            PlanarRay())
        assert verdict.status == "equivalent_exact"
        assert verdict.bound == F(2)


@crit(4, "spectra differ on the porous set and agree on nonporous ones")
def test_criterion_4_spectrum_comparison():
    with budget(5):
        s1 = sl.GeometricScaling(F(4), F(4))   # 4, 16, 64, ...
        s2 = sl.GeometricScaling(F(4), F(2))   # 2, 8, 32, ...
        comp = compare_spectra(GB412, F(0), s1, s2, [F(3, 4)],
                               F(1, 100), 50, 10)
        assert F(3, 4) in comp.differing_t

        grid = [F(k, 8) for k in range(33)]
        for model in (Ray(F(0), 1), Lattice(F(1), F(0))):
            comp = compare_spectra(model, F(0), s1, s2, grid,
                                   F(1, 100), 50, 10)
            assert comp.differing_t == ()


@crit(5, "pseudoisometry agrees with quotient isometry on 200 spaces")
def test_criterion_5_pseudoisometry_suite():
    with budget(10):
        rng = random.Random(20260814)
        spaces = [pm_helpers.random_pseudometric(rng, max_points=5)
                  for _ in range(200)]
        pairs = [(s, spaces[i - 1]) for i, s in enumerate(spaces)]
        for i, space in enumerate(spaces):
            # twins may gain up to two duplicate points, so only small
            # spaces stay inside the five point limit after shuffling
            if len(space) <= 3:
                pairs.append((space,
                              pm_helpers.relabel_shuffle_twin(space, rng,
                                                              f"t{i}_")))
        positives = 0
        for a, b in pairs:
            # both searches return a witness map when one exists; the
            # claim under test is that the decisions coincide
            expected = exists_isometry(metric_identify(a).space,
                                       metric_identify(b).space)
            assert bool(exists_pseudoisometry(a, b)) == bool(expected)
            positives += bool(expected)
        assert len(pairs) >= 250
        assert positives >= 25, "corpus lost its isometric pairs"


@crit(6, "sequence laws hold exactly on the affine corpus")
def test_criterion_6_sequence_laws():
    with budget(5):
        lab_helpers.test_membership_iff_stable_against_zero_sequences()
        lab_helpers.test_normalized_limit_equals_distance_to_zero_sequence()
        lab_helpers.test_zero_distance_transfers_stability()
        lab_helpers.test_zero_distance_transfers_membership()


@crit(7, "four point pretangent space and pushes that keep it rigid")
def test_criterion_7_pretangent_sample():
    scaling = sl.GeometricScaling(F(2), F(1))
    family = [
        ("x0", sl.ClosedFormSpec({})),
        ("xh", sl.ClosedFormSpec({"r": F(1, 2)})),
        ("x1", sl.ClosedFormSpec({"r": F(1)})),
        ("x2", sl.ClosedFormSpec({"r": F(2)})),
    ]
    graph = sl.stability_graph(family, scaling)
    cliques = sl.maximal_self_stable(graph)
    assert cliques == (("x0", "xh", "x1", "x2"),)
    report = sl.pretangent_space(graph, cliques[0])
    assert report.distinguished == "x0"
    target = pm_helpers.space_from_points({"a": F(0), "b": F(1, 2),
                                "c": F(1), "d": F(2)})
    assert exists_isometry(report.space.space, target)
    for stride, offset in ((2, 0), (2, 1), (3, 1)):
        push = sl.subsequence_push(family, scaling, stride, offset)
        for _, _, before, after in push.checks:
            assert before.status == "exact" and after.status == "exact"
            assert after.value == before.value


@crit(8, "half line, line, and line minus a unit gap classify correctly")
def test_criterion_8_line_classifier():
    with budget(1):
        assert classify_line_subspace(Ray(F(5), 1)).status \
            == "isometric_to_R_plus"
        assert classify_line_subspace(FullLine()).status == "isometric_to_R"
        cut = FiniteUnion((Ray(F(0), -1), Ray(F(1), 1)))
        verdict = classify_line_subspace(cut)
        assert verdict.status == "fails_condition_with"
        assert verdict.k == F(2)
        assert verdict.witness == F(1, 2)
        scaled = scale_model(cut, F(1, 2))
        window = max(required_window(cut), required_window(scaled))
        sides = [complement_components(m, window).length_multiset
                 for m in (cut, scaled)]
        hits = sum(verdict.witness in side for side in sides)
        assert hits == 1


CLI_RUNS = [
    ("porosity",
     {"model": {"kind": "geometric_points", "q": "2", "c": "1", "n0": 0}},
     ("--horizon", "80")),
    ("epsilon",
     {"y_model": {"kind": "full_line"},
      "z_model": {"kind": "lattice", "step": "1", "offset": "0",
                  "half": "full"},
      "t_grid": ["3/2", "5/2"]}, ()),
    ("equiv",
     {"y_model": {"kind": "geometric_points", "q": "2", "c": "1", "n0": 0},
      "z_model": {"kind": "ray", "origin": "0", "direction": "+"},
      "p": "0"}, ()),
    ("spectrum",
     {"model": {"kind": "geometric_blocks", "q": "4", "a": "1", "b": "2"},
      "p": "0",
      "scaling_1": {"kind": "geometric", "q": "4", "c": "4"},
      "scaling_2": {"kind": "geometric", "q": "4", "c": "2"},
      "t_grid": ["3/4"], "epsilon": "1/25", "horizon": 12}, ()),
    ("lab",
     {"families": [
         {"label": "x0", "spec": {"kind": "closed_form", "terms": {}}},
         {"label": "x1", "spec": {"kind": "closed_form",
                                  "terms": {"r": "1"}}}],
      "scaling": {"kind": "geometric", "q": "2", "c": "1"},
      "index_maps": [{"stride": 2, "offset": 1}]}, ()),
    ("classify-line",
     {"model": {"kind": "ray", "origin": "5", "direction": "+"}}, ()),
    ("pseudo", {"fuzz": {"count": 10, "max_points": 4, "seed": 3}}, ()),
]


@crit(9, "CLI runs are byte-identical and exit codes are exercised")
def test_criterion_9_cli_determinism_and_exit_codes(tmp_path):
    for name, cfg, flags in CLI_RUNS:
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"{name}-{run}"
            code = cli_main([name, "--config", str(cfg_path),
                             "--out", str(out), *flags])
            assert code == 0, name
            outs.append(out)
        first, second = outs
        names = sorted(p.name for p in first.iterdir())
        assert names and names == sorted(p.name for p in second.iterdir())
        for file_name in names:
            assert (first / file_name).read_bytes() \
                == (second / file_name).read_bytes(), (name, file_name)

    ok_cfg = tmp_path / "ok.json"
    ok_cfg.write_text(json.dumps({
        "y_model": {"kind": "full_line"},
        "z_model": {"kind": "lattice", "step": "1", "offset": "0",
                    "half": "full"}}))
    assert cli_main(["equiv", "--config", str(ok_cfg),
                     "--out", str(tmp_path / "ec0"), "--assert"]) == 0
    bad_cfg = tmp_path / "gp_ray.json"
    bad_cfg.write_text(json.dumps({
        "y_model": {"kind": "geometric_points", "q": "2", "c": "1", "n0": 0},
        "z_model": {"kind": "ray", "origin": "0", "direction": "+"},
        "p": "0"}))
    assert cli_main(["equiv", "--config", str(bad_cfg),
                     "--out", str(tmp_path / "ec1"), "--assert"]) == 1
    assert cli_main(["equiv", "--config", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "ec2")]) == 2
