"""Batch runner: config handling, file formats, exit codes, determinism."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from farfield import seqlab, setmodels
from farfield.cli import _Text, build_parser, main, write_json

GP2 = {"kind": "geometric_points", "q": "2", "c": "1", "n0": 0}
GP3 = {"kind": "geometric_points", "q": "3", "c": "1", "n0": 0}
RAY = {"kind": "ray", "origin": "0", "direction": "+"}
LINE = {"kind": "full_line"}
LATTICE = {"kind": "lattice", "step": "1", "offset": "0", "half": "full"}

LAB_CONFIG = {
    "families": [
        {"label": "x0", "spec": {"kind": "closed_form", "terms": {}}},
        {"label": "xa", "spec": {"kind": "closed_form",
                                 "terms": {"alt_r": "1"}}},
        {"label": "xr", "spec": {"kind": "closed_form",
                                 "terms": {"r": "1", "sqrt_r": "2"}}},
    ],
    "scaling": {"kind": "geometric", "q": "2", "c": "1"},
    "index_maps": [{"stride": 2, "offset": 0}, {"stride": 2, "offset": 1}],
}

SPECTRUM_CONFIG = {
    "model": {"kind": "geometric_blocks", "q": "4", "a": "1", "b": "2"},
    "p": "0",
    "scaling_1": {"kind": "geometric", "q": "4", "c": "4"},
    "scaling_2": {"kind": "geometric", "q": "4", "c": "2"},
    "t_grid": ["1/2", "3/4", "3/2"],
    "epsilon": "1/25",
    "horizon": 12,
}


def run(tmp_path, command, cfg, *flags, name="cfg.json", out="out"):
    cfg_path = tmp_path / name
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / out
    code = main([command, "--config", str(cfg_path),
                 "--out", str(out_dir), *flags])
    return code, out_dir


def rerun_is_byte_identical(tmp_path, command, cfg, *flags):
    _, first = run(tmp_path, command, cfg, *flags, out="run1")
    _, second = run(tmp_path, command, cfg, *flags, out="run2")
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    assert names, "the command wrote no files"
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()


# -- porosity ----------------------------------------------------------------


def test_porosity_summary_and_trace(tmp_path):
    code, out = run(tmp_path, "porosity", {"model": GP2}, "--horizon", "80")
    assert code == 0
    summary = json.loads((out / "porosity_summary.json").read_text())
    assert summary["value"] == "1/2"
    assert summary["value_dec"] == "0.5"
    assert summary["kind"] == "exact"
    assert summary["status"] == "porous"
    lines = (out / "porosity_trace.csv").read_text().splitlines()
    assert lines[0] == "h,h_dec,gap_length,gap_length_dec,ratio,ratio_dec"
    assert all(line.split(",")[4] for line in lines[1:])


def test_porosity_assert_flags_inconclusive_runs(tmp_path):
    # two incommensurable slow scales: no closed form, and the probed sup
    # stays below the threshold
    union = {"kind": "finite_union", "parts": [
        {"kind": "geometric_points", "q": "12/11", "c": "1", "n0": 0},
        {"kind": "geometric_points", "q": "13/12", "c": "1", "n0": 0},
    ]}
    cfg = {"model": union, "threshold": "1/10", "horizon_exponent": 180}
    code, out = run(tmp_path, "porosity", cfg, "--assert")
    assert code == 1
    summary = json.loads((out / "porosity_summary.json").read_text())
    assert summary["status"] == "inconclusive_at_horizon"
    assert (summary["kind"], summary["value"]) == ("horizon_estimate", "1/13")


def test_porosity_of_a_commensurable_union_is_exact(tmp_path):
    # both parts rescale by 12/11, so one log period gives the value
    union = {"kind": "finite_union", "parts": [
        {"kind": "geometric_points", "q": "12/11", "c": "1", "n0": 0},
        {"kind": "geometric_points", "q": "12/11", "c": "23/22", "n0": 0},
    ]}
    cfg = {"model": union, "threshold": "1/10", "horizon_exponent": 180}
    code, out = run(tmp_path, "porosity", cfg, "--assert")
    assert code == 0
    summary = json.loads((out / "porosity_summary.json").read_text())
    assert (summary["kind"], summary["value"]) == ("exact", "1/23")
    assert summary["status"] == "porous"


def test_porosity_gap_bound_survives_a_too_rich_probe(tmp_path, monkeypatch):
    # the lattice from 10**6 lists too many points for the grid probe, and
    # the GP(2) points split its lead gap, so the walk never meets the gap
    # bound 10**6; the bound still certifies the exact value 0
    monkeypatch.setattr(setmodels, "WINDOW_CAP", 60)
    union = {"kind": "finite_union", "parts": [
        {"kind": "lattice", "step": "1", "offset": "1000000", "half": "plus"},
        GP2,
    ]}
    code, out = run(tmp_path, "porosity", {"model": union})
    assert code == 0
    summary = json.loads((out / "porosity_summary.json").read_text())
    assert summary["value"] == "0"
    assert summary["kind"] == "exact"
    assert summary["status"] == "nonporous_certified"
    assert "grid probe skipped" in summary["notes"]
    lines = (out / "porosity_trace.csv").read_text().splitlines()
    assert len(lines) == 1  # header only


def test_porosity_walk_stops_at_the_gap_bound(tmp_path):
    # the step-1 lattice meets its gap bound 1 at its first gap, so the
    # walk stops there instead of listing every point up to each horizon
    union = {"kind": "finite_union", "parts": [
        {"kind": "lattice", "step": "1", "offset": "0", "half": "plus"},
        GP2,
    ]}
    code, out = run(tmp_path, "porosity", {"model": union})
    assert code == 0
    summary = json.loads((out / "porosity_summary.json").read_text())
    assert (summary["value"], summary["kind"]) == ("0", "exact")
    assert summary["notes"] == "all gaps bounded by 1"
    lines = (out / "porosity_trace.csv").read_text().splitlines()
    assert len(lines) == 82
    assert all(line.split(",")[2] == "1" for line in lines[1:])


def test_porosity_of_a_lattice_union_keeps_its_trace(tmp_path):
    # the union has period 1: its gap search stops two periods past the
    # reach instead of listing every point up to each horizon
    union = {"kind": "finite_union", "parts": [
        {"kind": "lattice", "step": "1/2", "offset": "0", "half": "plus"},
        {"kind": "lattice", "step": "1/3", "offset": "0", "half": "plus"},
    ]}
    code, out = run(tmp_path, "porosity", {"model": union})
    assert code == 0
    summary = json.loads((out / "porosity_summary.json").read_text())
    assert (summary["value"], summary["kind"]) == ("0", "exact")
    assert "skipped" not in summary["notes"]
    lines = (out / "porosity_trace.csv").read_text().splitlines()
    assert len(lines) == 82
    assert all(line.split(",")[2] == "1/3" for line in lines[1:])


# -- epsilon curves ------------------------------------------------------------


def test_epsilon_curve_is_fully_frozen(tmp_path):
    cfg = {"y_model": LINE, "z_model": LATTICE, "t_grid": ["3/2", "5/2"]}
    code, out = run(tmp_path, "epsilon", cfg)
    assert code == 0
    expected = (
        "t,t_dec,eps_ZY,eps_ZY_dec,eps_YZ,eps_YZ_dec,"
        "eps,eps_dec,ratio,ratio_dec\n"
        "3/2,1.5,0,0,1/2,0.5,1/2,0.5,1/3,0.333333333333\n"
        "5/2,2.5,0,0,1/2,0.5,1/2,0.5,1/5,0.2\n")
    assert (out / "epsilon_curve.csv").read_bytes() == expected.encode()


# -- equivalence ----------------------------------------------------------------


def test_equiv_positive_verdict(tmp_path):
    cfg = {"y_model": LINE, "z_model": LATTICE}
    code, out = run(tmp_path, "equiv", cfg, "--assert")
    assert code == 0
    verdict = json.loads((out / "equiv_verdict.json").read_text())
    assert verdict["status"] == "equivalent_exact"
    assert verdict["bound"] == "1/2"
    assert verdict["witness"] is None


def test_equiv_negative_verdict_and_witness(tmp_path):
    cfg = {"y_model": GP2, "z_model": RAY, "p": "0",
           "t_grid": ["3/2", "3", "6"]}
    code, out = run(tmp_path, "equiv", cfg, "--assert")
    assert code == 1
    verdict = json.loads((out / "equiv_verdict.json").read_text())
    assert verdict["status"] == "not_equivalent"
    w = verdict["witness"]
    assert (w["coef"], w["q"], w["c"]) == ("3/2", "2", "1/3")
    assert w["t_values"] == ["3/2", "3", "6"]
    curve = (out / "epsilon_curve.csv").read_text().splitlines()
    assert curve[1].startswith("3/2,")
    assert curve[1].split(",")[8] == "1/3"  # eps(t)/t on the witness row


def test_equiv_touching_blocks_against_the_half_line(tmp_path):
    # the blocks [2**n, 2**(n+1)] cover (0, inf): no gap to certify a
    # witness with, and every sphere defect is 0
    blocks = {"kind": "geometric_blocks", "q": "2", "a": "1", "b": "2"}
    code, out = run(tmp_path, "equiv", {"y_model": blocks, "z_model": RAY},
                    "--assert")
    assert code == 0
    verdict = json.loads((out / "equiv_verdict.json").read_text())
    assert (verdict["status"], verdict["bound"]) == ("equivalent_exact", "0")
    assert verdict["witness"] is None


NATURALS = {"kind": "finite_modification", "removed": ["0"],
            "base": {"kind": "lattice", "step": "1", "offset": "0",
                     "half": "plus"}}
EVENS_AND_ODDS = {"kind": "finite_union", "parts": [
    {"kind": "lattice", "step": "2", "offset": "0", "half": "full"},
    {"kind": "lattice", "step": "2", "offset": "1", "half": "full"}]}


@pytest.mark.parametrize("y_model, z_model, bound", [
    (NATURALS, RAY, "1"),             # 0 lies 1 from {1, 2, 3, ...}
    (EVENS_AND_ODDS, LATTICE, "0"),
])
def test_equiv_modification_and_union_targets_are_exact(tmp_path, y_model,
                                                       z_model, bound):
    code, out = run(tmp_path, "equiv",
                    {"y_model": y_model, "z_model": z_model}, "--assert")
    assert code == 0
    verdict = json.loads((out / "equiv_verdict.json").read_text())
    assert (verdict["status"], verdict["bound"]) == ("equivalent_exact", bound)


PLANAR_RAY = {"kind": "planar_ray"}
STRIP_OR_RAY = {"kind": "finite_union", "parts": [
    {"kind": "half_plane_strip", "c1": "-1", "c2": "2"}, PLANAR_RAY]}


@pytest.mark.parametrize("y_model, z_model", [
    (STRIP_OR_RAY, PLANAR_RAY),
    (PLANAR_RAY, STRIP_OR_RAY),
])
def test_equiv_strip_or_ray_against_the_ray(tmp_path, y_model, z_model):
    # the union lies within 2 of the ray (the strip's top edge), and the
    # ray lies inside the union
    code, out = run(tmp_path, "equiv",
                    {"y_model": y_model, "z_model": z_model}, "--assert")
    assert code == 0
    verdict = json.loads((out / "equiv_verdict.json").read_text())
    assert (verdict["status"], verdict["bound"]) == ("equivalent_exact", "2")


HALF_PLANE = {"kind": "product", "x": RAY, "y": LINE}
HALF_PLANE_ROWS = {"kind": "product", "x": RAY, "y": LATTICE}
STRIP = {"kind": "half_plane_strip", "c1": "-1", "c2": "2"}
PLANE = {"kind": "product", "x": LINE, "y": LINE}
GRID = {"kind": "product", "x": LATTICE, "y": LATTICE}
TWO_STRIPS = {"kind": "finite_union", "parts": [
    {"kind": "half_plane_strip", "c1": "-1", "c2": "1"},
    {"kind": "half_plane_strip", "c1": "-2", "c2": "1/2"}]}


@pytest.mark.parametrize("y_model, z_model, bound", [
    # [0, inf) x R lies within 1/2 of [0, inf) x Z
    (HALF_PLANE, HALF_PLANE_ROWS, "1/2"),
    (HALF_PLANE_ROWS, HALF_PLANE, "1/2"),
    # the union is [0, inf) x [-2, 1], and the strip's top edge lies 1
    # above it
    (STRIP, TWO_STRIPS, "1"),
    (TWO_STRIPS, STRIP, "1"),
    # the plane lies within sqrt(2)/2 of Z x Z, an irrational sup: its
    # bound 1/2 + 1/2 certifies
    (PLANE, GRID, "1"),
    (GRID, PLANE, "1"),
])
def test_equiv_products_and_strip_unions_are_exact(tmp_path, y_model,
                                                   z_model, bound):
    # both exited 2 when the numeric rung could not slice the product or
    # the union
    code, out = run(tmp_path, "equiv",
                    {"y_model": y_model, "z_model": z_model}, "--assert")
    assert code == 0
    verdict = json.loads((out / "equiv_verdict.json").read_text())
    assert (verdict["status"], verdict["bound"]) == ("equivalent_exact",
                                                     bound)


# -- spectra ---------------------------------------------------------------------


def test_spectrum_rows_and_differing_t(tmp_path):
    code, out = run(tmp_path, "spectrum", SPECTRUM_CONFIG)
    assert code == 0
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "t,t_dec,status_r1,status_r2,first_divergent_index"
    assert lines[1] == "1/2,0.5,present,present,"
    assert lines[2] == "3/4,0.75,absent_at_horizon,present,1"
    assert lines[3] == "3/2,1.5,present,absent_at_horizon,1"
    summary = json.loads((out / "spectrum_summary.json").read_text())
    assert summary["differing_t"] == ["3/4", "3/2"]


def test_spectrum_assert_flags_divergence(tmp_path):
    code, _ = run(tmp_path, "spectrum", SPECTRUM_CONFIG, "--assert")
    assert code == 1


@pytest.mark.parametrize("changes", [
    {"persistence": 0},
    {"t_grid": [], "epsilon": "0", "horizon": 0},
    {"t_grid": []},
    {"horizon": 10.5},
    {"persistence": 2.5},
])
def test_spectrum_bad_inputs_exit_two(tmp_path, changes):
    code, out = run(tmp_path, "spectrum", dict(SPECTRUM_CONFIG, **changes))
    assert code == 2
    assert not (out / "spectrum.csv").exists()


# -- sequence lab ------------------------------------------------------------------


def test_lab_report_structure(tmp_path):
    code, out = run(tmp_path, "lab", LAB_CONFIG)
    assert code == 0
    report = json.loads((out / "lab_report.json").read_text())
    assert report["tilde"] == {"x0": "0", "xa": "1", "xr": "1"}
    assert report["maximal_families"] == [["x0", "xa"], ["x0", "xr"]]
    assert ["x0", "xa", "1"] in report["edges"]
    for block in report["pretangent"]:
        assert block["distinguished"] == "x0"
        assert block["table"][0][0] == "0"
    even, odd = report["pushes"]
    assert (even["stride"], even["offset"]) == (2, 0)
    split = [c for c in even["checks"] if c["labels"] == ["xa", "xr"]]
    assert split and split[0]["before"]["status"] == "no_limit"
    assert split[0]["before"]["clusters"] == [["even", "0"], ["odd", "2"]]
    assert split[0]["after"] == {"clusters": None, "status": "exact",
                                 "value": "0"}
    odd_split = [c for c in odd["checks"] if c["labels"] == ["xa", "xr"]]
    assert odd_split[0]["after"]["value"] == "2"


@pytest.mark.parametrize("changes", [
    {"scaling": 5},
    {"families": [{"label": "x0", "spec": [1]}]},
    {"scaling": {"kind": "polynomial", "degree": 1.5}},
    {"index_maps": [{"stride": 1.5, "offset": 0}]},
    {"families": [{"label": "x0",
                   "spec": {"kind": "closed_form", "terms": [1]}}]},
    # labels name the pretangent points as strings: 1 met "1" there and
    # ended in a traceback, and [1] is not even hashable
    {"families": [{"label": 1, "spec": {"kind": "closed_form", "terms": {}}},
                  {"label": "1",
                   "spec": {"kind": "closed_form", "terms": {}}}]},
    {"families": [{"label": [1],
                   "spec": {"kind": "closed_form", "terms": {}}}]},
])
def test_lab_bad_configs_exit_two(tmp_path, changes):
    # a non-object scaling, spec or terms, a fractional degree or stride,
    # and a label that is not a string, are config errors: never a
    # traceback, never truncated to 1
    code, out = run(tmp_path, "lab", dict(LAB_CONFIG, **changes))
    assert code == 2
    assert not (out / "lab_report.json").exists()


def _plain_lab_report(cfg) -> bytes:
    """The bytes `farfield lab` should write for cfg: its report built as
    plain dicts and lists, the pushes read without the graph, and rendered
    by json.dumps."""
    family = [(item["label"], seqlab.spec_from_dict(item["spec"]))
              for item in cfg["families"]]
    scaling = seqlab.scaling_from_dict(cfg["scaling"])
    graph = seqlab.stability_graph(family, scaling)
    cliques = seqlab.maximal_self_stable(graph)

    def text(value):
        return str(Fraction(value))

    def limit(res):
        return {"status": res.status,
                "value": None if res.value is None else text(res.value),
                "clusters": [[name, text(v)] for name, v in res.clusters]
                or None}

    pretangent = []
    for clique in cliques:
        report = seqlab.pretangent_space(graph, clique)
        space = report.space.space
        pretangent.append({
            "members": list(clique),
            "points": list(space.labels),
            "table": [[text(v) for v in row] for row in space.dist],
            "distinguished": report.distinguished,
            "blocks": [list(pair) for pair in report.member_blocks],
        })
    pushes = []
    for entry in cfg.get("index_maps", ()):
        push = seqlab.subsequence_push(family, scaling, entry["stride"],
                                       entry.get("offset", 0))
        pushes.append({
            "stride": push.stride,
            "offset": push.offset,
            "checks": [{"kind": kind, "labels": list(labels),
                        "before": limit(before), "after": limit(after)}
                       for kind, labels, before, after in push.checks],
        })
    payload = {
        "tilde": {label: text(v) for label, v in zip(graph.labels,
                                                      graph.tilde)},
        "edges": [[graph.labels[i], graph.labels[j], text(v)]
                  for (i, j), v in graph.edges],
        "maximal_families": [list(c) for c in cliques],
        "pretangent": pretangent,
        "pushes": pushes,
    }
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()


def _lab_statuses(report_bytes, side):
    return {check[side]["status"]
            for push in json.loads(report_bytes)["pushes"]
            for check in push["checks"]}


INDEX_MAPS = {
    0: [],
    1: [{"stride": 3, "offset": 1}],
    3: [{"stride": 2, "offset": 0}, {"stride": 2, "offset": 1},
        {"stride": 3, "offset": 2}],
}
HALF_LATTICE = {"kind": "lattice", "step": "1/2", "offset": "0",
                "half": "full"}
EXACT_FAMILY = LAB_CONFIG["families"] + [
    {"label": "xs", "spec": {"kind": "affine", "a": "2/3", "sub": "sqrt",
                             "b": "5"}},
    {"label": "xg", "spec": {"kind": "in_set", "model": GP2, "a": "5/4"}},
    {"label": "xh", "spec": {"kind": "in_set", "model": HALF_LATTICE,
                             "a": "-3/4", "a_odd": "3/4"}},
]


@pytest.mark.parametrize("maps", sorted(INDEX_MAPS))
def test_lab_report_is_the_bytes_of_json_dumps(tmp_path, maps):
    # the pushes are spliced from pieces rendered once per job: exact
    # limits and no_limit pairs with Fraction clusters, before and after
    cfg = dict(LAB_CONFIG, families=EXACT_FAMILY,
               index_maps=INDEX_MAPS[maps])
    code, out = run(tmp_path, "lab", cfg)
    assert code == 0
    got = (out / "lab_report.json").read_bytes()
    assert got == _plain_lab_report(cfg)
    assert len(json.loads(got)["pushes"]) == maps
    if maps:
        assert _lab_statuses(got, "before") == {"exact", "no_limit"}
        assert _lab_statuses(got, "after") == {"exact", "no_limit"}


def test_lab_report_of_numeric_pushes_is_the_bytes_of_json_dumps(
        tmp_path, monkeypatch):
    # a pair without a limit may get one in a push, by any rung: here the
    # numeric probe reads every such pair after the push, which gives
    # float values and clusters, and unsettled probes
    original = seqlab.subsequence_push
    uncertified = seqlab.PhaseForm(Fraction(0), Fraction(0), "inconclusive")

    def probed_where_split(*args, **kwargs):
        push = original(*args, **kwargs)
        return push._replace(checks=tuple(
            (kind, labels, before, after if before.exists else seqlab._pair(
                push.pushed(labels[0]), uncertified,
                push.pushed(labels[1]), uncertified, push.scaling))
            for kind, labels, before, after in push.checks))

    monkeypatch.setattr(seqlab, "subsequence_push", probed_where_split)
    families = [
        {"label": "x0", "spec": {"kind": "closed_form", "terms": {}}},
        {"label": "xa", "spec": {"kind": "closed_form",
                                 "terms": {"alt_r": "1/3"}}},
        {"label": "xq", "spec": {"kind": "closed_form",
                                 "terms": {"alt_r": "1/3", "sqrt_r": "1"}}},
        {"label": "xr", "spec": {"kind": "closed_form",
                                 "terms": {"r": "1/3"}}},
    ]
    cfg = {"families": families,
           "scaling": {"kind": "polynomial", "degree": 1},
           "index_maps": INDEX_MAPS[3]}
    code, out = run(tmp_path, "lab", cfg)
    assert code == 0
    got = (out / "lab_report.json").read_bytes()
    assert got == _plain_lab_report(cfg)
    assert _lab_statuses(got, "after") == {"exact", "estimated",
                                           "inconclusive", "no_limit"}
    # 2/3 read as a float, in the report as its exact binary fraction
    assert str(Fraction(2 / 3)).encode() in got


@pytest.mark.parametrize("maps", [0, 3])
def test_lab_report_of_one_member_is_the_bytes_of_json_dumps(tmp_path,
                                                             maps):
    # a one-member family has no pairs: each push checks one limit
    cfg = dict(LAB_CONFIG, families=EXACT_FAMILY[2:3],
               index_maps=INDEX_MAPS[maps])
    code, out = run(tmp_path, "lab", cfg)
    assert code == 0
    got = (out / "lab_report.json").read_bytes()
    assert got == _plain_lab_report(cfg)
    for push in json.loads(got)["pushes"]:
        assert [check["kind"] for check in push["checks"]] == ["tilde_d"]


@pytest.mark.parametrize("families", [[], {}, "x0"],
                         ids=["empty", "object", "string"])
def test_lab_without_members_exits_two(tmp_path, capsys, families):
    # a family without members has no limits to push, and a value that is
    # not a JSON list would be read by its keys or characters
    cfg = dict(LAB_CONFIG, families=families, index_maps=INDEX_MAPS[1])
    code, out = run(tmp_path, "lab", cfg)
    assert code == 2
    assert not any(out.iterdir())
    message = capsys.readouterr().err
    assert message.startswith("error: "), message
    assert "'families'" in message, message


# -- line classification --------------------------------------------------------


def test_classify_line_half_line(tmp_path):
    code, out = run(tmp_path, "classify-line",
                    {"model": {"kind": "ray", "origin": "5",
                               "direction": "+"}}, "--assert")
    assert code == 0
    verdict = json.loads((out / "classify_line.json").read_text())
    assert verdict["status"] == "isometric_to_R_plus"


def test_classify_line_failure_carries_the_witness(tmp_path):
    union = {"kind": "finite_union", "parts": [
        {"kind": "ray", "origin": "0", "direction": "-"},
        {"kind": "ray", "origin": "1", "direction": "+"}]}
    code, out = run(tmp_path, "classify-line", {"model": union}, "--assert")
    assert code == 1
    verdict = json.loads((out / "classify_line.json").read_text())
    assert verdict["status"] == "fails_condition_with"
    assert (verdict["k"], verdict["witness"]) == ("2", "1/2")


# -- pseudometric -----------------------------------------------------------------


def test_pseudo_quotient_output(tmp_path):
    cfg = {"labels": ["u", "v", "w"],
           "table": [["0", "0", "1"], ["0", "0", "1"], ["1", "1", "0"]]}
    code, out = run(tmp_path, "pseudo", cfg)
    assert code == 0
    got = json.loads((out / "pseudo_quotient.json").read_text())
    assert got["ok"] is True
    assert got["blocks"] == [["u", "v"], ["w"]]
    assert got["labels"] == ["u", "w"]
    assert got["table"] == [["0", "1"], ["1", "0"]]
    assert got["projection"] == {"u": "u", "v": "u", "w": "w"}


def test_pseudo_invalid_table_reports_violations(tmp_path):
    cfg = {"labels": ["a", "b"], "table": [["0", "1"], ["2", "0"]]}
    code, out = run(tmp_path, "pseudo", cfg)
    assert code == 0
    got = json.loads((out / "pseudo_quotient.json").read_text())
    assert got["ok"] is False
    assert got["violations"]
    code, _ = run(tmp_path, "pseudo", cfg, "--assert", out="strict")
    assert code == 1


def test_pseudo_fuzz_is_seeded(tmp_path):
    cfg = {"fuzz": {"count": 25, "max_points": 5, "seed": 7}}
    code, out = run(tmp_path, "pseudo", cfg)
    assert code == 0
    got = json.loads((out / "pseudo_fuzz.json").read_text())
    assert got == {"cases": 25, "failures": [], "seed": 7}


# -- exit code 2 paths ---------------------------------------------------------


def test_missing_config_file(tmp_path):
    code = main(["porosity", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path)])
    assert code == 2


def test_malformed_json(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    code = main(["porosity", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize("cfg", [
    {},                                      # missing the model entirely
    {"model": {"kind": "no_such_model"}},    # unknown geometry
    {"model": {"kind": "lattice"}},          # lattice without a step
    {"model": {"kind": "ray", "origin": float("inf")}},  # JSON Infinity
    {"model": {"kind": "lattice", "step": float("nan"), "offset": "0"}},
    {"model": dict(GP2, n0=1.5)},            # a fractional index
    {"model": GP2, "horizon_exponent": 40.7},
    {"model": dict(RAY, direction="plus")},  # not '+', '-', 1 or -1
])
def test_bad_configs_exit_two(tmp_path, cfg):
    code, _ = run(tmp_path, "porosity", cfg)
    assert code == 2


@pytest.mark.parametrize("command, cfg", [
    ("equiv", {"y_model": LINE, "z_model": LATTICE, "horizon": 10.5}),
    ("pseudo", {"fuzz": {"count": 2.5}}),
    ("pseudo", {"fuzz": {"max_points": 4.5}}),
    ("pseudo", {"fuzz": {"seed": 7.5}}),
])
def test_fractional_counts_exit_two(tmp_path, command, cfg):
    # a count, horizon or seed is never truncated to an integer
    code, out = run(tmp_path, command, cfg)
    assert code == 2
    assert not any(out.iterdir())


@pytest.mark.parametrize("command, cfg, kind, name", [
    ("porosity", {"model": {"kind": "finite_union", "parts": 5}},
     "finite_union", "parts"),
    ("porosity", {"model": {"kind": "periodic_blocks", "period": "2",
                            "blocks": [["1"]]}}, "periodic_blocks", "blocks"),
    ("porosity", {"model": {"kind": "finite_modification", "base": GP2,
                            "added": 7}}, "finite_modification", "added"),
    ("lab", dict(LAB_CONFIG, scaling={"kind": "geometric"}), "geometric", "q"),
    ("lab", dict(LAB_CONFIG, families=[
        {"label": "x0", "spec": {"kind": "in_set", "a": "1"}}]),
     "in_set", "model"),
    # a misspelt key is refused, not read as the default
    ("porosity", {"model": {"kind": "ray", "origin": "1", "direcion": "-"}},
     "ray", "direcion"),
    ("lab", dict(LAB_CONFIG, scaling={"kind": "geometric", "q": "2",
                                      "c": "1", "offset": "3"}),
     "geometric", "offset"),
    # a string where a list belongs is refused, not read per character
    ("porosity", {"model": {"kind": "finite_modification", "base": GP2,
                            "added": "12"}}, "finite_modification", "added"),
    ("porosity", {"model": {"kind": "periodic_blocks", "period": "3",
                            "blocks": ["12"]}}, "periodic_blocks", "blocks"),
    ("porosity", {"model": {"kind": "finite_union", "parts": "ab"}},
     "finite_union", "parts"),
])
def test_malformed_fields_name_the_kind_and_the_field(
        tmp_path, capsys, command, cfg, kind, name):
    code, _ = run(tmp_path, command, cfg)
    assert code == 2
    message = capsys.readouterr().err
    assert message.startswith("error: "), message
    assert kind in message and repr(name) in message, message


@pytest.mark.parametrize("command, cfg, key", [
    ("pseudo", {"fuzz": 5}, "fuzz"),
    ("lab", dict(LAB_CONFIG, families=[{"label": "x0"}]), "spec"),
    ("lab", dict(LAB_CONFIG, families=[{"spec": {"kind": "closed_form",
                                                 "terms": {}}}]), "label"),
    ("lab", dict(LAB_CONFIG, index_maps=[{"offset": 1}]), "stride"),
    # values out of range are refused, not run (a negative case count was
    # written out, one point raised from randrange, and every sampled
    # ratio passes a threshold of -1 or 0)
    ("pseudo", {"fuzz": {"count": -5}}, "count"),
    ("pseudo", {"fuzz": {"max_points": 1}}, "max_points"),
    ("porosity", {"model": GP2, "threshold": "-1"}, "threshold"),
    ("porosity", {"model": GP2, "threshold": 0}, "threshold"),
    # a t grid must be a list: a string was read one character at a time
    ("epsilon", {"y_model": LINE, "z_model": LATTICE, "t_grid": "48"},
     "t_grid"),
    ("equiv", {"y_model": GP2, "z_model": RAY, "t_grid": "12"}, "t_grid"),
    ("spectrum", dict(SPECTRUM_CONFIG, t_grid="12"), "t_grid"),
    ("spectrum", dict(SPECTRUM_CONFIG, t_grid=5), "t_grid"),
    ("spectrum", dict(SPECTRUM_CONFIG, t_grid=["1/2", "x"]), "t_grid"),
    # a scalar that is not a rational names its key
    ("spectrum", dict(SPECTRUM_CONFIG, epsilon="abc"), "epsilon"),
    ("spectrum", dict(SPECTRUM_CONFIG, persistence="abc"), "persistence"),
    ("spectrum", dict(SPECTRUM_CONFIG, horizon="abc"), "horizon"),
    ("equiv", {"y_model": GP2, "z_model": RAY, "growth": "abc"}, "growth"),
    ("porosity", {"model": GP2, "horizon_exponent": "1/2"},
     "horizon_exponent"),
    # so must the other lists of rationals, and the pseudo labels
    ("classify-line", {"model": LATTICE, "k_samples": "48"}, "k_samples"),
    ("classify-line", {"model": LATTICE, "window": "abc"}, "window"),
    ("pseudo", {"labels": ["a", "b"], "table": ["00", "00"]}, "table"),
    ("pseudo", {"labels": ["a", "b"], "table": "12"}, "table"),
    ("pseudo", {"labels": "ab", "table": [[0, 1], [1, 0]]}, "labels"),
    # so must a base point that is neither a rational nor a pair
    ("epsilon", {"y_model": LINE, "z_model": LATTICE, "p": "abc",
                 "t_grid": ["1"]}, "p"),
    ("equiv", {"y_model": LINE, "z_model": LATTICE, "p": [1, 2, 3]}, "p"),
    ("spectrum", dict(SPECTRUM_CONFIG, p="x"), "p"),
    # an equiv threshold <= 0 read a ratio of 0 as "no numeric decay"
    ("equiv", {"y_model": GP2, "z_model": GP3, "threshold": "-1"},
     "threshold"),
    ("equiv", {"y_model": GP2, "z_model": GP3, "threshold": 0}, "threshold"),
    # a lab label must be a JSON string
    ("lab", dict(LAB_CONFIG, families=[{"label": 1, "spec": {
        "kind": "closed_form", "terms": {}}}]), "label"),
    ("lab", dict(LAB_CONFIG, families=[{"label": [1], "spec": {
        "kind": "closed_form", "terms": {}}}]), "label"),
])
def test_config_errors_name_the_key(tmp_path, capsys, command, cfg, key):
    # never a traceback (exit 1 is a negative verdict) nor a bare KeyError
    code, out = run(tmp_path, command, cfg)
    assert code == 2
    assert not any(out.iterdir())
    message = capsys.readouterr().err
    assert message.startswith("error: "), message
    assert repr(key) in message, message


def test_unknown_scaling_kind_exits_two(tmp_path):
    cfg = dict(SPECTRUM_CONFIG)
    cfg["scaling_1"] = {"kind": "mystery"}
    code, _ = run(tmp_path, "spectrum", cfg)
    assert code == 2


# -- determinism across reruns ---------------------------------------------------


# one successful run of each subcommand
COMMAND_RUNS = [
    ("porosity", {"model": GP2}, ("--horizon", "80")),
    ("epsilon", {"y_model": LINE, "z_model": LATTICE,
                 "t_grid": ["3/2", "5/2"]}, ()),
    ("equiv", {"y_model": GP2, "z_model": RAY, "p": "0",
               "t_grid": ["3/2", "3"]}, ()),
    ("spectrum", SPECTRUM_CONFIG, ()),
    ("lab", LAB_CONFIG, ()),
    ("classify-line", {"model": {"kind": "ray", "origin": "5",
                                 "direction": "+"}}, ()),
    ("pseudo", {"fuzz": {"count": 25, "max_points": 5, "seed": 7}}, ()),
]


@pytest.mark.parametrize("command,cfg,flags", COMMAND_RUNS)
def test_reruns_are_byte_identical(tmp_path, command, cfg, flags):
    rerun_is_byte_identical(tmp_path, command, cfg, *flags)


def test_module_entry_point(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"y_model": LINE, "z_model": LATTICE}))
    proc = subprocess.run(
        [sys.executable, "-m", "farfield.cli", "equiv",
         "--config", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert (tmp_path / "out" / "equiv_verdict.json").exists()


# -- one parser per process ----------------------------------------------------

# Counts the top-level parsers built while importing farfield.cli and while
# running main() on each argv of the JSON list in argv[1], three times over.
PARSER_COUNT = """
import argparse, json, sys
built = []
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    if kwargs.get("prog") == "farfield":
        built.append(self)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
import farfield.cli
at_import = len(built)
codes = [farfield.cli.main(argv) for argv in json.loads(sys.argv[1]) * 3]
print(json.dumps({"at_import": at_import, "built": len(built),
                  "codes": codes}))
"""


def test_main_builds_one_parser_per_process(tmp_path):
    runs = []
    for command, cfg, flags in COMMAND_RUNS:
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(cfg))
        runs.append([command, "--config", str(cfg_path),
                     "--out", str(tmp_path / command), *flags])
    proc = subprocess.run([sys.executable, "-c", PARSER_COUNT,
                           json.dumps(runs)],
                          capture_output=True, text=True, check=True)
    got = json.loads(proc.stdout)
    assert len({argv[0] for argv in runs}) == 7
    # equiv GP2 against the ray is a negative verdict, but without --assert
    assert got == {"at_import": 0, "built": 1, "codes": [0] * 21}


@pytest.mark.parametrize("argv", [
    ["porosity", "--out", "x"],            # no --config
    ["no-such-command", "--config", "x"],  # not a subcommand
])
def test_bad_argv_reads_the_same_before_and_after_a_run(tmp_path, capsys,
                                                        argv):
    def refusal(parse):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        return exc.value.code, capsys.readouterr()

    fresh = refusal(build_parser().parse_args)
    before = refusal(main)
    code, _ = run(tmp_path, "porosity", {"model": GP2}, "--horizon", "80")
    assert code == 0
    capsys.readouterr()
    after = refusal(main)
    assert fresh == before == after
    status, (out, err) = fresh
    assert status == 2 and out == ""
    assert err.startswith("usage: farfield"), err


def test_flags_do_not_reach_the_next_call(tmp_path):
    def summary(out, name):
        return json.loads((out / name).read_text())

    fuzz = {"fuzz": {"count": 3, "seed": 7}}
    _, out = run(tmp_path, "pseudo", fuzz, "--seed", "9", out="seeded")
    assert summary(out, "pseudo_fuzz.json")["seed"] == 9
    _, out = run(tmp_path, "pseudo", fuzz, out="unseeded")
    assert summary(out, "pseudo_fuzz.json")["seed"] == 7

    _, out = run(tmp_path, "spectrum", SPECTRUM_CONFIG, "--horizon", "5",
                 out="short")
    assert summary(out, "spectrum_summary.json")["horizon"] == 5
    _, out = run(tmp_path, "spectrum", SPECTRUM_CONFIG, out="configured")
    assert summary(out, "spectrum_summary.json")["horizon"] == 12

    refuted = {"y_model": GP2, "z_model": RAY, "p": "0"}
    assert run(tmp_path, "equiv", refuted, "--assert", out="strict")[0] == 1
    assert run(tmp_path, "equiv", refuted, out="lenient")[0] == 0


def test_build_parser_returns_a_new_parser():
    assert build_parser() is not build_parser()


# -- JSON writer -----------------------------------------------------------------

JSON_TEXT = st.text(st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7fé \U0001f600'),
    st.characters()))
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=10 ** 30, max_value=10 ** 60), st.floats(),
    JSON_TEXT)


def _json_containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(JSON_TEXT, children, max_size=4),
        # keys that json.dumps renders as strings; pseudo labels read
        # from a config may be numbers, booleans or null
        st.dictionaries(st.one_of(st.integers(), st.booleans()), children,
                        max_size=4),
        st.dictionaries(st.none(), children, max_size=1))


def _spliced(value, depth, indent=""):
    """value with each item `depth` levels down replaced by a `_Text` of
    its json.dumps text, indented to where it lands (a JSON text holds no
    raw newline but those of its layout)."""
    if depth == 0:
        return _Text(json.dumps(value, sort_keys=True, indent=2)
                     .replace("\n", "\n" + indent))
    inner = indent + "  "
    if isinstance(value, dict):
        return {k: _spliced(v, depth - 1, inner) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_spliced(v, depth - 1, inner) for v in value]
    return value


@settings(max_examples=300, deadline=None)
@given(payload=st.recursive(JSON_SCALARS, _json_containers, max_leaves=30),
       depth=st.integers(min_value=0, max_value=3))
def test_write_json_writes_the_bytes_of_json_dumps(tmp_path_factory,
                                                   payload, depth):
    path = tmp_path_factory.mktemp("json") / "payload.json"
    write_json(path, payload)
    expected = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")
    # pre-rendered text spliced in at its own indent keeps the bytes
    write_json(path, _spliced(payload, depth))
    assert path.read_bytes() == expected.encode("utf-8")
