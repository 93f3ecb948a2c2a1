"""Laws of rescaled limits on a seeded corpus of closed-form families.

Everything here is symbolic: the corpus draws random coefficient
combinations of the supported atoms, the laws are asserted with exact
Fraction equality, and the clique search is cross-checked against subset
enumeration.  The lab entry points (graph, push, probe) are checked
against references built from the public `tilde_d` and `d_r` on mixed
families of closed forms, affine specs and set-valued selectors.
"""

import gc
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from farfield import (
    AffineSpec,
    ClosedFormSpec,
    FiniteModification,
    FiniteUnion,
    FullLine,
    GeometricPoints,
    GeometricScaling,
    InSetSpec,
    InputError,
    InterleaveScaling,
    Lattice,
    PolynomialScaling,
    SubsequenceScaling,
    d_r,
    eval_spec,
    exists_isometry,
    make_space,
    maximal_self_stable,
    pretangent_space,
    scaling_from_dict,
    scaling_to_dict,
    spec_from_dict,
    spec_to_dict,
    stability_graph,
    subsequence_push,
    tangency_probe,
    tilde_d,
)
from farfield import seqlab, setmodels
from farfield.cli import _limit_payload, main as cli_main
from farfield.rationals import flog
from farfield.seqlab import ATOMS, _push_spec
from test_setmodels_oracle import trees

F = Fraction

SUBLINEAR_ATOMS = ("one", "alt_one", "sqrt_r", "alt_sqrt_r",
                   "log_r", "alt_log_r")

SCALINGS = (
    GeometricScaling(F(2)),
    GeometricScaling(F(3, 2), F(5)),
    GeometricScaling(F(3), F(1, 2)),
    PolynomialScaling(1),
    PolynomialScaling(2, F(3)),
    PolynomialScaling(3, F(1, 4)),
)


def random_sublinear_terms(rng):
    terms = {}
    for atom in rng.sample(SUBLINEAR_ATOMS, rng.randint(0, 3)):
        c = F(rng.randint(-6, 6), rng.choice((1, 2, 3)))
        if c:
            terms[atom] = c
    return terms


def random_member(rng):
    """A spec whose normalized distance limit exists: linear part is a
    multiple of r_n or of (-1)**n * r_n, never a mix."""
    terms = random_sublinear_terms(rng)
    a = F(rng.randint(-5, 5), rng.choice((1, 2)))
    if a:
        terms[rng.choice(("r", "alt_r"))] = a
    return ClosedFormSpec(terms)


def random_nonmember(rng):
    """Mixing r and alt_r with positive weights splits the parity limits."""
    terms = random_sublinear_terms(rng)
    terms["r"] = F(rng.randint(1, 4))
    terms["alt_r"] = F(rng.randint(1, 4), rng.choice((1, 2)))
    return ClosedFormSpec(terms)


def random_zero(rng):
    return ClosedFormSpec(random_sublinear_terms(rng))


def perturb(spec, rng):
    """Same linear phase, different sublinear tail: rescaled distance 0."""
    terms = dict(spec.terms)
    extra = random_sublinear_terms(rng)
    for atom, c in extra.items():
        terms[atom] = terms.get(atom, F(0)) + c
    bumped = {k: v for k, v in terms.items() if v != 0}
    return ClosedFormSpec(bumped)


def law_corpus(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        scaling = rng.choice(SCALINGS)
        yield (
            scaling,
            random_member(rng),
            random_member(rng),
            random_member(rng),
            random_zero(rng),
            random_nonmember(rng),
            rng,
        )


# ---------------------------------------------------------------------------
# Core laws, exact on the whole corpus


def test_membership_iff_stable_against_zero_sequences():
    for scaling, x, _, _, z, w, _ in law_corpus(1101, 60):
        assert tilde_d(z, scaling).value == 0
        assert tilde_d(x, scaling).exists
        assert d_r(x, z, scaling).exists
        assert not tilde_d(w, scaling).exists
        assert not d_r(w, z, scaling).exists


def test_normalized_limit_equals_distance_to_zero_sequence():
    for scaling, x, y, _, z, _, _ in law_corpus(1102, 60):
        for member in (x, y):
            lhs = tilde_d(member, scaling)
            rhs = d_r(member, z, scaling)
            assert lhs.exists and rhs.exists
            assert lhs.value == rhs.value


def test_zero_distance_transfers_stability():
    checked = 0
    for scaling, x, y, _, _, _, rng in law_corpus(1103, 80):
        pair = d_r(x, y, scaling)
        if not pair.exists:
            continue
        t = perturb(x, rng)
        assert d_r(x, t, scaling).value == 0
        moved = d_r(y, t, scaling)
        assert moved.exists
        assert moved.value == pair.value
        checked += 1
    assert checked >= 50


def test_zero_distance_transfers_membership():
    for scaling, x, _, _, _, _, rng in law_corpus(1104, 60):
        t = perturb(x, rng)
        assert d_r(x, t, scaling).value == 0
        assert tilde_d(t, scaling).exists


# ---------------------------------------------------------------------------
# Spec evaluation sanity


def test_eval_matches_limit_for_rational_forms():
    scaling = GeometricScaling(F(2))
    spec = ClosedFormSpec({"r": F(7, 3), "one": F(-4)})
    for n in (1, 5, 30):
        assert eval_spec(spec, scaling, n) == F(7, 3) * F(2) ** n - 4
    deep = eval_spec(spec, scaling, 40) / scaling.eval(40)
    assert abs(deep - tilde_d(spec, scaling).value) < F(1, 2) ** 30


def reference_eval(terms, r, n):
    """x_n by one formula per atom, each float operation in a fixed order:
    the reference for `eval_spec` on closed forms."""
    sign = -1 if n % 2 else 1
    exact, approx, has_float = F(0), 0.0, False
    for atom, coef in terms.items():
        s = sign if atom.startswith("alt_") else 1
        base = atom.removeprefix("alt_")
        if base == "r":
            exact += coef * s * r
        elif base == "one":
            exact += coef * s
        elif base == "sqrt_r":
            has_float = True
            approx += float(coef) * s * math.exp(flog(r) / 2)
        else:
            has_float = True
            approx += float(coef) * s * flog(1 + r)
    return float(exact) + approx if has_float else exact


def reference_ratio(terms, r, n):
    """x_n / r_n likewise: the reference for `spec_ratio_float`."""
    sign = -1 if n % 2 else 1
    total, lg = 0.0, flog(r)
    for atom, coef in terms.items():
        s = sign if atom.startswith("alt_") else 1
        base = atom.removeprefix("alt_")
        if base == "r":
            total += float(coef) * s
        elif base == "one":
            total += float(coef) * s * math.exp(-lg)
        elif base == "sqrt_r":
            total += float(coef) * s * math.exp(-lg / 2)
        else:
            total += float(coef) * s * flog(1 + r) * math.exp(-lg)
    return total


FLOAT_COEFS = st.builds(F, st.integers(-40, 40).filter(bool),
                        st.sampled_from([1, 3, 7, 10, 12]))


@settings(max_examples=200, deadline=None)
@given(terms=st.dictionaries(st.sampled_from(ATOMS), FLOAT_COEFS,
                             min_size=1, max_size=8),
       scaling=st.sampled_from(SCALINGS), n=st.integers(1, 60))
def test_closed_form_floats_match_the_per_atom_formulas(terms, scaling, n):
    # n of either parity, so alt_ atoms enter with both signs; == on floats
    spec = ClosedFormSpec(terms)
    terms, r = spec.term_map(), scaling.eval(n)
    want = reference_eval(terms, r, n)
    got = eval_spec(spec, scaling, n)
    assert (type(got), got) == (type(want), want)
    assert seqlab.spec_ratio_float(spec, scaling, n) \
        == reference_ratio(terms, r, n)


def test_affine_spec_matches_closed_form():
    aff = AffineSpec(F(3, 2), "sqrt", F(2), "alternating")
    cf = ClosedFormSpec({"alt_r": F(3, 2), "alt_sqrt_r": F(2)})
    scaling = GeometricScaling(F(2))
    assert tilde_d(aff, scaling).value == tilde_d(cf, scaling).value
    assert d_r(aff, cf, scaling).value == 0


# ---------------------------------------------------------------------------
# Stability graph and maximal families


def brute_maximal_cliques(n, edge_set):
    cliques = []
    for r in range(1, n + 1):
        for sub in itertools.combinations(range(n), r):
            if all(tuple(sorted(p)) in edge_set
                   for p in itertools.combinations(sub, 2)):
                cliques.append(set(sub))
    return sorted(
        tuple(sorted(c)) for c in cliques
        if not any(c < other for other in cliques)
    )


# Mixed families: closed forms, affine specs and nearest-point selectors.
# A selector over GP(q) classifies when the scaling ratio squared is a power
# of q: under GeometricScaling(2) and GeometricScaling(4) the selectors over
# GP(2) and GP(4) do, under GeometricScaling(3, 1/2) the one over GP(3)
# does; GP(5) never classifies under these scalings, so its selectors take
# the numeric path.
LAB_SCALINGS = SCALINGS + (GeometricScaling(F(4)),)
COEFS = st.sampled_from((F(0), F(1), F(-1), F(2), F(1, 2), F(-3, 2), F(3)))
UNCLASSIFIED = InSetSpec(GeometricPoints(F(5), F(1), 0), F(1))


@st.composite
def lab_specs(draw):
    kind = draw(st.sampled_from(("closed_form", "affine", "lattice",
                                 "line", "geometric")))
    if kind == "closed_form":
        atoms = draw(st.lists(st.sampled_from(ATOMS), max_size=3,
                              unique=True))
        return ClosedFormSpec({atom: draw(COEFS) for atom in atoms})
    if kind == "affine":
        return AffineSpec(draw(COEFS),
                          draw(st.sampled_from(("const", "sqrt", "log"))),
                          draw(COEFS),
                          draw(st.sampled_from(("plus", "alternating"))))
    if kind == "lattice":
        model = Lattice(F(draw(st.integers(1, 3))), F(draw(st.integers(0, 2))))
    elif kind == "line":
        model = FullLine()
    else:
        q = draw(st.sampled_from((F(2), F(3), F(4), F(5))))
        model = GeometricPoints(q, F(1), 0)
    a = draw(COEFS)
    return InSetSpec(model, a, draw(st.sampled_from((None, a, -a, F(2)))))


@st.composite
def lab_families(draw):
    """(scaling, family) with 2-8 members; about one family in three holds
    the selector that never classifies."""
    scaling = draw(st.sampled_from(LAB_SCALINGS))
    specs = draw(st.lists(lab_specs(), min_size=2, max_size=8))
    if draw(st.integers(0, 2)) == 0:
        specs[draw(st.integers(0, len(specs) - 1))] = UNCLASSIFIED
    return scaling, [(f"m{i}", spec) for i, spec in enumerate(specs)]


@settings(max_examples=80, deadline=None)
@given(case=lab_families(), members_only=st.booleans())
def test_graph_edges_match_pairwise_limits(case, members_only):
    scaling, fam = case
    if members_only:
        fam = [(label, spec) for label, spec in fam
               if tilde_d(spec, scaling).exists]
    tilde = [tilde_d(spec, scaling) for _, spec in fam]
    if not all(res.exists for res in tilde):
        with pytest.raises(InputError):
            stability_graph(fam, scaling)
        return
    g = stability_graph(fam, scaling)
    assert g.tilde == tuple(res.value for res in tilde)
    edges = []
    for i, j in itertools.combinations(range(len(fam)), 2):
        res = d_r(fam[i][1], fam[j][1], scaling)
        # members with a normalized limit never leave a pair undecided
        assert res.status in ("exact", "no_limit")
        if res.exists:
            edges.append(((i, j), res.value))
        assert g.edge_value(fam[i][0], fam[j][0]) == (
            res.value if res.exists else None)
    assert g.edges == tuple(edges)


def test_unclassified_selector_takes_the_numeric_path():
    for scaling in LAB_SCALINGS:
        assert not seqlab.classify(UNCLASSIFIED, scaling).ok
        assert tilde_d(UNCLASSIFIED, scaling).status != "exact"


@pytest.mark.parametrize("model, anchor, even, odd", [
    # r_n = 2**n: 4**k itself on even n, the nearer 4**k below 2*4**k on
    # odd n
    (GeometricPoints(F(4), F(1), 0), F(1), F(1), F(1, 2)),
    # a union that rescales by 2: 2**n itself, and 3/2 * 2**n nearest to
    # 4/3 * 2**n
    (FiniteUnion((GeometricPoints(F(2), F(1), 0),
                  GeometricPoints(F(2), F(3, 2), 0))), F(1), F(1), F(1)),
    (FiniteUnion((GeometricPoints(F(2), F(1), 0),
                  GeometricPoints(F(2), F(3, 2), 0))), F(4, 3), F(3, 2),
     F(3, 2)),
])
def test_selectors_over_a_dilation_classify(model, anchor, even, odd):
    form = seqlab.classify(InSetSpec(model, anchor), GeometricScaling(F(2)))
    assert form.ok and (form.even, form.odd) == (even, odd)


@settings(max_examples=60, deadline=None)
@given(case=lab_families(), stride=st.integers(1, 3),
       offset=st.integers(0, 2))
def test_push_checks_match_public_limits(case, stride, offset):
    scaling, fam = case
    pushed_scaling = SubsequenceScaling(scaling, stride, offset)
    pushed = [(label, _push_spec(spec, stride, offset)) for label, spec in fam]
    want = [("tilde_d", (label,), tilde_d(spec, scaling),
             tilde_d(pspec, pushed_scaling))
            for (label, spec), (_, pspec) in zip(fam, pushed)]
    for (a, b), (pa, pb) in zip(itertools.combinations(fam, 2),
                                itertools.combinations(pushed, 2)):
        want.append(("d_r", (a[0], b[0]), d_r(a[1], b[1], scaling),
                     d_r(pa[1], pb[1], pushed_scaling)))
    report = subsequence_push(fam, scaling, stride, offset)
    assert report.scaling == pushed_scaling
    assert report.family == tuple(pushed)
    assert report.checks == tuple(want)


def reference_probe(graph, clique, index_maps, pool):
    """tangency_probe spelled out with the public limits, pair by pair."""
    outcomes = []
    for stride, offset in index_maps:
        scaling = SubsequenceScaling(graph.scaling, stride, offset)
        members = [(label, _push_spec(graph.specs[graph.labels.index(label)],
                                      stride, offset))
                   for label in sorted(clique)]
        notes = []
        found = None
        for label, cand in sorted(pool.items()):
            if label in clique:
                continue
            cand = _push_spec(cand, stride, offset)
            if not tilde_d(cand, scaling).exists:
                notes.append(f"{label}: no normalized limit")
                continue
            limits = [(name, d_r(cand, spec, scaling))
                      for name, spec in members]
            unsettled = [(name, res) for name, res in limits
                         if not res.exists]
            if unsettled:
                name, res = unsettled[0]
                why = "unstable" if res.status == "no_limit" else "undecided"
                notes.append(f"{label}: {why} against {name}")
            elif any(res.value == 0 for _, res in limits):
                notes.append(f"{label}: collapses onto a member")
            else:
                found = label
                break
        if found is not None:
            outcomes.append((stride, offset, "extension_witness", found, ""))
        else:
            detail = "bounded search only"
            if notes:
                detail += ": " + "; ".join(notes)
            outcomes.append((stride, offset, "no_extension_found", None,
                             detail))
    return outcomes


@settings(max_examples=60, deadline=None)
@given(case=lab_families(), extra=st.lists(lab_specs(), max_size=4),
       index_maps=st.lists(st.tuples(st.integers(1, 3), st.integers(0, 2)),
                           min_size=1, max_size=3),
       data=st.data())
def test_probe_matches_public_limits(case, extra, index_maps, data):
    scaling, specs = case
    fam = [(label, spec) for label, spec in specs
           if tilde_d(spec, scaling).exists]
    assume(fam)
    g = stability_graph(fam, scaling)
    clique = data.draw(st.sampled_from(maximal_self_stable(g)))
    pool = {f"c{i}": spec for i, spec in enumerate(extra)}
    pool["u"] = UNCLASSIFIED
    pool[clique[0]] = ClosedFormSpec({"r": F(7)})  # a member: skipped
    got = [(o.stride, o.offset, o.status, o.witness, o.detail)
           for o in tangency_probe(g, clique, index_maps, pool)]
    assert got == reference_probe(g, clique, index_maps, pool)


def test_maximal_families_match_subset_enumeration():
    rng = random.Random(2204)
    for _ in range(25):
        scaling = rng.choice(SCALINGS)
        fam = {f"m{i}": random_member(rng) for i in range(rng.randint(2, 7))}
        g = stability_graph(fam, scaling)
        edge_set = {pair for pair, _ in g.edges}
        want = brute_maximal_cliques(len(g.labels), edge_set)
        got = sorted(
            tuple(sorted(g.labels.index(l) for l in c))
            for c in maximal_self_stable(g)
        )
        assert got == want


def test_vanishing_members_sit_in_every_maximal_family():
    rng = random.Random(2205)
    for _ in range(20):
        scaling = rng.choice(SCALINGS)
        fam = {f"m{i}": random_member(rng) for i in range(4)}
        fam["z0"] = random_zero(rng)
        fam["z1"] = random_zero(rng)
        g = stability_graph(fam, scaling)
        for clique in maximal_self_stable(g):
            assert "z0" in clique and "z1" in clique


def lab_work_config(size, pushes):
    """A lab family of `size` members, cycling closed forms, affine specs
    and selectors over plain, alternating and vanishing phases."""
    families = []
    for i in range(size):
        a = str(F(i % 5 + 1, 2))
        phase = i // 3 % 3
        if i % 3 == 0:
            spec = {"kind": "closed_form",
                    "terms": ({} if phase == 0 else
                              {"r": a} if phase == 1 else {"alt_r": a})}
            spec["terms"]["sqrt_r"] = "1"
        elif i % 3 == 1:
            spec = {"kind": "affine", "a": "0" if phase == 0 else a,
                    "sub": "log", "b": "2",
                    "sign": "alternating" if phase == 2 else "plus"}
        else:
            spec = {"kind": "in_set", "a": "0" if phase == 0 else a,
                    "model": {"kind": "lattice", "step": "1", "offset": "0"}}
            if phase == 2:
                spec["a_odd"] = "-" + a
        families.append({"label": f"m{i:02d}", "spec": spec})
    return {"families": families,
            "scaling": {"kind": "geometric", "q": "2", "c": "1"},
            "index_maps": [{"stride": 1 + k % 3, "offset": k % 2}
                           for k in range(pushes)]}


def test_lab_job_classifies_each_spec_once_per_scaling(tmp_path,
                                                       monkeypatch):
    calls = []
    classify = seqlab.classify

    def counting(spec, scaling):
        calls.append(spec)
        return classify(spec, scaling)

    monkeypatch.setattr(seqlab, "classify", counting)
    cfg = tmp_path / "lab.json"
    cfg.write_text(json.dumps(lab_work_config(20, 3)))
    assert cli_main(["lab", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0
    # one classification per spec for the graph, and one per spec and push
    # (its pushed copy under the pushed scaling); a push reads the
    # unpushed side off the graph
    assert len(calls) == 20 * (1 + 3)


@settings(max_examples=40, deadline=None)
@given(case=lab_families(),
       index_maps=st.lists(st.tuples(st.integers(1, 3), st.integers(0, 2)),
                           min_size=1, max_size=3))
def test_lab_report_pushes_match_standalone_pushes(tmp_path_factory, case,
                                                   index_maps):
    # the CLI pushes read the graph's table; a standalone push builds its
    # own, and both must report the same checks
    scaling, fam = case
    fam = [(label, spec) for label, spec in fam
           if tilde_d(spec, scaling).exists]
    assume(fam)
    folder = tmp_path_factory.mktemp("lab")
    cfg = folder / "lab.json"
    cfg.write_text(json.dumps({
        "families": [{"label": label, "spec": spec_to_dict(spec)}
                     for label, spec in fam],
        "scaling": scaling_to_dict(scaling),
        "index_maps": [{"stride": stride, "offset": offset}
                       for stride, offset in index_maps]}))
    assert cli_main(["lab", "--config", str(cfg),
                     "--out", str(folder / "out")]) == 0
    report = json.loads((folder / "out" / "lab_report.json").read_text())
    want = [{"stride": stride, "offset": offset, "checks": [
        {"kind": kind, "labels": list(labels),
         "before": _limit_payload(before), "after": _limit_payload(after)}
        for kind, labels, before, after
        in subsequence_push(fam, scaling, stride, offset).checks]}
        for stride, offset in index_maps]
    assert report["pushes"] == want


PHASES = st.fractions(min_value=-4, max_value=4, max_denominator=12)


@st.composite
def phase_tables(draw):
    """(scaling, specs, forms): random exact phase forms over mixed
    denominators, some members repeated, and now and then the selector
    that never classifies."""
    scaling = draw(st.sampled_from(LAB_SCALINGS))
    specs, forms = [], []
    for _ in range(draw(st.integers(0, 7))):
        pick = draw(st.integers(0, 7))
        if pick == 0:
            specs.append(UNCLASSIFIED)
            forms.append(seqlab.classify(UNCLASSIFIED, scaling))
        elif pick == 1 and forms:
            k = draw(st.integers(0, len(forms) - 1))
            specs.append(specs[k])
            forms.append(forms[k])
        else:
            even, odd = draw(PHASES), draw(PHASES)
            specs.append(ClosedFormSpec({"r": (even + odd) / 2,
                                         "alt_r": (even - odd) / 2}))
            forms.append(seqlab.PhaseForm(even, odd, "exact"))
    return scaling, specs, forms


@settings(max_examples=80, deadline=None)
@given(case=phase_tables())
def test_pair_table_matches_pair_by_pair(case):
    scaling, specs, forms = case
    want = tuple(seqlab._pair(specs[i], forms[i], specs[j], forms[j],
                              scaling)
                 for i, j in itertools.combinations(range(len(specs)), 2))
    assert seqlab._pair_table(specs, forms, scaling) == want


def test_graph_rejects_members_without_limits():
    rng = random.Random(2206)
    fam = {"ok": random_member(rng), "bad": random_nonmember(rng)}
    with pytest.raises(InputError):
        stability_graph(fam, GeometricScaling(F(2)))


# ---------------------------------------------------------------------------
# Pretangent spaces


def four_point_family():
    return [(lbl, ClosedFormSpec({"r": c})) for lbl, c in
            (("x0", F(0)), ("xh", F(1, 2)), ("x1", F(1)), ("x2", F(2)))]


def test_four_point_pretangent_table():
    g = stability_graph(four_point_family(), GeometricScaling(F(2)))
    cliques = maximal_self_stable(g)
    assert cliques == (("x0", "xh", "x1", "x2"),)
    rep = pretangent_space(g, cliques[0])
    pts = {F(0): "x0", F(1, 2): "xh", F(1): "x1", F(2): "x2"}
    for a, ca in pts.items():
        for b, cb in pts.items():
            assert rep.space.space.d(ca, cb) == abs(a - b)
    assert rep.distinguished == "x0"
    assert dict(rep.member_blocks)["x0"] == "x0"


def test_recursive_searches_leave_no_cyclic_garbage():
    # each of these recurses through a nested function that refers to
    # itself; a call frees it at once instead of leaving a cycle behind
    tree = FiniteModification(FiniteUnion((
        Lattice(F(1), F(0)), GeometricPoints(F(2), F(1), 0))),
        added=(F(1, 2),), removed=(F(3),))
    graph = stability_graph(four_point_family(), GeometricScaling(F(2)))
    space = make_space(("a", "b", "c"), ((0, 1, 2), (1, 0, 1), (2, 1, 0)))
    calls = (lambda: setmodels.leaves(tree),
             lambda: maximal_self_stable(graph),
             lambda: exists_isometry(space, space))
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            call()
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_pretangent_identifies_zero_distance_members():
    scaling = GeometricScaling(F(2))
    fam = [
        ("a", ClosedFormSpec({"r": F(1)})),
        ("b", ClosedFormSpec({"r": F(1), "log_r": F(5)})),
        ("c", ClosedFormSpec({"r": F(3)})),
    ]
    g = stability_graph(fam, scaling)
    rep = pretangent_space(g, ("a", "b", "c"))
    blocks = dict(rep.member_blocks)
    assert blocks["a"] == blocks["b"] != blocks["c"]
    assert len(rep.space.space) == 2


def test_pretangent_requires_a_clique():
    scaling = GeometricScaling(F(2))
    fam = {
        "p": ClosedFormSpec({"r": F(1)}),
        "q": ClosedFormSpec({"alt_r": F(1)}),
        "z": ClosedFormSpec({}),
    }
    g = stability_graph(fam, scaling)
    # p and q split by parity: |1-(-1)| odd vs |1-1| even
    assert g.edge_value("p", "q") is None
    with pytest.raises(InputError):
        pretangent_space(g, ("p", "q"))


# ---------------------------------------------------------------------------
# Subsequence pushes


def test_push_preserves_existing_limits():
    rng = random.Random(3301)
    for _ in range(20):
        scaling = rng.choice(SCALINGS)
        fam = {f"m{i}": random_member(rng) for i in range(4)}
        for stride, offset in ((2, 0), (2, 1), (3, 1), (1, 4)):
            report = subsequence_push(fam, scaling, stride, offset)
            for kind, labels, before, after in report.checks:
                if before.exists:
                    assert after.exists and after.value == before.value


def test_push_folds_alternation_on_even_strides():
    spec = ClosedFormSpec({"alt_r": F(3), "alt_one": F(1)})
    fam = {"a": spec}
    scaling = GeometricScaling(F(2))
    even = subsequence_push(fam, scaling, 2, 0).pushed("a")
    assert dict(even.terms) == {"r": F(3), "one": F(1)}
    odd_start = subsequence_push(fam, scaling, 2, 1).pushed("a")
    assert dict(odd_start.terms) == {"r": F(-3), "one": F(-1)}
    surviving = subsequence_push(fam, scaling, 3, 0).pushed("a")
    assert dict(surviving.terms) == {"alt_r": F(3), "alt_one": F(1)}


def test_push_resolves_parity_split_limits():
    # a sequence without a limit gains one along either parity class
    spec = ClosedFormSpec({"r": F(2), "alt_r": F(1)})
    fam = {"w": spec}
    scaling = GeometricScaling(F(2))
    base = tilde_d(spec, scaling)
    assert base.status == "no_limit"
    clusters = dict(base.clusters)
    even = subsequence_push(fam, scaling, 2, 0)
    assert tilde_d(even.pushed("w"), even.scaling).value == clusters["even"]
    odd = subsequence_push(fam, scaling, 2, 1)
    assert tilde_d(odd.pushed("w"), odd.scaling).value == clusters["odd"]


def test_push_selects_inset_anchors():
    lat = Lattice(F(1), F(0))
    spec = InSetSpec(lat, F(1), F(3))
    fam = {"s": spec}
    scaling = GeometricScaling(F(2))
    even = subsequence_push(fam, scaling, 2, 0).pushed("s")
    assert (even.a, even.a_odd) == (F(1), F(1)) or even.a_odd is None
    shifted = subsequence_push(fam, scaling, 2, 1).pushed("s")
    assert shifted.anchors() == (F(3), F(3))
    flipped = subsequence_push(fam, scaling, 3, 1).pushed("s")
    assert flipped.anchors() == (F(3), F(1))


def test_pushed_scaling_reindexes():
    scaling = GeometricScaling(F(2), F(1))
    pushed = SubsequenceScaling(scaling, 3, 1)
    for k in (1, 2, 5):
        assert pushed.eval(k) == F(2) ** (3 * k + 1)


# ---------------------------------------------------------------------------
# Tangency probe


def test_probe_finds_extensions_along_parity_maps():
    scaling = GeometricScaling(F(2))
    fam = {
        "x0": ClosedFormSpec({}),
        "xa": ClosedFormSpec({"alt_r": F(1)}),
    }
    g = stability_graph(fam, scaling)
    clique = maximal_self_stable(g)[0]
    assert clique == ("x0", "xa")
    pool = {
        "plus": ClosedFormSpec({"r": F(1)}),
        "minus": ClosedFormSpec({"r": F(-1)}),
    }
    outcomes = tangency_probe(g, clique, ((2, 0), (2, 1)), pool)
    by_map = {(o.stride, o.offset): o for o in outcomes}
    # along even indices xa looks like +r_n, so -r_n extends the family;
    # along odd indices the roles swap
    assert by_map[(2, 0)].status == "extension_witness"
    assert by_map[(2, 0)].witness == "minus"
    assert by_map[(2, 1)].status == "extension_witness"
    assert by_map[(2, 1)].witness == "plus"


def test_probe_reports_empty_search_honestly():
    scaling = GeometricScaling(F(2))
    fam = {"x0": ClosedFormSpec({}), "x1": ClosedFormSpec({"r": F(1)})}
    g = stability_graph(fam, scaling)
    clique = maximal_self_stable(g)[0]
    pool = {"dup": ClosedFormSpec({"r": F(1), "one": F(9)})}
    (outcome,) = tangency_probe(g, clique, ((2, 0),), pool)
    assert outcome.status == "no_extension_found"
    assert "collapses" in outcome.detail


def test_probe_pushes_alternating_candidates():
    # the candidate rides the same index map as the family: along even
    # indices (-1)^n r_n collapses onto +r_n, along odd indices it lands
    # at -r_n and genuinely extends
    scaling = GeometricScaling(F(2))
    fam = {"x0": ClosedFormSpec({}), "x1": ClosedFormSpec({"r": F(1)})}
    g = stability_graph(fam, scaling)
    clique = maximal_self_stable(g)[0]
    pool = {"alt": ClosedFormSpec({"alt_r": F(1)})}
    outcomes = tangency_probe(g, clique, ((2, 0), (2, 1)), pool)
    by_map = {(o.stride, o.offset): o for o in outcomes}
    assert by_map[(2, 0)].status == "no_extension_found"
    assert "collapses" in by_map[(2, 0)].detail
    assert by_map[(2, 1)].status == "extension_witness"
    assert by_map[(2, 1)].witness == "alt"


# ---------------------------------------------------------------------------
# Serialization


def test_serialization_roundtrips():
    scalings = [
        GeometricScaling(F(5, 2), F(3)),
        PolynomialScaling(2, F(1, 2)),
        SubsequenceScaling(GeometricScaling(F(2)), 3, 1),
    ]
    for s in scalings:
        assert scaling_from_dict(scaling_to_dict(s)) == s
    specs = [
        AffineSpec(F(1, 2), "log", F(-3), "alternating"),
        ClosedFormSpec({"r": F(1), "alt_one": F(2)}),
        InSetSpec(Lattice(F(1), F(0)), F(1), F(3)),
        InSetSpec(GeometricPoints(F(2), F(1), 0), F(5, 2)),
    ]
    for sp in specs:
        assert spec_from_dict(spec_to_dict(sp)) == sp


RATIOS = st.sampled_from([F(1, 3), F(1), F(3, 2), F(7, 2)])
GEOMETRIC = st.builds(GeometricScaling, st.sampled_from([F(3, 2), F(2), F(5)]),
                      RATIOS)
POLYNOMIAL = st.builds(PolynomialScaling, st.integers(1, 3), RATIOS)
NESTED = st.builds(
    SubsequenceScaling,
    st.builds(InterleaveScaling, st.one_of(GEOMETRIC, POLYNOMIAL),
              st.one_of(GEOMETRIC, POLYNOMIAL)),
    st.integers(1, 3), st.integers(0, 2))
SPECS = st.one_of(
    st.builds(AffineSpec, RATIOS, st.sampled_from(["const", "sqrt", "log"]),
              st.sampled_from([F(0), F(-2), F(1, 2)]),
              st.sampled_from(["plus", "alternating"])),
    st.builds(ClosedFormSpec, st.dictionaries(st.sampled_from(ATOMS),
                                              RATIOS, max_size=3)),
    st.builds(InSetSpec, trees(2), RATIOS, st.one_of(st.none(), RATIOS)),
)


@settings(max_examples=100, deadline=None)
@given(scaling=st.one_of(GEOMETRIC, POLYNOMIAL, NESTED), spec=SPECS)
def test_scalings_and_specs_round_trip(scaling, spec):
    for to_dict, from_dict, value in ((scaling_to_dict, scaling_from_dict,
                                       scaling),
                                      (spec_to_dict, spec_from_dict, spec)):
        data = to_dict(value)
        assert from_dict(data) == value
        assert from_dict(json.loads(json.dumps(data))) == value
    if isinstance(spec, InSetSpec):
        # an unset odd anchor is left out, and JSON null reads as unset
        data = spec_to_dict(spec)
        assert ("a_odd" in data) == (spec.a_odd is not None)
        assert spec_from_dict(dict(data, a_odd=None)) == InSetSpec(
            spec.model, spec.a)
