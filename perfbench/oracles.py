"""Per-workload output checks.

`check(job, result)` returns None when the output is right and a one-line
reason otherwise. Checks accept any certified-correct answer, including
improvements over today's (an exact porosity where today reports an
estimate, a higher rung of the equivalence ladder, a witness for a pair
that is inconclusive today), and reject values that are wrong.
"""

from __future__ import annotations

import csv
import itertools
import json
from fractions import Fraction as F

import reference as ref


def _json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def _csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# -----------------------------------------------------------------------------
# Porosity


def check_porosity(job, code, out):
    e = job.expect
    summary = _json(out / "porosity_summary.json")
    rows = _csv(out / "porosity_trace.csv")
    value, kind, status = F(summary["value"]), summary["kind"], \
        summary["status"]
    want_code = 1 if e["assert"] and status == "inconclusive_at_horizon" \
        else 0
    if code != want_code:
        return f"exit code {code}, expected {want_code} for {status}"
    if not rows:
        return "empty porosity trace"
    hs = [F(r["h"]) for r in rows]
    model = ref.from_dict(job.config["model"])
    gaps = model.longest_gaps(hs, cut=min(hs) / 2 ** 80)
    best = F(0)
    for r, h in zip(rows, hs):
        gap, ratio = F(r["gap_length"]), F(r["ratio"])
        if gap != gaps[h]:
            return f"gap at h={h} is {gap}, reference {gaps[h]}"
        if ratio != gap / h:
            return f"ratio at h={h} is not gap/h"
        best = max(best, ratio)
    if e["leaf_value"] is not None:
        if kind != "exact" or value != e["leaf_value"]:
            return f"leaf porosity {kind} {value}, closed form " \
                   f"{e['leaf_value']}"
    else:
        if not 0 <= value <= e["upper_bound"]:
            return f"union porosity {value} above part bound " \
                   f"{e['upper_bound']}"
        if kind == "horizon_estimate" and value != best:
            return "estimate is not the probed sup"
        if kind not in ("exact", "horizon_estimate"):
            return f"unknown porosity kind {kind}"
        known = e["known_value"]
        if known is not None and (value > known
                                  or (kind == "exact" and value != known)):
            return f"porosity {kind} {value} against exact {known}"
    if kind == "exact":
        want = "porous" if value > 0 else "nonporous_certified"
    else:
        want = "porous" if best >= e["threshold"] \
            else "inconclusive_at_horizon"
    if status != want:
        return f"status {status}, expected {want}"
    return None


# -----------------------------------------------------------------------------
# Equivalence ladder


# Rank of each status for a pair whose truth is known, higher is better.
# An answer may not rank below today's answer for the same slot; an
# uncertified "equivalent_numerical" on an inequivalent pair is accepted
# only where it is today's answer, and "inconclusive" beats it there.
EQUIVALENT_RANK = {"equivalent_exact": 3, "equivalent_numerical": 2,
                   "inconclusive": 1}
INEQUIVALENT_RANK = {"not_equivalent": 3, "inconclusive": 2,
                     "equivalent_numerical": 1}
TODAY_STATUS = {"exact": "equivalent_exact", "witness": "not_equivalent",
                "numerical": "equivalent_numerical",
                "inconclusive": "inconclusive"}


def _check_curve(job, out, p):
    y = ref.from_dict(job.config["y_model"])
    z = ref.from_dict(job.config["z_model"])
    rows = _csv(out / "epsilon_curve.csv")
    grid = [F(t) for t in job.config["t_grid"]]
    if [F(r["t"]) for r in rows] != grid:
        return "epsilon curve rows do not follow the t grid"
    for r, t in zip(rows, grid):
        e_zy, e_yz = ref.epsilon_row(y, z, p, t)
        got = (F(r["eps_ZY"]), F(r["eps_YZ"]), F(r["eps"]), F(r["ratio"]))
        want = (e_zy, e_yz, max(e_zy, e_yz), max(e_zy, e_yz) / t)
        if got != want:
            return f"eps row at t={t} is {got}, reference {want}"
    return None


def _check_witness(job, w, c_max, p):
    c = F(w["c"])
    if not 0 < c <= c_max:
        return f"witness constant {c} outside (0, {c_max}]"
    if len(w["t_values"]) < 3:
        return "witness with fewer than three radii"
    if job.expect["one_d"]:
        y = ref.from_dict(job.config["y_model"])
        z = ref.from_dict(job.config["z_model"])
        for t in map(F, w["t_values"]):
            if max(ref.epsilon_row(y, z, p, t)) < c * t:
                return f"witness radius {t} has eps below c*t"
    return None


def check_equiv(job, code, out):
    e = job.expect
    v = _json(out / "equiv_verdict.json")
    status = v["status"]
    rank = EQUIVALENT_RANK if "bound" in e else INEQUIVALENT_RANK
    today = rank.get(TODAY_STATUS[e["rung"]], 0)
    if rank.get(status, 0) < max(today, 1):
        return f"{status} where today's answer is {e['rung']}"
    want_code = 0 if status in ("equivalent_exact",
                                "equivalent_numerical") else 1
    if code != want_code:
        return f"exit code {code} for {status}"
    p = F(job.config.get("p", 0))
    if status == "equivalent_exact" and F(v["bound"]) != e["bound"]:
        return f"bound {v['bound']}, exact {e['bound']}"
    if status == "not_equivalent":
        bad = _check_witness(job, v["witness"], e.get("c_max", F(1)), p)
        if bad:
            return bad
    if "t_grid" in job.config and e["one_d"]:
        return _check_curve(job, out, p)
    return None


def check_epsilon(job, code, out):
    if code != 0:
        return f"exit code {code}"
    return _check_curve(job, out, F(job.config.get("p", 0)))


def _complement_lengths_ok(model_lengths, k, witness):
    scaled = {length / k for length in model_lengths}
    return witness in set(model_lengths) ^ scaled


def check_classify(job, code, out):
    e = job.expect
    v = _json(out / "classify_line.json")
    status = v["status"]
    if status not in e["status"]:
        return f"classified {status}, expected one of {e['status']}"
    want_code = 1 if status in ("fails_condition_with", "inconclusive") else 0
    if code != want_code:
        return f"exit code {code} for {status}"
    if status == "fails_condition_with" and "lengths" in e:
        k, w = F(v["k"]), F(v["witness"])
        if not _complement_lengths_ok(e["lengths"], k, w):
            return f"witness {w} at k={k} is not a distinguishing length"
    return None


# -----------------------------------------------------------------------------
# Spectra and lab


def check_spectrum(job, code, out):
    cfg = job.config
    rows = _csv(out / "spectrum.csv")
    summary = _json(out / "spectrum_summary.json")
    model = ref.from_dict(cfg["model"])
    p, eps = F(cfg["p"]), F(cfg["epsilon"])
    horizon, need = cfg["horizon"], cfg["persistence"]
    differing = []
    if len(rows) != len(cfg["t_grid"]):
        return "spectrum rows do not follow the t grid"
    for r, t in zip(rows, map(F, cfg["t_grid"])):
        h1 = ref.window_hits(model, p, t, eps, cfg["scaling_1"], horizon)
        h2 = ref.window_hits(model, p, t, eps, cfg["scaling_2"], horizon)
        s1 = "present" if len(h1) >= need else "absent_at_horizon"
        s2 = "present" if len(h2) >= need else "absent_at_horizon"
        div = sorted(h1 ^ h2)
        want = (t, s1, s2, str(div[0]) if div else "")
        got = (F(r["t"]), r["status_r1"], r["status_r2"],
               r["first_divergent_index"])
        if got != want:
            return f"spectrum row {got}, reference {want}"
        if s1 != s2:
            differing.append(str(t))
    if summary["differing_t"] != differing:
        return "differing_t does not match the rows"
    return None if code == 0 else f"exit code {code}"


def _limit(even, odd):
    lo, hi = abs(even), abs(odd)
    if lo == hi:
        return {"status": "exact", "value": str(lo), "clusters": None}
    return {"status": "no_limit", "value": None,
            "clusters": [["even", str(lo)], ["odd", str(hi)]]}


def _cliques(n, adjacent):
    """Maximal cliques (Bron-Kerbosch), each as a tuple of vertices."""
    out = []

    def expand(chosen, pool, excluded):
        if not pool and not excluded:
            out.append(tuple(chosen))
        for v in sorted(pool):
            near = {u for u in range(n) if u != v and adjacent(u, v)}
            expand(chosen + [v], pool & near, excluded & near)
            pool = pool - {v}
            excluded = excluded | {v}

    expand([], set(range(n)), set())
    return out


def expected_lab(job):
    cfg = job.config
    labels = [m["label"] for m in cfg["families"]]
    phase = dict(job.expect["phases"])
    n = len(labels)

    def d(i, j):
        (ei, oi), (ej, oj) = phase[labels[i]], phase[labels[j]]
        return ei - ej, oi - oj

    def adjacent(i, j):
        de, do = d(i, j)
        return abs(de) == abs(do)

    edges = [[labels[i], labels[j], str(abs(d(i, j)[0]))]
             for i, j in itertools.combinations(range(n), 2)
             if adjacent(i, j)]
    cliques = sorted(tuple(sorted(labels[i] for i in c))
                     for c in _cliques(n, adjacent))
    pretangent = []
    for clique in cliques:
        idx = [labels.index(lab) for lab in clique]
        blocks = []
        for i in idx:
            for block in blocks:
                if abs(d(i, block[0])[0]) == 0:
                    block.append(i)
                    break
            else:
                blocks.append([i])
        names = [min(labels[i] for i in b) for b in blocks]
        block_of = {labels[i]: name for b, name in zip(blocks, names)
                    for i in b}
        zero = [labels[i] for i in idx if phase[labels[i]][0] == 0]
        pretangent.append({
            "members": list(clique),
            "points": names,
            "table": [[str(abs(d(a[0], b[0])[0])) for b in blocks]
                      for a in blocks],
            "distinguished": block_of[zero[-1]] if zero else None,
            "blocks": [[lab, block_of[lab]] for lab in clique],
        })
    pushes = []
    for entry in cfg.get("index_maps", ()):
        stride, offset = entry["stride"], entry.get("offset", 0)

        def pushed(label):
            """Phases along n = stride*k + offset: parity of n per parity
            of k picks the old even or odd phase."""
            return (phase[label][offset % 2],
                    phase[label][(stride + offset) % 2])

        checks = []
        for lab in labels:
            e, o = phase[lab]
            pe, po = pushed(lab)
            checks.append({"kind": "tilde_d", "labels": [lab],
                           "before": _limit(e, o), "after": _limit(pe, po)})
        for a, b in itertools.combinations(labels, 2):
            (ea, oa), (eb, ob) = phase[a], phase[b]
            (pa, qa), (pb, qb) = pushed(a), pushed(b)
            checks.append({"kind": "d_r", "labels": [a, b],
                           "before": _limit(ea - eb, oa - ob),
                           "after": _limit(pa - pb, qa - qb)})
        pushes.append({"stride": stride, "offset": offset, "checks": checks})
    return {
        "tilde": {lab: str(abs(phase[lab][0])) for lab in labels},
        "edges": edges,
        "maximal_families": [list(c) for c in cliques],
        "pretangent": pretangent,
        "pushes": pushes,
    }


def check_lab(job, code, out):
    if code != 0:
        return f"exit code {code}"
    got = _json(out / "lab_report.json")
    want = expected_lab(job)
    for key in want:
        if got.get(key) != want[key]:
            return f"lab report differs from the phase algebra at {key!r}"
    return None


# -----------------------------------------------------------------------------
# Pseudometric search


def _preserves(mapping, src, dst):
    """Own check: distance preserving, image meets every zero class."""
    si = {lab: i for i, lab in enumerate(src.labels)}
    di = {lab: i for i, lab in enumerate(dst.labels)}
    if set(mapping) != set(src.labels):
        return False
    for a, b in itertools.combinations_with_replacement(src.labels, 2):
        if dst.dist[di[mapping[a]]][di[mapping[b]]] != src.dist[si[a]][si[b]]:
            return False
    image = {di[mapping[x]] for x in src.labels}
    return all(any(dst.dist[y][i] == 0 for i in image)
               for y in range(len(dst.labels)))


def check_search(job, result, pm):
    e = job.expect
    if job.tag.endswith("/pseudoisometry"):
        found = result
        if found is not None:
            if not _preserves(found, e["a"], e["b"]):
                return "returned map is not a pseudoisometry (own check)"
            if not pm.is_pseudoisometry(found, e["a"], e["b"]):
                return "returned map fails is_pseudoisometry"
    else:
        qa, qb, found = result
        if found is not None:
            if len(qa) != len(qb) or len(set(found.values())) != len(qb) \
                    or not _preserves(found, qa, qb):
                return "returned map is not an isometry of the quotients"
    if bool(found) != e["positive"]:
        return f"search answered {bool(found)} for a " \
               f"{'positive' if e['positive'] else 'negative'} pair"
    return None


def check_fuzz(job, code, out):
    got = _json(out / "pseudo_fuzz.json")
    want = {"cases": job.expect["count"], "seed": job.expect["seed"],
            "failures": []}
    if got != want:
        return f"fuzz report {got}"
    return None if code == 0 else f"exit code {code}"


CLI_CHECKS = {
    "porosity": check_porosity,
    "equiv": check_equiv,
    "epsilon": check_epsilon,
    "classify-line": check_classify,
    "spectrum": check_spectrum,
    "lab": check_lab,
    "pseudo": check_fuzz,
}


def check(job, result, pm):
    """None when the result is right, else the reason it is not."""
    if job.command is None:
        return check_search(job, result, pm)
    code, out = result
    try:
        return CLI_CHECKS[job.command](job, code, out)
    except (OSError, KeyError, ValueError, TypeError, ZeroDivisionError) \
            as exc:
        return f"unreadable output: {exc!r}"


# -----------------------------------------------------------------------------
# Known defects

# Wrong answers today's code gives. They stay out of the timed cycles
# (no job there may fail), and every run reports whether each is still
# present, so a fix shows up and a regression cannot hide behind them.
_RAY = {"kind": "ray", "origin": "0", "direction": "+"}
KNOWN_DEFECTS = [
    ("equiv: [0, inf) against the half lattice {2, 5, 8, ...} is certified "
     "with bound 3/2, but the point 0 lies at distance 2",
     {"y_model": _RAY, "z_model": {"kind": "lattice", "step": "3",
                                   "offset": "2", "half": "plus"}},
     lambda v: v["status"] != "equivalent_exact" or v["bound"] == "2"),
    ("equiv: GP(3) against GP(3/2) is reported equivalent_numerical "
     "although eps(3^m)/3^m stays bounded away from 0 (the radius grid "
     "2^k meets neither set)",
     {"y_model": {"kind": "geometric_points", "q": "3", "c": "1", "n0": 0},
      "z_model": {"kind": "geometric_points", "q": "3/2", "c": "1",
                  "n0": 0}},
     lambda v: v["status"] != "equivalent_numerical"),
]


def known_defects(cli_main, work):
    """[(description, still present)] for KNOWN_DEFECTS."""
    work.mkdir(parents=True, exist_ok=True)
    out = []
    for i, (text, config, fixed) in enumerate(KNOWN_DEFECTS):
        cfg = work / f"defect{i}.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        cli_main(["equiv", "--config", str(cfg), "--out", str(work / str(i))])
        verdict = _json(work / str(i) / "equiv_verdict.json")
        out.append((text, not fixed(verdict)))
    return out
