"""Batch experiment runner.

Each subcommand reads one JSON config, runs a single analysis, and writes
CSV/JSON result files into the output directory. Outputs are deterministic:
rationals are rendered exactly ("3/10") with a 12-significant-digit decimal
companion column, JSON keys are sorted, and line endings are LF. There is
no interactive mode; reproducibility comes first.

Exit codes: 0 on success, 1 when --assert is set and the analysis reached a
negative verdict (refuted equivalence, differing spectra, failed
classification, invalid pseudometric), 2 on config or geometry errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from . import equivalence as eq
from . import line as line_mod
from . import porosity as por
from . import pseudometric as pm
from . import seqlab as sl
from . import setmodels as sm
from . import spectra as sp
from .errors import InputError
from .rationals import dec, fmt, integer, rat


# ---------------------------------------------------------------------------
# Deterministic file emission


def write_curve(path: Path, columns, rows) -> None:
    """CSV with a mandatory header row.

    columns is a list of (name, kind); rational columns ("rat") carry the
    exact cell plus a `<name>_dec` decimal companion so the same file
    serves exact oracles and plotting. None renders as an empty cell.
    """
    header = []
    for name, kind in columns:
        header.append(name)
        if kind == "rat":
            header.append(name + "_dec")
    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(columns):
            raise InputError("row width does not match the column list")
        cells = []
        for value, (_, kind) in zip(row, columns):
            if value is None:
                cells.append("")
                if kind == "rat":
                    cells.append("")
            elif kind == "rat":
                cells.append(fmt(value))
                cells.append(dec(value))
            else:
                cells.append(str(value))
        lines.append(",".join(cells))
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def _json_key(key) -> str:
    # the key rule of json.dumps
    if isinstance(key, str):
        return _quote(key)
    if key is None or isinstance(key, (int, float)):
        return _quote(json.dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


class _Text(str):
    """JSON text that `_json_text` emits as it stands: a piece rendered
    ahead of time, at the indent of the place where it is spliced."""


def _json_text(value, indent: str = "") -> str:
    """The text of json.dumps(value, sort_keys=True, indent=2).

    Given an indent, json.dumps runs its pure-Python encoder, a generator
    per container; joining the pieces here takes about half the time.
    Strings are quoted by the same function json.dumps uses (inline for
    the str items and keys of a container), and every other scalar but
    the frequent None is rendered by json.dumps itself.

    A `_Text` is spliced verbatim. It keeps the bytes of json.dumps only
    when it holds the text of its value rendered at the indent where it
    lands: `_json_text(v, indent)` for the indent of that item.
    """
    out = []

    def emit(value, indent):
        # appends the pieces to one list, joined once at the end
        if isinstance(value, str):
            out.append(value if type(value) is _Text else _quote(value))
        elif not value or not isinstance(value, (list, tuple, dict)):
            out.append("null" if value is None else json.dumps(value))
        else:
            keyed, inner = isinstance(value, dict), indent + "  "
            sep = ("{\n" if keyed else "[\n") + inner
            for item in sorted(value.items()) if keyed else value:
                if keyed:
                    k, item = item
                    sep += (_quote(k) if type(k) is str
                            else _json_key(k)) + ": "
                if type(item) is str:
                    out.append(sep + _quote(item))
                else:
                    out.append(sep)
                    emit(item, inner)
                sep = ",\n" + inner
            out.append("\n" + indent + ("}" if keyed else "]"))

    emit(value, indent)
    return "".join(out)


def write_json(path: Path, payload) -> None:
    """JSON with sorted keys and an indent of 2: the bytes of
    json.dumps(payload, sort_keys=True, indent=2) plus a newline, as long
    as every `_Text` in the payload holds the text of its value rendered
    at the indent where it lands (see `_json_text`)."""
    path.write_bytes((_json_text(payload) + "\n").encode("utf-8"))


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"config {path} must hold a JSON object")
    return data


def _fmt_or_none(value):
    return None if value is None else fmt(value)


def _point(value):
    return None if value is None else sm.as_rat_point(value)


def _require(cfg, key: str, where: str = "config"):
    if not isinstance(cfg, dict) or key not in cfg:
        raise InputError(f"{where} is missing the required key {key!r}")
    return cfg[key]


def _read(cfg, key: str, read=rat, default=None):
    """read(cfg[key]), or of the default when one is given and the key is
    missing; a value that read refuses is an InputError naming the key."""
    value = _require(cfg, key) if default is None else cfg.get(key, default)
    try:
        return read(value)
    except InputError as exc:
        raise InputError(f"config key {key!r}: {exc}") from None


def _positive(cfg, key: str, default):
    """The rational at cfg[key] (or the default), refused unless > 0."""
    value = _read(cfg, key, rat, default)
    if value <= 0:
        raise InputError(f"config key {key!r} must be positive, "
                         f"not {fmt(value)}")
    return value


def _listed(value) -> list:
    # a string would pass as a list of its characters
    if not isinstance(value, list):
        raise InputError(f"must be a JSON list, not {value!r}")
    return value


def _rationals(value) -> list:
    return [rat(t) for t in _listed(value)]


_EPS_COLUMNS = (("t", "rat"), ("eps_ZY", "rat"), ("eps_YZ", "rat"),
                ("eps", "rat"), ("ratio", "rat"))


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_porosity(cfg, args, out: Path) -> int:
    model = sm.model_from_dict(_require(cfg, "model"))
    exponent = args.horizon if args.horizon is not None else _read(
        cfg, "horizon_exponent", integer, por.DEFAULT_HORIZON_EXPONENT)
    threshold = _positive(cfg, "threshold", Fraction(1, 100))
    result = por.porosity_at_infinity(model, exponent)
    verdict = por.is_porous_at_infinity(model, threshold, exponent)
    write_curve(out / "porosity_trace.csv",
                (("h", "rat"), ("gap_length", "rat"), ("ratio", "rat")),
                result.trace)
    write_json(out / "porosity_summary.json", {
        "value": fmt(result.value),
        "value_dec": dec(result.value),
        "kind": result.kind,
        "status": verdict.status,
        "witness_h": [fmt(h) for h in result.witness_h],
        "notes": result.notes,
    })
    if args.assert_ and verdict.status == "inconclusive_at_horizon":
        return 1
    return 0


def _cmd_epsilon(cfg, args, out: Path) -> int:
    y = sm.model_from_dict(_require(cfg, "y_model"))
    z = sm.model_from_dict(_require(cfg, "z_model"))
    p = _read(cfg, "p", _point) if "p" in cfg else None
    grid = _read(cfg, "t_grid", _rationals)
    curve = eq.epsilon_curve(y, z, p, grid)
    write_curve(out / "epsilon_curve.csv", _EPS_COLUMNS, curve.samples)
    return 0


def _witness_payload(witness):
    if witness is None:
        return None
    return {
        "coef": fmt(witness.coef),
        "q": fmt(witness.q),
        "start": witness.start,
        "c": fmt(witness.c),
        "shift": fmt(witness.shift),
        "t_values": [fmt(t) for t in witness.t_values],
        "detail": witness.detail,
    }


def _cmd_equiv(cfg, args, out: Path) -> int:
    y = sm.model_from_dict(_require(cfg, "y_model"))
    z = sm.model_from_dict(_require(cfg, "z_model"))
    p = _read(cfg, "p", _point) if "p" in cfg else None
    grid = _read(cfg, "t_grid", _rationals) if "t_grid" in cfg else None
    horizon = args.horizon if args.horizon is not None else _read(
        cfg, "horizon", integer, eq.DEFAULT_HORIZON)
    growth = _read(cfg, "growth", rat, eq.DEFAULT_GROWTH)
    threshold = _positive(cfg, "threshold", eq.DEFAULT_THRESHOLD)
    verdict = eq.decide_strong_equivalence(
        y, z, p, growth=growth, horizon=horizon, threshold=threshold)
    # the curve before any file, so that a run that fails writes nothing
    curve = None if grid is None else eq.epsilon_curve(y, z, p, grid)
    write_json(out / "equiv_verdict.json", {
        "status": verdict.status,
        "bound": _fmt_or_none(verdict.bound),
        "bound_dec": None if verdict.bound is None else dec(verdict.bound),
        "witness": _witness_payload(verdict.witness),
        "max_ratio": (None if verdict.max_ratio is None
                      else dec(verdict.max_ratio)),
        "note": verdict.note,
    })
    if curve is not None:
        write_curve(out / "epsilon_curve.csv", _EPS_COLUMNS, curve.samples)
    if args.assert_ and verdict.status not in ("equivalent_exact",
                                               "equivalent_numerical"):
        return 1
    return 0


def _cmd_spectrum(cfg, args, out: Path) -> int:
    model = sm.model_from_dict(_require(cfg, "model"))
    p = _read(cfg, "p", _point, "0")
    scaling_1 = sl.scaling_from_dict(_require(cfg, "scaling_1"))
    scaling_2 = sl.scaling_from_dict(_require(cfg, "scaling_2"))
    grid = _read(cfg, "t_grid", _rationals)
    epsilon = _read(cfg, "epsilon")
    horizon = args.horizon if args.horizon is not None else _read(
        cfg, "horizon", integer, sp.DEFAULT_HORIZON)
    persistence = _read(cfg, "persistence", integer, sp.DEFAULT_PERSISTENCE)
    comp = sp.compare_spectra(model, p, scaling_1, scaling_2, grid, epsilon,
                              horizon, persistence)
    write_curve(out / "spectrum.csv",
                (("t", "rat"), ("status_r1", "str"), ("status_r2", "str"),
                 ("first_divergent_index", "int")),
                comp.rows)
    write_json(out / "spectrum_summary.json", {
        "differing_t": [fmt(t) for t in comp.differing_t],
        "horizon": horizon,
        "persistence": persistence,
    })
    if args.assert_ and comp.differing_t:
        return 1
    return 0


def _limit_payload(res):
    return {
        "status": res.status,
        "value": _fmt_or_none(res.value),
        "clusters": ([[name, fmt(v)] for name, v in res.clusters]
                     if res.clusters else None),
    }


def _lab_label(item) -> str:
    # make_space names points by str(label), so 1 and "1" would collide
    label = _require(item, "label", "lab family item")
    if not isinstance(label, str):
        raise InputError(f"lab family item key 'label' must be a JSON "
                         f"string, not {label!r}")
    return label


def _cmd_lab(cfg, args, out: Path) -> int:
    items = _read(cfg, "families", _listed)
    if not items:  # no member, no limit to push
        raise InputError("config key 'families' must list at least one "
                         "member")
    family = [(_lab_label(item),
               sl.spec_from_dict(_require(item, "spec", "lab family item")))
              for item in items]
    scaling = sl.scaling_from_dict(_require(cfg, "scaling"))
    graph = sl.stability_graph(family, scaling)
    cliques = sl.maximal_self_stable(graph)
    payload = {
        "tilde": {label: fmt(value)
                  for label, value in zip(graph.labels, graph.tilde)},
        "edges": [[graph.labels[i], graph.labels[j], fmt(value)]
                  for (i, j), value in graph.edges],
        "maximal_families": [list(c) for c in cliques],
        "pretangent": [],
        "pushes": [],
    }
    for clique in cliques:
        report = sl.pretangent_space(graph, clique)
        space = report.space.space
        payload["pretangent"].append({
            "members": list(clique),
            "points": list(space.labels),
            "table": [[fmt(v) for v in row] for row in space.dist],
            "distinguished": report.distinguished,
            "blocks": [[label, block] for label, block
                       in report.member_blocks],
        })
    # A push check is {"after", "before", "kind", "labels"}. Its "before",
    # "kind" and "labels" come from the graph's table, the same in every
    # push, and its "after" is one of a few distinct limits. So each
    # distinct limit payload and each check's fixed tail are rendered
    # once per job, at the indent of a check's values in the report
    # (payload["pushes"][p]["checks"] sits at 6 spaces, each check at 8),
    # and each push's "checks" list is joined from those texts alone.
    # "after" sorts first, so a check is its "after" head and text, then
    # its tail.
    check, inner = " " * 8, " " * 10
    head = "{\n" + inner + '"after": '
    lead, close = ",\n" + check + head, "\n" + " " * 6 + "]"
    texts, tails = {}, None

    def limit_text(res):
        # fmt renders equal values alike, so equal keys give equal text
        key = res.status, res.value, res.clusters
        text = texts.get(key)
        if text is None:
            text = texts[key] = _json_text(_limit_payload(res), inner)
        return text

    for entry in cfg.get("index_maps", ()):
        stride = _require(entry, "stride", "index_maps entry")
        push = sl.subsequence_push(family, scaling, integer(stride),
                                   integer(entry.get("offset", 0)), graph)
        if tails is None:
            # a check's dict without "after", its "{" turned into a comma
            tails = ["," + _json_text({
                "before": _Text(limit_text(before)),
                "kind": kind,
                "labels": list(labels),
            }, check)[1:] for kind, labels, before, _ in push.checks]
        parts = []
        for (_, _, _, after), tail in zip(push.checks, tails):
            parts += lead, limit_text(after), tail
        if parts:  # the first check opens the list
            parts[0] = "[\n" + check + head
            parts.append(close)
        payload["pushes"].append({
            "stride": push.stride,
            "offset": push.offset,
            "checks": _Text("".join(parts)) if parts else [],
        })
    write_json(out / "lab_report.json", payload)
    return 0


def _cmd_classify_line(cfg, args, out: Path) -> int:
    model = sm.model_from_dict(_require(cfg, "model"))
    ks = cfg.get("k_samples")
    window = cfg.get("window")
    verdict = line_mod.classify_line_subspace(
        model,
        _read(cfg, "k_samples", _rationals) if ks else None,
        _read(cfg, "window") if window is not None else None)
    write_json(out / "classify_line.json", {
        "status": verdict.status,
        "k": _fmt_or_none(verdict.k),
        "witness": _fmt_or_none(verdict.witness),
        "note": verdict.note,
    })
    if args.assert_ and verdict.status in ("fails_condition_with",
                                           "inconclusive"):
        return 1
    return 0


def _fuzz_space(rng, max_points: int):
    n = rng.randint(2, max_points)
    labels = tuple(f"p{i}" for i in range(1, n + 1))
    pool = [Fraction(rng.randint(-8, 8), rng.randint(1, 4))
            for _ in range(max(2, n - rng.randint(0, n - 1)))]
    values = [rng.choice(pool) for _ in labels]
    table = tuple(tuple(abs(u - v) for v in values) for u in values)
    return pm.make_space(labels, table), values


def _cmd_pseudo(cfg, args, out: Path) -> int:
    if "fuzz" in cfg:
        import random

        spec = cfg["fuzz"]
        if not isinstance(spec, dict):
            raise InputError("config key 'fuzz' must be a JSON object")
        count = integer(spec.get("count", 100))
        if count < 0:
            raise InputError(f"fuzz key 'count' must be at least 0, "
                             f"not {count}")
        max_points = integer(spec.get("max_points", 5))
        if max_points < 2:
            raise InputError(f"fuzz key 'max_points' must be at least 2, "
                             f"not {max_points}")
        seed = args.seed if args.seed is not None else integer(
            spec.get("seed", 0))
        rng = random.Random(seed)
        failures = []
        for case in range(count):
            space, values = _fuzz_space(rng, max_points)
            quotient = pm.metric_identify(space)
            q = quotient.space
            ok = pm.validate_pseudometric(q.labels, q.dist).ok
            ok = ok and len(quotient.blocks) == len(set(values))
            ok = ok and all(q.dist[i][j] > 0
                            for i in range(len(q.labels))
                            for j in range(len(q.labels)) if i != j)
            if not ok:
                failures.append(case)
        write_json(out / "pseudo_fuzz.json", {
            "cases": count,
            "seed": seed,
            "failures": failures,
        })
        if args.assert_ and failures:
            return 1
        return 0

    labels = _read(cfg, "labels", _listed)
    table = _read(cfg, "table",
                  lambda rows: [_rationals(row) for row in _listed(rows)])
    report = pm.validate_pseudometric(tuple(labels), table)
    if not report.ok:
        write_json(out / "pseudo_quotient.json", {
            "ok": False,
            "violations": list(report.violations),
        })
        return 1 if args.assert_ else 0
    space = pm.make_space(labels, table)
    quotient = pm.metric_identify(space)
    q = quotient.space
    write_json(out / "pseudo_quotient.json", {
        "ok": True,
        "blocks": [list(b) for b in quotient.blocks],
        "labels": list(q.labels),
        "table": [[fmt(v) for v in row] for row in q.dist],
        "projection": dict(sorted(quotient.projection.items())),
    })
    return 0


_HANDLERS = {
    "porosity": _cmd_porosity,
    "epsilon": _cmd_epsilon,
    "equiv": _cmd_equiv,
    "spectrum": _cmd_spectrum,
    "lab": _cmd_lab,
    "classify-line": _cmd_classify_line,
    "pseudo": _cmd_pseudo,
}


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the farfield command line."""
    parser = argparse.ArgumentParser(
        prog="farfield",
        description="Asymptotic invariants of unbounded sets, batch mode.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("porosity", "epsilon", "equiv", "spectrum", "lab",
                 "classify-line", "pseudo"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True,
                       help="path to the experiment JSON")
        p.add_argument("--out", default=".",
                       help="directory for result files")
        p.add_argument("--assert", dest="assert_", action="store_true",
                       help="exit 1 on a negative analysis verdict")
        p.add_argument("--horizon", type=int, default=None,
                       help="override the config horizon")
        p.add_argument("--seed", type=int, default=None,
                       help="seed for the pseudo fuzz corpus")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # main() may run many times in one process (perfbench calls it once per
    # job), and building the parser costs about 1 ms, as much as a small
    # job. parse_args keeps no state between calls: each returns a new
    # Namespace, and no option has a mutable default.
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _HANDLERS[args.command](cfg, args, out)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KeyError, TypeError, ValueError) as exc:
        print(f"config error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
