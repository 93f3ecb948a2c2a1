"""Rescaled-limit laboratory for sequences drifting to infinity.

Everything here is organized around one normal form.  A point sequence is
described symbolically, and every supported description reduces to

    x_n = phase(n) * r_n + sub(n)

where phase(n) takes one value on even n and one on odd n (both exact
rationals) and sub(n) is negligible next to r_n.  All the rescaled
quantities (the normalized distance to the basepoint and the pairwise
rescaled limits) are then functions of the two phase values alone,
so they come out exact.  Sequences that do not reduce this way (set-valued
selectors over sets we cannot certify) fall back to a numeric probe and are
reported as estimates, never silently mixed with exact results.

Each entry point therefore classifies every spec once per scaling and reads
all of its rescaled limits off the resulting phase forms; `_tilde` and
`_pair` hold the one choice between the exact and the numeric path.  A
stability graph keeps the limit table it was built from: every member's
phase form and normalized limit, and every pair's limit.  `_pair_table`
builds the pair column; when every form is exact it reads the phases as
integers over one common denominator, so a pair costs two int
subtractions and an int compare.  A subsequence push reads its "before"
column from that table (the graph's own, computed once per family, or one
it builds the same way), and classifies the pushed specs afresh under the
pushed scaling rather than mapping the old phases across, so the
carry-over check compares two separate computations.

Each scaling and spec kind declares its fields once, each with its JSON
codec (`setmodels.Codec`); `*_from_dict` and `*_to_dict` are the generic
read and write over one kind-name table per family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .errors import InputError, InternalInvariantError
from .pseudometric import make_space, metric_identify
from .rationals import common_power, flog, fmt, ipow_floor_log, rat
from . import setmodels
from .setmodels import (
    INTEGER,
    MODEL,
    RATIO,
    Codec,
    Kinds,
    codec,
    max_element,
    min_element,
    nearest_point,
)

ZERO = Fraction(0)

MAX_GRAPH_VERTICES = 20

# Atoms a closed-form sequence may combine.  Each is a function of r_n and
# the parity sign (-1)^n only, which is what keeps subsequence pushes exact.
ATOMS = ("r", "alt_r", "sqrt_r", "alt_sqrt_r", "log_r", "alt_log_r",
         "one", "alt_one")


def _read_terms(value):
    if not isinstance(value, dict):
        raise InputError("closed-form terms must be an object")
    return value


_SCALING = Codec(lambda v: scaling_from_dict(v), lambda s: scaling_to_dict(s))
_AS_IS = Codec(lambda v: v, lambda v: v)  # checked by the constructor
_TERMS = Codec(_read_terms, lambda terms: {a: fmt(c) for a, c in terms})
_OPTIONAL_RATIO = Codec(lambda v: None if v is None else rat(v), fmt)


# ---------------------------------------------------------------------------
# Scaling sequences


@dataclass(frozen=True)
class GeometricScaling:
    """r_n = c * q**n with q > 1, c > 0."""

    q: Fraction = codec(RATIO)
    c: Fraction = codec(RATIO, default=Fraction(1))

    def __post_init__(self):
        object.__setattr__(self, "q", rat(self.q))
        object.__setattr__(self, "c", rat(self.c))
        if self.q <= 1:
            raise InputError("geometric scaling needs ratio q > 1")
        if self.c <= 0:
            raise InputError("geometric scaling needs c > 0")

    def eval(self, n: int) -> Fraction:
        _check_index(n)
        return self.c * self.q ** n


@dataclass(frozen=True)
class PolynomialScaling:
    """r_n = c * n**degree with integer degree >= 1, c > 0."""

    degree: int = codec(INTEGER)
    c: Fraction = codec(RATIO, default=Fraction(1))

    def __post_init__(self):
        object.__setattr__(self, "c", rat(self.c))
        if not isinstance(self.degree, int) or self.degree < 1:
            raise InputError("polynomial scaling needs integer degree >= 1")
        if self.c <= 0:
            raise InputError("polynomial scaling needs c > 0")

    def eval(self, n: int) -> Fraction:
        _check_index(n)
        return self.c * Fraction(n) ** self.degree


@dataclass(frozen=True)
class InterleaveScaling:
    """Alternates two divergent scalings: odd n from `first`, even from
    `second`, each consumed in order."""

    first: object = codec(_SCALING)
    second: object = codec(_SCALING)

    def __post_init__(self):
        for part in (self.first, self.second):
            if not hasattr(part, "eval"):
                raise InputError("interleave parts must be scaling sequences")
        # the merged sequence must still be increasing often enough to
        # diverge; both parts diverge, so the merge does too

    def eval(self, n: int) -> Fraction:
        _check_index(n)
        if n % 2 == 1:
            return self.first.eval((n + 1) // 2)
        return self.second.eval(n // 2)


@dataclass(frozen=True)
class SubsequenceScaling:
    """r'_k = base(stride * k + offset), an affine strictly increasing
    re-indexing of another scaling."""

    base: object = codec(_SCALING)
    stride: int = codec(INTEGER)
    offset: int = codec(INTEGER, default=0)

    def __post_init__(self):
        if not hasattr(self.base, "eval"):
            raise InputError("subsequence base must be a scaling sequence")
        if not isinstance(self.stride, int) or self.stride < 1:
            raise InputError("subsequence stride must be an integer >= 1")
        if not isinstance(self.offset, int) or self.stride + self.offset < 1:
            raise InputError("subsequence must start at index >= 1")

    def eval(self, n: int) -> Fraction:
        _check_index(n)
        return self.base.eval(self.stride * n + self.offset)


def _check_index(n):
    if not isinstance(n, int) or n < 1:
        raise InputError("sequence indices start at 1")


def effective_geometric(scaling):
    """Collapse to (ratio, coeff) when the scaling is exactly geometric in
    its own index, else None."""
    if isinstance(scaling, GeometricScaling):
        return scaling.q, scaling.c
    if isinstance(scaling, SubsequenceScaling):
        eff = effective_geometric(scaling.base)
        if eff is None:
            return None
        q, c = eff
        return q ** scaling.stride, c * q ** scaling.offset
    return None


# ---------------------------------------------------------------------------
# Point-sequence specifications


@dataclass(frozen=True)
class AffineSpec:
    """x_n = sign(n) * (a * r_n + b * u_n) with u_n one of 1, sqrt(r_n),
    log(1 + r_n); sign is +1 always or (-1)**n."""

    a: Fraction = codec(RATIO)
    sub: str = codec(_AS_IS, default="const")
    b: Fraction = codec(RATIO, default=Fraction(0))
    sign: str = codec(_AS_IS, default="plus")

    def __post_init__(self):
        object.__setattr__(self, "a", rat(self.a))
        object.__setattr__(self, "b", rat(self.b))
        if self.sub not in ("const", "sqrt", "log"):
            raise InputError("sub must be const, sqrt, or log")
        if self.sign not in ("plus", "alternating"):
            raise InputError("sign must be plus or alternating")

    def terms(self):
        sub_atom = {"const": "one", "sqrt": "sqrt_r", "log": "log_r"}[self.sub]
        if self.sign == "alternating":
            out = {"alt_r": self.a, "alt_" + sub_atom: self.b}
        else:
            out = {"r": self.a, sub_atom: self.b}
        return {k: v for k, v in out.items() if v != 0}


@dataclass(frozen=True)
class ClosedFormSpec:
    """x_n as an exact-coefficient combination of the supported atoms."""

    terms: tuple = codec(_TERMS)

    def __init__(self, terms):
        norm = []
        for atom, coef in terms.items() if isinstance(terms, dict) else terms:
            if atom not in ATOMS:
                raise InputError(f"unknown atom {atom!r}")
            coef = rat(coef)
            if coef != 0:
                norm.append((atom, coef))
        norm.sort(key=lambda kv: ATOMS.index(kv[0]))
        seen = [a for a, _ in norm]
        if len(seen) != len(set(seen)):
            raise InputError("duplicate atom in closed form")
        object.__setattr__(self, "terms", tuple(norm))

    def term_map(self):
        return dict(self.terms)


@dataclass(frozen=True)
class InSetSpec:
    """x_n = a nearest point of `model` to anchor * r_n.

    The anchor may differ between even and odd indices (a_odd defaults to
    the even value), as for a selector that follows an alternating sequence.
    Ties at equal distance take the smaller point, deterministically.
    """

    model: object = codec(MODEL)
    a: Fraction = codec(RATIO)
    a_odd: object = codec(_OPTIONAL_RATIO, default=None)

    def __post_init__(self):
        object.__setattr__(self, "a", rat(self.a))
        if self.a_odd is not None:
            object.__setattr__(self, "a_odd", rat(self.a_odd))
        if setmodels.ambient_dim(self.model) != 1:
            raise InputError("set-valued sequences need a subset of the line")

    def anchors(self):
        odd = self.a if self.a_odd is None else self.a_odd
        return self.a, odd


def _spec_terms(spec):
    if isinstance(spec, AffineSpec):
        return spec.terms()
    if isinstance(spec, ClosedFormSpec):
        return spec.term_map()
    return None


# ---------------------------------------------------------------------------
# Exact evaluation


def eval_spec(spec, scaling, n: int):
    """Value of x_n.  Exact Fraction when the description is rational;
    float when a sqrt/log atom is involved."""
    r = scaling.eval(n)
    terms = _spec_terms(spec)
    if terms is not None:
        sign = -1 if n % 2 else 1
        exact = ZERO
        approx = 0.0
        has_float = False
        for atom, coef in terms.items():
            alt = atom.startswith("alt_")
            base = atom[4:] if alt else atom
            s = sign if alt else 1
            if base == "r":
                exact += coef * s * r
            elif base == "one":
                exact += coef * s
            elif base == "sqrt_r":
                has_float = True
                approx += float(coef) * s * math.exp(flog(r) / 2)
            elif base == "log_r":
                has_float = True
                approx += float(coef) * s * flog(1 + r)
        if has_float:
            return float(exact) + approx
        return exact
    if isinstance(spec, InSetSpec):
        a_even, a_odd = spec.anchors()
        anchor = (a_odd if n % 2 else a_even) * r
        return nearest_point(spec.model, anchor, eps=Fraction(1, 10 ** 9))
    raise InputError(f"unsupported sequence spec {type(spec).__name__}")


def spec_ratio_float(spec, scaling, n: int) -> float:
    """x_n / r_n as a float, computed without overflowing on huge r_n."""
    r = scaling.eval(n)
    terms = _spec_terms(spec)
    if terms is not None:
        sign = -1 if n % 2 else 1
        total = 0.0
        lg = flog(r)
        for atom, coef in terms.items():
            alt = atom.startswith("alt_")
            base = atom[4:] if alt else atom
            s = sign if alt else 1
            if base == "r":
                total += float(coef) * s
            elif base == "one":
                total += float(coef) * s * math.exp(-lg)
            elif base == "sqrt_r":
                total += float(coef) * s * math.exp(-lg / 2)
            elif base == "log_r":
                total += float(coef) * s * flog(1 + r) * math.exp(-lg)
        return total
    if isinstance(spec, InSetSpec):
        return float(eval_spec(spec, scaling, n) / r)
    raise InputError(f"unsupported sequence spec {type(spec).__name__}")


# ---------------------------------------------------------------------------
# Phase classification


class PhaseForm(NamedTuple):
    """Certified normal form: x_n = phase * r_n + o(r_n), phase split by
    parity of n."""

    even: Fraction
    odd: Fraction
    status: str  # "exact" | "inconclusive"
    note: str = ""

    @property
    def ok(self):
        return self.status == "exact"


def _terms_phases(terms):
    plain = terms.get("r", ZERO)
    alt = terms.get("alt_r", ZERO)
    return plain + alt, plain - alt


def classify(spec, scaling) -> PhaseForm:
    """Reduce a spec to its phase form, certifying the sublinear remainder.

    Closed forms classify unconditionally.  Set-valued specs classify when
    the model's structure pins the selector: a finite covering bound on the
    relevant side, an attained extreme element, or a geometric model whose
    ratio is commensurable with a geometric scaling.
    """
    terms = _spec_terms(spec)
    if terms is not None:
        even, odd = _terms_phases(terms)
        return PhaseForm(even, odd, "exact", "closed form")
    if isinstance(spec, InSetSpec):
        a_even, a_odd = spec.anchors()
        sides = setmodels.frames(spec.model)
        even = _classify_inset_branch(spec.model, sides, a_even, scaling, 0)
        odd = _classify_inset_branch(spec.model, sides, a_odd, scaling, 1)
        if even is None or odd is None:
            return PhaseForm(ZERO, ZERO, "inconclusive",
                             "selector not certified over this set")
        (pe, note_e), (po, note_o) = even, odd
        note = note_e if note_e == note_o else f"{note_e} / {note_o}"
        return PhaseForm(pe, po, "exact", note)
    return PhaseForm(ZERO, ZERO, "inconclusive",
                     f"unsupported spec {type(spec).__name__}")


def _classify_inset_branch(model, sides, anchor, scaling, parity):
    """Phase of nearest(model, anchor * r_n) along one parity class, or
    None when not certifiable; sides are the model's frames.  Returns
    (phase, note)."""
    if anchor == 0:
        try:
            pin = nearest_point(model, ZERO)
        except InputError:
            return None
        return ZERO, f"pinned at {fmt(pin)}"
    direction = 1 if anchor > 0 else -1
    frame = sides[direction]
    if frame.cover is not None:
        return anchor, f"covering bound {fmt(frame.cover)}"
    pin = min_element(model) if direction == -1 else max_element(model)
    if pin is not None:
        return ZERO, f"pinned at {fmt(pin)}"
    if frame.rho is not None and frame.rho > 1:
        return _geometric_selector_phase(model, anchor, scaling, parity,
                                         frame)
    return None


def _geometric_selector_phase(model, anchor, scaling, parity, frame):
    """Selector over a set that rescales onto itself on the anchor's side
    (its `setmodels.Frame` there, factor rho) under a geometric scaling
    whose ratio squared is a power of rho: a parity step multiplies r_n by
    a power of rho. Once the anchor point is past the first set point
    beyond the factor's reach (any point, at reach 0), the gap that holds
    it opens past the reach, so its nearest point scales with it: the
    ratio nearest/r is eventually constant along a parity class, and that
    constant is the phase."""
    eff = effective_geometric(scaling)
    if eff is None:
        return None
    q_s, c_s = eff
    if common_power(q_s ** 2, frame.rho) != q_s ** 2:
        return None
    n_star = 1
    if frame.rho_reach:
        side = model if anchor > 0 else setmodels.Reflected(model)
        floor_val = next(hi for _, hi in setmodels.components(
            side, frame.rho_reach) if hi > frame.rho_reach)
        n_star = max(ipow_floor_log(q_s, floor_val / abs(anchor * c_s)) + 1,
                     1)
    if n_star % 2 != parity % 2:
        n_star += 1
    probes = [n_star, n_star + 2, n_star + 4]
    ratios = []
    for n in probes:
        r = scaling.eval(n)
        x = nearest_point(model, anchor * r)
        ratios.append(x / r)
    if ratios[0] == ratios[1] == ratios[2]:
        return ratios[0], f"geometric selector, ratio {fmt(ratios[0])}"
    raise InternalInvariantError(
        "commensurable geometric selector failed to stabilize: "
        + ", ".join(fmt(v) for v in ratios))


# ---------------------------------------------------------------------------
# Limit results


class LimitResult(NamedTuple):
    """Outcome of a rescaled limit.

    status "exact": `value` is the limit, as a Fraction.
    status "no_limit": the even/odd subsequences settle on different
        values; `clusters` lists (parity, value).
    status "estimated": numeric probe only; `value` is a float.
    status "inconclusive": nothing certified.
    """

    status: str
    value: object = None
    clusters: tuple = ()
    note: str = ""

    @property
    def exists(self):
        return self.status == "exact"


def _limit_from_phases(lo: Fraction, hi: Fraction, note="") -> LimitResult:
    if lo == hi:
        return LimitResult("exact", lo, note=note)
    return LimitResult(
        "no_limit",
        clusters=(("even", lo), ("odd", hi)),
        note=note or "parity subsequences disagree",
    )


def _tilde(spec, form, scaling) -> LimitResult:
    if form.ok:
        return _limit_from_phases(abs(form.even), abs(form.odd), form.note)
    return _numeric_limit(lambda n: abs(spec_ratio_float(spec, scaling, n)),
                          "numeric probe of |x_n|/r_n")


def _pair(x, fx, y, fy, scaling) -> LimitResult:
    if fx.ok and fy.ok:
        return _limit_from_phases(abs(fx.even - fy.even),
                                  abs(fx.odd - fy.odd))
    return _numeric_limit(
        lambda n: abs(spec_ratio_float(x, scaling, n)
                      - spec_ratio_float(y, scaling, n)),
        "numeric probe of |x_n - y_n|/r_n")


def _pair_table(specs, forms, scaling) -> tuple:
    """The `_pair` limit of every pair (i, j), i < j, in `combinations`
    order.

    When every form is exact, each phase is read as an integer numerator
    over the lcm of the table's denominators: a pair is then two int
    subtractions and an int compare, and each distinct value becomes one
    Fraction.  A table with an inexact form calls `_pair` throughout.
    """
    pairs = combinations(range(len(specs)), 2)
    if not all(form.ok for form in forms):
        return tuple(_pair(specs[i], forms[i], specs[j], forms[j], scaling)
                     for i, j in pairs)
    den = math.lcm(*(v.denominator for form in forms
                     for v in (form.even, form.odd)))
    even = [f.even.numerator * (den // f.even.denominator) for f in forms]
    odd = [f.odd.numerator * (den // f.odd.denominator) for f in forms]
    values = {}

    def value(units):
        got = values.get(units)
        if got is None:
            got = values[units] = Fraction(units, den)
        return got

    table = []
    for i, j in pairs:
        lo, hi = abs(even[i] - even[j]), abs(odd[i] - odd[j])
        table.append(LimitResult("exact", value(lo)) if lo == hi
                     else _limit_from_phases(value(lo), value(hi)))
    return tuple(table)


def tilde_d(spec, scaling) -> LimitResult:
    """Normalized distance to the basepoint: lim |x_n - p| / r_n, which no
    basepoint p moves."""
    return _tilde(spec, classify(spec, scaling), scaling)


def d_r(x, y, scaling) -> LimitResult:
    """Pairwise rescaled limit lim |x_n - y_n| / r_n, when it exists."""
    return _pair(x, classify(x, scaling), y, classify(y, scaling), scaling)


# ---------------------------------------------------------------------------
# Numeric fallback

_NUMERIC_BLOCKS = (10, 11, 12)
_NUMERIC_TOL = 1e-9


def _numeric_limit(fn, note) -> LimitResult:
    """Probe fn at dyadic depths on each parity class; a class settles when
    its last three block values agree."""
    settled = []
    for parity in (0, 1):
        vals = [fn((1 << j) + parity) for j in _NUMERIC_BLOCKS]
        if (abs(vals[2] - vals[1]) <= _NUMERIC_TOL
                and abs(vals[1] - vals[0]) <= _NUMERIC_TOL):
            settled.append(vals[2])
        else:
            settled.append(None)
    even, odd = settled
    if even is None or odd is None:
        return LimitResult("inconclusive", note=note + "; probe unsettled")
    if abs(even - odd) <= _NUMERIC_TOL:
        return LimitResult("estimated", (even + odd) / 2, note=note)
    return LimitResult("no_limit",
                       clusters=(("even", even), ("odd", odd)),
                       note=note + "; numeric probe")


# ---------------------------------------------------------------------------
# Stability graph and maximal self-stable families


class StabilityGraph(NamedTuple):
    """Vertices are labeled sequences; an edge means the pairwise rescaled
    limit exists, and carries its exact value.

    The graph keeps the limit table it was read from, which a push of the
    same family reads as its "before" column."""

    labels: tuple
    specs: tuple
    scaling: object
    tilde: tuple  # Fraction per label
    edges: tuple  # ((i, j), value) with i < j
    forms: tuple  # PhaseForm per label
    limits: tuple  # LimitResult per label: the normalized limit
    pairs: tuple  # LimitResult per pair (i, j), i < j, combinations order

    def edge_value(self, a, b):
        i, j = sorted((self.labels.index(a), self.labels.index(b)))
        return dict(self.edges).get((i, j))

    def neighbors(self, idx):
        return ({v for (u, v), _ in self.edges if u == idx}
                | {u for (u, v), _ in self.edges if v == idx})


def _items(family):
    """(label, spec) pairs of a family: a dict sorted by label, any other
    iterable of pairs in its own order."""
    return sorted(family.items()) if isinstance(family, dict) else list(family)


def stability_graph(family, scaling) -> StabilityGraph:
    """Build the mutual-stability graph of a labeled family.

    Every member must admit a normalized distance limit.  Such a member has
    an exact phase form, so each pair's rescaled limit either exists (an
    edge, with its exact value) or splits by parity (no edge).
    """
    items = _items(family)
    labels = tuple(k for k, _ in items)
    if len(labels) != len(set(labels)):
        raise InputError("family labels must be unique")
    if len(labels) > MAX_GRAPH_VERTICES:
        raise InputError(
            f"family of {len(labels)} exceeds the {MAX_GRAPH_VERTICES}-vertex"
            " bound")
    specs = tuple(s for _, s in items)
    forms = tuple(classify(spec, scaling) for spec in specs)
    limits = tuple(_tilde(spec, form, scaling)
                   for spec, form in zip(specs, forms))
    bad = [f"{label} ({res.status})"
           for label, res in zip(labels, limits) if not res.exists]
    if bad:
        raise InputError(
            "family members without a normalized distance limit: "
            + ", ".join(bad))
    pairs = _pair_table(specs, forms, scaling)
    edges = tuple((ij, res.value) for ij, res
                  in zip(combinations(range(len(labels)), 2), pairs)
                  if res.exists)
    return StabilityGraph(labels, specs, scaling,
                          tuple(res.value for res in limits), edges,
                          forms, limits, pairs)


def maximal_self_stable(graph: StabilityGraph):
    """All maximal families in which every pair has a rescaled limit:
    the maximal cliques of the stability graph, each sorted, the list
    ordered for reproducibility."""
    n = len(graph.labels)
    adj = {i: graph.neighbors(i) for i in range(n)}
    cliques = []

    def expand(r, p, x):
        if not p and not x:
            cliques.append(tuple(sorted(r)))
            return
        pivot = max(p | x, key=lambda u: len(adj[u] & p))
        for v in sorted(p - adj[pivot]):
            expand(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    expand(set(), set(range(n)), set())
    del expand  # it refers to itself: free it now, not at a collection
    named = sorted(tuple(graph.labels[i] for i in c) for c in cliques)
    zero_members = {graph.labels[i] for i in range(n)
                    if graph.tilde[i] == 0}
    for clique in named:
        if zero_members and not zero_members <= set(clique):
            raise InternalInvariantError(
                "a vanishing-ratio member is missing from a maximal family;"
                f" clique {clique}")
    return tuple(named)


# ---------------------------------------------------------------------------
# Pretangent space over a self-stable family


class PretangentReport(NamedTuple):
    space: object            # QuotientMetricSpace
    distinguished: object    # block label holding the vanishing members
    member_blocks: tuple     # (family label, block label)


def pretangent_space(graph: StabilityGraph, clique) -> PretangentReport:
    """Metric space of a maximal self-stable family: members at their
    pairwise rescaled limits, then points at distance zero identified.

    The vanishing-ratio members collapse to one distinguished point.
    """
    clique = tuple(clique)
    idx = []
    for label in clique:
        if label not in graph.labels:
            raise InputError(f"unknown family member {label!r}")
        idx.append(graph.labels.index(label))
    edges = dict(graph.edges)
    n = len(clique)
    dist = [[ZERO] * n for _ in range(n)]
    for a, b in combinations(range(n), 2):
        value = edges.get(tuple(sorted((idx[a], idx[b]))))
        if value is None:
            raise InputError(
                f"({clique[a]}, {clique[b]}) is not a stable pair; "
                "pretangent spaces need a self-stable family")
        dist[a][b] = dist[b][a] = value
    try:
        space = make_space(clique, tuple(map(tuple, dist)))
    except InputError as exc:
        raise InternalInvariantError(
            f"rescaled-limit table is not a pseudometric: {exc}") from exc
    quotient = metric_identify(space)
    member_blocks = []
    distinguished = None
    for label, i in zip(clique, idx):
        block = quotient.projection[label]
        member_blocks.append((label, block))
        if graph.tilde[i] == 0:
            distinguished = block
    return PretangentReport(quotient, distinguished, tuple(member_blocks))


# ---------------------------------------------------------------------------
# Subsequence pushes


class PushReport(NamedTuple):
    stride: int
    offset: int
    scaling: object
    family: tuple          # (label, pushed spec)
    checks: tuple          # (kind, labels, before, after)

    def pushed(self, label):
        for name, spec in self.family:
            if name == label:
                return spec
        raise InputError(f"no pushed member {label!r}")


def _push_terms(terms, stride, offset):
    """Rewrite atoms under n -> stride*k + offset.

    (-1)**(stride*k+offset) is (-1)**offset when the stride is even (the
    alternation freezes) and (-1)**offset * (-1)**k when odd (it survives
    with a possible flip).  Atom magnitudes follow the pushed scaling, so
    coefficients are otherwise untouched.
    """
    sign = -1 if offset % 2 else 1
    out = {}
    for atom, coef in terms.items():
        if not atom.startswith("alt_"):
            out[atom] = out.get(atom, ZERO) + coef
            continue
        base = atom[4:]
        if stride % 2 == 0:
            out[base] = out.get(base, ZERO) + coef * sign
        else:
            out[atom] = out.get(atom, ZERO) + coef * sign
    return {k: v for k, v in out.items() if v != 0}


def _push_spec(spec, stride, offset):
    terms = _spec_terms(spec)
    if terms is not None:
        return ClosedFormSpec(_push_terms(terms, stride, offset))
    if isinstance(spec, InSetSpec):
        a_even, a_odd = spec.anchors()
        pick = (a_even, a_odd)
        new_even = pick[offset % 2]
        new_odd = pick[(stride + offset) % 2]
        return InSetSpec(spec.model, new_even, new_odd)
    raise InputError(f"unsupported sequence spec {type(spec).__name__}")


def subsequence_push(family, scaling, stride: int, offset: int = 0,
                     graph=None):
    """Re-index a whole family along n = stride*k + offset.

    Returns a PushReport whose checks record, member by member and stable
    pair by stable pair, that existing limits carried over unchanged (a
    limit that exists passes to every subsequence).  New limits may appear;
    they are reported, not checked against anything.

    The "before" side of each check is the family's limit table under
    `scaling`: the one `graph` holds when given (the stability graph of
    this family under this scaling), else one built here the same way.
    """
    items = _items(family)
    specs = tuple(spec for _, spec in items)
    if graph is None:
        forms = tuple(classify(spec, scaling) for spec in specs)
        limits = tuple(_tilde(spec, form, scaling)
                       for spec, form in zip(specs, forms))
        pairs = _pair_table(specs, forms, scaling)
    elif (graph.labels, graph.specs, graph.scaling) == (
            tuple(label for label, _ in items), specs, scaling):
        limits, pairs = graph.limits, graph.pairs
    else:
        raise InputError("the graph holds another family or scaling")
    return _push(items, scaling, limits, pairs, stride, offset)[0]


def _push(items, scaling, limits, pairs, stride, offset):
    """The PushReport of `subsequence_push` over the "before" table
    (limits, pairs), and the phase forms of the pushed members under the
    pushed scaling."""
    pushed_scaling = SubsequenceScaling(scaling, stride, offset)
    pushed_items = [(label, _push_spec(spec, stride, offset))
                    for label, spec in items]
    pspecs = tuple(pspec for _, pspec in pushed_items)
    new = tuple(classify(pspec, pushed_scaling) for pspec in pspecs)
    checks = []
    for (label, _), pspec, pform, before in zip(items, pspecs, new, limits):
        after = _tilde(pspec, pform, pushed_scaling)
        checks.append(("tilde_d", (label,), before, after))
        if before.exists and not (after.exists
                                  and after.value == before.value):
            raise InternalInvariantError(
                f"push broke the normalized limit of {label}: "
                f"{before.value} -> {after.status}")
    for (i, j), before, after in zip(combinations(range(len(items)), 2),
                                     pairs,
                                     _pair_table(pspecs, new, pushed_scaling)):
        la, lb = items[i][0], items[j][0]
        checks.append(("d_r", (la, lb), before, after))
        if before.exists and not (after.exists
                                  and after.value == before.value):
            raise InternalInvariantError(
                f"push broke the pairwise limit of ({la}, {lb})")
    report = PushReport(stride, offset, pushed_scaling, tuple(pushed_items),
                        tuple(checks))
    return report, new


# ---------------------------------------------------------------------------
# Tangency probe


class ProbeOutcome(NamedTuple):
    stride: int
    offset: int
    status: str           # "extension_witness" | "no_extension_found"
    witness: object = None
    detail: str = ""


def tangency_probe(graph: StabilityGraph, clique, index_maps, pool):
    """Search for strict extensions of a maximal family along re-indexings.

    For each affine index map, the family is pushed and every pool
    candidate is tested: it must admit a normalized limit, be stable with
    every pushed member, and sit at positive rescaled distance from all of
    them.  Finding one shows the family stops being maximal along that
    subsequence.  Not finding one is only a bounded search coming up empty,
    never a proof; the outcome says which.
    """
    clique = tuple(clique)
    idx = [graph.labels.index(label) for label in sorted(set(clique))]
    family = [(graph.labels[i], graph.specs[i]) for i in idx]
    limits = [graph.limits[i] for i in idx]
    pairs = _pair_table([graph.specs[i] for i in idx],
                        [graph.forms[i] for i in idx], graph.scaling)
    pool_items = _items(pool)
    outcomes = []
    for stride, offset in index_maps:
        push, forms = _push(family, graph.scaling, limits, pairs, stride,
                            offset)
        members = list(zip(push.family, forms))
        notes = []
        for cand_label, cand in pool_items:
            if cand_label in clique:
                continue
            # the candidate rides the same subsequence as the family, so
            # its spec is pushed through the index map as well
            cand_pushed = _push_spec(cand, stride, offset)
            note = _extension_note(cand_label, cand_pushed,
                                   classify(cand_pushed, push.scaling),
                                   members, push.scaling)
            if note is None:
                outcomes.append(ProbeOutcome(stride, offset,
                                             "extension_witness", cand_label))
                break
            notes.append(note)
        else:
            outcomes.append(ProbeOutcome(
                stride, offset, "no_extension_found", None,
                "bounded search only: " + "; ".join(notes) if notes
                else "bounded search only"))
    return tuple(outcomes)


def _extension_note(label, spec, form, members, scaling):
    """None when a pushed candidate extends the pushed members, else the
    reason it does not."""
    if not _tilde(spec, form, scaling).exists:
        return f"{label}: no normalized limit"
    distances = []
    for (member, mspec), mform in members:
        res = _pair(spec, form, mspec, mform, scaling)
        if not res.exists:
            why = "unstable" if res.status == "no_limit" else "undecided"
            return f"{label}: {why} against {member}"
        distances.append(res.value)
    if 0 in distances:
        return f"{label}: collapses onto a member"
    return None


# ---------------------------------------------------------------------------
# Serialization


_SCALING_KINDS = Kinds("scaling", {
    "geometric": GeometricScaling, "polynomial": PolynomialScaling,
    "interleave": InterleaveScaling, "subsequence": SubsequenceScaling,
})
_SPEC_KINDS = Kinds("sequence spec", {
    "affine": AffineSpec, "closed_form": ClosedFormSpec, "in_set": InSetSpec,
})


def scaling_to_dict(scaling):
    return _SCALING_KINDS.write(scaling)


def scaling_from_dict(data):
    return _SCALING_KINDS.read(data)


def spec_to_dict(spec):
    return _SPEC_KINDS.write(spec)


def spec_from_dict(data):
    return _SPEC_KINDS.read(data)
