"""Complement-component analysis of structured subsets of the line.

Inside any window, the complement of a supported model is a finite list of
open intervals plus at most two rays; geometric blocks accumulating at 0
carry a truncation scale instead of an infinite list of tiny components.
`complement_components` reads that list off `setmodels.gaps`, each half
of the line from 0 outward (the negative one on the mirror image), and
the truncation scale off `setmodels.truncation`.
The operations here turn that decomposition into verdicts: isometry between
two subsets via t -> eps*t + s, self-similarity of the complement under
rescaling, and classification of a subset as a line, a half line, or
provably neither at some rescaling factor.

Isometries between subsets of the line with at least two points are always
restrictions of affine maps with slope +1 or -1: pairwise distances pin the
map down. That is why candidate maps are searched only in that family.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .errors import (InputError, InternalInvariantError,
                     UnsupportedGeometryError, WindowTooSmallError)
from .rationals import fmt, rat
from .setmodels import (
    INF,
    ZERO_ABOVE,
    Reflected,
    ambient_dim,
    components,
    contains,
    distance_to_set,
    first_point,
    gaps,
    holes,
    required_window,
    scale_model,
    truncation,
)

ZERO = Fraction(0)

DEFAULT_K_SAMPLES = (Fraction(2), Fraction(3), Fraction(1, 2),
                     Fraction(5, 4), Fraction(7, 3))

MAX_MAP_CANDIDATES = 4096


# ---------------------------------------------------------------------------
# Complement components


class ComponentReport(NamedTuple):
    """Complement structure of a line subset within [-H, H].

    bounded: open intervals (lo, hi) with true endpoints; a gap straddling
    the window edge is closed off by the actual set point beyond it.
    unbounded: tails as ("left", a) for (-inf, a) or ("right", b).
    punctures: removed positions that sat inside or on the edge of a
    continuum run; they leave no interval trace but break isometry.
    truncated_below: scale under which components around 0 were omitted,
    including the single gap touching that scale. It is set wherever the
    set accumulates at 0, also where a hull covers 0: the exact R and R+
    answers of `classify_line_subspace` trust an empty complement, and
    the window of a GeometricBlocks tree ends at the run's reach b*q,
    which certifies nothing past it. Ray(3, -1) u GeometricBlocks(3, 1, 2)
    covers its window [-6, 6] and has the gap (6, 9) just past it.
    """

    window: Fraction
    bounded: tuple
    unbounded: tuple
    punctures: tuple
    truncated_below: object = None

    @property
    def length_multiset(self):
        return tuple(sorted(hi - lo for lo, hi in self.bounded))


def _gaps_from_zero(model, h):
    """(gaps, trunc): the gaps of `gaps(model, 0, h)` that end past 0, and
    the truncation scale where the set accumulates at 0 from above (None
    elsewhere). An exposed accumulation ends the listing, right after the
    components at 0; one that they cover is looked for only where they
    reach past 0. The components below start(h) are left out
    (`truncation`), so the gaps are those of the components at 0 followed
    by the components with hi >= start: unless a component at 0 reaches
    start, the gap below the first of those opens at the end of the
    components at 0, and it is kept only where that end is trunc (any
    lower end meets the unresolved scale)."""
    found = list(gaps(model, ZERO, h))
    if not found[0][1] > 0:  # the gap below a component at 0
        del found[0]
    end, b = found[0]  # the gap past the components at 0, if any
    acc = b is ZERO_ABOVE
    if end > 0:  # they reach past 0: read where they end
        walk, end = components(model, ZERO), -INF
        while (c := next(walk, None)) is not None and c[0] <= 0:
            end = max(end, c[1])
        acc = c is not None and c[0] is ZERO_ABOVE
    if not acc:
        return found, None
    start, trunc = truncation(model, h)
    if end < start:
        return [g for g in gaps(model, start, h)
                if g[0] >= start or g[0] == end], trunc
    return found, trunc


def complement_components(model, window) -> ComponentReport:
    """Exact decomposition of [-H, H] minus the set.

    Every reported bounded component is a true complement component with
    exact length; edge gaps are completed by the set point beyond the
    window. The window must cover the model's structural prefix
    (required_window), otherwise tails could not be certified. Each half
    is read from 0 outward by `gaps`, the negative one on the mirror
    image, and the two meet at 0.
    """
    h = rat(window)
    if h <= 0:
        raise InputError("window must be positive")
    if ambient_dim(model) != 1:
        raise InputError("component analysis is 1-D only")
    need = required_window(model)
    if h < need:
        raise WindowTooSmallError(
            f"window {fmt(h)} does not cover the structural prefix; "
            f"need at least {fmt(need)}", required=need)
    above, up = _gaps_from_zero(model, h)
    below, down = _gaps_from_zero(Reflected(model), h)
    if above[0][0] < -h and above[0][1] > h:
        # the nearest set points beyond the window on either side (for a
        # continuum, the infimum or supremum of its points there)
        near = (first_point(model, h, 1), first_point(model, -h, -1))
        cands = [abs(v) + 1 for v in near if v is not None]
        if cands:
            raise WindowTooSmallError(
                f"no set points inside [-{fmt(h)}, {fmt(h)}]",
                required=max(need, min(cands)))
        raise InternalInvariantError("model produced no points at all")
    trunc = up if down is None else down if up is None else max(up, down)
    if below[0][0] < 0:  # the gap across 0, listed above too
        del below[0]

    # each half in its own coordinates, the mirrored one read backwards:
    # a gap (a, inf) is a tail at a, one (-inf, b) a tail at b toward the
    # other side. Every gap ends past 0, so only where it opens decides:
    # at or past h it lies outside the window, below trunc it meets the
    # unresolved scale
    tails, bounded = {}, []
    for side, found in ((-1, below[::-1]), (1, above)):
        for a, b in found:
            if a >= h or trunc is not None and a < trunc:
                continue
            if b is INF:
                tails["left" if side < 0 else "right"] = side * a
            elif type(a) is float:
                tails["right" if side < 0 else "left"] = side * b
            else:
                bounded.append((a, b) if side > 0 else (-b, -a))

    # a removed point still in the closure of the set punctures a run
    punctures = {p for p in holes(model) if -h <= p <= h
                 and distance_to_set(model, p) == 0 and not contains(model, p)}
    if trunc is not None:
        punctures = {p for p in punctures if abs(p) >= trunc}
    unbounded = tuple((k, tails[k]) for k in ("left", "right") if k in tails)
    return ComponentReport(h, tuple(bounded), unbounded,
                           tuple(sorted(punctures)), trunc)


# ---------------------------------------------------------------------------
# Shift-invariant comparison data


def _length_threshold(*reports) -> Fraction:
    t = ZERO
    for rep in reports:
        if rep.truncated_below is not None:
            t = max(t, 2 * rep.truncated_below)
    return t


def _filtered_lengths(report, threshold) -> Counter:
    return Counter(hi - lo for lo, hi in report.bounded
                   if hi - lo > threshold)


def _puncture_gaps(report) -> Counter:
    return Counter(b - a for a, b in combinations(report.punctures, 2))


def _multiset_witness(ca: Counter, cb: Counter):
    diff = (ca - cb) + (cb - ca)
    return min(diff) if diff else None


# ---------------------------------------------------------------------------
# Isometry testing


class LineIsometryVerdict(NamedTuple):
    status: str  # isometric | not_isometric
    eps: object = None
    shift: object = None
    statistic: str = ""
    witness: object = None

    @property
    def is_isometric(self) -> bool:
        return self.status == "isometric"


def _map_gap(eps, s, gap):
    lo, hi = gap
    if eps == 1:
        return (lo + s, hi + s)
    return (s - hi, s - lo)


def _map_tail(eps, s, tail):
    kind, end = tail
    if eps == 1:
        return (kind, end + s)
    return ("right" if kind == "left" else "left", s - end)


def _map_matches(ra, rb, eps, s, h) -> bool:
    if sorted(_map_tail(eps, s, t) for t in ra.unbounded) \
            != sorted(rb.unbounded):
        return False
    lo, hi = max(-h, s - h), min(h, s + h)
    if lo >= hi:
        return False
    zones = []
    if ra.truncated_below is not None:
        zones.append((s - ra.truncated_below, s + ra.truncated_below))
    if rb.truncated_below is not None:
        zones.append((-rb.truncated_below, rb.truncated_below))

    def keep_gap(g):
        if not (g[0] < hi and g[1] > lo):
            return False
        return not any(z0 <= g[0] and g[1] <= z1 for z0, z1 in zones)

    def keep_point(p):
        return not any(z0 <= p <= z1 for z0, z1 in zones)

    ga = sorted(g for g in (_map_gap(eps, s, g) for g in ra.bounded)
                if keep_gap(g))
    gb = sorted(g for g in rb.bounded if keep_gap(g))
    if ga != gb:
        return False
    # puncture lists are globally complete (the structural window covers
    # every removed point), so they must match exactly, not just on the
    # window overlap; a puncture pushed past the overlap edge still rules
    # the map out
    pa = sorted(p for p in (eps * p + s for p in ra.punctures)
                if keep_point(p))
    pb = sorted(p for p in rb.punctures if keep_point(p))
    return pa == pb


def _feature_positions(report):
    out = set()
    for lo, hi in report.bounded:
        out.add(lo)
        out.add(hi)
    out.update(report.punctures)
    for _, end in report.unbounded:
        out.add(end)
    return sorted(out)


def line_isometry_test(a_model, b_model, window=None) -> LineIsometryVerdict:
    """Decide whether two line subsets are isometric via t -> eps*t + s.

    Candidate maps come from aligning complement boundary features; a
    candidate is accepted when it matches tails exactly and reproduces
    every bounded component and puncture on the overlap of the two
    examined windows. The window covers both structural prefixes, so for
    these model grammars agreement on the overlap is agreement of the
    repeating structure.
    """
    for m in (a_model, b_model):
        if ambient_dim(m) != 1:
            raise InputError("isometry testing is 1-D only")
    h = rat(window) if window is not None else max(
        required_window(a_model), required_window(b_model))
    ra = complement_components(a_model, h)
    rb = complement_components(b_model, h)

    fa = _feature_positions(ra)
    fb = _feature_positions(rb)
    if not fa and not fb:
        return LineIsometryVerdict("isometric", 1, ZERO,
                                   "both complements are empty")
    if bool(fa) != bool(fb):
        return LineIsometryVerdict(
            "not_isometric",
            statistic="one complement is empty and the other is not")

    if len(fa) * len(fb) > MAX_MAP_CANDIDATES:
        raise UnsupportedGeometryError(
            "too many boundary features to align; shrink the window")
    for eps in (1, -1):
        shifts = sorted({pb - eps * pa for pa in fa for pb in fb}, key=abs)
        for s in shifts:
            if _map_matches(ra, rb, eps, s, h):
                return LineIsometryVerdict("isometric", eps, s)

    threshold = _length_threshold(ra, rb)
    la, lb = _filtered_lengths(ra, threshold), _filtered_lengths(rb, threshold)
    if la != lb:
        w = _multiset_witness(la, lb)
        return LineIsometryVerdict(
            "not_isometric",
            statistic="bounded component length multisets differ",
            witness=w)
    pa, pb = _puncture_gaps(ra), _puncture_gaps(rb)
    if pa != pb:
        return LineIsometryVerdict(
            "not_isometric",
            statistic="puncture spacing multisets differ",
            witness=_multiset_witness(pa, pb))
    if sorted(k for k, _ in ra.unbounded) != sorted(k for k, _ in rb.unbounded):
        return LineIsometryVerdict(
            "not_isometric", statistic="tail structure differs")
    return LineIsometryVerdict(
        "not_isometric",
        statistic="no slope +1 or -1 alignment matches the windows")


# ---------------------------------------------------------------------------
# Scaling self-similarity


class ScalingVerdict(NamedTuple):
    status: str  # consistent | refuted
    k: Fraction
    witness: object = None
    witness_kind: object = None  # gap_length | puncture_gap
    note: str = ""

    @property
    def is_consistent(self) -> bool:
        return self.status == "consistent"


def scaling_self_similarity(model, k, window=None) -> ScalingVerdict:
    """Compare the complement of the set with the complement of its image
    under x -> x/k, as length data.

    A length realized by one and not the other refutes every isometry
    between the two, so a refutation carries that length as witness. The
    windows cover each model's structural prefix plus two repetitions of
    its regular part, which makes the windowed length repertoire the
    global one for these grammars.
    """
    return _self_similarity(model, k, window, {})


def _self_similarity(model, k, window, reports) -> ScalingVerdict:
    """`scaling_self_similarity`, reading each complement report through
    the dict `reports` (see `_report`)."""
    k = rat(k)
    if k <= 0:
        raise InputError("scaling factor must be positive")
    if ambient_dim(model) != 1:
        raise InputError("scaling comparison is 1-D only")
    if k == 1:
        return ScalingVerdict("consistent", k, note="unit factor")
    other = scale_model(model, 1 / k)
    h = rat(window) if window is not None else max(
        required_window(model), required_window(other))
    ra = _report(reports, model, h)
    rb = _report(reports, other, h)

    threshold = _length_threshold(ra, rb)
    la, lb = _filtered_lengths(ra, threshold), _filtered_lengths(rb, threshold)
    if la != lb:
        return ScalingVerdict("refuted", k, _multiset_witness(la, lb),
                              "gap_length")
    pa, pb = _puncture_gaps(ra), _puncture_gaps(rb)
    if pa != pb:
        return ScalingVerdict("refuted", k, _multiset_witness(pa, pb),
                              "puncture_gap")
    if len(ra.punctures) != len(rb.punctures):
        return ScalingVerdict("refuted", k, None, None,
                              "puncture counts differ")
    return ScalingVerdict("consistent", k)


def _report(reports, model, h) -> ComponentReport:
    """`complement_components(model, h)`, computed once per dict
    `reports`: the factors of one classification compare the model with
    its images over windows that often coincide."""
    got = reports.get((model, h))
    if got is None:
        got = reports[model, h] = complement_components(model, h)
    return got


# ---------------------------------------------------------------------------
# Classification


class LineClassification(NamedTuple):
    status: str  # isometric_to_R | isometric_to_R_plus |
    #              fails_condition_with | inconclusive
    k: object = None
    witness: object = None
    note: str = ""


def classify_line_subspace(model, k_samples=None, window=None) \
        -> LineClassification:
    """Decide whether the subset is a line, a closed half line, or provably
    not self-similar under some rescaling factor.

    An empty complement identifies the line and a single unbounded
    complement ray identifies a closed half line; both decisions are exact.
    Otherwise the sampled factors look for a scale at which the complement
    length data changes, and the first hit is reported with its witness
    length. When nothing distinguishes the samples the result stays
    inconclusive rather than overclaiming.
    """
    if ambient_dim(model) != 1:
        raise InputError("classification is 1-D only")
    ks = tuple(rat(k) for k in k_samples) if k_samples \
        else DEFAULT_K_SAMPLES
    for k in ks:
        if k <= 0:
            raise InputError("scaling factors must be positive")
    h0 = rat(window) if window is not None else required_window(model)
    reports = {}  # one classification's reports, shared by its factors
    rep = _report(reports, model, h0)
    if not rep.bounded and not rep.punctures \
            and rep.truncated_below is None:
        if not rep.unbounded:
            return LineClassification("isometric_to_R")
        if len(rep.unbounded) == 1:
            return LineClassification("isometric_to_R_plus")
    for k in ks:
        verdict = _self_similarity(model, k, window, reports)
        if not verdict.is_consistent:
            return LineClassification("fails_condition_with", k,
                                      verdict.witness,
                                      verdict.note or verdict.witness_kind
                                      or "")
    return LineClassification(
        "inconclusive",
        note="no sampled factor distinguishes the complement length data")
