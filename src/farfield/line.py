"""Complement-component analysis of structured subsets of the line.

Inside any window, the complement of a supported model is a finite list of
open intervals plus at most two rays; geometric blocks accumulating at 0
carry a truncation scale instead of an infinite list of tiny components.
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
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import (InputError, InternalInvariantError,
                     UnsupportedGeometryError, WindowTooSmallError)
from .rationals import fmt, rat
from .setmodels import (
    ambient_dim,
    contains,
    distance_to_set,
    first_point,
    holes,
    required_window,
    scale_model,
    window_structure,
)

ZERO = Fraction(0)

DEFAULT_K_SAMPLES = (Fraction(2), Fraction(3), Fraction(1, 2),
                     Fraction(5, 4), Fraction(7, 3))

MAX_MAP_CANDIDATES = 4096


# ---------------------------------------------------------------------------
# Exact next/previous set point
#
# For continuum variants the returned value is the infimum (supremum) of set
# points on the requested side, which is exactly what a complement component
# endpoint is; finitely many removed points never move it.


def next_point_ge(model, x):
    """Smallest set point >= x, or None when there is none on that side."""
    return first_point(model, rat(x), 1)


def prev_point_le(model, x):
    """Largest set point <= x, or None when there is none on that side."""
    return first_point(model, rat(x), -1)


# ---------------------------------------------------------------------------
# Complement components


@dataclass(frozen=True)
class ComponentReport:
    """Complement structure of a line subset within [-H, H].

    bounded: open intervals (lo, hi) with true endpoints; a gap straddling
    the window edge is closed off by the actual set point beyond it.
    unbounded: tails as ("left", a) for (-inf, a) or ("right", b).
    punctures: removed positions that sat inside or on the edge of a
    continuum run; they leave no interval trace but break isometry.
    truncated_below: scale under which components around 0 were omitted,
    including the single gap touching that scale.
    """

    window: Fraction
    bounded: tuple
    unbounded: tuple
    punctures: tuple
    truncated_below: object = None

    @property
    def length_multiset(self):
        return tuple(sorted(hi - lo for lo, hi in self.bounded))


def complement_components(model, window) -> ComponentReport:
    """Exact decomposition of [-H, H] minus the set.

    Every reported bounded component is a true complement component with
    exact length; edge gaps are completed by searching for the next set
    point beyond the window. The window must cover the model's structural
    prefix (required_window), otherwise tails could not be certified.
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
    ws = window_structure(model, -h, h)
    trunc = ws.truncated_below
    intervals = list(ws.intervals)
    if not intervals:
        nxt = next_point_ge(model, h)
        prv = prev_point_le(model, -h)
        cands = [abs(v) + 1 for v in (nxt, prv) if v is not None]
        if cands:
            raise WindowTooSmallError(
                f"no set points inside [-{fmt(h)}, {fmt(h)}]",
                required=max(need, min(cands)))
        raise InternalInvariantError("model produced no points at all")

    left_tail = None
    right_tail = None
    first_lo = intervals[0][0]
    last_hi = intervals[-1][1]
    if first_lo > -h:
        if trunc is not None and first_lo > -trunc:
            pass  # the gap below runs into the unresolved scale
        else:
            below = prev_point_le(model, -h)
            if below is None:
                left_tail = ("left", first_lo)
            else:
                intervals.insert(0, (below, below))
    if last_hi < h:
        if trunc is not None and last_hi < trunc:
            pass
        else:
            above = next_point_ge(model, h)
            if above is None:
                right_tail = ("right", last_hi)
            else:
                intervals.append((above, above))

    bounded = []
    for (_, e1), (s2, _) in zip(intervals, intervals[1:]):
        if e1 < s2:
            bounded.append((e1, s2))
    bounded = [g for g in bounded if g[1] > -h and g[0] < h]
    if trunc is not None:
        bounded = [g for g in bounded
                   if not (g[0] < trunc and g[1] > -trunc)]

    # a removed point still in the closure of the set punctures a run
    punctures = {p for p in holes(model) if -h <= p <= h
                 and distance_to_set(model, p) == 0 and not contains(model, p)}
    if trunc is not None:
        punctures = {p for p in punctures if abs(p) >= trunc}
    unbounded = tuple(t for t in (left_tail, right_tail) if t is not None)
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


@dataclass(frozen=True)
class LineIsometryVerdict:
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


@dataclass(frozen=True)
class ScalingVerdict:
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
    ra = complement_components(model, h)
    rb = complement_components(other, h)

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


# ---------------------------------------------------------------------------
# Classification


@dataclass(frozen=True)
class LineClassification:
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
    rep = complement_components(model, h0)
    if not rep.bounded and not rep.punctures \
            and rep.truncated_below is None:
        if not rep.unbounded:
            return LineClassification("isometric_to_R")
        if len(rep.unbounded) == 1:
            return LineClassification("isometric_to_R_plus")
    for k in ks:
        verdict = scaling_self_similarity(model, k, window)
        if not verdict.is_consistent:
            return LineClassification("fails_condition_with", k,
                                      verdict.witness,
                                      verdict.note or verdict.witness_kind
                                      or "")
    return LineClassification(
        "inconclusive",
        note="no sampled factor distinguishes the complement length data")
