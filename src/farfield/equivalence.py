"""Asymptotic comparison of unbounded sets.

The central quantity is the sphere defect: for radius t, take every point
of one set at distance exactly t from the base point and measure how far
it can sit from the other set.  The symmetrized curve eps(t) decides
strong equivalence: the sets are strongly equivalent exactly when
eps(t)/t tends to zero.

Everything the decision procedure certifies is exact rational arithmetic:
covering-style bounds give `equivalent_exact`, self-similar gap families
give `not_equivalent` with a diverging witness, and only the explicitly
non-certified `equivalent_numerical` rests on finite probing.

The covering bound is sup_{z in Z} d(z, Y), taken both ways. For sets on
the line it is read one side at a time (side -1 through the reflected
pair), over the source points in [0, inf), by the frames of source and
target on that side (`setmodels.frames`). The target repeats there under
its translation by the period P of its frame when there is one, else
under its dilation by the frame's factor L; a side with neither (a
lattice beside a geometric part) is "unknown". Past the reach R of that
period (factor) the target, and so each of its gaps, repeats under
x -> x + P (x -> L*x). One rule list, `_side_sup`, the first rule that
applies:
1. a source that leaves the side empty far out is walked up to its end;
   one that reaches a side the target leaves empty is "infinite";
2. a source with a frame of the same kind repeats with the target past the
   larger reach R': under translation (a source without long runs) with
   the least common period p, so a walk over [0, R' + 2p] sees every
   distance; under dilation with the common power of the factors, so a
   point at a positive distance in one log period past R' makes the sup
   "infinite" (the distance scales with it), and otherwise the walk over
   [0, R'] is the sup;
3. a target with no gap in one period (log period) past R holds the whole
   side past it, so the walk stops at R;
4. under translation, every distance past R + P is at most half the
   target's widest gap W (the walk of the full line over one period past
   R + P). A source with long runs on the side meets that gap far out, so
   the sup is the larger of W/2 and the walk over [0, R + P], as it is
   when that walk reaches W/2; powers c*q**n of an integer q (and their
   unions and modifications) keep the residue orbit of their points
   modulo P; any other source is "unknown", at most that larger value;
5. under dilation, a source reaching the side with a bounded cover or an
   incommensurable factor is "infinite" (its log orbit is dense modulo
   log L, Kronecker, and the gaps widen without bound), else "unknown".
A walk (`_window_sup`) merges the source components with the target's
gaps, taking a step per target gap met: the source points in a gap are
read from those nearest its midpoint. The subset test reads the same
walks: a sup of 0 with every walked point inside the target's hulls and
no removed point of the target in the source. In the plane both sets are
read as products X x Y (`setmodels.factors`); the coordinates vary
independently, so the sup is the hypotenuse of the factor sups (see
`_sup_distance_2d`), and the subset test takes both factors. In either
dimension a pair left "unknown" reads 0
when the subset test places the source inside the target; a union or
modification source, reflected or not, is split into its finite points
and leaves (`setmodels.leaves`, mirrored with it), since the sup over a
union is the largest over its parts; a union target gives 0 when one of
its parts does.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (InputError, InternalInvariantError,
                     UnsupportedGeometryError)
from .rationals import common_power, fmt, lcm, rat
from . import setmodels
from .setmodels import (
    FiniteModification,
    FiniteUnion,
    FullLine,
    HALF_LINE,
    Reflected,
    Segment,
    ambient_dim,
    as_rat_point,
    point_dim,
    contains,
    distance_to_set,
    nearest_point,
    sphere_slice,
)

ZERO = Fraction(0)
ONE = Fraction(1)

DEFAULT_GROWTH = Fraction(2)
DEFAULT_HORIZON = 32
RUNG_RADII = 10  # the numeric rung reads eps(t)/t at this many last radii
DEFAULT_THRESHOLD = Fraction(1, 1000)
WITNESS_SEARCH_WINDOW = 24


def _origin(dim):
    return ZERO if dim == 1 else (ZERO, ZERO)


def _normalize_point(p, dim):
    p = as_rat_point(p) if p is not None else _origin(dim)
    if point_dim(p) != dim:
        raise InputError("base point dimension does not match the models")
    return p


# ---------------------------------------------------------------------------
# Structural subset test (conservative: False when not certain)


def is_structural_subset(a, b) -> bool:
    """Whether every point of `a` provably lies in `b`.

    Decides the cases the library can see through structurally; a False
    answer means "not shown", never "shown not".
    """
    if ambient_dim(a) != ambient_dim(b):
        return False
    if a == b:
        return True
    if isinstance(a, FiniteUnion):
        return all(is_structural_subset(p, b) for p in a.parts)
    if isinstance(b, FiniteUnion):
        if any(is_structural_subset(a, p) for p in b.parts):
            return True
    if isinstance(b, FiniteModification) and not b.removed:
        if is_structural_subset(a, b.base):
            return True
    if isinstance(a, FiniteModification):
        if (is_structural_subset(a.base, b)
                and all(contains(b, pt) for pt in a.added)):
            return True
    if ambient_dim(a) == 1:
        return _frame_subset(a, b)
    pairs = setmodels.factors(a), setmodels.factors(b)
    return None not in pairs and all(map(is_structural_subset, *pairs))


def _frame_subset(a, b) -> bool:
    """a inside b when the walks of `_frame_sup` find every point of a in
    b's hulls, and no point removed inside those hulls is a point of a."""
    sup, apart = _frame_sup(a, b)
    return sup == _VALUE0 and not apart and all(
        contains(b, x) for x in setmodels.holes(b) if contains(a, x))


# ---------------------------------------------------------------------------
# Exact one-sided suprema sup_{x in A} dist(x, B)


@dataclass(frozen=True)
class SupDistance:
    """kind "value" with the sup as value, "infinite", or "unknown" with
    a bound on the sup as value when one is known (else None)."""

    kind: str  # "value" | "infinite" | "unknown"
    value: object = None

    @property
    def finite(self):
        return self.kind == "value"


_VALUE0 = SupDistance("value", ZERO)
_INF = SupDistance("infinite")
_UNKNOWN = SupDistance("unknown")


def _end(model, side: int):
    """The infimum (side -1) or supremum (+1) of a 1-D set: the outer end
    of its first component from that side, side*inf when the set reaches
    it. The accumulation marker of GeometricBlocks computes as 0."""
    first = next(setmodels.components(model, side * setmodels.INF, -side))
    return first[1] if side == 1 else first[0]


def _reaches(model, direction: int) -> bool:
    """Whether the 1-D set has points arbitrarily far toward
    direction*inf."""
    return _end(model, direction) == direction * setmodels.INF


def _window_sup(source, target, lo, hi, period=None):
    """(sup, apart) over the source points in [lo, hi], lo >= 0: their
    largest distance to the target, and whether any lies outside the
    target's hulls; None after WINDOW_CAP steps, or where the target
    accumulates at 0 from above and the source has points in every (0, e).

    One merged walk of the source components and the target's gaps
    (`setmodels.gaps`), up to the first gap that opens past the window:
    over the part of a component inside a gap the distance peaks at
    `_peak`. Gaps that one step does not bring level with a component are
    sought afresh; where a second component meets the same gap or hull, or
    the source accumulates at 0, `_gap_sup` reads the whole gap and the
    walk goes on past it. With period (start, P) the target repeats with P
    past start, so a component reaching over 2P past a gap there skips to
    its last 2P, which show every gap whole.
    """
    best, apart, last, steps = ZERO, False, None, 0
    walk, gaps, gap = setmodels.components(source, lo), iter(()), None
    while (c := next(walk, None)) is not None and c[0] <= hi:
        steps += 1
        if steps > setmodels.WINDOW_CAP:
            return None
        marker = c[0] is setmodels.ZERO_ABOVE
        c_lo, c_hi = lo if marker else max(c[0], lo), min(c[1], hi)
        if gap is None or gap[1] <= c_lo:
            gap = next(gaps, None)
            if gap is None or gap[1] <= c_lo:
                gaps, gap = _gaps_from(target, c_lo, hi)
        g1, g2 = gap
        if g1 >= hi:
            break
        if g2 is setmodels.ZERO_ABOVE:  # the target accumulates at 0
            if c_hi > 0:
                return None
            apart = apart or g1 < c_hi
            continue
        here = gap, g1 < c_hi
        if marker or here == last:
            value = _gap_sup(source, g1, g2, max(g1, lo), min(g2, hi))
            if value is not None:
                best, apart = max(best, value), True
            if g2 >= hi:
                break
            lo, last = g2, None
            walk = setmodels.components(source, lo)
            continue
        last = here
        while g1 < c_hi:  # the gap meets [c_lo, c_hi]
            steps += 1
            if steps > setmodels.WINDOW_CAP:
                return None
            apart, x = True, _peak(g1, g2, c_lo, c_hi)
            best = max(best, min(x - g1, g2 - x))
            if g2 > c_hi:
                break
            if period and g2 >= period[0] and c_hi - g2 > 2 * period[1]:
                gaps, gap = _gaps_from(target, c_hi - 2 * period[1], hi)
            else:
                gap = next(gaps, None)
            if gap is None:
                return None
            g1, g2 = gap
    return best, apart


def _gaps_from(target, x, hi):
    """The target's gaps (`setmodels.gaps`) from x up to hi, and the first
    of them that ends past x."""
    gaps = setmodels.gaps(target, x, hi)
    return gaps, next(g for g in gaps if g[1] > x)


def _peak(g1, g2, a, b):
    """The point of [a, b] where the distance min(x - g1, g2 - x) to the
    ends of the gap (g1, g2) is largest: it rises up to the midpoint."""
    if g1 == -setmodels.INF:
        return a
    if g2 == setmodels.INF:
        return b
    return min(max((g1 + g2) / 2, a), b)


def _gap_sup(source, g1, g2, a, b):
    """The sup of the distance to the target over the source points in
    [a, b] inside its gap (g1, g2), or None when there are none: at those
    nearest `_peak` on either side, 0 among them where they accumulate."""
    mid, best = _peak(g1, g2, a, b), None
    for direction in (-1, 1):
        c = next(setmodels.components(source, mid, direction), None)
        x = c and (min(mid, c[1]) if direction == -1 else max(mid, c[0]))
        if c is not None and g1 < x < g2 and a <= x <= b:
            best = max(best or ZERO, min(x - g1, g2 - x))
    return best


def _walk(source, target, top, period=None):
    """`_window_sup` over [0, top] as (sup, apart)."""
    got = _window_sup(source, target, ZERO, top, period)
    if got is None:
        return _UNKNOWN, True
    return SupDistance("value", got[0]), got[1]


def _worst(sups) -> SupDistance:
    """The sup over a union of the pieces with these sups: "infinite" when
    one is, the largest value when it reaches every unknown piece's bound,
    else "unknown" (with the largest bound when each has one)."""
    if _INF in sups:
        return _INF
    best = max((sup.value for sup in sups if sup.finite), default=ZERO)
    bounds = [sup.value for sup in sups if not sup.finite]
    if None in bounds:
        return _UNKNOWN
    if bounds and max(bounds) > best:
        return SupDistance("unknown", max(bounds))
    return SupDistance("value", best)


def _flattened_sup(source, target) -> SupDistance:
    """sup over a union or modification source, reflected or not, as the
    largest over its finite points and its leaves, each by `sup_distance`
    (None for any other source); removing points can only lower a sup, so
    a leaf with points removed above it and a positive sup is read again
    by its frame without them."""
    sign = 1
    while isinstance(source, Reflected):
        source, sign = source.base, -sign
    if not isinstance(source, (FiniteUnion, FiniteModification)):
        return None
    points, leaves = setmodels.leaves(source, sign)
    sups = [SupDistance("value", max(
        (distance_to_set(target, pt) for pt in points), default=ZERO))]
    for leaf, removed in leaves:
        got = sup_distance(leaf, target)
        if removed and got.finite and got.value:
            got = _frame_sup(FiniteModification(leaf, (), tuple(removed)),
                             target)[0]
        sups.append(got)
    return _worst(sups)


def _geometric_mod_sup(source, target, frame, top, period):
    """(sup, apart) over a source that rescales onto itself by an integer
    factor q past the reach of that factor in its `frame`, against a target
    whose distance repeats with the period P past top, or None.

    Past a = max(top, reach) every source point is p*q**k for a point p in
    (a, a*q], and its distance is that of its residue modulo P, so a walk
    up to a*q and the residue orbits r -> r*q mod P of those points give
    the sup: once a residue repeats, its orbit only revisits seen ones.
    """
    q, a = frame.rho, max(top, frame.rho_reach)
    got = _window_sup(source, target, ZERO, a * q)
    if got is None:
        return None
    best, seen = got[0], set()
    start = period * (a // period + 1)  # residue 0 past a
    for lo, _ in setmodels.components(source, a):
        if lo > a * q:
            break
        if lo <= a:
            continue
        residue = lo % period
        while residue not in seen:
            if len(seen) == setmodels.WINDOW_CAP:
                return None
            seen.add(residue)
            best = max(best, distance_to_set(target, start + residue))
            residue = residue * q % period
    return best, got[1] or best > 0


def sup_distance(source, target) -> SupDistance:
    """Exact sup_{x in source} dist(x, target) for structurally supported
    pairs; "infinite" and "unknown" are explicit outcomes."""
    if ambient_dim(source) != ambient_dim(target):
        raise InputError("cannot compare sets in different ambient spaces")
    if source == target:
        return _VALUE0
    got = (_frame_sup(source, target)[0] if ambient_dim(source) == 1
           else _sup_distance_2d(source, target))
    if got.kind == "unknown" and is_structural_subset(source, target):
        return _VALUE0
    if got.kind == "unknown":
        got = _flattened_sup(source, target) or got
    if got.kind == "unknown" and isinstance(target, FiniteUnion) and any(
            sup_distance(source, part) == _VALUE0 for part in target.parts):
        # distance to a union is <= distance to any part, so only the
        # zero case transfers exactly; anything else would overstate
        return _VALUE0
    return got


def _frame_sup(source, target):
    """(sup, apart) against a 1-D target, one side at a time by `_side_sup`
    on the pair reflected for side -1; apart tells whether a walked source
    point lies outside the target's hulls."""
    both = setmodels.frames(source), setmodels.frames(target)
    sides = [_side_sup(*(m if side == 1 else Reflected(m)
                         for m in (source, target)),
                       *(f[side] for f in both))
             for side in (-1, 1)]
    return (_worst([sup for sup, _ in sides]),
            any(apart for _, apart in sides))


def _log_window(reach, rho):
    """One log period [a*rho, a*rho**2] past the reach, a = reach (or 1 at
    reach 0, where every x > 0 is past it); rho 1 stands for any factor."""
    a, rho = reach or ONE, max(rho, Fraction(2))
    return a * rho, a * rho * rho


def _side_sup(source, target, frame, tframe):
    """(sup, apart) over the source points in [0, inf) by the rules of the
    module docstring, for the pair as seen from one side, and the frames
    of source and target on that side: the target's translation by its
    period when it has one, else its dilation by its factor."""
    additive = tframe.period is not None
    reach, step = ((tframe.reach, tframe.period) if additive
                   else (tframe.rho_reach, tframe.rho))
    if step is None:
        return _UNKNOWN, True
    period = (reach + step, step) if additive and step else None
    if not _reaches(source, 1):
        return _walk(source, target, max(ZERO, _end(source, 1)), period)
    if not _reaches(target, 1):
        return _INF, True
    if additive and frame.period is not None and not frame.long_runs:
        return _walk(source, target, max(frame.reach, reach)
                     + 2 * lcm(frame.period, step), period)
    rho = None if additive or frame.rho is None else common_power(
        frame.rho, step)
    if rho is not None:
        top = max(frame.rho_reach, reach)
        got = _window_sup(source, target, *_log_window(top, rho))
        if got is None or got[0] > 0:
            return (_UNKNOWN if got is None else _INF), True
        return _walk(source, target, top)
    far = _window_sup(FullLine(), target, *(
        (reach + step, reach + 2 * step) if additive
        else _log_window(reach, step)))
    if not far[1]:
        return _walk(source, target, reach)
    if not additive:
        unbounded = frame.cover is not None or (
            frame.rho is not None and frame.rho > 1)
        return (_INF if unbounded else _UNKNOWN), True
    top = reach + step
    got = _window_sup(source, target, ZERO, top)
    if got is None:
        return _UNKNOWN, True
    bound = max(got[0], far[0])
    if frame.long_runs or got[0] >= far[0]:
        return SupDistance("value", bound), True
    if frame.rho is not None and frame.rho > 1 and frame.rho.denominator == 1:
        orbit = _geometric_mod_sup(source, target, frame, top, step)
        if orbit is not None:
            return SupDistance("value", orbit[0]), orbit[1]
    return SupDistance("unknown", bound), True


def _sup_distance_2d(source, target) -> SupDistance:
    """X x Y against X' x Y' (`setmodels.factors`; "unknown" without them):
    the distance from (x, y) is the hypotenuse of d(x, X') and d(y, Y'),
    which vary independently, so the sup is the hypotenuse of the factor
    sups. "infinite" when either is; "unknown", bounded by their sum, where
    one is unknown or the hypotenuse is irrational."""
    pairs = setmodels.factors(source), setmodels.factors(target)
    if None in pairs:
        return _UNKNOWN
    sups = [sup_distance(*pair) for pair in zip(*pairs)]
    if _INF in sups:
        return _INF
    values = [sup.value for sup in sups]
    if None in values:
        return _UNKNOWN
    if all(sup.finite for sup in sups):
        exact = setmodels.hypot(*values)
        if exact is not None:
            return SupDistance("value", exact)
    return SupDistance("unknown", sum(values))


# ---------------------------------------------------------------------------
# Sphere defect eps(t)


def _slice_sup(slice_obj, other, arcs) -> Fraction:
    """Exact sup of dist(., other) over a sphere slice; empty slice -> 0.
    An arc's sup depends on its range and `other` alone, so the dict
    `arcs` keeps each one read."""
    if slice_obj.is_empty():
        return ZERO
    if slice_obj.kind == "points":
        return max(distance_to_set(other, pt) for pt in slice_obj.points)
    key = other, slice_obj.v_lo, slice_obj.v_hi
    if key not in arcs:
        arcs[key] = _arc_sup(*key)
    return arcs[key]


def _arc_sup(other, v_lo, v_hi) -> Fraction:
    """sup of dist(., other) over the vertical arc slice: points
    (u0 + sqrt(t^2 - v^2), v), v in [v_lo, v_hi], all with nonnegative
    first coordinate, so all in X where [0, inf) is."""
    x, y = setmodels.factors(other) or (None, None)
    if x is not None and is_structural_subset(HALF_LINE, x):
        got = sup_distance(Segment(v_lo, v_hi), y)
        if got.finite:
            return got.value
    raise UnsupportedGeometryError(
        f"no closed-form arc supremum against {type(other).__name__}")


def epsilon_t(y_model, z_model, p, t, arcs=None):
    """Directed sphere defects at radius t: (eps(t, Z, Y), eps(t, Y, Z)).

    The first component sups over the t-sphere slice of Z the distance to
    Y; the second swaps the roles.  Empty slices contribute 0. `arcs`, a
    dict that calls may share, keeps each arc slice's sup by its range
    and target, so a repeated arc is read once.
    """
    t = rat(t)
    if t <= 0:
        raise InputError("sphere radius must be positive")
    dim = ambient_dim(y_model)
    if ambient_dim(z_model) != dim:
        raise InputError("models live in different ambient spaces")
    p = _normalize_point(p, dim)
    z_slice = sphere_slice(z_model, p, t)
    y_slice = sphere_slice(y_model, p, t)
    arcs = {} if arcs is None else arcs
    return (_slice_sup(z_slice, y_model, arcs),
            _slice_sup(y_slice, z_model, arcs))


@dataclass(frozen=True)
class EpsilonCurve:
    """Exact eps(t) samples: rows (t, eps_ZY, eps_YZ, eps, eps/t)."""

    samples: tuple

    def max_ratio(self):
        return max(row[4] for row in self.samples)


def epsilon_curve(y_model, z_model, p, t_grid) -> EpsilonCurve:
    """eps(t) at each radius of the grid by `epsilon_t`. Once t passes a
    strip's half-widths its arc slice stops changing, so the calls share
    one dict of arc sups and read each distinct arc once."""
    ts = [rat(t) for t in t_grid]
    if not ts:
        raise InputError("empty radius grid")
    if any(t <= 0 for t in ts):
        raise InputError("radius grid must be positive")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise InputError("radius grid must be strictly increasing")
    rows, arcs = [], {}
    for t in ts:
        e_zy, e_yz = epsilon_t(y_model, z_model, p, t, arcs)
        eps = max(e_zy, e_yz)
        rows.append((t, e_zy, e_yz, eps, eps / t))
    return EpsilonCurve(tuple(rows))


# ---------------------------------------------------------------------------
# Strong equivalence decision


@dataclass(frozen=True)
class WitnessFamily:
    """Diverging radii t_m = coef * q**m + shift (m >= start) along which
    the sphere defect provably stays >= c * t_m."""

    coef: Fraction
    q: Fraction
    start: int
    c: Fraction
    t_values: tuple
    shift: Fraction = ZERO
    detail: str = ""

    def __post_init__(self):
        if self.c <= 0:
            raise InternalInvariantError(
                f"a witness family needs c > 0, got {fmt(self.c)}")

    def t(self, m: int) -> Fraction:
        if m < self.start:
            raise InputError(f"witness family starts at m = {self.start}")
        return self.coef * self.q ** m + self.shift


@dataclass(frozen=True)
class EquivalenceVerdict:
    """status: equivalent_exact (bound set), not_equivalent (witness set),
    equivalent_numerical (max_ratio set, non-certified), or inconclusive."""

    status: str
    bound: object = None
    witness: object = None
    max_ratio: object = None
    note: str = ""


def _gap_midpoint_family(model):
    """(coef, q, start, c) for the midpoints t_m = coef*q**m (m >= start)
    of the widest relative gap, (g2 - g1)/(g2 + g1), in one log period
    past the reach of the set's factor q (`setmodels.log_period_gaps`):
    the gap scales into a gap by q, so the distance to the set at t_m is
    at least c*t_m. None without a factor or a gap."""
    got = (setmodels.log_period_gaps(model, setmodels.frames(model)[1])
           if ambient_dim(model) == 1 else None)
    if not got or not got[1]:
        return None
    rho, found = got
    g1, g2 = max(found, key=lambda g: (g[1] - g[0]) / (g[1] + g[0]))
    return (g1 + g2) / 2, rho, 0, (g2 - g1) / (g2 + g1)


def _family_membership_persists(other, coef, q, start) -> bool:
    """Whether coef*q**m (coef > 0, q > 1) provably lies in the 1-D set
    `other` for every m >= start.

    Membership is checked point by point until the family clears the reach
    of the set's frame on the positive side (which bounds the reach of its
    factor); past it the frame carries it on. With period 0 the set holds
    all of the far side. With period L, the step t_{m+1} - t_m =
    t_m*(q - 1) stays a multiple of L once it is one, when q is an
    integer. Otherwise the factor carries it when q is a power of it, and
    a union or modification, which agrees past its reach with the union of
    its leaves, when one leaf carries it.
    """
    frame = setmodels.frames(other)[1]
    m = start
    while coef * q ** m <= frame.reach:
        if not contains(other, coef * q ** m):
            return False
        m += 1
    value = coef * q ** m
    if not contains(other, value):
        return False
    period = frame.period
    if period == 0 or (period and q.denominator == 1
                       and value * (q - 1) % period == 0):
        return True
    if frame.rho is not None and common_power(q, frame.rho) == q:
        return True
    if isinstance(other, (FiniteUnion, FiniteModification)):
        return any(_family_membership_persists(leaf, coef, q, m)
                   for leaf, _ in setmodels.leaves(other)[1])
    return False


def _witness_against(gapped, other, p):
    """A diverging family of radii along which eps(t) >= c*t, or None.

    Mechanism: gap midpoints of a self-similar set sit at distance at
    least c_gap * (their position); when the other set contains those
    positions for all large m, the sphere slice of the other set at
    radius t_m = position - p exhibits the defect.  The bound at three
    probes is rechecked through epsilon_t, membership persistence is
    structural, and the constant is adjusted for a negative base-point
    shift (where position/t_m < 1).
    """
    if ambient_dim(gapped) != 1:
        return None
    family = _gap_midpoint_family(gapped)
    if family is None:
        return None
    mid, q, start, c_gap = family
    # radii must be positive and clear of the base point
    while mid * q ** start + min(p, ZERO) * 2 <= 0:
        start += 1
    m = start
    hits = []
    while len(hits) < 3 and m < start + WITNESS_SEARCH_WINDOW:
        position = mid * q ** m
        t_m = position - p
        if t_m <= 0 or not contains(other, position):
            hits = []
            m += 1
            continue
        e_zy, e_yz = epsilon_t(gapped, other, p, t_m)
        eps = max(e_zy, e_yz)
        if eps >= c_gap * position:
            hits.append((m, t_m))
        else:
            hits = []
        m += 1
    if len(hits) < 3:
        return None
    start_m = hits[0][0]
    if not _family_membership_persists(other, mid, q, start_m):
        return None
    # eps(t_m) >= c_gap * position; relate to t_m = position - p
    if p <= 0:
        # position/t_m >= position_start/t_start, increasing in m
        first_position = mid * q ** start_m
        c_eff = c_gap * first_position / (first_position - p)
    else:
        c_eff = c_gap  # position > t_m makes the bound only stronger
    return WitnessFamily(
        mid, q, start_m, c_eff,
        tuple(t for _, t in hits),
        shift=-p,
        detail="gap midpoints of a geometrically self-similar set",
    )


def decide_strong_equivalence(y_model, z_model, p=None,
                              growth=DEFAULT_GROWTH,
                              horizon=DEFAULT_HORIZON,
                              threshold=DEFAULT_THRESHOLD):
    """Decide strong asymptotic equivalence of two unbounded sets.

    Tries, in order: an exact constant bound on eps(t) (covering-style
    suprema, valid for every t at once), an exact diverging witness
    family with eps(t_m) >= c*t_m, and finally a numeric decay probe of
    eps(t)/t below threshold (> 0) at the last RUNG_RADII = 10 radii
    growth**(horizon - 9) .. growth**horizon only (`_numeric_verdict`):
    horizon sets where that probe sits, not how many rows it computes.
    The numeric verdict is explicitly non-certified.
    """
    dim = ambient_dim(y_model)
    if ambient_dim(z_model) != dim:
        raise InputError("models live in different ambient spaces")
    p = _normalize_point(p, dim)
    growth = rat(growth)
    threshold = rat(threshold)
    if growth <= 1:
        raise InputError("grid growth must exceed 1")
    if horizon < 4:
        raise InputError("horizon too small to say anything")
    if threshold <= 0:
        raise InputError("decay threshold must be positive")

    to_y = sup_distance(z_model, y_model)
    to_z = sup_distance(y_model, z_model)
    if to_y.finite and to_z.finite:
        bound = max(to_y.value, to_z.value)
        return EquivalenceVerdict(
            "equivalent_exact", bound=bound,
            note="constant covering bound; eps(t)/t <= B/t -> 0")

    for gapped, other in ((y_model, z_model), (z_model, y_model)):
        witness = _witness_against(gapped, other, p)
        if witness is not None:
            return EquivalenceVerdict(
                "not_equivalent", witness=witness,
                note="eps(t_m)/t_m >= c > 0 along diverging radii")

    return _numeric_verdict(y_model, z_model, p, growth, horizon, threshold)


def _numeric_verdict(y_model, z_model, p, growth, horizon, threshold):
    """The last rung: the largest eps(t)/t over the last RUNG_RADII radii
    growth**k, k <= horizon (all of them below RUNG_RADII), against the
    threshold; no other radius is evaluated."""
    first = max(1, horizon - RUNG_RADII + 1)
    grid = [growth ** k for k in range(first, horizon + 1)]
    worst = epsilon_curve(y_model, z_model, p, grid).max_ratio()
    if worst < threshold:
        return EquivalenceVerdict(
            "equivalent_numerical", max_ratio=worst,
            note="decay observed on a finite grid only; not certified")
    return EquivalenceVerdict(
        "inconclusive", max_ratio=worst,
        note="no exact bound, no structural witness, no numeric decay")


# ---------------------------------------------------------------------------
# Conditional Hausdorff distance


@dataclass(frozen=True)
class HausdorffResult:
    value: object = None
    infinite: bool = False

    def __repr__(self):
        return "HausdorffResult(inf)" if self.infinite else \
            f"HausdorffResult({self.value!r})"


def _one_sided(a_like, target) -> SupDistance:
    if isinstance(a_like, setmodels.SphereSlice):
        return SupDistance("value", _slice_sup(a_like, target, {}))
    if isinstance(a_like, (list, tuple)):
        if not a_like:
            return _VALUE0
        return SupDistance("value",
                           max(distance_to_set(target, pt) for pt in a_like))
    return sup_distance(a_like, target)


def conditional_hausdorff(a_like, b_like, y_model, z_model) -> HausdorffResult:
    """max(sup_{b in B} dist(b, Y), sup_{a in A} dist(a, Z)) for subsets
    A of Y and B of Z.

    A and B may be set models, explicit point lists, or sphere slices.
    With A = B = the whole sets this is the ordinary Hausdorff distance;
    with t-sphere slices it reproduces the sphere defect eps(t).
    """
    for part, whole, name in ((a_like, y_model, "A"), (b_like, z_model, "B")):
        if isinstance(part, setmodels.SphereSlice):
            continue
        if isinstance(part, (list, tuple)):
            for pt in part:
                if not contains(whole, pt):
                    raise InputError(
                        f"{name} contains a point outside its ambient set")
            continue
        if not is_structural_subset(part, whole):
            raise InputError(
                f"{name} is not structurally a subset of its ambient set")
    left = _one_sided(b_like, y_model)
    right = _one_sided(a_like, z_model)
    if left.kind == "unknown" or right.kind == "unknown":
        raise UnsupportedGeometryError(
            "no closed-form supremum for this pair")
    if left.kind == "infinite" or right.kind == "infinite":
        return HausdorffResult(infinite=True)
    return HausdorffResult(value=max(left.value, right.value))


# ---------------------------------------------------------------------------
# Mutual eps-net check


@dataclass(frozen=True)
class EpsNetVerdict:
    """status: certified | counterexample | inconclusive.  A counterexample
    carries the concrete point, its distance, and which set it came from."""

    status: str
    epsilon: Fraction
    point: object = None
    distance: object = None
    from_side: str = ""
    note: str = ""


def _find_far_point(source, target, epsilon, budget):
    """A concrete source point at distance > epsilon from the target: the
    one nearest to a gap midpoint of the target, or to a probe ever
    further out on a side that a 1-D target leaves empty."""
    family = _gap_midpoint_family(target)
    empty = [side for side in (-1, 1)
             if ambient_dim(target) == 1 and not _reaches(target, side)]
    if family is not None:
        mid, q, start, _ = family
        probes = (mid * q ** m for m in range(start, start + budget))
    elif empty:
        edge, side = _end(target, empty[0]), empty[0]
        probes = (edge + side * (epsilon + 1) * 2 ** m for m in range(budget))
    else:
        return None
    for probe in probes:
        try:
            z = nearest_point(source, probe, eps=Fraction(1, 10 ** 9))
        except InputError:
            continue
        d = distance_to_set(target, z)
        if d > epsilon:
            return z, d
    return None


def check_eps_net(y_model, z_model, epsilon, budget: int = 40) -> EpsNetVerdict:
    """Whether each set is an epsilon-net for the other.

    Certification goes through exact covering suprema; refutation returns
    a concrete far point.  When neither is available the verdict is
    inconclusive rather than guessed.
    """
    epsilon = rat(epsilon)
    if epsilon <= 0:
        raise InputError("epsilon must be positive")
    sups = {"Z": sup_distance(z_model, y_model),
            "Y": sup_distance(y_model, z_model)}
    if all(s.finite for s in sups.values()):
        worst = max(s.value for s in sups.values())
        if worst <= epsilon:
            return EpsNetVerdict("certified", epsilon,
                                 note=f"mutual covering radius {fmt(worst)}")
    for side, source, target in (("Z", z_model, y_model),
                                 ("Y", y_model, z_model)):
        sup = sups[side]
        if sup.finite and sup.value <= epsilon:
            continue
        found = _find_far_point(source, target, epsilon, budget)
        if found is not None:
            point, dist = found
            return EpsNetVerdict(
                "counterexample", epsilon, point=point, distance=dist,
                from_side=side,
                note=f"point of {side} at distance {fmt(dist)} > epsilon")
    if all(s.finite for s in sups.values()):
        # both suprema known exactly but above epsilon, yet no concrete
        # far point was constructed within budget
        return EpsNetVerdict(
            "inconclusive", epsilon,
            note="covering radius exceeds epsilon; no witness constructed")
    return EpsNetVerdict("inconclusive", epsilon,
                         note="no closed-form covering bound for this pair")


# ---------------------------------------------------------------------------
# Nearest-point maps and their rescaled residuals


@dataclass(frozen=True)
class ResidualEntry:
    label: str
    residual: object  # LimitResult
    zero: bool


@dataclass(frozen=True)
class NearestPointMaps:
    """Evaluators phi: Y -> Z and psi: Z -> Y by (near-)nearest points,
    with rescaled residuals on the supplied sample sequences."""

    phi: object
    psi: object
    eps1: Fraction
    residuals: tuple


def build_nearest_point_maps(y_model, z_model, eps1=Fraction(1, 10 ** 6),
                             samples=()) -> NearestPointMaps:
    """Point maps realizing the asymptotic comparison constructively.

    phi sends a query point of Y to a point of Z within eps1 of the true
    infimum (exactly nearest when attained); psi goes the other way.  For
    each sample (label, spec, scaling) the rescaled residual
    limsup |phi(y_n) - y_n| / r_n is evaluated symbolically; equivalent
    pairs must report zero.
    """
    from .seqlab import _project

    eps1 = rat(eps1)
    if eps1 <= 0:
        raise InputError("eps1 must be positive")

    def phi(point):
        return nearest_point(z_model, point, eps=eps1)

    def psi(point):
        return nearest_point(y_model, point, eps=eps1)

    entries = []
    for label, spec, scaling in samples:
        got = _project(spec, scaling, z_model)
        if got is None:
            raise InputError(
                f"sample {label!r} has no certified phase form")
        _, residual = got
        zero = residual.exists and residual.value == 0
        entries.append(ResidualEntry(label, residual, zero))
    return NearestPointMaps(phi, psi, eps1, tuple(entries))
