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

The covering bound is sup_{z in Z} d(z, Y), taken both ways. The target is
chosen by its eventual shape (`setmodels.eventual_shape`), not its kind.
Against a target with a period (a ray, a lattice, a periodic pattern, and
every union, finite modification or reflection of those) it is read off the
source's component cursor, by the first rule that applies:
1. a source reaching a side of the line that the target does not gives
   "infinite";
2. against a ray the distance is monotone, so the sup is the larger
   distance at the source's finite ends (its first components from -inf
   and +inf, the accumulation of GeometricBlocks at 0 included);
3. a source with arbitrarily long runs meets the widest gap of a lattice or
   periodic-pattern target far out: the sup is the larger of half that gap
   and the end distances (a union's cover is only a bound, and a
   modification's holds only far out, so those go on to rule 4 or 5);
4. a periodic source is walked over both prefixes plus two common periods
   on each side, in one merged pass with the target's gaps: a component
   meeting a gap gives the distance at its point nearest the gap's
   midpoint;
5. any other source splits into finite points and leaves, each with the
   points removed above it: periodic leaves go by rule 4, powers c*q^n
   with integer q by their residue orbit modulo the target's period,
   anything else is "unknown".
Against a target that rescales onto itself on both sides
(`setmodels.dilation`: geometric leaves and their commensurable unions,
finite modifications and reflections), each side is read in its own frame
by the rules of `_side_sup`, over [0, R] and one log period past the reach
R with the same merged walk; the subset test reads those walks too. A
union or modification source left "unknown" is split into its finite
points and leaves, since the sup over a union is the largest over its
parts. Any other union target is exact only when the sup to one of its
parts is 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (InputError, InternalInvariantError,
                     UnsupportedGeometryError)
from .rationals import common_power, fmt, rat
from . import setmodels
from .setmodels import (
    FiniteModification,
    FiniteUnion,
    FullLine,
    GeometricPoints,
    HalfPlaneStrip,
    Lattice,
    PeriodicBlocks,
    PlanarRay,
    Ray,
    Reflected,
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
    if isinstance(b, FullLine):
        return ambient_dim(a) == 1
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
    if isinstance(b, Ray):
        # inside a ray exactly when the end on its open side is past it
        return b.direction * (_end(a, -b.direction) - b.origin) >= 0
    if isinstance(a, Lattice) and isinstance(b, Lattice):
        ratio = a.step / b.step
        if ratio.denominator != 1:
            return False
        if (a.offset - b.offset) % b.step != 0:
            return False
        if b.half == "full":
            return True
        if a.half != b.half:
            return False
        if a.half == "plus":
            return a.offset >= b.offset
        return a.offset <= b.offset
    if ambient_dim(a) == 1:
        return _dilation_subset(a, b)
    if isinstance(a, PlanarRay) and isinstance(b, PlanarRay):
        return True
    if isinstance(a, PlanarRay) and isinstance(b, HalfPlaneStrip):
        return True  # strips contain the nonnegative axis by construction
    if isinstance(a, HalfPlaneStrip) and isinstance(b, HalfPlaneStrip):
        return b.c1 <= a.c1 and a.c2 <= b.c2
    return False


def _dilation_subset(a, b) -> bool:
    """a inside b when b rescales onto itself on both sides: the walks of
    `_dilation_sup` find every point of a in b's hulls, and no point
    removed inside those hulls is a point of a."""
    sup, apart = _dilation_sup(a, b)
    return sup == _VALUE0 and not apart and all(
        contains(b, x) for x in _holes(b) if contains(a, x))


_HOLES = {
    FiniteModification: lambda m: {*m.removed, *_holes(m.base)},
    FiniteUnion: lambda m: set().union(*map(_holes, m.parts)),
    Reflected: lambda m: {-x for x in _holes(m.base)},
}


def _holes(model) -> set:
    """The points removed anywhere in a 1-D tree, which the hulls of its
    components may still cover."""
    kind = type(model)
    return _HOLES[kind](model) if kind in _HOLES else set()


# ---------------------------------------------------------------------------
# Exact one-sided suprema sup_{x in A} dist(x, B)


@dataclass(frozen=True)
class SupDistance:
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
    """Whether the set has points arbitrarily far toward direction*inf."""
    if ambient_dim(model) != 1:
        return direction == 1  # planar variants extend along +u only
    return _end(model, direction) == direction * setmodels.INF


def _leaf_target_sup(source, target) -> SupDistance:
    """sup over the source of the distance to a target with a period, by
    the rules in the module docstring."""
    ends = {side: _end(source, side) for side in (-1, 1)}
    reached = [side for side, end in ends.items()
               if end == side * setmodels.INF]
    if not all(_reaches(target, side) for side in reached):
        return _INF
    shape = setmodels.eventual_shape(source)
    if isinstance(target, Ray) or (
            shape.long_runs and isinstance(target, (Lattice, PeriodicBlocks))):
        # far out, a ray is at distance 0 and long runs meet the widest gap
        cover = setmodels.eventual_shape(target).cover
        return SupDistance("value", max([cover[side] for side in reached] + [
            distance_to_set(target, Fraction(end))
            for side, end in ends.items() if side not in reached]))
    if shape.period is None:
        return _flattened_sup(source, target)
    best = _periodic_sup(source, target)
    return _UNKNOWN if best is None else SupDistance("value", best)


def _periodic_sup(source, target):
    """sup of the distance to the target over a periodic source, or None
    when the window holds more than WINDOW_CAP components.

    Let R and P be the reach and the period of both shapes together. Past
    R the source and the target both repeat with period P, and a target
    reaching that side has a point in every period, so a point past R + P
    has its nearest target points past R: the distance repeats with P
    there. (With P = 0 each set holds all or none of each side past R.)
    So every source point has a translate at the same distance inside
    [-(R + 2P), R + 2P], and one walk of that window sees the sup.
    """
    both = setmodels.eventual_shape(FiniteUnion((source, target)))
    reach = both.reach + 2 * both.period
    got = _window_sup(source, target, -reach, reach)
    return got and got[0]


def _window_sup(source, target, lo, hi):
    """(sup, apart) over the source points in [lo, hi]: their largest
    distance to the target, and whether any of them lies outside the hulls
    of the target's components (its accumulation point 0 included); None
    when the window holds more than WINDOW_CAP components or an
    accumulation at 0 that cannot be listed.

    One merged walk of the source components clipped to the window and the
    target's gaps (`setmodels.gaps`): over the part of a component inside a
    gap (g1, g2) the distance peaks at the point nearest the gap's
    midpoint. Where the gaps stop at the target's accumulation at 0 they
    are sought afresh from the next component, past 0.
    """
    best, apart, gaps, gap = ZERO, False, iter(()), None
    for count, (c_lo, c_hi) in enumerate(setmodels.components(source, lo)):
        if c_lo > hi:
            break
        if count > setmodels.WINDOW_CAP or c_lo is setmodels.ZERO_ABOVE:
            return None
        c_lo, c_hi = max(c_lo, lo), min(c_hi, hi)
        # components come in order of lo: a gap passed on an earlier one
        # meets this one only inside the earlier one
        while gap is None or gap[1] <= c_lo:
            gap = next(gaps, None)
            if gap is None:
                gaps = setmodels.gaps(target, c_lo, hi)
        g1, g2 = gap
        while g1 < c_hi:  # the gap meets [c_lo, c_hi]
            apart = True
            if g1 == -setmodels.INF:
                best = max(best, g2 - c_lo)
            elif g2 == setmodels.INF:
                best = max(best, c_hi - g1)
            else:
                x = min(max((g1 + g2) / 2, c_lo), c_hi)
                best = max(best, min(x - g1, g2 - x))
            if g2 > c_hi:
                break
            gap = next(gaps, None)
            if gap is None:
                return None
            g1, g2 = gap
    return best, apart


def _flattened_sup(source, target) -> SupDistance:
    """sup over a source as the largest over its finite points and its
    leaves, each without the points removed above it. Against a target
    with a period, periodic leaves go by `_periodic_sup` and powers c*q^n
    by `_geometric_mod_sup`; against any other target every leaf goes by
    `sup_distance`, where removing points can only lower a sup, so a leaf
    with points removed counts only at sup 0 or infinity."""
    points, leaves = set(), []
    _flatten(source, frozenset(), points, leaves)
    periodic = setmodels.eventual_shape(target).period is not None
    sups = [SupDistance("value", max(
        (distance_to_set(target, pt) for pt in points), default=ZERO))]
    for leaf, removed in leaves:
        if not periodic:
            got = sup_distance(leaf, target)
            sups.append(_UNKNOWN if removed and got.finite and got.value
                        else got)
            continue
        best = None
        if setmodels.eventual_shape(leaf).period is not None:
            best = _periodic_sup(
                FiniteModification(leaf, (), tuple(removed)), target)
        elif isinstance(leaf, GeometricPoints):
            best = _geometric_mod_sup(leaf, target, removed)
        sups.append(_UNKNOWN if best is None else SupDistance("value", best))
    return _worst(sups)


def _worst(sups) -> SupDistance:
    """The sup over a union of the pieces with these sups."""
    for outcome in (_INF, _UNKNOWN):
        if outcome in sups:
            return outcome
    return SupDistance("value", max(sup.value for sup in sups))


def _flatten(model, removed, points, leaves):
    """Collect the finite points that modifications add and survive, and
    the leaves (anything but a union or modification), each with the points
    removed above it."""
    if isinstance(model, FiniteUnion):
        for part in model.parts:
            _flatten(part, removed, points, leaves)
    elif isinstance(model, FiniteModification):
        removed = removed | frozenset(model.removed)
        points.update(a for a in model.added if a not in removed)
        _flatten(model.base, removed, points, leaves)
    else:
        leaves.append((model, removed))


def _geometric_mod_sup(source: GeometricPoints, target, removed):
    """sup over the points c*q^n outside `removed` of the distance to a
    target with a period L, via exact residue cycling, or None.

    Needs integer q so the residues of c*q^n modulo L form an eventually
    periodic orbit. Past reach + L the distance to the target repeats with
    L (see `_periodic_sup`); with L = 0 it is 0 there.
    """
    if source.q.denominator != 1:
        return None
    q = source.q.numerator
    shape = setmodels.eventual_shape(target)
    period = shape.period
    best = ZERO
    # fractional-exponent points (n < 0) and points up to reach + L or the
    # last removed one are finitely many; evaluate them directly and start
    # the orbit after them
    far = max([shape.reach + period, *removed])
    n = source.n0
    p = source.point(n)
    while n < 0 or p <= far:
        if n - max(source.n0, 0) > 256:
            return None
        if p not in removed:
            best = max(best, distance_to_set(target, p))
        n, p = n + 1, p * q
    if not period:
        return best
    # scale to integers: the residue of c*q^n modulo L, times denom
    denom = source.c.denominator * period.denominator
    modulus = (period * denom).numerator
    if modulus > 100000:
        return None
    start = period * (far // period + 1)  # residue 0 past far
    seen = set()
    residue = ((source.c * denom).numerator * pow(q, n, modulus)) % modulus
    # walk the orbit r -> r*q mod L; once a value repeats the orbit can
    # only revisit seen values, so the max over `seen` is the exact sup
    while residue not in seen:
        seen.add(residue)
        best = max(best, distance_to_set(
            target, start + Fraction(residue, denom)))
        residue = (residue * q) % modulus
    return best


def sup_distance(source, target) -> SupDistance:
    """Exact sup_{x in source} dist(x, target) for structurally supported
    pairs; "infinite" and "unknown" are explicit outcomes."""
    if ambient_dim(source) != ambient_dim(target):
        raise InputError("cannot compare sets in different ambient spaces")
    if ambient_dim(source) == 2:
        return _VALUE0 if is_structural_subset(source, target) \
            else _sup_distance_2d(source, target)
    if setmodels.eventual_shape(target).period is not None:
        return _VALUE0 if is_structural_subset(source, target) \
            else _leaf_target_sup(source, target)
    # the walks against a target with a dilation see containment as 0
    got = _dilation_sup(source, target)[0]
    if got is _UNKNOWN and is_structural_subset(source, target):
        return _VALUE0
    if got is _UNKNOWN and isinstance(source, (FiniteUnion,
                                               FiniteModification)):
        got = _flattened_sup(source, target)
    if got is _UNKNOWN and isinstance(target, FiniteUnion) and any(
            sup_distance(source, part) == _VALUE0 for part in target.parts):
        # distance to a union is <= distance to any part, so only the
        # zero case transfers exactly; anything else would overstate
        return _VALUE0
    return got


def _dilation_sup(source, target):
    """(sup, apart) against a 1-D target that rescales onto itself on both
    sides, one side at a time by `_side_sup` on the side's frame (the
    reflected pair for side -1); apart tells whether a walked source point
    lies outside the target's hulls. ("unknown", _) without a dilation."""
    dt = setmodels.dilation(target)
    if None in dt.values():
        return _UNKNOWN, True
    ds = setmodels.dilation(source)
    sides = [_side_sup(*(m if side == 1 else Reflected(m)
                         for m in (source, target)), ds[side], dt[side])
             for side in (-1, 1)]
    return (_worst([sup for sup, _ in sides]),
            any(apart for _, apart in sides))


def _log_window(reach, rho):
    """One log period [a*rho, a*rho**2] past the reach, a = reach (or 1 at
    reach 0, where every x > 0 is past it); rho 1 stands for any factor."""
    a, rho = reach or ONE, max(rho, Fraction(2))
    return a * rho, a * rho * rho


def _side_sup(source, target, dil, tdil):
    """(sup, apart) over the source points in [0, inf), with tdil the
    target's dilation on that side (factor L, reach R) and dil the
    source's, or None. Past R every target gap scales into a gap by L:
    1. a source reaching a side the target does not is "infinite";
    2. a source with a dilation of factor commensurable with L repeats
       with their common power past the larger reach R': a point with a
       positive distance in one log period past R' is "infinite" (the
       distance scales with it), and otherwise only [0, R'] counts;
    3. a target with no gap in one log period past R holds everything
       past it, so only the source points in [0, R] count;
    4. any other source is "infinite" when it reaches that side with a
       bounded cover or an incommensurable factor (its log orbit is dense
       modulo log L, Kronecker), since the gaps widen without bound;
       else "unknown".
    """
    top = tdil.reach
    rho = dil and common_power(dil.rho, tdil.rho)
    if not _reaches(target, 1):
        if _reaches(source, 1):
            return _INF, True
        top = max(ZERO, _end(source, 1))
    elif rho is not None:
        top = max(dil.reach, tdil.reach)
        got = _window_sup(source, target, *_log_window(top, rho))
        if got is None or got[0] > 0:
            return (_UNKNOWN if got is None else _INF), True
    elif _window_sup(FullLine(), target,
                     *_log_window(tdil.reach, tdil.rho))[1]:
        far = _reaches(source, 1) and (
            setmodels.eventual_shape(source).cover[1] is not None
            or (dil is not None and dil.rho > 1))
        return (_INF if far else _UNKNOWN), True
    got = _window_sup(source, target, ZERO, top)
    if got is None:
        return _UNKNOWN, True
    return SupDistance("value", got[0]), got[1]


def _sup_distance_2d(source, target) -> SupDistance:
    if isinstance(target, HalfPlaneStrip):
        if isinstance(source, PlanarRay):
            return _VALUE0
        if isinstance(source, HalfPlaneStrip):
            over = max(ZERO, source.c2 - target.c2)
            under = max(ZERO, target.c1 - source.c1)
            return SupDistance("value", max(over, under))
    if isinstance(target, PlanarRay):
        if isinstance(source, PlanarRay):
            return _VALUE0
        if isinstance(source, HalfPlaneStrip):
            return SupDistance("value", max(abs(source.c1), source.c2))
    return _UNKNOWN


# ---------------------------------------------------------------------------
# Sphere defect eps(t)


def _slice_sup(slice_obj, other) -> Fraction:
    """Exact sup of dist(., other) over a sphere slice; empty slice -> 0."""
    if slice_obj.is_empty():
        return ZERO
    if slice_obj.kind == "points":
        return max(distance_to_set(other, pt) for pt in slice_obj.points)
    # vertical arc slice: points (u0 + sqrt(t^2 - v^2), v), v in [lo, hi],
    # all with nonnegative first coordinate
    if isinstance(other, PlanarRay):
        return max(abs(slice_obj.v_lo), abs(slice_obj.v_hi))
    if isinstance(other, HalfPlaneStrip):
        def excess(v):
            return max(ZERO, v - other.c2, other.c1 - v)
        return max(excess(slice_obj.v_lo), excess(slice_obj.v_hi))
    raise UnsupportedGeometryError(
        f"no closed-form arc supremum against {type(other).__name__}")


def epsilon_t(y_model, z_model, p, t):
    """Directed sphere defects at radius t: (eps(t, Z, Y), eps(t, Y, Z)).

    The first component sups over the t-sphere slice of Z the distance to
    Y; the second swaps the roles.  Empty slices contribute 0.
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
    return _slice_sup(z_slice, y_model), _slice_sup(y_slice, z_model)


@dataclass(frozen=True)
class EpsilonCurve:
    """Exact eps(t) samples: rows (t, eps_ZY, eps_YZ, eps, eps/t)."""

    samples: tuple

    def max_ratio(self, tail: int = 0):
        rows = self.samples[-tail:] if tail else self.samples
        return max(row[4] for row in rows)


def epsilon_curve(y_model, z_model, p, t_grid) -> EpsilonCurve:
    ts = [rat(t) for t in t_grid]
    if not ts:
        raise InputError("empty radius grid")
    if any(t <= 0 for t in ts):
        raise InputError("radius grid must be positive")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise InputError("radius grid must be strictly increasing")
    rows = []
    for t in ts:
        e_zy, e_yz = epsilon_t(y_model, z_model, p, t)
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
    past the reach of the set's dilation (`setmodels.log_period_gaps`), q
    its factor: the gap scales into a gap by q, so the distance to the set
    at t_m is at least c*t_m. None without a factor or a gap."""
    got = setmodels.log_period_gaps(model) if ambient_dim(model) == 1 else None
    if not got or not got[1]:
        return None
    rho, found = got
    g1, g2 = max(found, key=lambda g: (g[1] - g[0]) / (g[1] + g[0]))
    return (g1 + g2) / 2, rho, 0, (g2 - g1) / (g2 + g1)


def _family_membership_persists(other, coef, q, start) -> bool:
    """Whether coef*q**m (coef > 0, q > 1) provably lies in the 1-D set
    `other` for every m >= start.

    Membership is checked point by point until the family clears the reach
    of the set's eventual shape and of its dilation on the positive side;
    past both they carry it on. With period 0 the set holds all of the far
    side. With period L, the step t_{m+1} - t_m = t_m*(q - 1) stays a
    multiple of L once it is one, when q is an integer. Otherwise the
    dilation carries it when q is a power of its factor, and a union or
    modification, which agrees past its reach with the union of its
    leaves, when one leaf carries it.
    """
    shape = setmodels.eventual_shape(other)
    dil = setmodels.dilation(other)[1]
    reach = shape.reach if dil is None else max(shape.reach, dil.reach)
    m = start
    while coef * q ** m <= reach:
        if not contains(other, coef * q ** m):
            return False
        m += 1
    value = coef * q ** m
    if not contains(other, value):
        return False
    period = shape.period
    if period == 0 or (period and q.denominator == 1
                       and value * (q - 1) % period == 0):
        return True
    if dil is not None and common_power(q, dil.rho) == q:
        return True
    if isinstance(other, (FiniteUnion, FiniteModification)):
        points, leaves = set(), []
        _flatten(other, frozenset(), points, leaves)
        return any(_family_membership_persists(leaf, coef, q, m)
                   for leaf, _ in leaves)
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
    eps(t)/t over a geometric radius grid.  The numeric verdict is
    explicitly non-certified.
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

    grid = [growth ** k for k in range(1, horizon + 1)]
    curve = epsilon_curve(y_model, z_model, p, grid)
    tail = min(10, len(curve.samples))
    worst = curve.max_ratio(tail)
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
        return SupDistance("value", _slice_sup(a_like, target))
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
