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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, UnsupportedGeometryError
from .rationals import fmt, ipow_floor_log, rat
from . import setmodels
from .setmodels import (
    FiniteModification,
    FiniteUnion,
    FullLine,
    GeometricBlocks,
    GeometricPoints,
    HalfPlaneStrip,
    Lattice,
    PeriodicBlocks,
    PlanarRay,
    Ray,
    ambient_dim,
    as_rat_point,
    point_dim,
    contains,
    distance_to_set,
    nearest_point,
    sphere_slice,
)

ZERO = Fraction(0)
HALF = Fraction(1, 2)

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
    if isinstance(a, Ray) and isinstance(b, Ray):
        if a.direction == b.direction:
            if a.direction == 1:
                return a.origin >= b.origin
            return a.origin <= b.origin
        return False
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
    if isinstance(a, Lattice) and isinstance(b, Ray):
        if b.direction == 1:
            return a.half == "plus" and a.offset >= b.origin
        return a.half == "minus" and a.offset <= b.origin
    if isinstance(a, GeometricPoints) and isinstance(b, Ray):
        return b.direction == 1 and a.point(a.n0) >= b.origin
    if isinstance(a, GeometricBlocks) and isinstance(b, Ray):
        return b.direction == 1 and b.origin <= 0
    if isinstance(a, PeriodicBlocks) and isinstance(b, Ray):
        first = a.offset + a.blocks[0][0]
        return b.direction == 1 and first >= b.origin
    if isinstance(a, GeometricPoints) and isinstance(b, GeometricPoints):
        k = ipow_floor_log(b.q, a.q)
        if k < 1 or b.q ** k != a.q:
            return False
        j = ipow_floor_log(b.q, a.c / b.c)
        if b.c * b.q ** j != a.c:
            return False
        return j + k * a.n0 >= b.n0
    if isinstance(a, GeometricBlocks) and isinstance(b, GeometricBlocks):
        if a.q != b.q:
            return False
        # blocks of a sit inside blocks of b at some aligned power
        j = ipow_floor_log(b.q, a.a / b.a)
        for shift in (j, j + 1):
            if b.a * b.q ** shift <= a.a and a.b <= b.b * b.q ** shift:
                return True
        return False
    if isinstance(a, PlanarRay) and isinstance(b, PlanarRay):
        return True
    if isinstance(a, PlanarRay) and isinstance(b, HalfPlaneStrip):
        return True  # strips contain the nonnegative axis by construction
    if isinstance(a, HalfPlaneStrip) and isinstance(b, HalfPlaneStrip):
        return b.c1 <= a.c1 and a.c2 <= b.c2
    return False


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


def _reaches(model, direction: int) -> bool:
    """Whether the set has points arbitrarily far toward direction*inf."""
    if ambient_dim(model) != 1:
        return direction == 1  # planar variants extend along +u only
    if isinstance(model, FullLine):
        return True
    if isinstance(model, Ray):
        return model.direction == direction
    if isinstance(model, Lattice):
        if model.half == "full":
            return True
        return (model.half == "plus") == (direction == 1)
    if isinstance(model, (GeometricPoints, GeometricBlocks, PeriodicBlocks)):
        return direction == 1
    if isinstance(model, FiniteUnion):
        return any(_reaches(p, direction) for p in model.parts)
    if isinstance(model, FiniteModification):
        return _reaches(model.base, direction)
    if isinstance(model, setmodels.Reflected):
        return _reaches(model.base, -direction)
    return True  # conservative for unknown variants


def _has_arbitrarily_long_runs(model) -> bool:
    """Whether the set contains intervals of unbounded length."""
    if isinstance(model, (FullLine, Ray)):
        return True
    if isinstance(model, GeometricBlocks):
        return True  # block lengths (b-a)*q^n grow without bound
    if isinstance(model, FiniteUnion):
        return any(_has_arbitrarily_long_runs(p) for p in model.parts)
    if isinstance(model, FiniteModification):
        # removing points splits intervals but a punctured interval still
        # forces the same supremum of distances to a discrete target
        return _has_arbitrarily_long_runs(model.base)
    if isinstance(model, setmodels.Reflected):
        return _has_arbitrarily_long_runs(model.base)
    return False


def _lattice_target_sup(source, target: Lattice) -> SupDistance:
    """sup over source points of the distance to a lattice."""
    cap = target.step / 2
    if target.half != "full":
        side = 1 if target.half == "plus" else -1
        if side == 1 and _reaches(source, -1):
            return _INF
        if side == -1 and _reaches(source, 1):
            return _INF
    if _has_arbitrarily_long_runs(source):
        # long runs far out reach step/2; a half lattice adds its lead gap,
        # seen from the source's infimum (supremum) on the open side
        if target.half == "plus":
            lead = target.offset - next(
                setmodels.components(source, -setmodels.INF))[0]
        elif target.half == "minus":
            lead = next(setmodels.components(
                source, setmodels.INF, -1))[1] - target.offset
        else:
            lead = ZERO
        return SupDistance("value", max(cap, lead))
    if isinstance(source, Lattice):
        period = _lcm_fraction(source.step, target.step)
        count = int(period / source.step)
        # scan whole residue cycles plus any affine boundary stretch of a
        # half target, so both regimes contribute their exact maxima
        extra = 0
        if target.half != "full" and source.half != "full":
            span = abs(target.offset - source.offset) / source.step
            if span > 100000:
                return _UNKNOWN
            extra = int(span) + 1
        sign = -1 if source.half == "minus" else 1
        best = max(distance_to_set(target, source.point(sign * k))
                   for k in range(2 * count + extra))
        return SupDistance("value", best)
    if isinstance(source, GeometricPoints):
        return _geometric_mod_sup(source, target)
    if isinstance(source, PeriodicBlocks):
        if any(lo < hi for lo, hi in source.blocks):
            # positive-length blocks: sup is reached inside some block or
            # at its edges; enumerate one common period exactly
            period = _lcm_fraction(source.period, target.step)
            reps = int(period / source.period)
            best = ZERO
            for k in range(reps):
                base = source.offset + source.period * k
                for lo, hi in source.blocks:
                    best = max(best, _interval_to_lattice_sup(
                        base + lo, base + hi, target))
            return SupDistance("value", best)
        period = _lcm_fraction(source.period, target.step)
        reps = int(period / source.period)
        best = max(
            distance_to_set(target,
                            source.offset + source.period * k + lo)
            for k in range(reps) for lo, _ in source.blocks)
        return SupDistance("value", best)
    if isinstance(source, FiniteUnion):
        parts = [_lattice_target_sup(p, target) for p in source.parts]
        return _combine_sups(parts)
    if isinstance(source, FiniteModification):
        inner = _lattice_target_sup(source.base, target)
        extra = [distance_to_set(target, pt) for pt in source.added]
        if not inner.finite:
            return inner
        best = max([inner.value] + extra)
        return SupDistance("value", best)
    return _UNKNOWN


def _interval_to_lattice_sup(lo, hi, target: Lattice):
    """Exact sup of distance-to-lattice over a closed interval."""
    if target.half == "full":
        if hi - lo >= target.step:
            return target.step / 2
        cands = [distance_to_set(target, lo), distance_to_set(target, hi)]
        # interior extremum at the midpoint between two lattice points
        k = (lo - target.offset) / target.step
        mid = target.offset + (Fraction(int(k)) + HALF) * target.step
        while mid < lo:
            mid += target.step
        if lo <= mid <= hi:
            cands.append(target.step / 2)
        return max(cands)
    # half lattice: beyond the boundary the distance is affine
    side = 1 if target.half == "plus" else -1
    if side == 1 and lo < target.offset:
        edge = target.offset - lo
        inner = _interval_to_lattice_sup(max(lo, target.offset), hi,
                                         Lattice(target.step, target.offset)) \
            if hi >= target.offset else ZERO
        return max(edge, inner)
    if side == -1 and hi > target.offset:
        edge = hi - target.offset
        inner = _interval_to_lattice_sup(lo, min(hi, target.offset),
                                         Lattice(target.step, target.offset)) \
            if lo <= target.offset else ZERO
        return max(edge, inner)
    return _interval_to_lattice_sup(lo, hi,
                                    Lattice(target.step, target.offset))


def _geometric_mod_sup(source: GeometricPoints, target: Lattice):
    """sup over c*q^n of distance to a lattice, via exact residue cycling.

    Needs integer q so the residues of c*q^n modulo the lattice step form
    an eventually periodic integer orbit.
    """
    if source.q.denominator != 1:
        return _UNKNOWN
    q = source.q.numerator
    best = ZERO
    # fractional-exponent points (n < 0) and any short-side boundary
    # points are finitely many; handle them by direct evaluation
    n_first = max(source.n0, 0)
    for n in range(source.n0, n_first):
        best = max(best, distance_to_set(target, source.point(n)))
    if target.half != "full":
        side = 1 if target.half == "plus" else -1
        n = n_first
        while side * (source.point(n) - target.offset) < 0:
            best = max(best, distance_to_set(target, source.point(n)))
            n += 1
            if n - n_first > 256:
                return _UNKNOWN
        n_first = n
    # scale to integers: points c*q^n against step s, offset o
    denom = (source.c.denominator * target.step.denominator
             * target.offset.denominator)
    c_int = source.c * denom
    s_int = target.step * denom
    o_int = target.offset * denom
    modulus = s_int.numerator
    if modulus > 100000:
        return _UNKNOWN
    seen = set()
    residue = (c_int.numerator * pow(q, n_first, modulus)) % modulus
    # walk the orbit r -> r*q mod s; once a value repeats the orbit can
    # only revisit seen values, so the max over `seen` is the exact sup
    while residue not in seen:
        seen.add(residue)
        shifted = (residue - o_int.numerator) % modulus
        dist = min(shifted, modulus - shifted)
        best = max(best, Fraction(dist, denom))
        residue = (residue * q) % modulus
    return SupDistance("value", best)


def _lcm_fraction(a: Fraction, b: Fraction) -> Fraction:
    import math as _m
    num = _m.lcm(a.numerator, b.numerator)
    den = _m.gcd(a.denominator, b.denominator)
    return Fraction(num, den)


def _combine_sups(parts):
    if any(p.kind == "infinite" for p in parts):
        return _INF
    if any(p.kind == "unknown" for p in parts):
        return _UNKNOWN
    return SupDistance("value", max(p.value for p in parts))


def sup_distance(source, target) -> SupDistance:
    """Exact sup_{x in source} dist(x, target) for structurally supported
    pairs; "infinite" and "unknown" are explicit outcomes."""
    if ambient_dim(source) != ambient_dim(target):
        raise InputError("cannot compare sets in different ambient spaces")
    if is_structural_subset(source, target):
        return _VALUE0
    dim = ambient_dim(source)
    if dim == 2:
        return _sup_distance_2d(source, target)
    if isinstance(target, FullLine):
        return _VALUE0
    if isinstance(target, Ray):
        return _ray_target_sup(source, target)
    if isinstance(target, Lattice):
        return _lattice_target_sup(source, target)
    if isinstance(target, (GeometricPoints, GeometricBlocks)):
        # gaps scale up geometrically; any source reaching far enough on
        # the positive side meets ever-larger gaps, and anything reaching
        # left of the set diverges outright
        if _reaches(source, 1) or _reaches(source, -1):
            return _INF
        return _UNKNOWN
    if isinstance(target, PeriodicBlocks):
        return _periodic_target_sup(source, target)
    if isinstance(target, FiniteUnion):
        # distance to a union is <= distance to any part, so only the
        # zero case transfers exactly; anything else would overstate
        for part in target.parts:
            got = sup_distance(source, part)
            if got.finite and got.value == 0:
                return _VALUE0
        return _UNKNOWN
    if isinstance(target, FiniteModification):
        if not target.removed:
            inner = sup_distance(source, target.base)
            if inner.finite:
                return inner if inner.value == 0 else _UNKNOWN
        return _UNKNOWN
    return _UNKNOWN


def _ray_target_sup(source, target: Ray) -> SupDistance:
    off_side = -target.direction
    if _reaches(source, off_side):
        return _INF
    # distance is zero past the origin and affine before it; the sup sits
    # at the source point deepest on the short side
    if target.direction == 1:
        bottom = setmodels.min_element(source)
        if bottom is None:
            if isinstance(source, GeometricBlocks):
                # infimum of the source is 0 (not attained); sup of
                # distance approaches the origin value
                return SupDistance("value", max(ZERO, target.origin))
            return _UNKNOWN
        return SupDistance("value", max(ZERO, target.origin - bottom))
    top = setmodels.max_element(source)
    if top is None:
        return _UNKNOWN
    return SupDistance("value", max(ZERO, top - target.origin))


def _periodic_target_sup(source, target: PeriodicBlocks) -> SupDistance:
    if _reaches(source, -1):
        return _INF
    gaps = [l2 - h1 for (_, h1), (l2, _) in zip(target.blocks,
                                                target.blocks[1:])]
    gaps.append(target.period - target.blocks[-1][1] + target.blocks[0][0])
    cap = max(gaps) / 2
    if _has_arbitrarily_long_runs(source):
        bottom = setmodels.min_element(source)
        if bottom is not None:
            lead = max(ZERO, distance_to_set(target, bottom))
        elif isinstance(source, GeometricBlocks):
            # source accumulates at 0; the sup approaches the distance
            # from 0 even though no point attains it
            lead = distance_to_set(target, ZERO)
        else:
            return _UNKNOWN
        return SupDistance("value", max(cap, lead))
    return _UNKNOWN


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
    """(coef, q, start, c) describing gap midpoints of a self-similar set:
    at t_m = coef*q^m the distance to the set is exactly c*t_m."""
    if isinstance(model, GeometricPoints):
        mid = model.c * (1 + model.q) / 2
        c = (model.q - 1) / (model.q + 1)
        return mid, model.q, model.n0, c
    if isinstance(model, GeometricBlocks):
        mid = (model.b + model.a * model.q) / 2
        c = (model.a * model.q - model.b) / (model.a * model.q + model.b)
        return mid, model.q, 1, c
    if isinstance(model, FiniteModification) and not model.added:
        # removing points only widens gaps; midpoints keep distance >= c*t
        return _gap_midpoint_family(model.base)
    if isinstance(model, FiniteModification):
        inner = _gap_midpoint_family(model.base)
        if inner is None:
            return None
        mid, q, start, c = inner
        biggest = max(abs(pt) for pt in model.added)
        while mid * q ** start <= biggest * 2:
            start += 1
        return mid, q, start, c
    return None


def _family_membership_persists(other, coef, q, start) -> bool:
    """Whether coef*q**m provably lies in `other` for every m >= start,
    given that it does at m = start."""
    value = coef * q ** start
    if isinstance(other, FullLine):
        return True
    if isinstance(other, Ray):
        return other.direction == 1 and value >= other.origin
    if isinstance(other, Lattice):
        if q.denominator != 1:
            return False
        if (value - other.offset) % other.step != 0:
            return False
        # induction step: t_{m+1} - t_m = t_m (q - 1) stays a multiple
        if (value * (q - 1)) % other.step != 0:
            return False
        if other.half == "plus":
            return value >= other.offset
        if other.half == "minus":
            return False  # values grow past the top of a minus lattice
        return True
    if isinstance(other, (GeometricPoints, GeometricBlocks)):
        # these sets are invariant under multiplication by their ratio
        base_q = other.q
        k = ipow_floor_log(base_q, q)
        if k < 1 or base_q ** k != q:
            return False
        return contains(other, value)
    if isinstance(other, FiniteUnion):
        return any(_family_membership_persists(p, coef, q, start)
                   for p in other.parts)
    if isinstance(other, FiniteModification):
        if not _family_membership_persists(other.base, coef, q, start):
            return False
        # removals are bounded; demand the family already cleared them
        if other.removed and value <= max(abs(r) for r in other.removed):
            return False
        return True
    return False


def _witness_against(gapped, other, p):
    """A diverging family of radii along which eps(t) >= c*t, or None.

    Mechanism: gap midpoints of a self-similar set sit at distance
    exactly c_gap * (their position); when the other set contains those
    positions for all large m, the sphere slice of the other set at
    radius t_m = position - p exhibits the defect.  Exactness at three
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
    """A concrete source point at distance > epsilon from the target."""
    family = _gap_midpoint_family(target)
    if family is not None:
        mid, q, start, c = family
        for m in range(start, start + budget):
            t_m = mid * q ** m
            try:
                z = nearest_point(source, t_m, eps=Fraction(1, 10 ** 9))
            except InputError:
                continue
            d = distance_to_set(target, z)
            if d > epsilon:
                return z, d
        return None
    if isinstance(target, Ray):
        probe = target.origin - target.direction * (epsilon + 1)
        for m in range(budget):
            try:
                z = nearest_point(source, probe, eps=Fraction(1, 10 ** 9))
            except InputError:
                return None
            d = distance_to_set(target, z)
            if d > epsilon:
                return z, d
            probe -= target.direction * (epsilon + 1) * 2 ** m
        return None
    if isinstance(target, Lattice) and target.half != "full":
        side = -1 if target.half == "plus" else 1
        probe = target.offset + side * (epsilon + 1)
        for m in range(budget):
            try:
                z = nearest_point(source, probe, eps=Fraction(1, 10 ** 9))
            except InputError:
                return None
            d = distance_to_set(target, z)
            if d > epsilon:
                return z, d
            probe += side * (epsilon + 1) * 2 ** m
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
    from .seqlab import classify, d_up, InSetSpec

    eps1 = rat(eps1)
    if eps1 <= 0:
        raise InputError("eps1 must be positive")

    def phi(point):
        return nearest_point(z_model, point, eps=eps1)

    def psi(point):
        return nearest_point(y_model, point, eps=eps1)

    entries = []
    for label, spec, scaling in samples:
        form = classify(spec, scaling)
        if not form.ok:
            raise InputError(
                f"sample {label!r} has no certified phase form")
        projected = InSetSpec(z_model, form.even,
                              None if form.odd == form.even else form.odd)
        residual = d_up(spec, projected, scaling)
        zero = residual.status == "exact" and residual.value == 0
        entries.append(ResidualEntry(label, residual, zero))
    return NearestPointMaps(phi, psi, eps1, tuple(entries))
