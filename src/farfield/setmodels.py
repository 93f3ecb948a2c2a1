"""Structured models of unbounded subsets of the line and the plane.

Every variant describes an unbounded set exactly, with rational parameters.
Membership, point-to-set distance, sphere slices, gap listings and gap
searches are all closed-form; nothing here samples. Magnitudes like
q**200 stay exact on bigint rationals. Each kind declares its fields once,
each with its codec (`Codec`): `model_from_dict`, `model_to_dict` and
`scale_model` are generic loops over them.

1-D points are Fractions, 2-D points are (Fraction, Fraction) pairs.
Every planar model that `factors` reads is a product X x Y of 1-D models: a
strip is [0, inf) x [c1, c2] (the second factor a `Segment`, which has no
JSON kind), the planar ray [0, inf) x [0, 0], and a union whose parts share
X is X x the union of their Ys. Membership, distance and nearest points
are read per factor; sphere slices take [0, inf) x Segment only.
GeometricPoints and GeometricBlocks are one family, the geometric run
(q, a, b, n0): the blocks [a*q**n, b*q**n] for n >= n0, or for every
integer n when n0 is None. GeometricPoints(q, c, n0) is the run
(q, c, c, n0), its blocks single points (a is b), and
GeometricBlocks(q, a, b) the run (q, a, b, None): it spans all integer
scales (it is exactly self-similar under its base), so it accumulates at
0, where readers of its gaps stop at a truncation scale (`truncation`).
The family has one cursor pair, one frame rule and one longest-gap closed
form.

Every 1-D query is derived from one component cursor per model kind:
`components(model, x, +1)` yields the components with hi >= x in
increasing order of lo, `components(model, x, -1)` those with lo <= x in
decreasing order of hi. The contract:

- A component is a closed hull (lo, hi), lo == hi for a point; a ray's
  open end is +-inf (a float). Components of different union parts may
  overlap; `gaps` reads them with a running right end.
- A finite modification drops a removed point only where it is an isolated
  component. A removed point inside or at the end of an interval leaves
  the hull as it is, which is what distances and complement endpoints see;
  membership keeps the removed-point test.
- A geometric run without a first index (GeometricBlocks) accumulates
  at 0 from above. Ascending from x <= 0 it yields the marker
  (ZERO_ABOVE, ZERO_ABOVE) and nothing after it; descending from x > 0
  it never reaches 0. ZERO_ABOVE computes as 0 but
  orders strictly between 0 and every positive number, so in a union the
  marker follows every component with lo <= 0 and precedes every other.
  Reflection turns it into ZERO_BELOW.
- From x = -inf ascending (+inf descending), a side that is unbounded
  yields (x, x) first, so the first component answers min/max questions.

`leaves(model)` reads a 1-D tree through its unions and finite
modifications: the points the modifications add and keep, and the other
nodes, each with the points removed above it. The sup distance from a
union (`equivalence`) and the critical horizons of the porosity probe
read the tree that way.

What a 1-D set does far out on each side, and how it rescales onto
itself there, is its frame on that side, `frames(model)`: one rule per
leaf kind gives both sides, union and finite modification are each
written once over the sides of their parts, and a reflection swaps the
sides. `required_window` reads the reach.

The porosity probe's gap search, `longest_gaps(model, hs)`, answers an
ascending horizon list in one ascending walk of the cursor (geometric
leaves keep their closed forms). A tree of geometric runs and finite
points is seeded at the first horizon h0: a descending cursor from h0
gives l(h0) and stops once no lower gap can win, and the ascent reads
only the components past h0. Any other set is walked from 0. A set with
a period p is walked only up to reach + 2p, where every gap length has
shown; a larger horizon takes its trailing gap from one descending cursor
step. Where the set accumulates at 0, each horizon h is read under the
truncation rule (`truncation`), and the search is inconclusive when the
longest gap is shorter than trunc(h).
"""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import json
import math
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import cached_property
from fractions import Fraction
from operator import itemgetter, mul
from typing import ClassVar, NamedTuple

from .errors import InputError, UnsupportedGeometryError
from .rationals import (common_power, fmt, integer, ipow_floor_log, lcm,
                        rat)

WINDOW_CAP = 200_000

ZERO = Fraction(0)
INF = math.inf


def as_rat_point(value):
    """Normalize a 1-D or 2-D point to Fraction / pair of Fractions."""
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise InputError(f"point must be 1-D or a pair: {value!r}")
        return (rat(value[0]), rat(value[1]))
    return rat(value)


def point_dim(value) -> int:
    return 2 if isinstance(value, tuple) else 1


# ---------------------------------------------------------------------------
# JSON fields


class Codec(NamedTuple):
    """How one dataclass field travels through JSON, declared once on the
    field with `codec(...)`: `read` turns the JSON value into the field's
    value and raises on a wrong one, `write` turns it back, and
    `scale(value, k)` moves a model field under x -> k*x (None: it stays)."""

    read: object
    write: object
    scale: object = None


def codec(how: Codec, **kwargs):
    """A dataclass field that carries its JSON codec."""
    return field(metadata={"codec": how}, **kwargs)


class Kinds:
    """One family's kind-name table, with the generic JSON read and write
    over the codecs of each kind's fields. A field missing from the JSON
    takes the dataclass default, a field written back as None is left out,
    and a wrong value or an unknown key raises InputError naming the kind
    and the field or key. Each kind's fields are read once, here."""

    def __init__(self, what: str, table: dict):
        self.what, self.table = what, table
        self.names = {cls: name for name, cls in table.items()}
        self.fields = {cls: fields(cls) for cls in self.names}
        self.keys = {cls: {f.name for f in fs} | {"kind"}
                     for cls, fs in self.fields.items()}

    def read(self, data):
        if not isinstance(data, dict):
            raise InputError(f"{self.what} JSON must be an object")
        kind = data.get("kind")
        cls = self.table.get(kind) if isinstance(kind, str) else None
        if cls is None:
            raise InputError(f"unknown {self.what} kind {kind!r}")
        unknown = data.keys() - self.keys[cls]
        if unknown:
            raise InputError(f"{kind} {self.what} JSON has unknown keys "
                             f"{sorted(unknown)}")
        values = {}
        for f in self.fields[cls]:
            if f.name in data:
                try:
                    values[f.name] = f.metadata["codec"].read(data[f.name])
                except (TypeError, ValueError) as exc:
                    raise InputError(f"{kind} {self.what} field {f.name!r}: "
                                     f"{exc}") from exc
            elif f.default is MISSING:
                raise InputError(f"{kind} {self.what} JSON missing field "
                                 f"{f.name!r}")
        return cls(**values)

    def write(self, obj) -> dict:
        if type(obj) not in self.names:
            raise InputError(f"not a {self.what}: {obj!r}")
        out = {"kind": self.names[type(obj)]}
        for f in self.fields[type(obj)]:
            value = getattr(obj, f.name)
            if value is not None:
                out[f.name] = f.metadata["codec"].write(value)
        return out


_SIGNS = {"+": 1, "-": -1, 1: 1, -1: -1}


def _read_direction(value):
    if type(value) not in (str, int) or value not in _SIGNS:
        raise InputError(f"bad ray direction {value!r}: use '+', '-', 1 or -1")
    return _SIGNS[value]


def _list(value):  # a string would pass as a list of its characters
    if not isinstance(value, list):
        raise TypeError(f"expected a JSON list, got {value!r}")
    return value


RATIO = Codec(rat, fmt)  # a rational that x -> k*x leaves alone
INTEGER = Codec(integer, int)
MODEL = Codec(lambda v: model_from_dict(v), lambda m: model_to_dict(m),
              lambda m, k: scale_model(m, k))
_LENGTH = Codec(rat, fmt, mul)  # a coordinate or a length
_POINTS = Codec(lambda v: tuple(map(rat, _list(v))),
                lambda v: list(map(fmt, v)),
                lambda v, k: tuple(x * k for x in v))
_BLOCKS = Codec(lambda v: tuple((rat(lo), rat(hi))
                                for lo, hi in map(_list, _list(v))),
                lambda v: [[fmt(lo), fmt(hi)] for lo, hi in v],
                lambda v, k: tuple((lo * k, hi * k) for lo, hi in v))
_MODELS = Codec(lambda v: tuple(map(model_from_dict, _list(v))),
                lambda v: list(map(model_to_dict, v)),
                lambda v, k: tuple(scale_model(m, k) for m in v))
# legacy configs spell the half lattice as a boolean
_HALF = Codec(lambda v: "plus" if v is True else "full" if v is False else v,
              str)
_DIRECTION = Codec(_read_direction, lambda d: "+" if d == 1 else "-")


# ---------------------------------------------------------------------------
# Variants


@dataclass(frozen=True)
class Lattice:
    step: Fraction = codec(_LENGTH)
    offset: Fraction = codec(_LENGTH)
    half: str = codec(_HALF, default="full")  # full | plus | minus

    def __post_init__(self):
        if self.step <= 0:
            raise InputError("lattice step must be positive")
        if self.half not in ("full", "plus", "minus"):
            raise InputError(f"bad lattice half {self.half!r}")

    def point(self, k: int) -> Fraction:
        return self.step * k + self.offset

    def k_range_ok(self, k: int) -> bool:
        if self.half == "plus":
            return k >= 0
        if self.half == "minus":
            return k <= 0
        return True


@dataclass(frozen=True)
class Ray:
    origin: Fraction = codec(_LENGTH)
    # +1 -> [origin, inf), -1 -> (-inf, origin]
    direction: int = codec(_DIRECTION, default=1)

    def __post_init__(self):
        if self.direction not in (1, -1):
            raise InputError("ray direction must be +1 or -1")

    @property
    def ends(self):
        return ((self.origin, INF) if self.direction == 1
                else (-INF, self.origin))


@dataclass(frozen=True)
class FullLine:
    ends: ClassVar[tuple] = (-INF, INF)


@dataclass(frozen=True)
class Segment:
    """The interval [lo, hi]: the second factor of a strip or of the planar
    ray. It has no JSON kind."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise InputError("segment needs lo <= hi")

    @property
    def ends(self):
        return (self.lo, self.hi)


INTERVALS = (Ray, FullLine, Segment)  # each with its ends, +-inf if open
HALF_LINE = Ray(ZERO)


@dataclass(frozen=True)
class GeometricPoints:
    """The points c*q**n for n >= n0: the run (q, c, c, n0)."""

    q: Fraction = codec(RATIO)
    c: Fraction = codec(_LENGTH)
    n0: int = codec(INTEGER, default=0)

    def __post_init__(self):
        if self.q <= 1:
            raise InputError("geometric base must exceed 1")
        if self.c <= 0:
            raise InputError("geometric coefficient must be positive")

    def point(self, n: int) -> Fraction:
        return self.c * self.q**n

    @cached_property
    def run(self):
        return (self.q, self.c, self.c, self.n0)

    @cached_property
    def first_block(self):
        p = self.point(self.n0)
        return (p, p)


@dataclass(frozen=True)
class GeometricBlocks:
    """Union of [a*q**n, b*q**n] over all integers n, a normalized to
    [1, q): the run (q, a, b, None)."""

    q: Fraction = codec(RATIO)
    a: Fraction = codec(_LENGTH)
    b: Fraction = codec(_LENGTH)
    first_block = None

    def __post_init__(self):
        if self.q <= 1:
            raise InputError("geometric base must exceed 1")
        if self.a <= 0 or not (self.a < self.b <= self.a * self.q):
            raise InputError("need 0 < a < b <= a*q")
        # canonical scale: shift the index so a lands in [1, q)
        shift = ipow_floor_log(self.q, self.a)
        if shift != 0:
            object.__setattr__(self, "a", self.a / self.q**shift)
            object.__setattr__(self, "b", self.b / self.q**shift)

    def block(self, n: int) -> tuple[Fraction, Fraction]:
        return (self.a * self.q**n, self.b * self.q**n)

    @cached_property
    def run(self):
        return (self.q, self.a, self.b, None)


# each with its run (q, a, b, n0), a is b for points, and first_block, the
# block n0 (None without one); see the module docstring
GEOMETRIC = (GeometricPoints, GeometricBlocks)


@dataclass(frozen=True)
class PeriodicBlocks:
    period: Fraction = codec(_LENGTH)
    blocks: tuple[tuple[Fraction, Fraction], ...] = codec(_BLOCKS)
    offset: Fraction = codec(_LENGTH, default=ZERO)

    def __post_init__(self):
        if self.period <= 0:
            raise InputError("period must be positive")
        if not self.blocks:
            raise InputError("periodic pattern needs at least one block")
        prev_hi = None
        for lo, hi in self.blocks:
            if not (0 <= lo <= hi < self.period):
                raise InputError("pattern blocks must sit in [0, period)")
            if prev_hi is not None and lo <= prev_hi:
                raise InputError("pattern blocks must be sorted and disjoint")
            prev_hi = hi


@dataclass(frozen=True)
class FiniteUnion:
    parts: tuple = codec(_MODELS)

    def __post_init__(self):
        if not self.parts:
            raise InputError("empty union")
        dims = {ambient_dim(p) for p in self.parts}
        if len(dims) != 1:
            raise InputError("union mixes ambient dimensions")


@dataclass(frozen=True)
class FiniteModification:
    base: object = codec(MODEL)
    added: tuple = codec(_POINTS, default=())
    removed: tuple = codec(_POINTS, default=())

    def __post_init__(self):
        if ambient_dim(self.base) != 1:
            raise InputError("finite modification supports 1-D bases only")


@dataclass(frozen=True)
class Reflected:
    base: object = codec(MODEL)

    def __post_init__(self):
        if ambient_dim(self.base) != 1:
            raise InputError("reflection supports 1-D bases only")


@dataclass(frozen=True)
class HalfPlaneStrip:
    """{(u, v): u >= 0, c1 <= v <= c2} with c1 < 0 < c2."""

    c1: Fraction = codec(_LENGTH)
    c2: Fraction = codec(_LENGTH)

    def __post_init__(self):
        if not (self.c1 < 0 < self.c2):
            raise InputError("strip needs c1 < 0 < c2")


@dataclass(frozen=True)
class PlanarRay:
    """The nonnegative first-coordinate axis in the plane."""


@dataclass(frozen=True)
class Product2D:
    x: object = codec(MODEL)
    y: object = codec(MODEL)

    def __post_init__(self):
        if ambient_dim(self.x) != 1 or ambient_dim(self.y) != 1:
            raise InputError("product factors must be 1-D models")


_FACTORS = {
    HalfPlaneStrip: lambda m: (HALF_LINE, Segment(m.c1, m.c2)),
    PlanarRay: lambda m: (HALF_LINE, Segment(ZERO, ZERO)),
    Product2D: lambda m: (m.x, m.y),
}


def factors(model):
    """(X, Y) with the planar model equal to X x Y, both 1-D models, or
    None: a union takes X x the union of its parts' Ys where they share X."""
    kind = type(model)
    if kind is not FiniteUnion:
        return _FACTORS[kind](model) if kind in _FACTORS else None
    pairs = [factors(p) for p in model.parts]
    if None in pairs or len({x for x, _ in pairs}) > 1:
        return None
    return pairs[0][0], FiniteUnion(tuple(y for _, y in pairs))


def ambient_dim(model) -> int:
    kind = type(model)
    if kind is FiniteUnion:
        return ambient_dim(model.parts[0])
    if kind not in _MODEL_KINDS.names and kind is not Segment:
        raise InputError(f"not a set model: {model!r}")
    return 2 if kind in _FACTORS else 1


# ---------------------------------------------------------------------------
# Component cursors (1-D)


def _order(value):
    return (0, value.side) if type(value) is _ZeroSide else (value, 0)


class _ZeroSide(Fraction):
    """0 approached from one side (+1: from above), where GeometricBlocks
    accumulates. Arithmetic treats it as 0; comparisons place it strictly
    between 0 and the numbers on its side."""

    def __new__(cls, side):
        self = super().__new__(cls, 0)
        self.side = side
        return self

    __hash__ = Fraction.__hash__

    def __eq__(self, other):
        return other is self

    def __lt__(self, other):
        return _order(self) < _order(other)

    def __le__(self, other):
        return _order(self) <= _order(other)

    def __gt__(self, other):
        return _order(self) > _order(other)

    def __ge__(self, other):
        return _order(self) >= _order(other)

    def __neg__(self):
        return ZERO_BELOW if self.side > 0 else ZERO_ABOVE


ZERO_ABOVE = _ZeroSide(1)
ZERO_BELOW = _ZeroSide(-1)


def _lattice_up(m: Lattice, x):
    if type(x) is float:  # from -inf
        if m.half != "plus":
            yield (x, x)
            return
        k = 0
    else:
        k = math.ceil((x - m.offset) / m.step)
        if m.half == "plus":
            k = max(k, 0)
    p = m.point(k)
    while k <= 0 or m.half != "minus":
        yield (p, p)
        p += m.step
        k += 1


def _lattice_down(m: Lattice, x):
    if type(x) is float:  # from +inf
        if m.half != "minus":
            yield (x, x)
            return
        k = 0
    else:
        k = math.floor((x - m.offset) / m.step)
        if m.half == "minus":
            k = min(k, 0)
    p = m.point(k)
    while k >= 0 or m.half != "plus":
        yield (p, p)
        p -= m.step
        k -= 1


def _interval_up(m, x):  # one of INTERVALS
    if x <= m.ends[1]:
        yield m.ends


def _interval_down(m, x):
    if x >= m.ends[0]:
        yield m.ends


def _geometric_up(m, x):  # one of GEOMETRIC; points have hi is lo
    q, a, b, _ = m.run
    first = m.first_block
    if first is not None and x <= first[0]:
        lo, hi = first
    elif first is None and x <= 0:
        yield (ZERO_ABOVE, ZERO_ABOVE)
        return
    else:
        scale = q ** ipow_floor_log(q, x / a)
        lo = a * scale
        hi = lo if a is b else b * scale
        if hi < x:
            lo *= q
            hi = lo if a is b else hi * q
        elif a is not b and lo == x and a * q == b:
            lo, hi = lo / q, hi / q  # the block below touches x too
    while True:
        yield (lo, hi)
        lo *= q
        hi = lo if a is b else hi * q


def _geometric_down(m, x):
    if type(x) is float:  # from +inf
        yield (x, x)
        return
    if x <= 0:
        return
    q, a, b, n0 = m.run
    n = ipow_floor_log(q, x / a)
    scale = q**n
    lo = a * scale
    hi = lo if a is b else b * scale
    for _ in itertools.count() if n0 is None else range(n - n0 + 1):
        yield (lo, hi)
        lo /= q
        hi = lo if a is b else hi / q


def _periodic_up(m: PeriodicBlocks, x):
    k = 0 if x <= m.offset else (x - m.offset) // m.period
    base = m.offset + m.period * k
    while True:
        for lo, hi in m.blocks:
            if base + hi >= x:
                yield (base + lo, base + hi)
        base += m.period


def _periodic_down(m: PeriodicBlocks, x):
    if type(x) is float:  # from +inf
        yield (x, x)
        return
    if x < m.offset:
        return
    base = m.offset + m.period * ((x - m.offset) // m.period)
    while base >= m.offset:
        for lo, hi in reversed(m.blocks):
            if base + lo <= x:
                yield (base + lo, base + hi)
        base -= m.period


def _merged(streams, direction):
    if direction == 1:
        return heapq.merge(*streams)
    # the mirror image of the ascending order by (lo, hi)
    return heapq.merge(*streams, key=itemgetter(1, 0), reverse=True)


def _union(m: FiniteUnion, x, direction):
    return _merged([components(p, x, direction) for p in m.parts], direction)


def _modification(m: FiniteModification, x, direction):
    kept = (c for c in components(m.base, x, direction)
            if c[0] != c[1] or c[0] not in m.removed)
    added = sorted((a for a in m.added
                    if a not in m.removed and direction * (a - x) >= 0),
                   reverse=direction == -1)
    if not added:
        return kept
    return _merged([kept, [(a, a) for a in added]], direction)


def _negated(comps):
    return ((-hi, -lo) for lo, hi in comps)


def _reflected(m: Reflected, x, direction):
    return _negated(components(m.base, -x, -direction))


_CURSORS = {
    Lattice: (_lattice_up, _lattice_down),
    **dict.fromkeys(INTERVALS, (_interval_up, _interval_down)),
    **dict.fromkeys(GEOMETRIC, (_geometric_up, _geometric_down)),
    PeriodicBlocks: (_periodic_up, _periodic_down),
}
_COMBINATORS = {FiniteUnion: _union, FiniteModification: _modification,
                Reflected: _reflected}


def components(model, x, direction: int = 1):
    """The component cursor of a 1-D model from x (a Fraction, or -inf
    ascending / +inf descending): direction +1 yields the components with
    hi >= x in increasing order of lo, -1 those with lo <= x in decreasing
    order of hi. See the module docstring for the contract."""
    kind = type(model)
    if kind in _COMBINATORS:
        return _COMBINATORS[kind](model, x, direction)
    if kind not in _CURSORS:
        raise UnsupportedGeometryError(
            f"{kind.__name__} has no 1-D component cursor")
    return _CURSORS[kind][direction == -1](model, x)


def first_point(model, x, direction: int = 1):
    """The set point nearest to x on one side (direction +1: at or after x,
    -1: at or before), x itself when x lies in a component's hull. None
    when that side is empty or ends at infinity or at an accumulation."""
    c = next(components(model, x, direction), None)
    if c is None:
        return None
    end = max(x, c[0]) if direction == 1 else min(x, c[1])
    return None if isinstance(end, (float, _ZeroSide)) else end


def gaps(model, x, end=INF):
    """The open gaps (g1, g2) of a 1-D set in increasing order, up to end.
    The first one is the gap just below the lowest component that reaches
    x (hi >= x): the gap that holds x where x lies in one, else the gap
    that ends at x or below it, at the lo of that component (for
    Lattice(3/2, 0, plus) from 0 it is (-inf, 0)). The last one, (g1, inf),
    opens past end (or at +inf). An unbounded end is -inf or +inf. Union
    parts may overlap, so g1 is the running right end. The listing stops
    after the gap that ends at an accumulation at 0 from above, since the
    blocks beyond it are not listed (see the module docstring); an
    accumulation inside a hull is passed over from the hull's end."""
    g1 = next((c[1] for c in components(model, x, -1) if c[1] < x), -INF)
    walk = components(model, x)
    while (c := next(walk, None)) is not None:
        lo, hi = c
        if lo > g1:
            yield g1, lo
        if lo is ZERO_ABOVE:
            if g1 <= 0:
                return
            if g1 == INF:
                break
            walk = components(model, g1)
            continue
        g1 = max(g1, hi)
        if g1 > end:
            break
    yield g1, INF


_HOLES = {
    FiniteModification: lambda m: {*m.removed, *holes(m.base)},
    FiniteUnion: lambda m: set().union(*map(holes, m.parts)),
    Reflected: lambda m: {-x for x in holes(m.base)},
}


def holes(model) -> set:
    """The points removed anywhere in a 1-D tree, which the hulls of its
    components may still cover."""
    kind = type(model)
    return _HOLES[kind](model) if kind in _HOLES else set()


def leaves(model, sign: int = 1):
    """(points, leaves) of a 1-D tree read through its unions and finite
    modifications: the points that modifications add and no modification
    above them removes, and the other nodes (a reflection is a leaf, also
    at the root), each with the set of points removed above it; with sign
    -1 everything is mirrored, each leaf wrapped in Reflected. x lies in
    the tree exactly when it is one of the points, or a leaf holds x and
    x is not among that leaf's removed points."""
    points, found = set(), []

    def walk(m, removed):
        kind = type(m)
        if kind is FiniteUnion:
            for part in m.parts:
                walk(part, removed)
        elif kind is FiniteModification:
            removed = removed | {sign * x for x in m.removed}
            points.update(sign * x for x in m.added
                          if sign * x not in removed)
            walk(m.base, removed)
        else:
            found.append((m if sign == 1 else Reflected(m), removed))

    walk(model, frozenset())
    del walk  # it refers to itself: free it now, not at a collection
    return points, found


# ---------------------------------------------------------------------------
# Membership


def contains(model, point) -> bool:
    point = as_rat_point(point)
    if point_dim(point) != ambient_dim(model):
        raise InputError("point dimension does not match model")
    return _member(model, point)


def _member(model, point) -> bool:
    if isinstance(model, FiniteModification):
        if point in model.removed:
            return False
        return point in model.added or _member(model.base, point)
    if isinstance(model, FiniteUnion):
        return any(_member(p, point) for p in model.parts)
    if isinstance(model, Reflected):
        return _member(model.base, -point)
    if type(model) in _FACTORS:
        x, y = _FACTORS[type(model)](model)
        return _member(x, point[0]) and _member(y, point[1])
    c = next(components(model, point), None)
    return c is not None and c[0] <= point


# ---------------------------------------------------------------------------
# Distance


def distance_to_set(model, point) -> Fraction:
    """Exact inf of distances from the point to the set.

    Raises UnsupportedGeometryError when the exact value is irrational
    (possible only for 2-D corner configurations).
    """
    point = as_rat_point(point)
    if point_dim(point) != ambient_dim(model):
        raise InputError("point dimension does not match model")
    if point_dim(point) == 1:
        return _distance_1d(model, point)
    pair = factors(model)
    if pair is None:  # a union of products over different X
        return min(distance_to_set(p, point) for p in model.parts)
    d = hypot(*map(_distance_1d, pair, point))
    if d is None:
        raise UnsupportedGeometryError(
            "exact distance is irrational for this corner configuration")
    return d


def _distance_1d(model, x) -> Fraction:
    # the first component on each side is the nearest one; a hull that
    # holds x (even at a removed point) gives the infimum 0
    after = next(components(model, x), None)
    if after is not None and after[0] <= x:
        return ZERO
    gaps = [] if after is None else [after[0] - x]
    before = next(components(model, x, -1), None)
    if before is not None:
        gaps.append(x - before[1])
    return min(gaps)


def hypot(dx: Fraction, dy: Fraction):
    """sqrt(dx**2 + dy**2) for dx, dy >= 0 (dx + dy where one is 0), or
    None where it is irrational."""
    if dx == 0 or dy == 0:
        return dx + dy
    square = dx * dx + dy * dy
    ns, ds = math.isqrt(square.numerator), math.isqrt(square.denominator)
    if ns * ns != square.numerator or ds * ds != square.denominator:
        return None
    return Fraction(ns, ds)


def nearest_point(model, point, eps: Fraction = ZERO):
    """A set point achieving distance_to_set, or within eps when the
    infimum is not attained. Ties break toward the smaller point. In the
    plane each coordinate takes its factor's nearest point, within eps/2."""
    point = as_rat_point(point)
    if point_dim(point) == 2 == ambient_dim(model):
        pair = factors(model)
        if pair is None:
            raise UnsupportedGeometryError(
                "nearest point unsupported for this model")
        return tuple(nearest_point(m, x, rat(eps) / 2)
                     for m, x in zip(pair, point))
    d = distance_to_set(model, point)
    for cand in (point - d, point + d):
        if contains(model, cand):
            return cand
    # infimum not attained (accumulation or removed point)
    if eps <= 0:
        raise UnsupportedGeometryError(
            "distance infimum not attained; pass eps > 0"
        )
    step = eps
    for _ in range(64):
        for cand in (point - d - step, point + d + step):
            if contains(model, cand):
                return cand
        step = step / 2
    raise UnsupportedGeometryError("no set point within eps of infimum")


# ---------------------------------------------------------------------------
# Sphere slices


class SphereSlice(NamedTuple):
    """S(p, t) intersected with a model: a finite point set, or for a strip
    an arc described by its reachable second-coordinate range."""

    kind: str  # points | arc
    points: tuple = ()
    v_lo: Fraction = ZERO
    v_hi: Fraction = ZERO

    def is_empty(self) -> bool:
        return self.kind == "points" and not self.points


def sphere_slice(model, p, t) -> SphereSlice:
    p = as_rat_point(p)
    t = rat(t)
    if t < 0:
        raise InputError("sphere radius must be nonnegative")
    if ambient_dim(model) == 1:
        if point_dim(p) != 1:
            raise InputError("base point dimension mismatch")
        cands = (p - t, p + t)
    else:  # [0, inf) x [lo, hi] only
        x, y = factors(model) or (None, None)
        if x != HALF_LINE or type(y) is not Segment:
            raise UnsupportedGeometryError(
                "sphere slice unsupported for this model")
        u0, v0 = p
        if y.lo == y.hi:  # width 0: at most two points of the axis
            if v0 != 0:
                raise UnsupportedGeometryError(
                    "base point must sit on the axis")
        elif v0 != 0 or u0 < 0:
            raise UnsupportedGeometryError(
                "strip slices need a base point on the nonnegative axis"
            )
        elif t > 0:
            # every v in [v_lo, v_hi] is reached at u = u0 + sqrt(t^2 - v^2)
            v_lo, v_hi = max(-t, y.lo), min(t, y.hi)
            return (SphereSlice("arc", v_lo=v_lo, v_hi=v_hi) if v_lo <= v_hi
                    else SphereSlice("points"))
        cands = ((u0 - t, ZERO), (u0 + t, ZERO))
    pts = tuple(x for x in dict.fromkeys(cands) if contains(model, x))
    return SphereSlice("points", points=pts)


# ---------------------------------------------------------------------------
# Transforms


def scale_model(model, k):
    """Image under x -> k*x, exact; k must be a positive rational. Each
    field moves by its codec's scale."""
    k = rat(k)
    if k <= 0:
        raise InputError("scale factor must be positive")
    if type(model) not in _MODEL_KINDS.names:
        raise InputError(f"not a set model: {model!r}")
    return replace(model, **{
        f.name: f.metadata["codec"].scale(getattr(model, f.name), k)
        for f in _MODEL_KINDS.fields[type(model)]
        if f.metadata["codec"].scale})


# ---------------------------------------------------------------------------
# Frames


class Frame(NamedTuple):
    """What a 1-D set does far out on one side, where every structural
    shortcut looks, and how it rescales onto itself there; `frames(model)`
    maps each side, -1 and +1, to one. Side -1 reads as side +1 of the
    mirror image.

    reach: a half-width past which both tails are structurally determined
        (the aperiodic prefix plus two repetitions of the regular part);
        the same on both sides.
    period: a p > 0 with x and x + p both in or both out of the set
        whenever both lie past reach on one side; 0 when every p > 0 is
        one (rays, the full line), None when there is none; the same on
        both sides.
    gap: a bound on every open gap of side * [0, inf) minus the set, None
        when unbounded; a finite bound on side +1 certifies nonporosity.
    cover: a bound on distance_to_set(x) for every x far enough toward
        side * inf, None when unbounded.
    long_runs: whether the set holds intervals of unbounded length toward
        side * inf.
    rho: a factor with x and rho*x both in or both out of the set whenever
        side * x > rho_reach; 1 stands for every factor (the set holds all
        or none of the side past rho_reach), as period 0 does; None when
        no factor works (a lattice or periodic pattern reaching the side).
    rho_reach: the reach of that factor (read only with one), at most
        reach.
    """

    reach: Fraction
    period: object
    gap: object
    cover: object
    long_runs: bool
    rho: object
    rho_reach: Fraction


ONE = Fraction(1)
_HALVES = {-1: "minus", 1: "plus"}  # the lattice half that holds one side


def _lattice_frames(m: Lattice):
    # past |offset| a half lattice holds none of the side it does not run to
    near, reach = abs(m.offset), abs(m.offset) + 2 * m.step
    return {side: Frame(reach, m.step, max(m.step, side * m.offset)
                        if m.half == _HALVES[side] else None,
                        None if m.half == _HALVES[-side] else m.step / 2,
                        False, ONE if m.half == _HALVES[-side] else None, near)
            for side in (-1, 1)}


def _interval_frames(m):
    # the ends seen from each side, toward 0 and toward side * inf, where
    # an infinite end is a float; past its largest finite |end| an
    # interval holds all or none of each side
    lo, hi = m.ends
    end = max((abs(e) for e in m.ends if type(e) is not float), default=ZERO)
    return {side: Frame(end + 1, ZERO, max(ZERO, near) if type(far) is float
                        and type(near) is not float else None,
                        ZERO if type(far) is float else None,
                        type(far) is float, ONE, end)
            for side, near, far in ((-1, -hi, -lo), (1, lo, hi))}


def _geometric_frames(m):
    q, a, b, n0 = m.run
    reach = b * q if n0 is None else b * q**(n0 + 1) + 1
    # the negative side is empty. Block lengths (b - a) * q**n grow without
    # bound unless a is b. Block n + 1 is block n scaled by q: without a
    # first block that holds for every x > 0, with one x = first/q is out
    # of the set and q*x in it
    return {-1: Frame(reach, None, None, None, False, ONE, ZERO),
            1: Frame(reach, None, None, None, a is not b, q,
                     ZERO if m.first_block is None else m.first_block[0] / q)}


def _periodic_frames(m: PeriodicBlocks):
    # the gaps of one period, the last one wrapping into the next period;
    # past |offset| the pattern holds none of the negative side
    gaps = [l2 - h1 for (_, h1), (l2, _) in zip(m.blocks, m.blocks[1:])]
    gaps.append(m.period - m.blocks[-1][1] + m.blocks[0][0])
    reach, near = abs(m.offset) + 2 * m.period, abs(m.offset)
    return {-1: Frame(reach, m.period, None, None, False, ONE, near),
            1: Frame(reach, m.period, max([m.offset + m.blocks[0][0]] + gaps),
                     max(gaps) / 2, False, None, near)}


def _min_known(values):
    return min((v for v in values if v is not None), default=None)


def _union_frames(m: FiniteUnion):
    parts = [frames(p) for p in m.parts]
    return {side: _union_side(m, [f[side] for f in parts], side)
            for side in (-1, 1)}


def _union_side(m: FiniteUnion, fs, side):
    # a union has a factor where its parts' factors have a common power
    reach, period, gap, cover, long_runs, rho, rho_reach = zip(*fs)
    return Frame(
        max(reach), None if None in period else functools.reduce(lcm, period),
        _min_known(gap + (_periodic_parts_gap(m, fs, side),)),
        _min_known(cover), any(long_runs),
        None if None in rho else functools.reduce(
            lambda a, b: a and common_power(a, b), rho),
        max(rho_reach))


def _flat_parts(m: FiniteUnion) -> tuple:
    """The parts of a union, read through the unions nested in it."""
    return tuple(q for p in m.parts
                 for q in (_flat_parts(p) if type(p) is FiniteUnion else (p,)))


def _periodic_parts_gap(m: FiniteUnion, fs, side):
    """The longest gap of the union S of m's parts that have a period, when
    there are two or more of them beside at least one without, and S lies
    on the side and reaches toward side * inf; else None, as when that
    walk is too rich. The parts are read through nested unions; fs are
    the frames of m's own parts on the side. The parts' gap bounds need
    not be met by the gaps of S (a lattice beside its shift by half a
    step), and without a period the walk of `longest_gaps` stops only at
    the gap bound. Past its reach R, S repeats with its period p
    and reaches on, so no gap past R is longer than p, and one that starts
    past R + p repeats the one p before it: l(R + 2p) bounds every gap of
    S, and each gap of m lies in one of S."""
    if FiniteUnion in map(type, m.parts):
        m = FiniteUnion(_flat_parts(m))
        fs = [frames(p)[side] for p in m.parts]
    periodic = tuple(p for p, f in zip(m.parts, fs) if f.period is not None)
    if not 1 < len(periodic) < len(m.parts):
        return None
    sub = FiniteUnion(periodic)
    sub = sub if side == 1 else Reflected(sub)
    frame = frames(sub)[1]
    if frame.cover is None or not is_nonnegative_model(sub):
        return None
    try:
        return longest_gap(sub, frame.reach + 2 * frame.period)
    except UnsupportedGeometryError:
        return None


def _modification_frames(m: FiniteModification):
    # finitely many points change only the prefix (a punctured long run
    # still counts), but removing r points can merge r + 1 consecutive gaps
    moved = m.added + m.removed
    far = max(map(abs, moved), default=ZERO)
    return {side: f._replace(
        reach=max(f.reach, far + 1) if moved else f.reach,
        gap=f.gap and (len(m.removed) + 1) * f.gap,  # None stays None
        rho_reach=max(f.rho_reach, far)) for side, f in frames(m.base).items()}


_FRAMES = {
    Lattice: _lattice_frames,
    **dict.fromkeys(INTERVALS, _interval_frames),
    **dict.fromkeys(GEOMETRIC, _geometric_frames),
    PeriodicBlocks: _periodic_frames,
    FiniteUnion: _union_frames,
    FiniteModification: _modification_frames,
    Reflected: lambda m: {-side: f for side, f in frames(m.base).items()},
}


def frames(model) -> dict:
    """{side: Frame} for side -1 and +1 of a 1-D model (see Frame): one
    rule per leaf kind; a union and a finite modification are each one
    rule over the frames of their parts, side by side, and a reflection
    swaps the sides."""
    kind = type(model)
    if kind not in _FRAMES:
        raise UnsupportedGeometryError(f"no window law for {kind.__name__}")
    return _FRAMES[kind](model)


def log_period_gaps(model, frame):
    """(rho, gaps): the factor of the model's frame on the positive side
    and the gaps (g1, g2) that open in one log period (a, a*rho] past its
    reach (a = rho_reach, or 1 at reach 0). A gap that opens past the
    reach scales into a gap by rho, so these show every gap shape past the
    reach. None without a factor > 1."""
    if frame.rho is None or frame.rho == 1:
        return None
    a = frame.rho_reach or ONE
    return frame.rho, [(g1, g2) for g1, g2 in gaps(model, a, a * frame.rho)
                       if a < g1 <= a * frame.rho]


def required_window(model) -> Fraction:
    """The reach of the model's frames."""
    return frames(model)[1].reach


# ---------------------------------------------------------------------------
# Gap search on [0, h]


def is_nonnegative_model(model) -> bool:
    """Whether the set sits in [0, inf), read off its lowest component."""
    return ambient_dim(model) == 1 and next(components(model, -INF))[0] >= 0


def truncation(model, h):
    """(start, trunc): the truncation rule for a 1-D set that accumulates
    at 0 from above, read up to the horizon h. The components with
    hi >= start are read and those below are left out: start is the lo of
    the component that reaches highest among those with
    0 < lo <= h/2**20, and every component left out lies in (0, trunc],
    trunc < start the largest right end below start. Readers treat
    (0, trunc] as unresolved (`longest_gaps`, and `line`'s complement
    components). A component with hi < start has lo < start, so trunc is
    the first such hi from a cursor at start, past the few components
    that hold start; one from the scale would pass every lattice point
    between start and the scale."""
    below = components(model, h / 2**20, -1)
    start = next(c for c in below if c[0] > 0)[0]
    return start, next(c for c in components(model, start, -1)
                        if c[1] < start)[1]


def longest_gap(model, h) -> Fraction:
    """Length of the longest open interval inside [0, h] \\ E, exact."""
    h = rat(h)
    if h <= 0:
        raise InputError("gap horizon must be positive")
    if not is_nonnegative_model(model):
        raise InputError("gap search needs a model inside [0, inf)")
    if type(model) in GEOMETRIC:
        q, a, b, n0 = model.run
        first = model.first_block
        if first is not None and h < first[0]:
            return h
        n = ipow_floor_log(q, h / a)
        scale = q**n
        hi = b * scale
        gaps = [h - hi]  # trailing; not positive inside block n
        if first is None or n > n0:
            gaps.append(a * scale - hi / q)  # below block n
        if first is not None:
            gaps.append(first[0])  # up to the first block
        return max(gaps)
    return longest_gaps(model, (h,))[0]


def longest_gaps(model, hs) -> list:
    """longest_gap(model, h) for every h of an ascending horizon list.

    A geometric run answers each h by its closed form in `longest_gap`.
    Any other model is walked by its component cursor in one ascending
    loop, which carries the running longest gap `best` and the running
    right end `prev_hi` from one horizon to the next. The loop starts in
    one of two ways.

    The window [0, h] of a horizon lists the components that meet [0, h];
    where the set accumulates at 0 from above, only those at 0 and those
    with hi >= start(h) (`truncation`).

    Seeded at the first horizon h0, for a tree without a period or a gap
    bound whose windows list at most WINDOW_CAP components up to the last
    horizon (`_window_bound`; no horizon can then raise "too rich"). A
    descent `components(model, h0, -1)`, in decreasing order of hi, gives
    l(h0):
    - Seed. Its first component has the largest right end among those
      with lo <= h0, which is prev_hi at h0, so the ascent reads only the
      components with lo > h0.
    - Stop rule. The descent carries the lowest left end m seen so far. A
      component with hi < m leaves the gap (hi, m), and every later gap
      ends at or below m, so it is shorter than m. Once m <= best no lower
      gap can win, and the descent stops.
    - Accumulation at 0. The descent also stops below start(h0), and
      counts its last gap from the largest of trunc(h0) and the right ends
      of the components at 0, as the window at h0 does (below).

    Otherwise from 0. With a period p in the frame, the walk stops at
    reach + 2p: no gap past reach is longer than p, and one that starts
    past reach + p repeats the one p before it. A horizon past the stop
    takes its trailing gap from one step of `components(model, h, -1)`.
    With a gap bound (a union's may be read by this walk over its parts
    with a period, see `_periodic_parts_gap`), the walk stops once the
    longest gap reaches it: l(h) never decreases and never exceeds the
    bound, so every later h reads it. The walk raises "too rich" at the
    first h whose window would list more than WINDOW_CAP components.

    Where the set accumulates at 0 from above, l(h) is read off the
    window [0, h], its gaps counted from trunc(h), and "inconclusive"
    when l(h) < trunc(h). Both starts read from the start
    of the smallest h, so for a larger h the loop also sees gaps below
    trunc(h); each is shorter than trunc(h), so it cannot change an
    answer that passes that check. As trunc(h) < h/2**20, the check reads
    `truncation` only for a horizon whose gap is below h/2**20.
    """
    hs = [rat(h) for h in hs]
    if any(b < a for a, b in zip(hs, hs[1:])):
        raise InputError("gap horizons must ascend")
    if type(model) in GEOMETRIC or not hs:
        return [longest_gap(model, h) for h in hs]
    if hs[0] <= 0:
        raise InputError("gap horizon must be positive")
    if not is_nonnegative_model(model):
        raise InputError("gap search needs a model inside [0, inf)")
    frame = frames(model)[1]
    stop = None if frame.period is None else frame.reach + 2 * frame.period
    bound = frame.gap
    walk = components(model, ZERO)
    at_zero, floor, c = 0, ZERO, next(walk, None)
    while c is not None and c[0] == 0:  # listed at every h
        at_zero, floor = at_zero + 1, max(floor, c[1])
        c = next(walk, None)
    start, acc = ZERO, c is not None and c[0] is ZERO_ABOVE
    if acc:
        start, trunc = truncation(model, hs[0])
        floor = max(floor, trunc)
    seeded = stop is None and bound is None \
        and _window_bound(model, hs[-1]) <= WINDOW_CAP
    best, prev_hi = ZERO, floor
    if seeded:
        down = components(model, hs[0], -1)
        k = next(down, None)
        if k is not None:
            prev_hi = max(prev_hi, k[1])
        low = prev_hi  # the lowest left end so far
        while k is not None and best < low and k[1] >= start:
            if k[1] < low:
                best = max(best, low - k[1])
            low = min(low, k[0])
            k = next(down, None)
        best = max(best, low - floor)
        walk = (k for k in components(model, hs[0]) if k[0] > hs[0])
        c = next(walk, None)
    elif acc:
        walk = (k for k in components(model, start) if k[0] > 0)
        c = next(walk)
    # the walk from 0 counts the components h's window lists, keeping their
    # right ends where start(h) moves
    moving = acc and not seeded
    listed, kept, out = at_zero, [], []
    for h in hs:
        if moving:
            start = truncation(model, h)[0]
            while kept and kept[0] < start:
                heapq.heappop(kept)
        end = h if stop is None else min(h, stop)
        while (bound is None or best < bound) and c is not None \
                and c[0] <= end:
            if c[0] > prev_hi:  # prev_hi may be inf: no float arithmetic
                best = max(best, c[0] - prev_hi)
            prev_hi = max(prev_hi, c[1])
            if not moving:
                listed += 1
            elif c[1] >= start:
                heapq.heappush(kept, c[1])
            if not seeded and listed + len(kept) > WINDOW_CAP:
                raise UnsupportedGeometryError("window structure too rich")
            c = next(walk, None)
        if end < h:
            prev_hi = next(components(model, h, -1))[1]
        gap = best if best == bound else max(best, h - min(prev_hi, h))
        if acc and gap * 2**20 < h and gap < truncation(model, h)[1]:
            raise UnsupportedGeometryError(
                "gap search inconclusive below the truncation scale"
            )
        out.append(gap)
    return out


def _window_bound(model, h):
    """A bound on the components that a window [0, x] with x <= h lists,
    for a tree of geometric runs and finite points; INF for a tree with
    any other leaf.

    - Each added point counts once per modification that adds it: the
      cursor lists every copy.
    - Points c*q**n count up to h, n0 <= n <= log_q(h/c).
    - Where blocks accumulate at 0, the window lists only the components
      with hi >= start(x), and start(x) > x/(2**20 * Q**2), Q the largest
      base of a block run. start(x) is the lo of the component K that
      reaches highest among those with 0 < lo <= s = x/2**20. Every block
      run has a block [a*q**n, b*q**n] with a*q**n <= s < a*q**(n+1), so
      K ends past s/Q; and no component ends past Q times its lo.
    - So a block run lists only n with a*q**n <= x and
      b*q**n > x/(2**20 * Q**2): the integers of an interval of length
      log_q(2**20 * Q**2 * b/a), at most its floor + 1.
    """
    _, found = leaves(model)
    if any(type(leaf) not in GEOMETRIC for leaf, _ in found):
        return INF
    runs = [leaf.run for leaf, _ in found]
    top = max((q for q, _, _, n0 in runs if n0 is None), default=ONE)
    size = _added(model)
    for q, a, b, n0 in runs:
        if n0 is None:
            size += ipow_floor_log(q, 2**20 * top**2 * b / a) + 1
        else:
            size += max(0, ipow_floor_log(q, h / a) - n0 + 1)
    return size


def _added(model) -> int:
    """The added points of a tree, counted once per modification."""
    kind = type(model)
    if kind is FiniteUnion:
        return sum(map(_added, model.parts))
    if kind is FiniteModification:
        return len(model.added) + _added(model.base)
    return 0


CRITICAL_CAP = 512  # critical horizons read from one geometric leaf


def critical_gap_h_values(model, h_lo, h_hi):
    """Structurally critical horizons: points where a full gap just fits.

    For geometric structure these are where l(h)/h peaks; injecting them
    into an estimator grid makes the probed sup exact. They are the
    component starts in [h_lo, h_hi] of the tree's geometric leaves (see
    `leaves`; an even stack of reflections is read as its base), read
    downward from h_hi, at most CRITICAL_CAP per leaf, and returned as
    one ascending tuple: the leaves' runs merged, equal neighbours
    dropped."""
    runs = []
    for leaf, _ in leaves(model)[1]:
        base = leaf
        while type(base) is Reflected and type(base.base) is Reflected:
            base = base.base.base
        if type(base) in GEOMETRIC:
            starts = (lo for lo, _ in components(base, h_hi, -1))
            run = list(itertools.islice(itertools.takewhile(
                lambda lo: lo >= h_lo, starts), CRITICAL_CAP))
            runs.append(run[::-1])
        elif base is not leaf:
            runs.append(critical_gap_h_values(base, h_lo, h_hi))
    return tuple(h for h, _ in itertools.groupby(heapq.merge(*runs)))


def min_element(model):
    """The set's minimum, or None when absent (unbounded below, or an
    infimum that is not attained)."""
    low = first_point(model, -INF)
    return low if low is not None and _member(model, low) else None


def max_element(model):
    top = first_point(model, INF, -1)
    return top if top is not None and _member(model, top) else None


# ---------------------------------------------------------------------------
# Open-interval intersection (exact)


SEEK_AFTER = 4  # components one window may step over before a re-seek


def intersects_open_interval(model, lo, hi) -> bool:
    """Does E meet the open interval (lo, hi)? Exact for 1-D models: the
    first component from lo that ends past lo must start below hi."""
    lo, hi = rat(lo), rat(hi)
    if hi <= lo:
        return False
    c = next((c for c in components(model, lo) if c[1] > lo), None)
    return c is not None and c[0] < hi


def grid_hits(model, p, t_grid, epsilon, radii) -> list:
    """For each t of t_grid (in any order, repeats allowed), the positions
    i, ascending, of the radii r_i whose open window
    (p + (t - eps) * r_i, p + (t + eps) * r_i) meets the 1-D model; eps and
    every radius are positive. Each radius is one ascending cursor walk
    over the distinct t.

    The walk reads in integer units: with L the lcm of the denominators of
    the grid and of eps, T_k = t_k * L and E = eps * L, a component
    [c0, c1] meets window k exactly when c0 < p + (t_k + eps) * r and
    c1 > p + (t_k - eps) * r, that is when
        floor((c0 - p) * L / r) - E < T_k < ceil((c1 - p) * L / r) + E,
    a run of consecutive k that two bisections find. The marker at 0 (an
    ascending cursor lists ZERO_ABOVE only; ZERO_BELOW comes from
    descending ones) reads as 0 approached from above: ZERO_ABOVE < hi
    means 0 < hi, but ZERO_ABOVE > lo means lo <= 0, so where
    (0 - p) * L / r is an integer the ceiling above is one larger.
    Components come in ascending order of c0, so the windows below a run
    are decided for good. Once SEEK_AFTER components in a row end at or
    below the lower end of the first undecided window, the walk re-seeks
    the cursor there, and from then on (for dense sets, whose windows keep
    outrunning the cursor) at once; it also re-seeks past the marker,
    after which GeometricBlocks lists nothing. A cursor seeked at that
    window steps on without a limit.

    Cover rule: let C = frames(model)[1].cover and R its reach.
    Every open interval (lo, hi) with lo > R and hi - lo > 2C meets the
    set. For a leaf, every x > R lies within C of a set point (of the
    lattice, the ray, the line or a block of the period), so the
    interval's midpoint does, and that point lies inside the interval. A
    finite modification keeps its base's cover, and its reach lies past
    every point it adds or removes, so the base points inside (lo, hi) are
    all kept. A union's reach bounds its parts' reaches, and its cover is
    one part's cover; a reflection swaps the sides. So at a radius with
    eps * r > C, every window with p + (t - eps) * r > R, that is with
    T_k > floor((R - p) * L / r) + E, is a hit without a walk.
    """
    ts = sorted(set(t_grid))
    scale = math.lcm(epsilon.denominator, *(t.denominator for t in ts))
    units = [t.numerator * (scale // t.denominator) for t in ts]
    e = epsilon.numerator * (scale // epsilon.denominator)
    frame = frames(model)[1]
    cover, reach = frame.cover, frame.reach
    rows = [[] for _ in ts]
    budget = SEEK_AFTER
    for i, r in enumerate(radii):
        # (x - p) * L / r = (x.num * a - x.den * b) / (x.den * d)
        a = p.denominator * scale * r.denominator
        b, d = p.numerator * scale * r.denominator, p.denominator * r.numerator
        end = len(ts)
        if cover is not None and epsilon * r > cover:
            q = ((reach.numerator * a - reach.denominator * b)
                 // (reach.denominator * d))
            end = bisect.bisect_right(units, q + e)
            for k in range(end, len(ts)):
                rows[k].append(i)
        j, walk, seeked, stepped = 0, None, None, 0
        while j < end:  # windows below j are decided
            if walk is None:
                walk, seeked = components(model, p + (ts[j] - epsilon) * r), j
            c = next(walk, None)
            if c is None:
                break
            c0, c1 = c
            k0 = j
            if type(c0) is not float:  # not -inf
                q = ((c0.numerator * a - c0.denominator * b)
                     // (c0.denominator * d))
                k0 = bisect.bisect_right(units, q - e, j, end)
                if k0 == end:
                    break
            k1 = end
            if type(c1) is not float:  # not +inf
                q, rem = divmod(c1.numerator * a - c1.denominator * b,
                                c1.denominator * d)
                if rem or c1 is ZERO_ABOVE:
                    q += 1
                k1 = bisect.bisect_left(units, q + e, k0, end)
            behind = False
            if k1 > j:
                for k in range(k0, k1):
                    rows[k].append(i)
                j, stepped = k1, 0
            else:  # c ends at or below the lower end of window j
                behind = stepped == budget
                stepped += 1
            if (behind or c0 is ZERO_ABOVE) and seeked != j:
                if behind:
                    budget = 0
                walk = None
    index = {t: tuple(row) for t, row in zip(ts, rows)}
    return [index[t] for t in t_grid]


# ---------------------------------------------------------------------------
# Serialization


_MODEL_KINDS = Kinds("model", {
    "lattice": Lattice, "ray": Ray, "full_line": FullLine,
    "geometric_points": GeometricPoints, "geometric_blocks": GeometricBlocks,
    "periodic_blocks": PeriodicBlocks, "finite_union": FiniteUnion,
    "finite_modification": FiniteModification, "reflected": Reflected,
    "half_plane_strip": HalfPlaneStrip, "planar_ray": PlanarRay,
    "product": Product2D,
})


def model_to_dict(model) -> dict:
    return _MODEL_KINDS.write(model)


def model_from_dict(data) -> object:
    return _MODEL_KINDS.read(data)


def model_to_json(model) -> str:
    return json.dumps(model_to_dict(model), sort_keys=True)


def model_from_json(text: str):
    try:
        return model_from_dict(json.loads(text))
    except json.JSONDecodeError as exc:
        raise InputError(f"bad model JSON: {exc}") from exc
