"""Independent reference for the 1-D set models the workloads generate.

The oracles never ask farfield whether farfield is right: membership,
distances, open-interval hits and longest gaps are recomputed here from the
model dicts with plain exact arithmetic. Every model kind exposes two
cursors over its closed components (points are degenerate intervals):
`up(x)` starts at the component containing x or the first one above it,
`down(x)` at the component containing x or the last one below it.
Unions merge cursors, finite modifications filter and insert points.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction

INF = math.inf
ZERO = Fraction(0)
TINY = Fraction(1, 10 ** 100)


def _log(value: Fraction) -> float:
    return math.log(value.numerator) - math.log(value.denominator)


def _floor_log(q: Fraction, v: Fraction) -> int:
    """Largest integer m with q**m <= v (q > 1, v > 0)."""
    m = math.floor(_log(v) / _log(q))
    while q ** m > v:
        m -= 1
    while q ** (m + 1) <= v:
        m += 1
    return m


def _ceil_div(a: Fraction, b: Fraction) -> int:
    return -((-a) // b)


class RefSet:
    def up(self, x):
        raise NotImplementedError

    def down(self, x):
        raise NotImplementedError

    def contains(self, x) -> bool:
        first = next(iter(self.up(x)), None)
        return first is not None and first[0] <= x <= first[1]

    def dist(self, x):
        best = INF
        above = next(iter(self.up(x)), None)
        if above is not None:
            best = min(best, max(ZERO, above[0] - x))
        below = next(iter(self.down(x)), None)
        if below is not None:
            best = min(best, max(ZERO, x - below[1]))
        return best

    def hits_open(self, lo, hi) -> bool:
        """Whether the set meets the open interval (lo, hi)."""
        for left, right in self.up(lo):
            if right <= lo:
                continue
            return left < hi
        return False

    def longest_gaps(self, hs, cut=ZERO):
        """Longest open interval of [0, h] minus the set, for each h in hs.

        Components below `cut` are skipped; callers pass a cut far below
        the gaps of interest for sets accumulating at 0.
        """
        out = {}
        pending = sorted(set(hs))
        atoms = iter(self.up(cut))
        cur, best = ZERO, ZERO
        atom = next(atoms, None)
        for h in pending:
            while atom is not None and atom[0] <= h:
                left, right = atom
                if left > cur:
                    best = max(best, left - cur)
                cur = max(cur, right)
                atom = next(atoms, None)
            out[h] = max(best, h - cur) if h > cur else best
        return out


class FullLine(RefSet):
    def up(self, x):
        yield (-INF, INF)

    down = up


class Ray(RefSet):
    def __init__(self, origin, direction):
        self.origin, self.direction = origin, direction

    def up(self, x):
        if self.direction == 1:
            yield (self.origin, INF)
        elif x <= self.origin:
            yield (-INF, self.origin)

    def down(self, x):
        if self.direction == -1:
            yield (-INF, self.origin)
        elif x >= self.origin:
            yield (self.origin, INF)


class Lattice(RefSet):
    def __init__(self, step, offset, half):
        self.step, self.offset, self.half = step, offset, half

    def _ok(self, k):
        return not ((self.half == "plus" and k < 0)
                    or (self.half == "minus" and k > 0))

    def up(self, x):
        k = _ceil_div(x - self.offset, self.step)
        if self.half == "plus":
            k = max(k, 0)
        while self._ok(k):
            p = self.offset + k * self.step
            yield (p, p)
            k += 1

    def down(self, x):
        k = (x - self.offset) // self.step
        if self.half == "minus":
            k = min(k, 0)
        while self._ok(k):
            p = self.offset + k * self.step
            yield (p, p)
            k -= 1

    def longest_gaps(self, hs, cut=ZERO):
        """Closed form for a half lattice inside [0, inf): the lead gap up
        to the offset, the step, and the partial gap above the last point
        (walking the points would take h/step steps)."""
        out = {}
        for h in hs:
            if self.offset > h:
                out[h] = h
                continue
            k_max = (h - self.offset) // self.step
            cands = [self.offset, h - (self.offset + k_max * self.step)]
            if k_max >= 1:
                cands.append(self.step)
            out[h] = max(cands)
        return out


class GeometricPoints(RefSet):
    def __init__(self, q, c, n0):
        self.q, self.c, self.n0 = q, c, n0

    def up(self, x):
        m = self.n0
        if x > self.c * self.q ** self.n0:
            m = max(self.n0, _floor_log(self.q, x / self.c))
        p = self.c * self.q ** m
        while p < x:
            p *= self.q
        while True:
            yield (p, p)
            p *= self.q

    def down(self, x):
        if x < self.c * self.q ** self.n0:
            return
        m = _floor_log(self.q, x / self.c)
        while m >= self.n0:
            p = self.c * self.q ** m
            yield (p, p)
            m -= 1


class GeometricBlocks(RefSet):
    """Union of [a q^m, b q^m] over all integers m; accumulates at 0."""

    def __init__(self, q, a, b):
        self.q, self.a, self.b = q, a, b

    def up(self, x):
        if x <= 0:
            # 0 is a limit point: one component standing for the blocks in
            # (0, TINY] answers every query that starts at or below 0
            yield (ZERO, TINY)
            return
        m = _floor_log(self.q, x / self.a)
        if x > self.b * self.q ** m:
            m += 1
        while True:
            scale = self.q ** m
            yield (self.a * scale, self.b * scale)
            m += 1

    def down(self, x):
        if x <= 0:
            return
        m = _floor_log(self.q, x / self.a)
        while True:
            scale = self.q ** m
            yield (self.a * scale, self.b * scale)
            m -= 1


class Union(RefSet):
    def __init__(self, parts):
        self.parts = parts

    def up(self, x):
        return heapq.merge(*(p.up(x) for p in self.parts),
                           key=lambda atom: atom[0])

    def down(self, x):
        return heapq.merge(*(p.down(x) for p in self.parts),
                           key=lambda atom: atom[1], reverse=True)


class Modification(RefSet):
    """Finite modification: removed points are dropped, added ones merged.

    A removed point strictly inside an interval component is rejected by
    `check_removals`, so filtering degenerate components is exact.
    """

    def __init__(self, base, added, removed):
        self.base = base
        self.added = sorted(set(added) - set(removed))
        self.removed = frozenset(removed)

    def check_removals(self):
        for r in self.removed:
            first = next(iter(self.base.up(r)), None)
            if first is not None and first[0] <= r <= first[1] \
                    and first[0] != first[1]:
                raise ValueError(f"removed point {r} inside an interval")

    def _keep(self, atoms):
        return (a for a in atoms
                if not (a[0] == a[1] and a[0] in self.removed))

    def up(self, x):
        extra = [(a, a) for a in self.added if a >= x]
        return heapq.merge(self._keep(self.base.up(x)), extra,
                           key=lambda atom: atom[0])

    def down(self, x):
        extra = [(a, a) for a in reversed(self.added) if a <= x]
        return heapq.merge(self._keep(self.base.down(x)), extra,
                           key=lambda atom: atom[1], reverse=True)


def _f(value) -> Fraction:
    return Fraction(value)


def from_dict(data) -> RefSet:
    kind = data["kind"]
    if kind == "full_line":
        return FullLine()
    if kind == "ray":
        return Ray(_f(data["origin"]), 1 if data["direction"] == "+" else -1)
    if kind == "lattice":
        return Lattice(_f(data["step"]), _f(data["offset"]),
                       data.get("half", "full"))
    if kind == "geometric_points":
        return GeometricPoints(_f(data["q"]), _f(data["c"]),
                               int(data.get("n0", 0)))
    if kind == "geometric_blocks":
        q, a, b = _f(data["q"]), _f(data["a"]), _f(data["b"])
        return GeometricBlocks(q, a, b)
    if kind == "finite_union":
        return Union([from_dict(p) for p in data["parts"]])
    if kind == "finite_modification":
        mod = Modification(from_dict(data["base"]),
                           [_f(a) for a in data.get("added", ())],
                           [_f(r) for r in data.get("removed", ())])
        mod.check_removals()
        return mod
    raise ValueError(f"no reference for model kind {kind!r}")


def epsilon_row(y: RefSet, z: RefSet, p, t):
    """(eps_ZY, eps_YZ) at radius t around p on the line."""
    sphere = {p - t, p + t}

    def directed(src, dst):
        vals = [dst.dist(x) for x in sphere if src.contains(x)]
        return max(vals) if vals else ZERO

    return directed(z, y), directed(y, z)


# -----------------------------------------------------------------------------
# Scalings


def scaling_eval(data, n: int) -> Fraction:
    kind = data["kind"]
    if kind == "geometric":
        return _f(data.get("c", 1)) * _f(data["q"]) ** n
    if kind == "polynomial":
        return _f(data.get("c", 1)) * Fraction(n) ** int(data["degree"])
    if kind == "interleave":
        if n % 2:
            return scaling_eval(data["first"], (n + 1) // 2)
        return scaling_eval(data["second"], n // 2)
    raise ValueError(f"no reference for scaling kind {kind!r}")


def window_hits(ref: RefSet, p, t, eps, scaling, horizon):
    """Indices n whose window ((t-eps) r_n, (t+eps) r_n) meets the
    distance set of the model seen from p."""
    hits = set()
    for n in range(1, horizon + 1):
        r = scaling_eval(scaling, n)
        lo, hi = (t - eps) * r, (t + eps) * r
        if hi <= 0:
            continue
        if lo < 0:
            hit = ref.hits_open(p - hi, p + hi)
        else:
            hit = ref.hits_open(p + lo, p + hi) or ref.hits_open(p - hi,
                                                                 p - lo)
        if hit:
            hits.add(n)
    return hits
