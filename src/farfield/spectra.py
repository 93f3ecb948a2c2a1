"""Distance sets and rescaled spectrum probes.

Sp(X) from a base point p is {d(x, p) : x in X}. A scaled window probe asks
whether ((t-eps)*r_n, (t+eps)*r_n) meets Sp(X) for at least `persistence`
indices n up to a horizon; a point can only be declared present, or absent
at the probed horizon, never absent outright.

Sp(X) is never built as a set of its own. On the line it is read through
the set and its mirror image: a distance |x - p| lands in the open interval
(lo, hi) exactly when x lands in (p + lo, p + hi) or -x lands in
(lo - p, hi - p), which the set models decide exactly. In the plane it is
the half line [0, inf), for a set that holds the axis ray [0, inf) x {0}
and a base point on that ray; every other planar (model, p) pair raises
rather than approximating.

A scan checks its inputs and builds its probe once per call, and evaluates
each scaling's radii once. For t >= eps each side is one
`setmodels.grid_hits` call for the whole grid: one ascending cursor walk
per radius over the windows of every t, in integer units, on the set for
the right side and on its mirror image for the left (skipped when p = 0
and the set is nonnegative); past the set's reach, a radius whose windows
are wider than twice its cover bound marks them without a walk. For
t < eps the windows (p - (t+eps)r, p + (t+eps)r) are nested, so a window
hits exactly when (t+eps)r exceeds the distance from p to the set.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import InputError, UnsupportedGeometryError
from .equivalence import is_structural_subset
from .rationals import rat
from . import setmodels as sm

DEFAULT_PERSISTENCE = 10
DEFAULT_HORIZON = 50


# ---------------------------------------------------------------------------
# Window probes


def window_hits(model, p, t, epsilon, scaling, horizon: int) -> tuple:
    """Indices n (1-based) whose window ((t-eps)r_n, (t+eps)r_n) meets Sp."""
    t_grid, epsilon, probe = _window_probe(model, p, [t], epsilon, horizon)
    return _scan(probe, t_grid, epsilon, _radii(scaling, horizon))[0]


def _window_probe(model, p, t_grid, epsilon, horizon: int):
    """Checked (t_grid, eps, probe) for the window scans of a t grid. The
    probe is a 1-D model; its mirror image, which answers the windows left
    of the base point (None when the set sits on one side of that point:
    p = 0 and a nonnegative set); the base point; and the distance from
    the base point to the set, which answers every t < eps."""
    t_grid, epsilon = [rat(t) for t in t_grid], rat(epsilon)
    if not t_grid:
        raise InputError("spectrum grid needs at least one point t")
    t_min = min(t_grid)
    if t_min < 0:
        raise InputError("spectrum point t must be nonnegative")
    if epsilon <= 0:
        raise InputError("window half-width must be positive")
    if horizon < 1:
        raise InputError("horizon must be at least 1")
    dim = sm.ambient_dim(model)
    p = sm.as_rat_point(p)
    if sm.point_dim(p) != dim:
        raise InputError("base point dimension mismatch")
    if dim == 2:
        model = _plane_distances(model, p)  # 1-D set of distances
        p = Fraction(0)
    one_sided = p == 0 and sm.is_nonnegative_model(model)
    mirror = None if one_sided else sm.Reflected(model)
    dist = sm.distance_to_set(model, p) if t_min < epsilon else None
    return t_grid, epsilon, (model, mirror, p, dist)


def _plane_distances(model, p):
    """Sp(X) from a planar base point, as a 1-D model: the half line when
    the set holds the axis ray [0, inf) x {0} and p lies on it, which puts
    every t >= 0 in Sp(X); every other (model, p) pair raises."""
    u0, v0 = p
    if v0 != 0 or u0 < 0:
        raise UnsupportedGeometryError(
            "plane distance sets need a base point on the nonnegative axis"
        )
    x, y = sm.factors(model) or (None, None)
    if x is not None and is_structural_subset(sm.HALF_LINE, x) \
            and sm.contains(y, 0):
        return sm.HALF_LINE
    raise UnsupportedGeometryError(
        "distance set unsupported for this (model, p) pair"
    )


def _radii(scaling, horizon: int) -> list:
    """The radii r_1..r_horizon."""
    return [scaling.eval(n) for n in range(1, horizon + 1)]


def _scan(probe, t_grid, epsilon, radii) -> list:
    """For each t of the grid, the indices n (ascending) whose window
    ((t-eps)r_n, (t+eps)r_n) meets the probe: one grid_hits call per side
    for every t >= eps."""
    model, mirror, p, dist = probe
    wide = [t for t in t_grid if t >= epsilon]
    if wide:
        # |x - p| lies in (a*r, b*r) when x lies in (p + a*r, p + b*r) or
        # -x lies in (-p + a*r, -p + b*r)
        rows = sm.grid_hits(model, p, wide, epsilon, radii)
        if mirror is not None:
            left = sm.grid_hits(mirror, -p, wide, epsilon, radii)
            rows = [tuple(sorted({*hits, *mirrored}))
                    for hits, mirrored in zip(rows, left)]
        far = dict(zip(wide, rows))
    out = []
    for t in t_grid:
        if t < epsilon:
            # the windows (p - b*r, p + b*r) are nested: one meets the set
            # exactly when b*r exceeds the distance from p to the set
            b = t + epsilon
            out.append(tuple(n for n, r in enumerate(radii, 1)
                             if b * r > dist))
        else:
            out.append(tuple(i + 1 for i in far[t]))
    return out


class SpectrumComparison(NamedTuple):
    rows: tuple  # (t, status_1, status_2, first_divergent_index or None)
    differing_t: tuple


def compare_spectra(model, p, scaling_1, scaling_2, t_grid, epsilon,
                    horizon: int = DEFAULT_HORIZON,
                    persistence: int = DEFAULT_PERSISTENCE) -> SpectrumComparison:
    """Probe both scalings over a t grid and report where verdicts differ.
    The inputs are checked, the probe is built, and each scaling's radii
    r_1..r_horizon are evaluated once and scanned for the whole grid."""
    if persistence < 1:
        raise InputError("persistence must be at least 1")
    t_grid, epsilon, probe = _window_probe(model, p, t_grid, epsilon, horizon)
    radii = (_radii(scaling_1, horizon), _radii(scaling_2, horizon))
    hits = [_scan(probe, t_grid, epsilon, rs) for rs in radii]
    rows = []
    differing = []
    for t, hits_1, hits_2 in zip(t_grid, *hits):
        hits_1, hits_2 = set(hits_1), set(hits_2)
        status_1 = ("present" if len(hits_1) >= persistence
                    else "absent_at_horizon")
        status_2 = ("present" if len(hits_2) >= persistence
                    else "absent_at_horizon")
        divergent = sorted(hits_1 ^ hits_2)
        first_div = divergent[0] if divergent else None
        rows.append((t, status_1, status_2, first_div))
        if status_1 != status_2:
            differing.append(t)
    return SpectrumComparison(tuple(rows), tuple(differing))
