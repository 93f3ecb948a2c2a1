"""Distance sets and rescaled spectrum probes.

Sp(X) from a base point p is {d(x, p) : x in X}. A scaled window probe asks
whether ((t-eps)*r_n, (t+eps)*r_n) meets Sp(X) for at least `persistence`
indices n up to a horizon; a point can only be declared present, or absent
at the probed horizon, never absent outright.

The window check never materializes Sp(X): a distance |x - p| lands in the
open interval (lo, hi) exactly when x lands in (p + lo, p + hi) or
(p - hi, p - lo), which the set models decide exactly. distance_set itself
returns a structured model and supports a deliberately small (model, p)
matrix; everything else raises rather than approximating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, UnsupportedGeometryError
from .rationals import rat
from . import setmodels as sm

DEFAULT_PERSISTENCE = 10
DEFAULT_HORIZON = 50


# ---------------------------------------------------------------------------
# Distance sets


def distance_set(model, p):
    """Sp(X) as a structured model, for the supported (model, p) pairs."""
    dim = sm.ambient_dim(model)
    p = sm.as_rat_point(p)
    if sm.point_dim(p) != dim:
        raise InputError("base point dimension mismatch")
    if dim == 1:
        return _distance_set_line(model, p)
    return _distance_set_plane(model, p)


def _distance_set_line(model, p):
    if p == 0 and sm.is_nonnegative_model(model):
        return model
    if isinstance(model, sm.FullLine):
        return sm.Ray(Fraction(0), 1)
    if isinstance(model, sm.Ray):
        if model.direction == 1:
            gap = model.origin - p
        else:
            gap = p - model.origin
        return sm.Ray(max(Fraction(0), gap), 1)
    if isinstance(model, sm.Lattice):
        return _lattice_distance_set(model, p)
    if isinstance(model, sm.FiniteUnion):
        return sm.FiniteUnion(tuple(_distance_set_line(part, p)
                                    for part in model.parts))
    if isinstance(model, sm.FiniteModification) and not model.removed:
        base = _distance_set_line(model.base, p)
        return sm.FiniteModification(base,
                                     tuple(abs(a - p) for a in model.added),
                                     ())
    raise UnsupportedGeometryError(
        "distance set unsupported for this (model, p) pair"
    )


def _lattice_distance_set(model: sm.Lattice, p):
    step, beta = model.step, model.offset
    if model.half == "full":
        delta = (beta - p) % step  # distance up to the next point above p
        if delta == 0:
            return sm.Lattice(step, Fraction(0), "plus")
        return sm.FiniteUnion((
            sm.Lattice(step, delta, "plus"),
            sm.Lattice(step, step - delta, "plus"),
        ))
    if model.half == "plus":
        if p <= beta:
            return sm.Lattice(step, beta - p, "plus")
        k_max = math.floor((p - beta) / step)
        if k_max > 10_000:
            raise UnsupportedGeometryError("too many points below base point")
        below = tuple(p - (beta + step * k) for k in range(0, k_max + 1))
        delta = (beta - p) % step
        up = sm.Lattice(step, delta, "plus")
        return sm.FiniteModification(up, below, ())
    raise UnsupportedGeometryError("distance set for descending lattices")


def _distance_set_plane(model, p):
    u0, v0 = p
    if v0 != 0 or u0 < 0:
        raise UnsupportedGeometryError(
            "plane distance sets need a base point on the nonnegative axis"
        )
    if isinstance(model, sm.HalfPlaneStrip):
        # the axis ray beyond p lies inside the strip, so every t >= 0 occurs
        return sm.Ray(Fraction(0), 1)
    if isinstance(model, sm.PlanarRay):
        return sm.Ray(Fraction(0), 1)
    raise UnsupportedGeometryError(
        "distance set unsupported for this (model, p) pair"
    )


# ---------------------------------------------------------------------------
# Window probes


@dataclass(frozen=True)
class SpectrumVerdict:
    status: str  # present | absent_at_horizon
    t: Fraction
    hits: tuple  # indices n with a window hit
    horizon: int
    persistence: int


def window_hits(model, p, t, epsilon, scaling, horizon: int) -> tuple:
    """Indices n (1-based) whose window ((t-eps)r_n, (t+eps)r_n) meets Sp."""
    t, epsilon, probe = _window_probe(model, p, t, epsilon, horizon)
    return _scan(probe, t, epsilon, _radii(scaling, horizon))


def _window_probe(model, p, t, epsilon, horizon: int):
    """Checked (t, eps, probe) for a window scan. The probe is a 1-D model,
    the base point its distances are measured from, and whether the set
    sits on one side of that point (p = 0 and a nonnegative set), so the
    mirrored window left of p cannot hit."""
    t, epsilon = rat(t), rat(epsilon)
    if t < 0:
        raise InputError("spectrum point t must be nonnegative")
    if epsilon <= 0:
        raise InputError("window half-width must be positive")
    if horizon < 1:
        raise InputError("horizon must be at least 1")
    dim = sm.ambient_dim(model)
    p = sm.as_rat_point(p)
    if dim == 2:
        model = distance_set(model, p)  # 1-D set of distances
        p = Fraction(0)
    one_sided = p == 0 and sm.is_nonnegative_model(model)
    return t, epsilon, (model, p, one_sided)


def _radii(scaling, horizon: int) -> list:
    return [scaling.eval(n) for n in range(1, horizon + 1)]


def _scan(probe, t, epsilon, radii) -> tuple:
    """Indices n whose window ((t-eps)r_n, (t+eps)r_n) meets the probe."""
    model, p, one_sided = probe
    hits = []
    for n, r in enumerate(radii, 1):
        lo, hi = (t - epsilon) * r, (t + epsilon) * r
        if hi <= 0:
            continue
        if lo < 0:
            hit = sm.intersects_open_interval(model, p - hi, p + hi)
        else:
            hit = (sm.intersects_open_interval(model, p + lo, p + hi)
                   or (not one_sided
                       and sm.intersects_open_interval(model, p - hi, p - lo)))
        if hit:
            hits.append(n)
    return tuple(hits)


def spectrum_contains(model, p, t, epsilon, scaling,
                      horizon: int = DEFAULT_HORIZON,
                      persistence: int = DEFAULT_PERSISTENCE) -> SpectrumVerdict:
    """Window-evidence verdict for t in the rescaled spectrum."""
    if persistence < 1:
        raise InputError("persistence must be at least 1")
    hits = window_hits(model, p, t, epsilon, scaling, horizon)
    status = "present" if len(hits) >= persistence else "absent_at_horizon"
    return SpectrumVerdict(status, rat(t), hits, horizon, persistence)


@dataclass(frozen=True)
class SpectrumComparison:
    rows: tuple  # (t, status_1, status_2, first_divergent_index or None)
    differing_t: tuple


def compare_spectra(model, p, scaling_1, scaling_2, t_grid, epsilon,
                    horizon: int = DEFAULT_HORIZON,
                    persistence: int = DEFAULT_PERSISTENCE) -> SpectrumComparison:
    """Probe both scalings over a t grid and report where verdicts differ.
    Each scaling's radii r_1..r_horizon are evaluated once for the grid."""
    rows = []
    differing = []
    radii = None
    for t in t_grid:
        t, epsilon, probe = _window_probe(model, p, t, epsilon, horizon)
        if radii is None:
            radii = (_radii(scaling_1, horizon), _radii(scaling_2, horizon))
        hits_1 = set(_scan(probe, t, epsilon, radii[0]))
        hits_2 = set(_scan(probe, t, epsilon, radii[1]))
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
