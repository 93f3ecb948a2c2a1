"""Porosity of a set at infinity.

For E inside [0, inf) the quantity is the limsup over h -> infinity of
l(h)/h, where l(h) is the longest open interval in [0, h] \\ E. Structured
variants get exact closed forms:

* bounded-gap models (rays from a finite origin, half lattices, periodic
  block patterns, and their finite modifications / unions containing one)
  have l(h) bounded, so the value is exactly 0;
* a set with a dilation x -> rho*x on [0, inf) (the factor rho of its
  `setmodels.frames` there: GeometricPoints, GeometricBlocks, and their
  commensurable unions and finite modifications) repeats its gaps past
  the reach, scaled by rho, in every log period, and l(h)/h peaks at the
  right end h = g2 of a gap (g1, g2): the value is the largest
  (g2 - g1)/g2 over one log period, read off the component cursor. For a
  geometric run (q, a, b, n0), the blocks [a*q**n, b*q**n]
  (`setmodels.GEOMETRIC`), it is 1 - b/(a*q) for both kinds:
  GeometricBlocks(q, a, b), and GeometricPoints(q, c, n0) with
  a = b = c, which gives 1 - 1/q.

Everything else gets a finite-horizon estimator: the exact sup of l(h)/h
over a geometric h-grid (quarter-dyadic rational stand-ins) with the
structurally critical horizons injected: the component starts inside the
grid of the geometric leaves that `setmodels.leaves` reads off a union and
modification tree. The estimator reports the probed
sup only; it never certifies nonporosity, and it is meaningful as a limsup
proxy once the horizon dwarfs the model's structural scale.

The grid is probed in one `setmodels.longest_gaps` call. A geometric run
answers each horizon by its one closed form. A union or modification of
geometric runs and finite points is seeded at the first horizon: a
descending cursor from there gives its longest gap, stopping once no
lower gap can win, and the walk then ascends across the sorted grid with
the running longest gap and right end. Any other model is walked
ascending from 0, only up to two periods past its reach when it has a
period, and only until its longest gap meets its gap bound when it has
one. Where GeometricBlocks accumulates at 0, l(h) counts only the gaps
above the truncation scale trunc(h) < h/2**20, and a horizon whose longest
gap is shorter than trunc(h) raises UnsupportedGeometryError. The grid
itself is the ascending quarter-dyadic horizons merged with the
ascending critical ones, no set built.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from typing import NamedTuple

from .errors import InputError, UnsupportedGeometryError
from .rationals import rat
from . import setmodels as sm

DEFAULT_HORIZON_EXPONENT = 240  # quarter powers of 2: h up to 2**60
GRID_FLOOR_EXPONENT = 160       # fixed lower edge 2**40 keeps monotonicity
_QUARTER_FACTORS = (Fraction(1), Fraction(119, 100),
                    Fraction(141, 100), Fraction(168, 100))


class PorosityResult(NamedTuple):
    value: Fraction
    kind: str  # exact | horizon_estimate
    witness_h: tuple
    trace: tuple  # rows (h, gap_length, ratio), exact rationals
    notes: str = ""


class PorosityVerdict(NamedTuple):
    status: str  # porous | nonporous_certified | inconclusive_at_horizon
    witness_h: object = None
    witness_ratio: object = None
    result: PorosityResult = None


def _exact_closed_form(model):
    """(value, note) for variants with a closed form, else None."""
    frame = sm.frames(model)[1]
    if frame.gap is not None:
        return Fraction(0), f"all gaps bounded by {frame.gap}"
    got = sm.log_period_gaps(model, frame)
    if got is None:
        return None
    # l(h)/h peaks at the right end h = g2 of a gap past the reach
    return (max(((g2 - g1) / g2 for g1, g2 in got[1]), default=Fraction(0)),
            "largest relative gap over one log period of the dilation")


def _grid(model, horizon_exponent: int):
    """The quarter-dyadic horizons (ascending) merged with the critical
    ones (ascending), equal neighbours dropped."""
    j_lo = min(GRID_FLOOR_EXPONENT, horizon_exponent)
    hs = [Fraction(2) ** (j // 4) * _QUARTER_FACTORS[j % 4]
          for j in range(j_lo, horizon_exponent + 1)]
    critical = sm.critical_gap_h_values(model, hs[0], hs[-1])
    return [h for h, _ in itertools.groupby(heapq.merge(hs, critical))]


def _probe(model, horizon_exponent: int):
    if horizon_exponent < 4:
        raise InputError("horizon exponent too small")
    if not sm.is_nonnegative_model(model):
        raise InputError("porosity needs a model inside [0, inf)")
    trace = []
    best = Fraction(0)
    witness = []
    hs = _grid(model, horizon_exponent)
    for h, gap in zip(hs, sm.longest_gaps(model, hs)):
        ratio = gap / h
        trace.append((h, gap, ratio))
        if ratio > best:
            best = ratio
            witness = [h]
        elif ratio == best and len(witness) < 8:
            witness.append(h)
    return best, tuple(witness), tuple(trace)


def horizon_estimate(model, horizon_exponent: int = DEFAULT_HORIZON_EXPONENT) -> PorosityResult:
    """Probed sup of l(h)/h over the h-grid, always reported as an estimate."""
    best, witness, trace = _probe(model, horizon_exponent)
    return PorosityResult(best, "horizon_estimate", witness, trace,
                          "probed sup; lower evidence for the limsup")


def porosity_at_infinity(model, horizon_exponent: int = DEFAULT_HORIZON_EXPONENT) -> PorosityResult:
    """Exact value when the variant has a closed form, else the probed sup."""
    closed = _exact_closed_form(model) if sm.is_nonnegative_model(model) else None
    try:
        best, witness, trace = _probe(model, horizon_exponent)
    except UnsupportedGeometryError as exc:
        if closed is None or closed[0] != 0:
            raise
        # a gap bound certifies the value without the probe's evidence
        return PorosityResult(closed[0], "exact", (), (),
                              f"{closed[1]}; grid probe skipped: {exc}")
    if closed is not None:
        value, note = closed
        return PorosityResult(value, "exact", witness, trace, note)
    return PorosityResult(best, "horizon_estimate", witness, trace,
                          "probed sup; lower evidence for the limsup")


def is_porous_at_infinity(model, threshold=Fraction(1, 100),
                          horizon_exponent: int = DEFAULT_HORIZON_EXPONENT) -> PorosityVerdict:
    """Porous needs a concrete witness ratio; nonporosity needs a gap-bound
    certificate. Numeric evidence alone never claims porosity zero."""
    threshold = rat(threshold)
    result = porosity_at_infinity(model, horizon_exponent)
    if result.kind == "exact":
        if result.value == 0:
            return PorosityVerdict("nonporous_certified", result=result)
        h, gap, ratio = max(result.trace, key=lambda row: (row[2], row[0]))
        return PorosityVerdict("porous", witness_h=h, witness_ratio=ratio,
                               result=result)
    hits = [(h, r) for h, _, r in result.trace if r >= threshold]
    if hits:
        h, ratio = max(hits, key=lambda x: x[1])
        return PorosityVerdict("porous", witness_h=h, witness_ratio=ratio,
                               result=result)
    return PorosityVerdict("inconclusive_at_horizon", result=result)
