"""Result records are named tuples.

Each record has a fixed field order and defaults, for positional and
keyword construction alike; equal records hash equal; no field can be
assigned; the reprs read `Name(field=value, ...)`. A sphere slice is a
record too, and `epsilon_t` reads it as a slice.
"""

from fractions import Fraction as F

import pytest

from farfield import equivalence, line, porosity, pseudometric, seqlab
from farfield import setmodels, spectra
from farfield.setmodels import HalfPlaneStrip, PlanarRay, SphereSlice

# (record, its fields in order, the defaults of the trailing ones)
RECORDS = [
    (equivalence.SupDistance, ("kind", "value"), {"value": None}),
    (equivalence.EpsilonCurve, ("samples",), {}),
    (equivalence.EquivalenceVerdict,
     ("status", "bound", "witness", "max_ratio", "note"),
     {"bound": None, "witness": None, "max_ratio": None, "note": ""}),
    (equivalence.EpsNetVerdict,
     ("status", "epsilon", "point", "distance", "from_side", "note"),
     {"point": None, "distance": None, "from_side": "", "note": ""}),
    (line.ComponentReport,
     ("window", "bounded", "unbounded", "punctures", "truncated_below"),
     {"truncated_below": None}),
    (line.LineIsometryVerdict,
     ("status", "eps", "shift", "statistic", "witness"),
     {"eps": None, "shift": None, "statistic": "", "witness": None}),
    (line.ScalingVerdict, ("status", "k", "witness", "witness_kind", "note"),
     {"witness": None, "witness_kind": None, "note": ""}),
    (line.LineClassification, ("status", "k", "witness", "note"),
     {"k": None, "witness": None, "note": ""}),
    (porosity.PorosityResult, ("value", "kind", "witness_h", "trace",
                               "notes"), {"notes": ""}),
    (porosity.PorosityVerdict,
     ("status", "witness_h", "witness_ratio", "result"),
     {"witness_h": None, "witness_ratio": None, "result": None}),
    (pseudometric.ValidationReport, ("ok", "violations"), {}),
    (pseudometric.QuotientMetricSpace, ("space", "blocks", "projection"), {}),
    (seqlab.PhaseForm, ("even", "odd", "status", "note"), {"note": ""}),
    (seqlab.LimitResult, ("status", "value", "clusters", "note"),
     {"value": None, "clusters": (), "note": ""}),
    (seqlab.StabilityGraph, ("labels", "specs", "scaling", "tilde", "edges",
                             "forms", "limits", "pairs"), {}),
    (seqlab.PretangentReport, ("space", "distinguished", "member_blocks"),
     {}),
    (seqlab.PushReport, ("stride", "offset", "scaling", "family", "checks"),
     {}),
    (seqlab.ProbeOutcome, ("stride", "offset", "status", "witness",
                           "detail"), {"witness": None, "detail": ""}),
    (setmodels.Codec, ("read", "write", "scale"), {"scale": None}),
    (setmodels.SphereSlice, ("kind", "points", "v_lo", "v_hi"),
     {"points": (), "v_lo": F(0), "v_hi": F(0)}),
    (spectra.SpectrumComparison, ("rows", "differing_t"), {}),
]


def _required(names, defaults):
    # a distinct hashable value per required field (a projection is a dict
    # in use, which no record of it could hash, before or now)
    return {name: (i, name) for i, name in enumerate(names)
            if name not in defaults}


def test_every_result_record_is_listed_once():
    assert len({cls for cls, _, _ in RECORDS}) == len(RECORDS) == 21


@pytest.mark.parametrize("cls, names, defaults", RECORDS,
                         ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_records_construct_compare_and_stay_frozen(cls, names, defaults):
    assert cls._fields == names
    required = _required(names, defaults)
    record = cls(**required)
    assert record._asdict() == {**required, **defaults}
    assert tuple(record) == tuple(cls(*(
        required.get(name, defaults.get(name)) for name in names)))
    twin = cls(**required)
    assert twin == record and hash(twin) == hash(record)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, 1)


def test_record_reprs_read_as_before():
    assert repr(porosity.PorosityResult(F(1, 2), "exact", (F(4),), ())) == (
        "PorosityResult(value=Fraction(1, 2), kind='exact', "
        "witness_h=(Fraction(4, 1),), trace=(), notes='')")
    assert repr(seqlab.LimitResult("no_limit", clusters=(
        ("even", F(0)), ("odd", F(2))), note="split")) == (
        "LimitResult(status='no_limit', value=None, clusters=(('even', "
        "Fraction(0, 1)), ('odd', Fraction(2, 1))), note='split')")


STRIP = HalfPlaneStrip(F(-1), F(1))
BASE = (F(0), F(0))


def test_sphere_slices_take_the_slice_branch(count_calls):
    # a slice is a tuple too, and each side of eps(t) reads its own slice
    calls = count_calls(equivalence, "_slice_sup")
    arc = setmodels.sphere_slice(STRIP, BASE, F(3))
    axis = setmodels.sphere_slice(PlanarRay(), BASE, F(3))
    assert (arc.kind, axis.kind) == ("arc", "points")
    assert equivalence.epsilon_t(PlanarRay(), STRIP, BASE, F(3)) == (1, 0)
    assert calls["_slice_sup"] == 2
    # an empty slice sups to 0
    assert equivalence._slice_sup(SphereSlice("points"), STRIP, {}) == 0
    assert calls["_slice_sup"] == 3
