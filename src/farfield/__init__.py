"""Exact asymptotic invariants of unbounded metric spaces.

The package models unbounded subsets of the line and plane with exact
rational parameters and computes what they look like from infinitely far
away: porosity at infinity, sphere-defect curves and strong asymptotic
equivalence, distance-set spectra under rescaling, stability graphs of
rescaled sequences with their limit spaces, and the classification of line
subsets up to isometry.
"""

from .errors import (
    InputError,
    InternalInvariantError,
    SearchBudgetExceeded,
    UnsupportedGeometryError,
    WindowTooSmallError,
)
from .rationals import dec, fmt, rat
from .pseudometric import (
    FinitePseudometricSpace,
    QuotientMetricSpace,
    ValidationReport,
    exists_isometry,
    exists_pseudoisometry,
    is_pseudoisometry,
    make_space,
    metric_identify,
    space_from_json,
    space_to_json,
    validate_pseudometric,
    zero_classes,
)
from .setmodels import (
    FiniteModification,
    FiniteUnion,
    Frame,
    FullLine,
    GeometricBlocks,
    GeometricPoints,
    HalfPlaneStrip,
    Lattice,
    PeriodicBlocks,
    PlanarRay,
    Product2D,
    Ray,
    Reflected,
    SphereSlice,
    ambient_dim,
    contains,
    critical_gap_h_values,
    distance_to_set,
    frames,
    longest_gap,
    longest_gaps,
    max_element,
    min_element,
    model_from_dict,
    model_from_json,
    model_to_dict,
    model_to_json,
    nearest_point,
    required_window,
    scale_model,
    sphere_slice,
)
from .porosity import (
    PorosityResult,
    PorosityVerdict,
    horizon_estimate,
    is_porous_at_infinity,
    porosity_at_infinity,
)
from .spectra import (
    SpectrumComparison,
    compare_spectra,
    distance_set,
    window_hits,
)
from .seqlab import (
    AffineSpec,
    ClosedFormSpec,
    GeometricScaling,
    InSetSpec,
    InterleaveScaling,
    LimitResult,
    PhaseForm,
    PolynomialScaling,
    PretangentReport,
    ProbeOutcome,
    PushReport,
    StabilityGraph,
    SubsequenceScaling,
    classify,
    d_r,
    eval_spec,
    maximal_self_stable,
    pretangent_space,
    scaling_from_dict,
    scaling_to_dict,
    spec_from_dict,
    spec_to_dict,
    stability_graph,
    subsequence_push,
    tangency_probe,
    tilde_d,
)
from .equivalence import (
    EpsilonCurve,
    EquivalenceVerdict,
    EpsNetVerdict,
    SupDistance,
    WitnessFamily,
    check_eps_net,
    decide_strong_equivalence,
    epsilon_curve,
    epsilon_t,
    is_structural_subset,
    sup_distance,
)
from .line import (
    ComponentReport,
    LineClassification,
    LineIsometryVerdict,
    ScalingVerdict,
    classify_line_subspace,
    complement_components,
    line_isometry_test,
    scaling_self_similarity,
)

__version__ = "0.1.0"
