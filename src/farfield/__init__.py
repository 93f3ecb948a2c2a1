"""Exact asymptotic invariants of unbounded metric spaces.

The package models unbounded subsets of the line and plane with exact
rational parameters and computes what they look like from infinitely far
away: porosity at infinity, sphere-defect curves and strong asymptotic
equivalence, distance-set spectra under rescaling, stability graphs of
rescaled sequences with their limit spaces, and the classification of line
subsets up to isometry.
"""

from .errors import (
    GraphConstructionError,
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
    closure_of_subset,
    exists_isometry,
    exists_pseudoisometry,
    is_pseudoisometry,
    make_space,
    metric_identify,
    space_from_json,
    space_from_points,
    space_to_json,
    validate_pseudometric,
    zero_classes,
)
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
    Product2D,
    Ray,
    Reflected,
    SphereSlice,
    WindowStructure,
    ambient_dim,
    contains,
    critical_gap_h_values,
    distance_to_set,
    gap_bound,
    longest_gap,
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
    window_structure,
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
    SpectrumVerdict,
    compare_spectra,
    distance_set,
    spectrum_contains,
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
    ProjectionEntry,
    PushReport,
    SpecDerivedScaling,
    StabilityGraph,
    SubsequenceScaling,
    classify,
    d_r,
    d_up,
    eval_scaling,
    eval_spec,
    in_sequence_set,
    maximal_self_stable,
    pretangent_space,
    project_family_to_subspace,
    scaling_from_dict,
    scaling_from_spec,
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
    HausdorffResult,
    NearestPointMaps,
    SupDistance,
    WitnessFamily,
    build_nearest_point_maps,
    check_eps_net,
    conditional_hausdorff,
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
    next_point_ge,
    prev_point_le,
    scaling_self_similarity,
)

__version__ = "0.1.0"
