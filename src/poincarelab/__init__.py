"""Growth of Poincare functions of quadratic maps, Siegel-disk preimage
orbits, power-law target sets, and spherical-derivative integrals."""

from .dyncore import (
    Cycle,
    QuadMap,
    find_cycle,
    order_from_multiplier,
    repelling_fixed_point,
)
from .errors import (
    BadParams,
    ContinuationLost,
    CycleCollision,
    InsufficientData,
    NoCertificate,
    NoConvergence,
    NoSignChange,
    NotFound,
    NotRepelling,
    OutOfDomain,
    OutOfSafeRadius,
    OverflowSentinel,
    PoincareLabError,
    ResonantAngle,
)
from .series import (
    TruncatedSeries,
    make_series,
    series_derivative,
    series_eval,
    series_to_json,
)
from .siegel import (
    RotationAngle,
    SiegelMap,
    build_cycle_siegel_map,
    build_siegel_map,
    h_eval,
    h_inverse,
    p_inverse_on_disk,
    siegel_radius_estimate,
    sub_siegel_sample,
)
from .poincare import (
    PoincareMap,
    build_poincare_map,
    check_functional_equation,
    order_estimate,
    poincare_coefficients,
    poincare_eval,
    poincare_eval_many,
)
from .sets import (
    SetModel,
    certified_bound,
    density_estimate,
    make_empty_set,
    make_powerlaw_set,
    make_sector_set,
)
from .preimage import (
    InverseBranch,
    PreimageReport,
    argument_principle_count,
    build_preimage_report,
    find_base_preimage,
    orbit_preimages,
    verify_orbit_point,
)
from .exceptional import (
    ExceptionalReport,
    exceptional_survey,
    log_growth_table,
)
from .littlewood import (
    IntegralEstimate,
    cs_bound,
    disk_integral,
    exponent_fit,
    iterate_evaluator,
    iterate_family_integrals,
    monomial_evaluator,
    monomial_integral_oracle,
)
from .chebfamily import (
    FamilyReport,
    family_angle,
    family_report,
    find_multiplier_param,
    find_superattracting,
    repelling_fixed_data,
)

__version__ = "0.1.0"

__all__ = [
    "BadParams", "ContinuationLost", "Cycle", "CycleCollision",
    "ExceptionalReport", "FamilyReport", "InsufficientData",
    "IntegralEstimate", "InverseBranch", "NoCertificate", "NoConvergence",
    "NoSignChange", "NotFound", "NotRepelling", "OutOfDomain",
    "OutOfSafeRadius", "OverflowSentinel", "PoincareLabError", "PoincareMap",
    "PreimageReport", "QuadMap", "ResonantAngle", "RotationAngle", "SetModel",
    "SiegelMap", "TruncatedSeries", "argument_principle_count",
    "build_cycle_siegel_map", "build_poincare_map", "build_preimage_report",
    "build_siegel_map", "certified_bound", "check_functional_equation",
    "cs_bound", "density_estimate", "disk_integral", "exceptional_survey",
    "exponent_fit", "family_angle", "family_report", "find_base_preimage",
    "find_cycle", "find_multiplier_param", "find_superattracting", "h_eval",
    "h_inverse", "iterate_evaluator", "iterate_family_integrals",
    "log_growth_table", "make_empty_set", "make_powerlaw_set",
    "make_sector_set", "make_series", "monomial_evaluator",
    "monomial_integral_oracle", "orbit_preimages", "order_estimate",
    "order_from_multiplier", "p_inverse_on_disk", "poincare_coefficients",
    "poincare_eval", "poincare_eval_many", "repelling_fixed_data",
    "repelling_fixed_point", "series_derivative", "series_eval",
    "series_to_json", "siegel_radius_estimate", "sub_siegel_sample",
    "verify_orbit_point",
]
