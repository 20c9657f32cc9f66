"""Finite-n laboratory for scaled extremes and sums across deviation regimes.

Five families of scaled statistics (normalized Gaussian sums, sample
minima, maxima under Gumbel-domain power tails, coupon collection times,
and a replacement lifetime model) share one interface: exact log-domain
tail evaluators, large/moderate deviation rate functions, weak limits,
and one panel sampler per family, count_hits. On top of that sit
admissible-scaling validation, deterministic counter-based Monte Carlo,
and convergence probes that turn finite-n behavior into
pass/fail/inconclusive verdicts.
"""

from .distributions import (
    Distribution,
    SpecParseError,
    exponential,
    gamma,
    isf_values,
    logistic,
    lognormal,
    parse_dist_spec,
    quantile_values,
    render_dist_spec,
    std_normal,
    uniform01,
    weibull,
)
from .rvtoolkit import (
    GumbelMdaProfile,
    LemmaBattery,
    LemmaCheck,
    MdaViolationError,
    characteristic_level,
    declared_profile,
    default_tail_grid,
    ell_probe,
    estimate_rv_index,
    hn_trend,
    lemma_battery,
    normalizing_rate,
)
from .families import (
    CouponBounds,
    FamilySpec,
    RateFunction,
    ReplacementParams,
    coupon_cdf_dp,
    coupon_cdf_inclusion_exclusion,
    coupon_tail_bounds,
    coupon_threshold_pair,
    make_classical_sums,
    make_coupon,
    make_gumbel_maxima,
    make_minima,
    make_replacement,
    parse_family_spec,
    power_tail_rate,
    rate_grid_violations,
    render_family_spec,
    shift_rate,
)
from .scalings import (
    BoundaryRegime,
    ScalingFamily,
    ScalingRejectedError,
    ScalingReport,
    boundary_regimes,
    evaluate,
    logpower_scaling,
    parse_scaling_spec,
    power_scaling,
    render_scaling_spec,
    table_scaling,
    validate,
)
from .estimators import (
    McEstimate,
    UniformPanel,
    counter_uniforms,
    mc_log_tail,
    stable_log_complement,
)
from .diagnostics import (
    CSV_COLUMNS,
    DEFAULT_TOL_FACTOR,
    ConvergenceReport,
    Row,
    SlopeIdentityReport,
    default_weak_grid,
    evaluate_verdict,
    ldp_probe,
    md_probe,
    read_json,
    render_svg,
    slope_identity_check,
    weak_probe,
    weak_sup_distances,
    write_csv,
    write_json,
    write_svg,
)
from .cli import RunConfig, main

__version__ = "0.1.0"

__all__ = [
    "Distribution", "SpecParseError", "exponential", "uniform01", "weibull",
    "gamma", "std_normal", "logistic", "lognormal", "parse_dist_spec",
    "render_dist_spec", "quantile_values", "isf_values",
    "GumbelMdaProfile", "MdaViolationError", "declared_profile",
    "characteristic_level", "default_tail_grid", "ell_probe",
    "estimate_rv_index", "hn_trend", "normalizing_rate",
    "LemmaCheck", "LemmaBattery", "lemma_battery",
    "FamilySpec", "RateFunction", "ReplacementParams", "CouponBounds",
    "make_classical_sums", "make_minima", "make_gumbel_maxima",
    "make_coupon", "make_replacement", "parse_family_spec",
    "render_family_spec", "shift_rate", "power_tail_rate", "rate_grid_violations",
    "coupon_cdf_dp", "coupon_cdf_inclusion_exclusion", "coupon_tail_bounds",
    "coupon_threshold_pair",
    "ScalingFamily", "ScalingRejectedError", "ScalingReport",
    "BoundaryRegime", "power_scaling", "logpower_scaling", "table_scaling",
    "parse_scaling_spec", "render_scaling_spec", "evaluate", "validate",
    "boundary_regimes",
    "McEstimate", "UniformPanel", "counter_uniforms",
    "mc_log_tail", "stable_log_complement",
    "Row", "ConvergenceReport", "CSV_COLUMNS", "DEFAULT_TOL_FACTOR",
    "ldp_probe", "md_probe", "weak_probe", "default_weak_grid",
    "weak_sup_distances", "evaluate_verdict", "slope_identity_check",
    "SlopeIdentityReport", "write_csv", "write_json", "read_json",
    "render_svg", "write_svg",
    "RunConfig", "main",
]
