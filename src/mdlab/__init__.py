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

from types import ModuleType as _ModuleType

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
    stable_log_complement,
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
    FamilySpec,
    RateFunction,
    coupon_threshold_pair,
    make_classical_sums,
    make_coupon,
    make_gumbel_maxima,
    make_minima,
    make_replacement,
    parse_family_spec,
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

# every public name imported above, and no submodule
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
