"""Tests of a multivariate normal mean against convex cone alternatives.

The package provides exact subset-decomposition test statistics for the
positive-orthant and halfspace alternatives under unknown covariance, metric
cone projections, chi-bar-square null calibration, and a Monte-Carlo power
laboratory.  See the README for the two statistic scales (sample-covariance
vs. chi-square-ratio) used by the statistics and the calibration layer.
"""

from .calibrate import (
    BAYES_WEIGHTED,
    EXACT_HALFSPACE,
    SUP_SIGMA,
    CriticalValue,
    MixtureWeights,
    PriorSpec,
    bayes_critical_value,
    bayes_weights_b1,
    chi_bar_weights,
    exact_halfspace_critical_value,
    marginal_logdensity,
    null_tail,
    p_value,
    sup_critical_value,
)
from .cones import (
    ConeSpec,
    CoordinateHalfspace,
    MetricProjection,
    Orthant,
    Polyhedral,
    ReducedModel,
    dual_cone_contains,
    metric_sq_norm,
    project,
    reduce_model,
)
from .dist import (
    g_ratio_cdf,
    g_ratio_tail,
    g_star_tail,
    student_t_cdf,
    student_t_upper_quantile,
)
from .exceptions import (
    CalibrationError,
    ConditioningError,
    ConeTestError,
    DataError,
    DegenerateVarianceError,
    InsufficientDataError,
    MetricError,
    QuadratureError,
    ReductionError,
    SolverError,
)
from .sample import (
    ConditionalBlock,
    SampleSummary,
    SubsetPartition,
    active_branch_halfspace,
    active_subset_orthant,
    conditional_block,
    summarize,
)
from .stats import (
    FAMILIES,
    FUIT,
    HALFSPACE_FAMILIES,
    LRT_HALFSPACE,
    LRT_ORTHANT,
    ORTHANT_FAMILIES,
    T2,
    UIT_HALFSPACE,
    UIT_ORTHANT,
    FuitReport,
    TestOutcome,
    calibration_scale,
    directional_component,
    fuit,
    hotelling_t2,
    integrated_lr_ratio,
    lrt_halfspace,
    lrt_orthant,
    uit_halfspace,
    uit_orthant,
)

__version__ = "0.2.0"

__all__ = [name for name in dir() if not name.startswith("_")]
