"""Pool-based active nearest-neighbor learning with adaptive label inference,
plus a synthetic laboratory that makes its working assumptions executable."""

__version__ = "0.1.0"

from .core import (ActiveRecord, ActiveSet, ConfidentOutcome, EmptyActiveSet,
                   RunTrace, confident_label, one_nn_label_batch, run_kalls)
from .estimation import BerEstResult, ber_est, g_factor
from .evaluate import (ComparisonTable, RiskEstimate, compare, default_passive_k,
                       excess_risk, passive_knn)
from .pool import BudgetExhausted, LabelOracle, NeighborList, Pool, k_nearest
from .synth import (FAMILIES, AssumptionReport, SyntheticProblem, check_doubling,
                    check_margin, check_smoothness, make_problem)
from .thresholds import (INFEASIBLE_BUDGET, DoublingParams, FeasibilityReport,
                         KallsConfig, MarginParams, SmoothnessParams,
                         adaptive_budget_bound, confidence_radius,
                         feasibility_report, label_budget_k, margin_delta,
                         per_point_delta, phi_n)

__all__ = [
    "__version__",
    "ActiveRecord", "ActiveSet", "ConfidentOutcome", "EmptyActiveSet", "RunTrace",
    "confident_label", "one_nn_label_batch", "run_kalls",
    "BerEstResult", "ber_est", "g_factor",
    "ComparisonTable", "RiskEstimate", "compare", "default_passive_k",
    "excess_risk", "passive_knn",
    "BudgetExhausted", "LabelOracle", "NeighborList", "Pool", "k_nearest",
    "FAMILIES", "AssumptionReport", "SyntheticProblem", "check_doubling",
    "check_margin", "check_smoothness", "make_problem",
    "INFEASIBLE_BUDGET", "DoublingParams", "FeasibilityReport", "KallsConfig",
    "MarginParams", "SmoothnessParams", "adaptive_budget_bound",
    "confidence_radius", "feasibility_report", "label_budget_k", "margin_delta",
    "per_point_delta", "phi_n",
]
