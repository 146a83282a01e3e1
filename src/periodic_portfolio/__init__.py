"""Optimal portfolios under ratio-type periodic evaluation, no short selling.

Analytic solvers for power and logarithmic utilities, an independent Monte
Carlo verification engine, and optimal-period-length analysis, behind both a
library API and the ``periodic-portfolio`` command line.
"""

from .cone import ConstrainedSharpe, constrained_sharpe, solve_cone, verify_kkt
from .config import (
    ProblemConfig,
    format_problem_config,
    parse_problem_config,
)
from .logutil import (
    LogSolution,
    constraint_cost,
    dual_value_log,
    solve_log,
    value_log,
)
from .market import (
    EvaluationSpec,
    MarketModel,
    WellPosednessReport,
    check_assumption,
    sharpe_ratio,
    validate_market,
    zeta,
)
from .mc import (
    ObjectiveEstimate,
    SimulationConfig,
    compare,
    estimate_h_expectation,
    estimate_log_objective,
    estimate_power_objective,
    simulate_deflator_ratios,
)
from .periodicity import TauSearchResult, optimal_tau, tau_objective
from .power import (
    PowerProblem,
    PowerSolution,
    budget_function,
    contraction_map,
    dual_value,
    fixed_point,
    intra_period_profile,
    legendre_transform,
    marginal_inverse,
    moderated_marginal,
    moderated_utility,
    moderated_value,
    solve_y_star,
    value_function,
)
from .quadrature import (
    DeflatorLaw,
    GaussHermiteRule,
    expect_deflator,
    expect_deflator_adaptive,
    make_rule,
)
from .report import solve

__version__ = "0.1.0"

__all__ = [
    "ConstrainedSharpe",
    "DeflatorLaw",
    "EvaluationSpec",
    "GaussHermiteRule",
    "LogSolution",
    "MarketModel",
    "ObjectiveEstimate",
    "PowerProblem",
    "PowerSolution",
    "ProblemConfig",
    "SimulationConfig",
    "TauSearchResult",
    "WellPosednessReport",
    "budget_function",
    "check_assumption",
    "compare",
    "constrained_sharpe",
    "constraint_cost",
    "contraction_map",
    "dual_value",
    "dual_value_log",
    "estimate_h_expectation",
    "estimate_log_objective",
    "estimate_power_objective",
    "expect_deflator",
    "expect_deflator_adaptive",
    "fixed_point",
    "format_problem_config",
    "intra_period_profile",
    "legendre_transform",
    "make_rule",
    "marginal_inverse",
    "moderated_marginal",
    "moderated_utility",
    "moderated_value",
    "optimal_tau",
    "parse_problem_config",
    "sharpe_ratio",
    "simulate_deflator_ratios",
    "solve_cone",
    "solve",
    "solve_log",
    "solve_y_star",
    "tau_objective",
    "validate_market",
    "value_function",
    "value_log",
    "verify_kkt",
    "zeta",
]
