"""Optimal portfolios under ratio-type periodic evaluation, no short selling.

Analytic solvers for power and logarithmic utilities, an independent Monte
Carlo verification engine, and optimal-period-length analysis, behind both a
library API and the ``periodic-portfolio`` command line.
"""

from .cone import ConstrainedSharpe, constrained_sharpe, solve_cone, verify_kkt
from .config import ProblemConfig, format_problem_config, parse_problem_config
from .logutil import LogSolution, solve_log, value_log
from .market import EvaluationSpec, MarketModel, check_assumption, zeta
from .mc import (
    ObjectiveEstimate,
    SimulationConfig,
    compare,
    estimate_log_objective,
    estimate_power_objective,
)
from .periodicity import TauSearchResult, optimal_tau, tau_objective
from .power import (
    PowerProblem,
    PowerSolution,
    budget_function,
    contraction_map,
    fixed_point,
    intra_period_profile,
    marginal_inverse,
    value_function,
)
from .quadrature import DeflatorLaw
from .report import solve

__version__ = "0.1.0"

__all__ = [
    "ConstrainedSharpe",
    "DeflatorLaw",
    "EvaluationSpec",
    "LogSolution",
    "MarketModel",
    "ObjectiveEstimate",
    "PowerProblem",
    "PowerSolution",
    "ProblemConfig",
    "SimulationConfig",
    "TauSearchResult",
    "budget_function",
    "check_assumption",
    "compare",
    "constrained_sharpe",
    "contraction_map",
    "estimate_log_objective",
    "estimate_power_objective",
    "fixed_point",
    "format_problem_config",
    "intra_period_profile",
    "marginal_inverse",
    "optimal_tau",
    "parse_problem_config",
    "solve_cone",
    "solve",
    "solve_log",
    "tau_objective",
    "value_function",
    "value_log",
    "verify_kkt",
    "zeta",
]
