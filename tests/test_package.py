import ast
import importlib
import inspect
import types
from pathlib import Path

import pytest

import periodic_portfolio

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

ROOT_NAMES = {
    "ConstrainedSharpe", "constrained_sharpe", "solve_cone", "verify_kkt",
    "ProblemConfig", "parse_problem_config", "format_problem_config",
    "LogSolution", "solve_log", "value_log",
    "MarketModel", "EvaluationSpec", "check_assumption", "zeta",
    "ObjectiveEstimate", "SimulationConfig", "compare", "estimate_log_objective",
    "estimate_power_objective",
    "TauSearchResult", "optimal_tau", "tau_objective",
    "PowerProblem", "PowerSolution", "fixed_point", "contraction_map", "budget_function",
    "value_function", "intra_period_profile", "marginal_inverse", "moderated_utility",
    "DeflatorLaw", "solve",
}  # fmt: skip


def test_root_exports_exactly_all():
    exported = periodic_portfolio.__all__
    assert len(exported) == len(set(exported))
    missing = [name for name in exported if not hasattr(periodic_portfolio, name)]
    assert missing == []
    public = {
        name
        for name, value in vars(periodic_portfolio).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(exported)
    # the CLI's objects and the paper's: a name joins or leaves the root on purpose
    assert len(ROOT_NAMES) == 33
    assert set(exported) == ROOT_NAMES


# The parameter names of every root callable (a class's are its fields). A
# parameter that every caller sets to one value is a constant instead, so
# one joins or leaves a signature only on purpose.
SIGNATURES = {
    "budget_function": ("p", "a", "y"),
    "check_assumption": ("m", "e", "alpha", "xi_tilde_norm_sq"),
    "compare": ("estimate", "analytic"),
    "constrained_sharpe": ("m",),
    "ConstrainedSharpe": ("xi", "sigma_inv", "pi_tilde_star", "xi_tilde", "kkt_gradient", "objective"),
    "contraction_map": ("p", "a"),
    "DeflatorLaw": ("s", "drift"),
    "estimate_log_objective": ("m", "e", "cs", "x0", "cfg"),
    "estimate_power_objective": ("sol", "p", "x0", "cfg"),
    "EvaluationSpec": ("tau", "gamma", "delta"),
    "fixed_point": ("p",),
    "format_problem_config": ("cfg",),
    "intra_period_profile": ("p", "sol", "t", "z"),
    "LogSolution": (
        "a_star", "c_star", "a_unconstrained", "unconstrained_fractions", "constraint_cost",
    ),
    "marginal_inverse": ("a", "alpha", "gamma", "y"),
    "MarketModel": ("mu", "sigma", "r"),
    "moderated_utility": ("a", "alpha", "gamma", "x"),
    "ObjectiveEstimate": ("mean", "std_error", "truncation_bound"),
    "optimal_tau": ("objective", "cap"),
    "parse_problem_config": ("text",),
    "PowerProblem": ("market", "evaluation", "alpha", "cs"),
    "PowerSolution": (
        "a_star", "y_star", "contraction_modulus", "lower_bound", "upper_bound", "iterations",
        "error_bound", "fraction_scale", "psi_slope",
    ),
    "ProblemConfig": (
        "utility", "mu", "sigma", "r", "tau", "gamma", "delta", "x0", "alpha", "n_paths", "n_periods",
        "seed",
    ),
    "SimulationConfig": ("n_paths", "n_periods", "seed"),
    "solve": ("cfg",),
    "solve_cone": ("xi", "sigma_inv"),
    "solve_log": ("m", "e", "cs"),
    "tau_objective": ("cfg", "scaled"),
    "TauSearchResult": ("condition_holds", "condition_detail", "tau_star", "objective_at_star", "objective_kind"),
    "value_function": ("sol", "x", "alpha", "gamma"),
    "value_log": ("s", "x"),
    "verify_kkt": ("c",),
    "zeta": ("x", "r", "xi_tilde_norm_sq"),
}  # fmt: skip


def test_root_signatures_are_pinned():
    assert set(SIGNATURES) == ROOT_NAMES
    signatures = {
        name: tuple(inspect.signature(getattr(periodic_portfolio, name)).parameters)
        for name in periodic_portfolio.__all__
    }
    assert signatures == SIGNATURES


def package_imports(path: Path):
    """(line, module, names) of every import of the package in a Python file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.startswith("periodic_portfolio"):
            yield node.lineno, node.module, [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("periodic_portfolio"):
                    yield node.lineno, alias.name, []


def resolves(module_name: str, name: str | None = None) -> bool:
    """Whether ``import module_name``, or ``from module_name import name``, would succeed."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return False
    return name is None or hasattr(module, name) or resolves(f"{module_name}.{name}")


@pytest.mark.parametrize(
    "path", sorted(PERFBENCH.rglob("*.py")), ids=lambda p: str(p.relative_to(PERFBENCH))
)
def test_benchmark_imports_resolve(path):
    # the benchmark imports the package inside functions, so a deleted name
    # would only fail there at run time
    unresolved = [
        (line, module, name)
        for line, module, names in package_imports(path)
        for name in names or [None]
        if not resolves(module, name)
    ]
    assert unresolved == []


def test_benchmark_imports_are_found():
    found = {module for path in PERFBENCH.rglob("*.py") for _, module, _ in package_imports(path)}
    assert {"periodic_portfolio.cli", "periodic_portfolio.power", "periodic_portfolio.quadrature"} <= found
