import ast
import importlib
import types
from pathlib import Path

import pytest

import periodic_portfolio

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

ROOT_NAMES = {
    "ConstrainedSharpe", "constrained_sharpe", "solve_cone", "verify_kkt",
    "ProblemConfig", "parse_problem_config", "format_problem_config",
    "LogSolution", "solve_log", "value_log", "constraint_cost",
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
    assert len(ROOT_NAMES) == 34
    assert set(exported) == ROOT_NAMES


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
