"""One solve of a configuration, and the report that ``solve`` and ``sweep`` print.

``solve(cfg)`` builds the market, projects its Sharpe ratio onto the
no-short-selling cone once, and solves the auxiliary one-period problem: the
fixed point A* for power utility, the closed form for log utility. The
report's ordered ``fields`` are the ``solve`` printout. Both utilities print
``feedback_fractions``, the period-start risky fractions per unit wealth:
(sigma^T)^{-1} xi_tilde for log utility, and that vector times
-d log F / d log y at the solver's last evaluation for power utility. The
scalar fields are the sweep columns, with two aliases: ``xi_tilde_sq`` for
``xi_tilde_norm_sq`` and ``frac_i`` for the i-th entry of
``feedback_fractions``. A sweep over a scalar parameter builds and projects
the market once, at its first grid point, and a sweep over x0 also solves
once: neither the fixed point nor the log closed form depends on x0, so
every point reuses the first point's solution and forms only its own
``v_x0``. ``_build`` is the one place a
config becomes a market, an evaluation, a cone projection and, for power
utility, a ``PowerProblem``; ``periodicity.tau_objective`` uses it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cone import ConstrainedSharpe, constrained_sharpe
from .config import (
    _SWEEP_SCALARS,
    ProblemConfig,
    SweepSpec,
    apply_sweep_value,
    to_market,
)
from .errors import ConfigError, ParameterOutOfRange, PortfolioError
from .logutil import LogSolution, solve_log, value_log
from .market import EvaluationSpec, MarketModel
from .power import PowerProblem, PowerSolution, _feedback_fractions, fixed_point, value_function


@dataclass(frozen=True, eq=False)
class Report:
    """A solved configuration: the objects its solve built and its printed fields.

    ``problem`` is None for log utility.
    """

    market: MarketModel
    evaluation: EvaluationSpec
    cs: ConstrainedSharpe
    problem: PowerProblem | None
    solution: PowerSolution | LogSolution
    fields: dict[str, object]


def _build(
    cfg: ProblemConfig, first: Report | None = None
) -> tuple[MarketModel, EvaluationSpec, ConstrainedSharpe, PowerProblem | None]:
    """The market, evaluation, cone projection and power problem of ``cfg``.

    Validates in that order: the market, the evaluation, the projection's
    market checks, for power utility alpha and well-posedness, then that x0
    is finite. The problem is None for log utility. ``first`` is the report
    of a config that differs from ``cfg`` only in a scalar parameter; its
    market and projection are reused.
    """
    market = to_market(cfg) if first is None else first.market
    evaluation = EvaluationSpec(tau=cfg.tau, gamma=cfg.gamma, delta=cfg.delta)
    cs = constrained_sharpe(market) if first is None else first.cs
    problem = None
    if cfg.utility == "power":
        problem = PowerProblem(market=market, evaluation=evaluation, alpha=cfg.alpha, cs=cs)
    if not math.isfinite(cfg.x0):
        raise ParameterOutOfRange(f"x0 must be finite, got {cfg.x0}")
    return market, evaluation, cs, problem


def solve(cfg: ProblemConfig) -> Report:
    """Validate the market, project the Sharpe ratio, and solve per utility."""
    return _solve(cfg)


def _solve(
    cfg: ProblemConfig,
    first: Report | None = None,
    sol: PowerSolution | LogSolution | None = None,
) -> Report:
    """Solve ``cfg`` per utility, reusing the market of ``first`` (see ``_build``).

    ``sol``, when given, is the solution of a config that differs from
    ``cfg`` only in x0, and is reused.
    """
    market, evaluation, cs, problem = _build(cfg, first)
    fields = {
        "utility": cfg.utility,
        "n": market.n,
        "xi": cs.xi,
        "pi_tilde_star": cs.pi_tilde_star,
        "xi_tilde": cs.xi_tilde,
        "xi_tilde_norm_sq": cs.objective,
    }
    if problem is not None:
        if sol is None:
            sol = fixed_point(problem)
        fields.update(
            a_star=sol.a_star,
            y_star=sol.y_star,
            lower_bound=sol.lower_bound,
            upper_bound=sol.upper_bound,
            contraction_modulus=sol.contraction_modulus,
            iterations=sol.iterations,
            error_bound=sol.error_bound,
            v_x0=value_function(sol, cfg.x0, cfg.alpha, cfg.gamma),
            feedback_fractions=_feedback_fractions(cs, sol.fraction_scale),
        )
    else:
        if sol is None:
            sol = solve_log(market, evaluation, cs)
        fields.update(
            a_star=sol.a_star,
            c_star=sol.c_star,
            v_x0=value_log(sol, cfg.x0),
            feedback_fractions=sol.feedback_fractions,
            a_unconstrained=sol.a_unconstrained,
            unconstrained_fractions=sol.unconstrained_fractions,
            constraint_cost=sol.constraint_cost,
        )
    return Report(market, evaluation, cs, problem, sol, fields)


def _sweep_columns(fields: dict[str, object]) -> dict[str, float]:
    """The numeric scalar fields, plus the ``xi_tilde_sq`` and ``frac_i`` aliases."""
    columns = {name: float(v) for name, v in fields.items() if isinstance(v, (int, float))}
    columns["xi_tilde_sq"] = columns["xi_tilde_norm_sq"]
    for i, frac in enumerate(fields["feedback_fractions"].tolist(), start=1):
        columns[f"frac_{i}"] = frac
    return columns


def sweep(cfg: ProblemConfig, spec: SweepSpec) -> list[list[float]]:
    """One solve per grid point; returns rows [value, outputs...].

    A scalar parameter (alpha, gamma, tau, x0, delta) leaves the market
    unchanged, so every point reuses the first point's market and cone
    projection, and an x0 sweep also its solution. A mu_<i> or sigma_<i>_<j> sweep
    rebuilds both at every point.
    """
    scalar = spec.parameter in _SWEEP_SCALARS
    first = None
    rows = []
    for value in spec.grid:
        point_cfg = apply_sweep_value(cfg, spec.parameter, value)
        try:
            reused = first.solution if spec.parameter == "x0" and first is not None else None
            report = _solve(point_cfg, first, reused)
            if scalar and first is None:
                first = report
            columns = _sweep_columns(report.fields)
        except PortfolioError as exc:
            raise type(exc)(f"at grid point {spec.parameter}={value:g}: {exc}") from exc
        unknown = set(spec.outputs) - columns.keys()
        if unknown:
            raise ConfigError(f"unknown sweep outputs for {cfg.utility}: {sorted(unknown)}")
        rows.append([value, *(columns[name] for name in spec.outputs)])
    return rows
