"""Command-line front end: solve, simulate, sweep and opt-tau workflows.

Exit codes: 0 success, 2 configuration/parse error, 3 parameter or
well-posedness violation, 4 solver non-convergence, 5 statistical mismatch in
``simulate``, 6 ``opt-tau`` without an applicable sufficient condition and no
``--tau-cap``.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from pathlib import Path

import numpy as np

from .config import (
    ProblemConfig,
    SweepSpec,
    apply_sweep_value,
    parse_problem_config,
    parse_sweep_spec,
    to_evaluation,
    to_market,
)
from .cone import constrained_sharpe
from .errors import (
    AssumptionViolated,
    ConfigError,
    Degenerate,
    DimensionMismatch,
    DomainError,
    NonConvergence,
    NonFinite,
    NumericalFault,
    ParameterOutOfRange,
    PortfolioError,
    SingularVolatility,
)
from .logutil import solve_log, unconstrained_log, value_log
from .market import EvaluationSpec, zeta
from .mc import SimulationConfig, compare, estimate_log_objective, estimate_power_objective
from .periodicity import TauSearchResult, tau_log_scaled, tau_log_value, tau_power_scaled
from .power import PowerProblem, fixed_point, value_function
from .quadrature import DEFAULT_ORDER

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ASSUMPTION = 3
EXIT_NONCONVERGENCE = 4
EXIT_MISMATCH = 5
EXIT_NO_PROPOSITION = 6

_PARAMETER_ERRORS = (
    AssumptionViolated,
    ParameterOutOfRange,
    DomainError,
    SingularVolatility,
    Degenerate,
    DimensionMismatch,
)


def _fmt(value) -> str:
    if isinstance(value, (np.ndarray, list, tuple)):
        return " ".join(f"{float(v):.12g}" for v in np.asarray(value).ravel())
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _emit(report: dict, stream=None) -> None:
    stream = stream or sys.stdout
    for key, value in report.items():
        stream.write(f"{key}: {_fmt(value)}\n")


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None


def _load_config(path: str) -> ProblemConfig:
    cfg = parse_problem_config(_read_text(path))
    env_order = os.environ.get("PP_QUAD_ORDER")
    if env_order is not None:
        try:
            order = int(env_order)
        except ValueError:
            raise ConfigError(f"PP_QUAD_ORDER must be an integer, got {env_order!r}") from None
        cfg = dataclasses.replace(cfg, quad_order=order)
    return cfg


def _solve_bundle(cfg: ProblemConfig):
    """Validate the market, project the Sharpe ratio, and solve per utility."""
    market = to_market(cfg)
    evaluation = to_evaluation(cfg)
    cs = constrained_sharpe(market)
    if cfg.utility == "power":
        problem = PowerProblem(
            market=market,
            evaluation=evaluation,
            alpha=cfg.alpha,
            cs=cs,
            tol_root=cfg.tol_root,
            tol_fixed_point=cfg.tol_fixed_point,
            quad_order=cfg.quad_order,
        )
        sol = fixed_point(problem)
        return market, evaluation, cs, problem, sol
    if cfg.delta * cfg.tau < 1e-12:
        raise ParameterOutOfRange("delta * tau is too small")
    sol = solve_log(market, evaluation, cs)
    return market, evaluation, cs, None, sol


def _power_outputs(cfg, cs, problem, sol) -> dict:
    return {
        "a_star": sol.a_star,
        "y_star": sol.y_star,
        "v_x0": value_function(sol, cfg.x0, cfg.alpha, cfg.gamma),
        "lower_bound": sol.lower_bound,
        "upper_bound": sol.upper_bound,
        "contraction_modulus": sol.contraction_modulus,
        "iterations": float(sol.iterations),
        "error_bound": sol.error_bound,
        "xi_tilde_sq": cs.objective,
    }


def _log_outputs(cfg, cs, sol) -> dict:
    out = {
        "a_star": sol.a_star,
        "c_star": sol.c_star,
        "v_x0": value_log(sol, cfg.x0),
        "a_unconstrained": sol.a_unconstrained,
        "constraint_cost": sol.constraint_cost,
        "xi_tilde_sq": cs.objective,
    }
    for i, frac in enumerate(sol.feedback_fractions, start=1):
        out[f"frac_{i}"] = float(frac)
    return out


def _sweep_columns(cfg: ProblemConfig) -> set[str]:
    if cfg.utility == "power":
        return {
            "a_star",
            "y_star",
            "v_x0",
            "lower_bound",
            "upper_bound",
            "contraction_modulus",
            "iterations",
            "error_bound",
            "xi_tilde_sq",
        }
    names = {"a_star", "c_star", "v_x0", "a_unconstrained", "constraint_cost", "xi_tilde_sq"}
    names.update(f"frac_{i}" for i in range(1, cfg.n + 1))
    return names


def cmd_solve(args) -> int:
    cfg = _load_config(args.config)
    market, _, cs, problem, sol = _solve_bundle(cfg)
    report = {
        "utility": cfg.utility,
        "n": market.n,
        "xi": cs.xi,
        "pi_tilde_star": cs.pi_tilde_star,
        "xi_tilde": cs.xi_tilde,
        "xi_tilde_norm_sq": cs.objective,
    }
    if cfg.utility == "power":
        report.update(
            a_star=sol.a_star,
            y_star=sol.y_star,
            lower_bound=sol.lower_bound,
            upper_bound=sol.upper_bound,
            contraction_modulus=sol.contraction_modulus,
            iterations=sol.iterations,
            error_bound=sol.error_bound,
            v_x0=value_function(sol, cfg.x0, cfg.alpha, cfg.gamma),
        )
    else:
        evaluation = to_evaluation(cfg)
        a_unc, frac_unc = unconstrained_log(market, evaluation)
        report.update(
            a_star=sol.a_star,
            c_star=sol.c_star,
            v_x0=value_log(sol, cfg.x0),
            feedback_fractions=sol.feedback_fractions,
            a_unconstrained=a_unc,
            unconstrained_fractions=frac_unc,
            constraint_cost=sol.constraint_cost,
        )
    _emit(report)
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    if args.paths is not None:
        cfg = dataclasses.replace(cfg, n_paths=args.paths)
    if args.periods is not None:
        cfg = dataclasses.replace(cfg, n_periods=args.periods)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)

    market, evaluation, cs, problem, sol = _solve_bundle(cfg)
    sim = SimulationConfig(
        n_paths=cfg.n_paths,
        n_periods=cfg.n_periods,
        seed=cfg.seed,
        antithetic=cfg.antithetic,
    )
    if cfg.utility == "power":
        estimate = estimate_power_objective(sol, problem, cfg.x0, sim)
        analytic = value_function(sol, cfg.x0, cfg.alpha, cfg.gamma)
    else:
        estimate = estimate_log_objective(sol, market, evaluation, cfg.x0, sim)
        analytic = value_log(sol, cfg.x0)
    if args.analytic_override is not None:
        analytic = args.analytic_override
    verdict = compare(estimate, analytic, 3.0)
    _emit(
        {
            "mean": estimate.mean,
            "std_error": estimate.std_error,
            "n_effective": estimate.n_effective,
            "truncation_bound": estimate.truncation_bound,
            "analytic": analytic,
            "k_sigma": 3.0,
            "verdict": "pass" if verdict else "fail",
        }
    )
    return EXIT_OK if verdict else EXIT_MISMATCH


def run_sweep(cfg: ProblemConfig, spec: SweepSpec) -> list[list[float]]:
    """Fresh solve per grid point; returns rows [value, outputs...]."""
    unknown = set(spec.outputs) - _sweep_columns(cfg)
    if unknown:
        raise ConfigError(f"unknown sweep outputs for {cfg.utility}: {sorted(unknown)}")
    rows = []
    for value in spec.grid:
        point_cfg = apply_sweep_value(cfg, spec.parameter, value)
        try:
            _, _, cs, problem, sol = _solve_bundle(point_cfg)
            outputs = (
                _power_outputs(point_cfg, cs, problem, sol)
                if cfg.utility == "power"
                else _log_outputs(point_cfg, cs, sol)
            )
        except PortfolioError as exc:
            raise type(exc)(
                f"at grid point {spec.parameter}={value:g}: {exc}"
            ) from exc
        rows.append([value] + [float(outputs[name]) for name in spec.outputs])
    return rows


def write_csv(path: str, header: list[str], rows: list[list[float]]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.12g}" for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    spec = parse_sweep_spec(_read_text(args.sweep))
    rows = run_sweep(cfg, spec)
    write_csv(args.out, [spec.parameter, *spec.outputs], rows)
    return EXIT_OK


def _power_value_of_tau(cfg: ProblemConfig, market, cs, tau: float, scaled: bool) -> float:
    problem = PowerProblem(
        market=market,
        evaluation=EvaluationSpec(tau=tau, gamma=cfg.gamma, delta=cfg.delta),
        alpha=cfg.alpha,
        cs=cs,
        tol_root=cfg.tol_root,
        tol_fixed_point=cfg.tol_fixed_point,
        quad_order=cfg.quad_order,
    )
    sol = fixed_point(problem)
    value = value_function(sol, cfg.x0, cfg.alpha, cfg.gamma)
    return value * tau if scaled else value


def _capped_power_search(cfg, market, cs, cap: float, scaled: bool) -> TauSearchResult:
    taus = np.geomspace(cap / 64.0, cap, 33)
    vals = [_power_value_of_tau(cfg, market, cs, t, scaled) for t in taus]
    i = int(np.argmax(vals))
    return TauSearchResult(
        condition_holds=False,
        condition_detail=(
            "no sufficient condition applies; grid supremum over the capped range"
        ),
        tau_star=float(taus[i]),
        objective_at_star=float(vals[i]),
        objective_kind="scaled_value" if scaled else "value",
    )


def cmd_opt_tau(args) -> int:
    cfg = _load_config(args.config)
    market = to_market(cfg)
    cs = constrained_sharpe(market)
    evaluation = to_evaluation(cfg)
    scaled = args.objective == "scaled"
    cap = args.tau_cap

    result = None
    if cfg.utility == "power" and scaled and cfg.gamma == 1.0:
        result = tau_power_scaled(market, cfg.alpha, cfg.delta, cs, sup_cap=cap)
    elif cfg.utility == "log" and scaled:
        result = tau_log_scaled(market, evaluation, cs, cfg.x0, sup_cap=cap)
    elif cfg.utility == "log" and not scaled and cfg.gamma < 1.0:
        result = tau_log_value(market, evaluation, cs, cfg.x0, sup_cap=cap)
    elif cap is not None:
        if cfg.utility == "power":
            result = _capped_power_search(cfg, market, cs, cap, scaled)
        else:  # log, gamma == 1, plain value
            def objective(tau: float) -> float:
                sol = solve_log(market, EvaluationSpec(tau, cfg.gamma, cfg.delta), cs)
                return value_log(sol, cfg.x0)

            taus = np.geomspace(cap / 64.0, cap, 129)
            vals = [objective(t) for t in taus]
            i = int(np.argmax(vals))
            result = TauSearchResult(
                condition_holds=False,
                condition_detail="no sufficient condition applies; capped grid supremum",
                tau_star=float(taus[i]),
                objective_at_star=float(vals[i]),
                objective_kind="value",
            )
    else:
        sys.stderr.write(
            "opt-tau: no sufficient condition applies to this configuration "
            "and no --tau-cap was supplied\n"
        )
        return EXIT_NO_PROPOSITION

    _emit(
        {
            "condition_holds": result.condition_holds,
            "condition_detail": result.condition_detail,
            "tau_star": "none" if result.tau_star is None else result.tau_star,
            "objective_at_star": result.objective_at_star,
            "objective_kind": result.objective_kind,
        }
    )

    if args.curve_out is not None and result.tau_star is not None:
        center = result.tau_star
        taus = np.geomspace(center / 50.0, center * 8.0, 121)
        if cfg.utility == "power" and cfg.gamma < 1.0:
            taus = np.geomspace(center / 10.0, center * 4.0, 33)
            vals = [_power_value_of_tau(cfg, market, cs, t, scaled) for t in taus]
        elif cfg.utility == "power":
            za = zeta(cfg.alpha, cfg.r, cs.objective)
            vals = [
                math.exp((za - cfg.delta) * t) * t / (-math.expm1(-cfg.delta * t))
                for t in taus
            ]
            if not scaled:
                vals = [v / t / cfg.alpha for v, t in zip(vals, taus)]
        else:
            def log_curve(tau: float) -> float:
                sol = solve_log(market, EvaluationSpec(tau, cfg.gamma, cfg.delta), cs)
                v = value_log(sol, cfg.x0)
                return v * tau if scaled else v

            vals = [log_curve(t) for t in taus]
        write_csv(args.curve_out, ["tau", "objective"], [[t, v] for t, v in zip(taus, vals)])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="periodic-portfolio",
        description=(
            "Solve, verify and sweep infinite-horizon optimal portfolios under "
            "ratio-type periodic evaluation with a short-selling ban."
        ),
    )
    sub = parser.add_subparsers(required=True, dest="command")

    p_solve = sub.add_parser("solve", help="solve one configuration and print a report")
    p_solve.add_argument("--config", required=True)
    p_solve.set_defaults(func=cmd_solve)

    p_sim = sub.add_parser("simulate", help="Monte Carlo check against the analytic value")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--paths", type=int, default=None)
    p_sim.add_argument("--periods", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--analytic-override", type=float, default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="parameter sweep to CSV")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--sweep", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_tau = sub.add_parser("opt-tau", help="optimal evaluation-period length")
    p_tau.add_argument("--config", required=True)
    p_tau.add_argument("--objective", choices=("value", "scaled"), default="scaled")
    p_tau.add_argument("--tau-cap", type=float, default=None)
    p_tau.add_argument("--curve-out", default=None)
    p_tau.set_defaults(func=cmd_opt_tau)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except _PARAMETER_ERRORS as exc:
        sys.stderr.write(f"parameter/assumption error: {exc}\n")
        return EXIT_ASSUMPTION
    except (NonConvergence, NonFinite, NumericalFault) as exc:
        sys.stderr.write(f"solver error: {exc}\n")
        return EXIT_NONCONVERGENCE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
