"""Command-line front end: solve, simulate, sweep and opt-tau workflows.

Exit codes: 0 success; 2 a ConfigError (configuration/parse error, a
``--tau-cap`` that is not positive and finite, or an output file that cannot
be written); 3 a ParameterError (parameter or well-posedness violation); 4 a
SolverError (non-convergence, a non-finite value or a numerical fault); 5
statistical mismatch in ``simulate``; 6 ``opt-tau`` with no tau*: no
sufficient condition holds (a proposition's gate fails, or none covers the
configuration) and no ``--tau-cap`` was given. Codes 2-4 come from the
error families of ``errors``, so every error class gets the code of its
family.

The argument parser is built on the first ``main`` call and shared by every
later call in the process: parsing leaves it unchanged, each call parses
into a fresh namespace, and usage and error text go to the ``sys.stderr`` of
the moment.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import os
import sys
from functools import cache

import numpy as np

from .config import ProblemConfig, parse_problem_config, parse_sweep_spec
from .errors import ConfigError, ParameterError, SolverError
from .mc import K_SIGMA, SimulationConfig, compare, estimate_log_objective, estimate_power_objective
from .periodicity import optimal_tau, tau_objective
from .report import solve, sweep

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ASSUMPTION = 3
EXIT_NONCONVERGENCE = 4
EXIT_MISMATCH = 5
EXIT_NO_PROPOSITION = 6

def _fmt(value) -> str:
    if isinstance(value, (np.ndarray, list, tuple)):
        return " ".join([f"{v:.12g}" for v in map(float, np.ravel(value).tolist())])
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _emit(report: dict) -> None:
    sys.stdout.write("".join(f"{key}: {_fmt(value)}\n" for key, value in report.items()))


def _read_text(path: str) -> str:
    """The UTF-8 text of a config or sweep file, its newlines read as text mode reads them.

    A file that cannot be read, or is not valid UTF-8, raises ConfigError.
    """
    try:
        with open(path, "rb", buffering=0) as file:
            text = file.read().decode("utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not valid UTF-8: {exc}") from None
    if "\r" in text:  # universal newlines
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _load_config(path: str) -> ProblemConfig:
    return parse_problem_config(_read_text(path))


def cmd_solve(args) -> int:
    _emit(solve(_load_config(args.config)).fields)
    return EXIT_OK


def cmd_simulate(args) -> int:
    overrides = {"n_paths": args.paths, "seed": args.seed}
    cfg = dataclasses.replace(
        _load_config(args.config), **{k: v for k, v in overrides.items() if v is not None}
    )
    report = solve(cfg)
    sim = SimulationConfig(n_paths=cfg.n_paths, n_periods=cfg.n_periods, seed=cfg.seed)
    if cfg.utility == "power":
        estimate = estimate_power_objective(report.solution, report.problem, cfg.x0, sim)
    else:
        estimate = estimate_log_objective(
            report.solution, report.market, report.evaluation, cfg.x0, sim
        )
    analytic = report.fields["v_x0"]
    verdict = compare(estimate, analytic)
    _emit(
        {
            "mean": estimate.mean,
            "std_error": estimate.std_error,
            "n_effective": estimate.n_effective,
            "truncation_bound": estimate.truncation_bound,
            "analytic": analytic,
            "k_sigma": K_SIGMA,
            "verdict": "pass" if verdict else "fail",
        }
    )
    return EXIT_OK if verdict else EXIT_MISMATCH


def write_csv(path: str, header: list[str], rows: list[list[float]]) -> None:
    """Write ``header`` and ``rows`` to ``path`` as UTF-8 CSV with ``\\n`` line ends.

    An existing file is overwritten in place: opened without O_TRUNC,
    written from its start, and cut to the written length only where
    ``fstat`` shows it was longer, so a FIFO, a pipe or a device, where
    ``ftruncate`` fails, is never cut. On ext4 an open with O_TRUNC cost
    several times as much as writing over the file: a file truncated to
    zero is flushed on close (``auto_da_alloc``) and its blocks are freed.
    ``O_BINARY`` keeps Windows from writing ``\\r\\n``; a new file gets mode
    0o666 less the umask. Any failure raises ConfigError after a best-effort
    cut of the file to zero, so no old bytes stay mixed with new ones.
    """
    lines = [",".join(header), *(",".join(f"{v:.12g}" for v in row) for row in rows)]
    data = ("\n".join(lines) + "\n").encode("utf-8")
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
        try:
            written = 0
            while written < len(data):
                written += os.write(fd, data[written:])
            if os.fstat(fd).st_size > written:
                os.ftruncate(fd, written)
        except BaseException:
            with contextlib.suppress(OSError):  # best effort: the first error is the one raised
                os.ftruncate(fd, 0)
            raise
        finally:
            os.close(fd)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    spec = parse_sweep_spec(_read_text(args.sweep))
    write_csv(args.out, [spec.parameter, *spec.outputs], sweep(cfg, spec))
    return EXIT_OK


def cmd_opt_tau(args) -> int:
    cap = args.tau_cap
    if cap is not None and not (math.isfinite(cap) and cap > 0):
        raise ConfigError(f"--tau-cap must be positive and finite, got {cap!r}")
    cfg = _load_config(args.config)
    objective = tau_objective(cfg, args.objective == "scaled")
    result = optimal_tau(objective, cap)
    if result.tau_star is None:
        sys.stderr.write(
            "opt-tau: no sufficient condition holds and no --tau-cap was supplied: "
            f"{result.condition_detail}\n"
        )
        return EXIT_NO_PROPOSITION
    if args.curve_out is not None:
        # every curve point is evaluated before anything is printed or written,
        # so a point that fails leaves stdout empty and writes no CSV
        center = result.tau_star
        if cfg.utility == "power" and cfg.gamma < 1.0:  # a fixed-point solve per point
            taus = np.geomspace(center / 10.0, center * 4.0, 33)
        else:
            taus = np.geomspace(center / 50.0, center * 8.0, 121)
        write_csv(args.curve_out, ["tau", "objective"], [[t, objective(t)] for t in taus])
    _emit(dataclasses.asdict(result))
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process on the first call."""
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
    p_sim.add_argument("--seed", type=int, default=None)
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
    """Run one subcommand on ``argv`` (default ``sys.argv[1:]``) and return its exit code.

    Every call reuses the process's one parser (``build_parser``). A rejected
    ``argv`` raises SystemExit(2) after argparse writes its usage to stderr.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except ParameterError as exc:
        sys.stderr.write(f"parameter/assumption error: {exc}\n")
        return EXIT_ASSUMPTION
    except SolverError as exc:
        sys.stderr.write(f"solver error: {exc}\n")
        return EXIT_NONCONVERGENCE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
