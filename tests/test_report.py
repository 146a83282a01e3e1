import dataclasses
from pathlib import Path

import pytest

from periodic_portfolio import ProblemConfig, cli, parse_problem_config, report
from periodic_portfolio.config import SweepSpec, apply_sweep_value, format_problem_config
from periodic_portfolio.report import _sweep_columns, solve, sweep

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def shipped(name: str, **changes):
    cfg = parse_problem_config((CONFIGS / f"{name}.cfg").read_text())
    return dataclasses.replace(cfg, **changes)


# (config, parameter, grid): every scalar each utility can sweep.
SCALAR_SWEEPS = [
    ("table1_log", "tau", (0.5, 1.0, 2.0)),
    ("table1_log", "gamma", (0.6, 0.8, 1.0)),
    ("table1_log", "x0", (0.2, 0.5, 50.0)),
    ("table1_log", "delta", (0.1, 0.3, 0.9)),
    ("table2_power", "tau", (0.5, 1.0, 2.0)),
    ("table2_power", "gamma", (0.6, 0.75, 1.0)),
    ("table2_power", "x0", (0.2, 0.5, 5.0)),
    ("table2_power", "delta", (0.3, 0.5, 0.9)),
    ("table2_power", "alpha", (-1.0, 0.25, 0.5)),
]


def outputs_of(cfg) -> tuple[str, ...]:
    return tuple(sorted(_sweep_columns(solve(cfg).fields)))


@pytest.mark.parametrize("name,parameter,grid", SCALAR_SWEEPS)
def test_scalar_sweep_rows_equal_fresh_solves(name, parameter, grid):
    cfg = shipped(name)
    outputs = outputs_of(cfg)
    rows = sweep(cfg, SweepSpec(parameter, grid, outputs))
    for row, value in zip(rows, grid, strict=True):
        columns = _sweep_columns(solve(apply_sweep_value(cfg, parameter, value)).fields)
        assert row == [value, *(columns[out] for out in outputs)]


@pytest.mark.parametrize(
    "name,parameter", [("table1_log", "tau"), ("table2_power", "tau"), ("table2_power", "alpha")]
)
def test_scalar_sweep_projects_once(count_calls, name, parameter):
    calls = count_calls(report, "constrained_sharpe")
    grid = dict((p, g) for n, p, g in SCALAR_SWEEPS if n == name)[parameter]
    sweep(shipped(name), SweepSpec(parameter, grid, ("a_star",)))
    assert len(calls) == 1


# sigma_1_2 is row 1, column 2 of sigma
MARKET_SWEEPS = [("mu_1", (0.05, 0.1, 0.2)), ("sigma_1_2", (-0.05, 0.0, 0.05))]


@pytest.mark.parametrize("parameter,grid", MARKET_SWEEPS)
@pytest.mark.parametrize("name", ["table1_log", "table2_power"])
def test_market_sweep_projects_per_point(count_calls, name, parameter, grid):
    cfg = shipped(name)
    outputs = outputs_of(cfg)
    calls = count_calls(report, "constrained_sharpe")
    rows = sweep(cfg, SweepSpec(parameter, grid, outputs))
    assert len(calls) == 3
    for row, value in zip(rows, grid, strict=True):
        point = apply_sweep_value(cfg, parameter, value)
        columns = _sweep_columns(solve(point).fields)
        assert row == [value, *(columns[out] for out in outputs)]
    if parameter == "sigma_1_2":
        assert point.sigma == (0.2, 0.05, 0.0, 0.25)
    else:
        # mu_1 = 0.2 exceeds r = 0.12, so the projection no longer clamps asset 1
        xi_sq = [row[1 + outputs.index("xi_tilde_sq")] for row in rows]
        assert xi_sq[0] == xi_sq[1] < xi_sq[2]


def ten_assets(utility: str) -> ProblemConfig:
    """A 10-asset market with a lower-triangular sigma, whose last row needs two-digit indices."""
    n = 10
    sigma = [0.2 if i == j else 0.02 if j < i else 0.0 for i in range(n) for j in range(n)]
    return ProblemConfig(
        utility=utility, mu=[0.04 + 0.01 * i for i in range(n)], sigma=sigma, r=0.03,
        tau=1.0, gamma=0.8, delta=0.5, x0=0.5, alpha=0.5 if utility == "power" else None,
    )


# Each row of a two-digit-index sweep is a fresh solve of the config edited by hand.
TEN_ASSET_SWEEPS = [
    ("mu_10", (0.02, 0.08, 0.2), lambda cfg, v: dataclasses.replace(cfg, mu=cfg.mu[:9] + (v,))),
    ("sigma_10_10", (0.15, 0.2, 0.3), lambda cfg, v: dataclasses.replace(cfg, sigma=cfg.sigma[:99] + (v,))),
    ("sigma_10_1", (-0.05, 0.0, 0.05), lambda cfg, v: dataclasses.replace(cfg, sigma=cfg.sigma[:90] + (v,) + cfg.sigma[91:])),
]


@pytest.mark.parametrize("parameter,grid,edit", TEN_ASSET_SWEEPS, ids=[p for p, _, _ in TEN_ASSET_SWEEPS])
@pytest.mark.parametrize("utility", ["log", "power"])
def test_sweeps_of_a_ten_asset_market_match_fresh_solves(utility, parameter, grid, edit):
    cfg = ten_assets(utility)
    outputs = outputs_of(cfg)
    rows = sweep(cfg, SweepSpec(parameter, grid, outputs))
    for row, value in zip(rows, grid, strict=True):
        columns = _sweep_columns(solve(edit(cfg, value)).fields)
        assert row == [value, *(columns[out] for out in outputs)]
    assert len({tuple(row[1:]) for row in rows}) == len(grid)


def test_scalar_sweep_market_error_names_the_first_point(tmp_path, capsys):
    path = tmp_path / "singular.cfg"
    path.write_text(format_problem_config(shipped("table1_log", sigma=(0.2, 0.0, 0.0, 0.0))))
    spec = tmp_path / "spec.sweep"
    spec.write_text("[sweep]\nparameter = tau\ngrid = 0.5 1 2\noutputs = a_star\n")
    argv = ["sweep", "--config", str(path), "--sweep", str(spec), "--out", str(tmp_path / "out.csv")]
    assert cli.main(argv) == cli.EXIT_ASSUMPTION
    assert capsys.readouterr().err == (
        "parameter/assumption error: at grid point tau=0.5: sigma is not invertible\n"
    )


@pytest.mark.parametrize("name,solver", [("table2_power", "fixed_point"), ("table1_log", "solve_log")])
def test_x0_sweep_solves_once(monkeypatch, name, solver):
    # neither the fixed point nor the log closed form depends on x0: the first
    # point's solution serves every point, and only v_x0 changes
    solved = []
    original = getattr(report, solver)

    def recorded(*args):
        solved.append(args)
        return original(*args)

    monkeypatch.setattr(report, solver, recorded)
    grid = dict((p, g) for n, p, g in SCALAR_SWEEPS if n == name)["x0"]
    rows = sweep(shipped(name), SweepSpec("x0", grid, ("a_star", "v_x0")))
    assert len(solved) == 1
    assert len({row[1] for row in rows}) == 1 and len({row[2] for row in rows}) == len(grid)
