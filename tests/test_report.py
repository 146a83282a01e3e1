import dataclasses
from pathlib import Path

import pytest

from periodic_portfolio import cli, parse_problem_config, report
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


@pytest.mark.parametrize("name", ["table1_log", "table2_power"])
def test_market_sweep_projects_per_point(count_calls, name):
    calls = count_calls(report, "constrained_sharpe")
    rows = sweep(shipped(name), SweepSpec("mu_1", (0.05, 0.1, 0.2), ("a_star", "xi_tilde_sq")))
    assert len(calls) == 3
    # mu_1 = 0.2 exceeds r = 0.12, so the projection no longer clamps asset 1
    assert rows[0][2] == rows[1][2] < rows[2][2]


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
