import dataclasses
from pathlib import Path

import pytest

from periodic_portfolio import cli, format_problem_config, parse_problem_config
from periodic_portfolio.errors import NonConvergence

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, name: str, **changes) -> str:
    """Copy a shipped config to a temporary file, with optional field changes."""
    cfg = parse_problem_config((CONFIGS / f"{name}.cfg").read_text())
    path = tmp_path / f"{name}.cfg"
    path.write_text(format_problem_config(dataclasses.replace(cfg, **changes)))
    return str(path)


def report(text: str) -> dict[str, str]:
    return dict(line.split(": ", 1) for line in text.splitlines())


@pytest.mark.parametrize("name", ["table1_log", "table2_power"])
def test_solve_exit_ok(tmp_path, capsys, name):
    assert cli.main(["solve", "--config", write_config(tmp_path, name)]) == cli.EXIT_OK
    out = report(capsys.readouterr().out)
    assert float(out["a_star"]) > 0
    if name == "table2_power":
        assert float(out["error_bound"]) <= 1e-10


def test_malformed_config_exit_config(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("utility = power\nmu = 0.1 oops\n")
    assert cli.main(["solve", "--config", str(path)]) == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_non_integer_quad_order_env_exit_config(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PP_QUAD_ORDER", "sixty-four")
    path = write_config(tmp_path, "table2_power")
    assert cli.main(["solve", "--config", path]) == cli.EXIT_CONFIG
    assert "PP_QUAD_ORDER" in capsys.readouterr().err


def test_ill_posed_delta_exit_assumption(tmp_path, capsys):
    path = write_config(tmp_path, "table2_power", delta=0.01)
    assert cli.main(["solve", "--config", path]) == cli.EXIT_ASSUMPTION
    assert "well-posedness" in capsys.readouterr().err


def test_solver_failure_exit_nonconvergence(tmp_path, monkeypatch, capsys):
    def fail(problem, start=None):
        raise NonConvergence("forced")

    monkeypatch.setattr(cli, "fixed_point", fail)
    path = write_config(tmp_path, "table2_power")
    assert cli.main(["solve", "--config", path]) == cli.EXIT_NONCONVERGENCE
    assert "forced" in capsys.readouterr().err


def test_simulate_mismatch_exit(tmp_path, capsys):
    path = write_config(tmp_path, "table1_log")
    argv = ["simulate", "--config", path, "--paths", "2000", "--analytic-override", "1e6"]
    assert cli.main(argv) == cli.EXIT_MISMATCH
    assert report(capsys.readouterr().out)["verdict"] == "fail"


def test_opt_tau_without_condition_or_cap_exit(tmp_path, capsys):
    path = write_config(tmp_path, "table2_power")  # power, gamma = 0.8
    assert cli.main(["opt-tau", "--config", path]) == cli.EXIT_NO_PROPOSITION
    assert "no sufficient condition" in capsys.readouterr().err


# `simulate` reports at --paths 30000 --seed 3, as the whole-matrix Monte Carlo
# printed them. A change that moves the draws or the estimators must update
# these on purpose.
SIMULATE_GOLDEN = {
    "table1_log": """\
mean: 0.174093975584
std_error: 0.00119890119444
n_effective: 30000
truncation_bound: 9.41285040972e-09
analytic: 0.17517241413
k_sigma: 3
verdict: pass
""",
    "table2_power": """\
mean: 5.9197131215
std_error: 0.0019114753647
n_effective: 30000
truncation_bound: 8.1801777111e-09
analytic: 5.91822088078
k_sigma: 3
verdict: pass
""",
}


@pytest.mark.parametrize("name", sorted(SIMULATE_GOLDEN))
def test_simulate_report_golden(capsys, name):
    argv = ["simulate", "--config", str(CONFIGS / f"{name}.cfg"), "--paths", "30000", "--seed", "3"]
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out == SIMULATE_GOLDEN[name]
