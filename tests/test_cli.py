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


def test_ill_posed_delta_exit_assumption(tmp_path, capsys):
    path = write_config(tmp_path, "table2_power", delta=0.01)
    assert cli.main(["solve", "--config", path]) == cli.EXIT_ASSUMPTION
    assert "well-posedness" in capsys.readouterr().err


def test_solver_failure_exit_nonconvergence(tmp_path, monkeypatch, capsys):
    def fail(problem, start=None):
        raise NonConvergence("forced")

    monkeypatch.setattr("periodic_portfolio.report.fixed_point", fail)
    path = write_config(tmp_path, "table2_power")
    assert cli.main(["solve", "--config", path]) == cli.EXIT_NONCONVERGENCE
    assert "forced" in capsys.readouterr().err


def test_simulate_mismatch_exit(tmp_path, capsys):
    path = write_config(tmp_path, "table1_log")
    argv = ["simulate", "--config", path, "--paths", "2000", "--analytic-override", "1e6"]
    assert cli.main(argv) == cli.EXIT_MISMATCH
    assert report(capsys.readouterr().out)["verdict"] == "fail"


@pytest.mark.parametrize(
    "name,changes,objective",
    [
        pytest.param("table2_power", {}, "scaled", id="power-no-proposition"),
        pytest.param("table1_log", {"x0": 1.0}, "value", id="log-value-gate"),
        pytest.param("table1_log", {"x0": 50.0}, "scaled", id="log-scaled-gate"),
        pytest.param(
            "table2_power", {"gamma": 1.0, "delta": 0.05}, "scaled", id="power-scaled-gate"
        ),
    ],
)
def test_opt_tau_without_condition_or_cap_exit(tmp_path, capsys, name, changes, objective):
    path = write_config(tmp_path, name, **changes)
    argv = ["opt-tau", "--config", path, "--objective", objective]
    assert cli.main(argv) == cli.EXIT_NO_PROPOSITION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no sufficient condition" in captured.err


@pytest.mark.parametrize("cap", ["0", "-1", "nan", "inf"])
def test_opt_tau_bad_cap_exit_config(tmp_path, capsys, cap):
    path = write_config(tmp_path, "table1_log", gamma=1.0)
    argv = ["opt-tau", "--config", path, "--objective", "value", "--tau-cap", cap]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "--tau-cap" in capsys.readouterr().err


def test_unwritable_output_exit_config(tmp_path, capsys):
    missing = tmp_path / "no-such-dir" / "out.csv"
    spec = tmp_path / "spec.sweep"
    spec.write_text("[sweep]\nparameter = tau\ngrid = 1\noutputs = a_star\n")
    config = write_config(tmp_path, "table1_log")
    sweep = ["sweep", "--config", config, "--sweep", str(spec), "--out", str(missing)]
    assert cli.main(sweep) == cli.EXIT_CONFIG
    assert "cannot write" in capsys.readouterr().err
    opt_tau = ["opt-tau", "--config", config, "--curve-out", str(missing)]
    assert cli.main(opt_tau) == cli.EXIT_CONFIG
    assert "cannot write" in capsys.readouterr().err


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


# `solve` reports of the shipped configs. Power `feedback_fractions` is the
# period-start portfolio from the solver's last evaluation.
SOLVE_GOLDEN = {
    "table1_log": """\
utility: log
n: 2
xi: -0.1 0.12
pi_tilde_star: 0.02 0
xi_tilde: 0 0.12
xi_tilde_norm_sq: 0.0144
a_star: 0.571416364861
c_star: 0.571659182702
v_x0: 0.17517241413
feedback_fractions: 0 0.48
a_unconstrained: 0.593877699958
unconstrained_fractions: -0.5 0.48
constraint_cost: 0.0224613350967
""",
    "table2_power": """\
utility: power
n: 2
xi: -0.1 0.12
pi_tilde_star: 0.02 0
xi_tilde: 0 0.12
xi_tilde_norm_sq: 0.0144
a_star: 3.17149604272
y_star: 1.71149376019
lower_bound: 3.14351369202
upper_bound: 3.17383924829
contraction_modulus: 0.750361641501
iterations: 3
error_bound: 1.77893017932e-15
v_x0: 5.91822088078
feedback_fractions: 0 0.738390101361
""",
}


@pytest.mark.parametrize("name", sorted(SOLVE_GOLDEN))
def test_solve_report_golden(capsys, name):
    assert cli.main(["solve", "--config", str(CONFIGS / f"{name}.cfg")]) == cli.EXIT_OK
    assert capsys.readouterr().out == SOLVE_GOLDEN[name]


# Sweep specs and CSVs: every column each utility offers.
SWEEP_GOLDEN = {
    "table2_power": (
        "[sweep]\nparameter = gamma\ngrid = 0.6 0.75 0.9\n"
        "outputs = a_star y_star v_x0 lower_bound upper_bound contraction_modulus"
        " iterations error_bound xi_tilde_sq frac_1 frac_2\n",
        """\
gamma,a_star,y_star,v_x0,lower_bound,upper_bound,contraction_modulus,iterations,error_bound,xi_tilde_sq,frac_1,frac_2
0.6,3.30153923204,2.42405912715,5.74831367639,3.26148438865,3.30377824845,0.760180024051,3,3.70352142763e-15,0.0144,0,0.718913226466
0.75,3.20257350377,1.88254194086,5.87354570323,3.17206885786,3.20499210907,0.752788152632,3,0,0.0144,0,0.725088903177
0.9,3.11213514258,1.38245415895,6.01224878949,3.08816357596,3.11393176703,0.745558965526,3,1.7453521629e-15,0.0144,0,0.797534420493
""",
    ),
    "table1_log": (
        "[sweep]\nparameter = tau\ngrid = 0.5 1 2\n"
        "outputs = a_star c_star v_x0 a_unconstrained constraint_cost xi_tilde_sq frac_1 frac_2\n",
        """\
tau,a_star,c_star,v_x0,a_unconstrained,constraint_cost,xi_tilde_sq,frac_1,frac_2
0.5,0.878670286397,1.23583239634,0.0220565452327,0.913209212749,0.0345389263521,0.0144,0,0.48
1,0.571416364861,0.571659182702,0.17517241413,0.593877699958,0.0224613350967,0.0144,0,0.48
2,0.384724039296,0.243273843032,0.216099460894,0.399846839583,0.0151228002868,0.0144,0,0.48
""",
    ),
}


@pytest.mark.parametrize("name", sorted(SWEEP_GOLDEN))
def test_sweep_csv_golden(tmp_path, name):
    spec_text, expected = SWEEP_GOLDEN[name]
    spec = tmp_path / "spec.sweep"
    spec.write_text(spec_text)
    out = tmp_path / "out.csv"
    argv = ["sweep", "--config", str(CONFIGS / f"{name}.cfg"), "--sweep", str(spec), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    assert out.read_text() == expected


# `opt-tau` on table1 (log, gamma = 0.8): both propositions hold. The
# --curve-out CSVs are in tests/golden/.
OPT_TAU_TABLE1_GOLDEN = {
    "scaled": """\
condition_holds: true
condition_detail: requires (r + |xi_tilde|^2/2)*gamma/delta - (1-gamma)/2*log x > 0: value=0.408515
tau_star: 5.81773531481
objective_at_star: 0.778561281973
objective_kind: scaled_value
""",
    "value": """\
condition_holds: true
condition_detail: requires (r + |xi_tilde|^2/2)/delta + log x < 0: value=-0.269147
tau_star: 1.96631109129
objective_at_star: 0.216122913058
objective_kind: value
""",
}


@pytest.mark.parametrize("objective", sorted(OPT_TAU_TABLE1_GOLDEN))
def test_opt_tau_table1_golden(tmp_path, capsys, objective):
    curve = tmp_path / "curve.csv"
    argv = ["opt-tau", "--config", str(CONFIGS / "table1_log.cfg"), "--objective", objective,
            "--curve-out", str(curve)]
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out == OPT_TAU_TABLE1_GOLDEN[objective]
    golden = Path(__file__).resolve().parent / "golden" / f"opt_tau_table1_log_{objective}_curve.csv"
    assert curve.read_text() == golden.read_text()


# `opt-tau --tau-cap 4` on table2 (power, gamma = 0.8): no proposition
# applies, so tau* is the capped supremum over 257 evenly spaced points on
# (0, 4]. V falls with tau, so the supremum sits at the first point, 4/257.
# The 33-point geometric grid on [cap/64, cap] searched before printed
# tau_star 0.0625 with objective_at_star 6.46068822585 (scaled) and
# 103.371011614 (value).
OPT_TAU_TABLE2_CAPPED_GOLDEN = {
    "scaled": """\
condition_holds: false
condition_detail: no sufficient condition applies to this configuration
tau_star: 0.0155642023346
objective_at_star: 6.48828265221
objective_kind: scaled_value
""",
    "value": """\
condition_holds: false
condition_detail: no sufficient condition applies to this configuration
tau_star: 0.0155642023346
objective_at_star: 416.872160404
objective_kind: value
""",
}


@pytest.mark.parametrize("objective", sorted(OPT_TAU_TABLE2_CAPPED_GOLDEN))
def test_opt_tau_table2_capped_golden(capsys, objective):
    argv = ["opt-tau", "--config", str(CONFIGS / "table2_power.cfg"), "--objective", objective,
            "--tau-cap", "4"]
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out == OPT_TAU_TABLE2_CAPPED_GOLDEN[objective]


# Capped log `opt-tau --objective value --tau-cap 4` on table1: with x0 = 50
# the value gate fails, and with gamma = 1 no proposition applies.
OPT_TAU_TABLE1_CAPPED_GOLDEN = {
    "x0-50": """\
condition_holds: false
condition_detail: requires (r + |xi_tilde|^2/2)/delta + log x < 0: value=4.33602
tau_star: 0.0155642023346
objective_at_star: 185.673796583
objective_kind: value
""",
    "gamma-1": """\
condition_holds: false
condition_detail: no sufficient condition applies to this configuration
tau_star: 0.0155642023346
objective_at_star: 0.423010887068
objective_kind: value
""",
}


def test_opt_tau_table1_capped_value_golden(tmp_path, capsys):
    curve = tmp_path / "curve.csv"
    argv = ["opt-tau", "--config", write_config(tmp_path, "table1_log", x0=50.0),
            "--objective", "value", "--tau-cap", "4", "--curve-out", str(curve)]
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out == OPT_TAU_TABLE1_CAPPED_GOLDEN["x0-50"]
    golden = Path(__file__).resolve().parent / "golden" / "opt_tau_table1_log_value_x0_50_capped_curve.csv"
    assert curve.read_text() == golden.read_text()
    argv = ["opt-tau", "--config", write_config(tmp_path, "table1_log", gamma=1.0),
            "--objective", "value", "--tau-cap", "4"]
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out == OPT_TAU_TABLE1_CAPPED_GOLDEN["gamma-1"]


# A non-positive x0 on each log `opt-tau` branch: the closed form must reject
# it, because np.log of it is nan or -inf and does not raise.
@pytest.mark.parametrize(
    "changes,extra,message",
    [
        pytest.param({}, ["--objective", "scaled"], "initial wealth x must be positive", id="scaled"),
        pytest.param({}, ["--objective", "value"], "initial wealth x must be positive", id="value-gate"),
        pytest.param(
            {"gamma": 1.0}, ["--objective", "value", "--tau-cap", "4"],
            "value function requires x > 0", id="value-capped",
        ),
        pytest.param(
            {"gamma": 1.0}, ["--objective", "value"],
            "value function requires x > 0", id="value-uncapped",
        ),
    ],
)
def test_opt_tau_log_nonpositive_x0_exit_assumption(tmp_path, capsys, changes, extra, message):
    argv = ["opt-tau", "--config", write_config(tmp_path, "table1_log", x0=-1.0, **changes), *extra]
    assert cli.main(argv) == cli.EXIT_ASSUMPTION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"parameter/assumption error: {message}\n"


# Power utility with gamma < 1 needs x0 > 0 for both objectives; with no
# proposition and no cap the search evaluates nothing, so the check comes first.
@pytest.mark.parametrize("objective", ["scaled", "value"])
def test_opt_tau_power_nonpositive_x0_exit_assumption(tmp_path, capsys, objective):
    argv = ["opt-tau", "--config", write_config(tmp_path, "table2_power", x0=-1.0),
            "--objective", objective]
    assert cli.main(argv) == cli.EXIT_ASSUMPTION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parameter/assumption error: value function requires x > 0\n"
