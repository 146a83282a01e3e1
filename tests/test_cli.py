import contextlib
import dataclasses
import math
import os
import re
import stat
import threading
from pathlib import Path

import numpy as np
import pytest

from periodic_portfolio import (
    ProblemConfig,
    cli,
    format_problem_config,
    optimal_tau,
    parse_problem_config,
    tau_objective,
)
from periodic_portfolio.errors import (
    ConfigError,
    NonConvergence,
    ParameterError,
    PortfolioError,
    QuadratureError,
    SolverError,
)

from conftest import FAMILY_EXITS, NOT_UTF8, STEEP, TINY_DELTA, TINY_LOWER_BOUND

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


@pytest.mark.parametrize("bad", ["config", "sweep"])
def test_a_file_that_is_not_utf8_exits_config(tmp_path, capsys, bad):
    path = tmp_path / "bad.cfg"
    path.write_bytes(NOT_UTF8)
    spec = tmp_path / "spec.sweep"
    spec.write_text("[sweep]\nparameter = tau\ngrid = 0.5 1\noutputs = a_star\n")
    config = write_config(tmp_path, "table1_log")
    if bad == "config":
        argv = ["solve", "--config", str(path)]
    else:
        argv = ["sweep", "--config", config, "--sweep", str(path), "--out", str(tmp_path / "out.csv")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {path} is not valid UTF-8")
    assert not (tmp_path / "out.csv").exists()


def test_ill_posed_delta_exit_assumption(tmp_path, capsys):
    path = write_config(tmp_path, "table2_power", delta=0.01)
    assert cli.main(["solve", "--config", path]) == cli.EXIT_ASSUMPTION
    assert "well-posedness" in capsys.readouterr().err


# The [solver] keys are constants of the solver. A config may still give each
# one, but only at its fixed value: any other, out of range or not, is a
# config error on every subcommand, before any solve.
SOLVER_FIXED = {"tol_root": "1e-10", "tol_fixed_point": "1e-10", "quad_order": "64"}


def solver_config(tmp_path, name: str, solver: dict[str, str]) -> str:
    """A shipped config with a ``[solver]`` section of raw values appended."""
    path = tmp_path / f"{name}.cfg"
    lines = "".join(f"{key} = {value}\n" for key, value in solver.items())
    path.write_text((CONFIGS / f"{name}.cfg").read_text() + "[solver]\n" + lines)
    return str(path)


OFF_FIXED = [
    *((key, value) for key in ("tol_root", "tol_fixed_point") for value in ("0", "-1", "nan", "inf", "1e-12")),
    *(("quad_order", value) for value in ("0", "-1", "96", "256", "257")),
]


@pytest.mark.parametrize("key,value", OFF_FIXED, ids=[f"{k}={v}" for k, v in OFF_FIXED])
def test_solver_key_off_its_fixed_value_exits_config(tmp_path, capsys, key, value):
    spec = tmp_path / "spec.sweep"
    spec.write_text("[sweep]\nparameter = tau\ngrid = 0.5 1\noutputs = a_star\n")
    for name in ("table2_power", "table1_log"):
        path = solver_config(tmp_path, name, {key: value})
        for argv in (
            ["solve", "--config", path],
            ["sweep", "--config", path, "--sweep", str(spec), "--out", str(tmp_path / "out.csv")],
            ["opt-tau", "--config", path, "--tau-cap", "2"],
            ["simulate", "--config", path, "--paths", "100"],
        ):
            assert cli.main(argv) == cli.EXIT_CONFIG, (name, argv[0])
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"config error: {key}: "), captured.err
            assert SOLVER_FIXED[key] in captured.err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("name", ["table1_log", "table2_power"])
def test_solver_section_at_its_fixed_values_changes_no_output(tmp_path, capsys, name):
    outputs = []
    for config in (str(CONFIGS / f"{name}.cfg"), solver_config(tmp_path, name, SOLVER_FIXED)):
        assert cli.main(["solve", "--config", config]) == cli.EXIT_OK
        outputs.append(capsys.readouterr())
    assert outputs[0].err == "" and outputs[0].out
    assert outputs[1] == outputs[0]


def steep_config(tmp_path, tau: float, x0: float) -> str:
    path = tmp_path / "steep.cfg"
    path.write_text(format_problem_config(ProblemConfig(utility="power", tau=tau, x0=x0, **STEEP)))
    return str(path)


# V(x0) = A*/alpha x0^beta is judged on V itself: it prints where x0^beta
# alone overflows (1e329), and a V below float64 exits 4, as one above does.
def test_v_x0_prints_where_only_the_power_of_x0_overflows(tmp_path, capsys):
    assert cli.main(["solve", "--config", steep_config(tmp_path, 5.0, 1e-180)]) == cli.EXIT_OK
    assert report(capsys.readouterr().out)["v_x0"] == "-2.56226817249e+278"


def test_a_v_x0_below_float64_exits_nonconvergence(tmp_path, capsys):
    assert cli.main(["solve", "--config", steep_config(tmp_path, 1.0, 1e300)]) == cli.EXIT_NONCONVERGENCE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "solver error: V(x) underflows float64 at x=1e+300\n"


def test_simulate_where_only_the_power_of_x0_overflows_compares_with_solve(tmp_path, capsys):
    config = steep_config(tmp_path, 5.0, 1e-180)
    assert cli.main(["solve", "--config", config]) == cli.EXIT_OK
    v_x0 = report(capsys.readouterr().out)["v_x0"]
    assert cli.main(["simulate", "--config", config, "--paths", "200"]) in (cli.EXIT_OK, cli.EXIT_MISMATCH)
    fields = report(capsys.readouterr().out)
    assert fields["analytic"] == v_x0
    assert math.isfinite(float(fields["mean"])) and float(fields["mean"]) < 0.0


def test_solver_failure_exit_nonconvergence(tmp_path, monkeypatch, capsys):
    def fail(problem):
        raise NonConvergence("forced")

    monkeypatch.setattr("periodic_portfolio.report.fixed_point", fail)
    path = write_config(tmp_path, "table2_power")
    assert cli.main(["solve", "--config", path]) == cli.EXIT_NONCONVERGENCE
    assert "forced" in capsys.readouterr().err


# error classes the CLI has never heard of, one in each family
class LaterConfigError(ConfigError):
    pass


class LaterParameterError(ParameterError):
    pass


class LaterSolverError(SolverError):
    pass


def portfolio_errors(cls=PortfolioError):
    for sub in cls.__subclasses__():
        yield sub
        yield from portfolio_errors(sub)


def test_every_error_class_exits_with_its_family_code(monkeypatch, capsys):
    classes = list(portfolio_errors())
    # the three families, the package's ten errors (QuadratureError three levels down) and the three above
    assert len(classes) >= 16
    assert {QuadratureError, LaterConfigError, LaterParameterError, LaterSolverError} <= set(classes)
    for cls in classes:
        (family,) = [family for family in FAMILY_EXITS if issubclass(cls, family)]
        code, prefix = FAMILY_EXITS[family]

        def fail(cfg, cls=cls):
            raise cls(f"forced {cls.__name__}")

        monkeypatch.setattr(cli, "solve", fail)
        assert cli.main(["solve", "--config", str(CONFIGS / "table1_log.cfg")]) == code, cls
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{prefix}forced {cls.__name__}\n", cls


def test_simulate_mismatch_exit(tmp_path, monkeypatch, capsys):
    argv = ["simulate", "--config", write_config(tmp_path, "table1_log"), "--paths", "2000"]
    assert cli.main(argv) == cli.EXIT_OK
    true = report(capsys.readouterr().out)
    solve = cli.solve

    def far_analytic(cfg):
        solved = solve(cfg)
        solved.fields["v_x0"] = 1e6
        return solved

    monkeypatch.setattr(cli, "solve", far_analytic)
    assert cli.main(argv) == cli.EXIT_MISMATCH
    out = report(capsys.readouterr().out)
    assert list(out) == list(true)
    assert out == {**true, "analytic": "1000000", "verdict": "fail"}


def test_repeated_config_key_exit_config(tmp_path, capsys):
    path = tmp_path / "repeated.cfg"
    path.write_text((CONFIGS / "table2_power.cfg").read_text().replace("r = 0.12", "r = 0.5\nr = 0.12"))
    assert cli.main(["solve", "--config", str(path)]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: line 7: repeated key 'r'\n"


# r = 0 and every excess return negative: the cone projection holds no stock
ZERO_GROWTH = {"mu": (-0.1, -0.05), "r": 0.0}


@pytest.mark.parametrize(
    "name,changes,objective",
    [
        pytest.param("table2_power", {}, "scaled", id="power-no-proposition"),
        pytest.param("table1_log", {"x0": 1.0}, "value", id="log-value-gate"),
        pytest.param("table1_log", {"x0": 50.0}, "scaled", id="log-scaled-gate"),
        pytest.param(
            "table2_power", {"gamma": 1.0, "delta": 0.05}, "scaled", id="power-scaled-gate"
        ),
        # zero growth, r + |xi_tilde|^2/2 = 0: no log proposition holds
        pytest.param("table1_log", ZERO_GROWTH | {"gamma": 1.0}, "scaled", id="log-zero-growth-gamma-1"),
        pytest.param("table1_log", ZERO_GROWTH, "value", id="log-zero-growth-value"),
        pytest.param("table1_log", ZERO_GROWTH, "scaled", id="log-zero-growth-scaled"),
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


# The two subcommands that write a CSV, `sweep --out` and `opt-tau --curve-out`,
# share one writer: an existing file ends as exactly the bytes a new one gets.
WRITERS = ["sweep", "opt-tau"]


def csv_argv(tmp_path, command: str, out) -> list[str]:
    """A cheap `sweep` or `opt-tau` call on table1 that writes its CSV to ``out``."""
    config = str(CONFIGS / "table1_log.cfg")
    if command == "opt-tau":
        return ["opt-tau", "--config", config, "--curve-out", str(out)]
    spec = tmp_path / "spec.sweep"
    spec.write_text("[sweep]\nparameter = tau\ngrid = 0.5 1 2\noutputs = a_star v_x0\n")
    return ["sweep", "--config", config, "--sweep", str(spec), "--out", str(out)]


def fresh_csv(tmp_path, capsys, command: str) -> bytes:
    fresh = tmp_path / "fresh.csv"
    assert cli.main(csv_argv(tmp_path, command, fresh)) == cli.EXIT_OK
    capsys.readouterr()
    return fresh.read_bytes()


@pytest.mark.parametrize("command", WRITERS)
@pytest.mark.parametrize("stale", ["100KB", "shorter"])
def test_a_stale_output_ends_as_the_bytes_of_a_fresh_one(tmp_path, capsys, command, stale):
    expected = fresh_csv(tmp_path, capsys, command)
    size = 100_000 if stale == "100KB" else len(expected) // 2
    out = tmp_path / "out.csv"
    out.write_bytes((b"stale,9\n" * size)[:size])
    assert cli.main(csv_argv(tmp_path, command, out)) == cli.EXIT_OK
    assert out.read_bytes() == expected


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
@pytest.mark.parametrize("command", WRITERS)
def test_a_fifo_receives_the_csv(tmp_path, capsys, command):
    # a FIFO cannot be truncated: a writer that always cuts the file to its length fails here
    expected = fresh_csv(tmp_path, capsys, command)
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        assert cli.main(csv_argv(tmp_path, command, fifo)) == cli.EXIT_OK
    finally:
        # a reader still waiting for a writer gets end of file
        with contextlib.suppress(OSError):
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        reader.join(timeout=60)
    assert not reader.is_alive()
    assert received == [expected]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
@pytest.mark.parametrize("command", WRITERS)
def test_a_full_device_exits_config(tmp_path, capsys, command):
    assert cli.main(csv_argv(tmp_path, command, "/dev/full")) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot write /dev/full" in captured.err


@pytest.mark.skipif(os.name != "posix", reason="file modes and the umask are POSIX")
@pytest.mark.parametrize("command", WRITERS)
@pytest.mark.parametrize("umask", [0o002, 0o027])
def test_a_new_output_gets_mode_0o666_less_the_umask(tmp_path, capsys, command, umask):
    out = tmp_path / "out.csv"
    old = os.umask(umask)
    try:
        assert cli.main(csv_argv(tmp_path, command, out)) == cli.EXIT_OK
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask


# `simulate` reports at --paths 30000 --seed 3, as the whole-matrix Monte Carlo
# printed them; a key ending in _tau_<t> is the config with tau = t. A change
# that moves the draws or the estimators must update these on purpose.
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
    # the automatic horizon here is 146 periods
    "table2_power_tau_0.5": """\
mean: 12.4128083744
std_error: 0.00258654489473
n_effective: 30000
truncation_bound: 9.70746880621e-09
analytic: 12.4112026887
k_sigma: 3
verdict: pass
""",
}


@pytest.mark.parametrize("name", sorted(SIMULATE_GOLDEN))
def test_simulate_report_golden(tmp_path, capsys, name):
    config, _, tau = name.partition("_tau_")
    path = write_config(tmp_path, config, tau=float(tau)) if tau else str(CONFIGS / f"{config}.cfg")
    argv = ["simulate", "--config", path, "--paths", "30000", "--seed", "3"]
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out == SIMULATE_GOLDEN[name]


# A golden's FLOOR stands for a fixed-point error_bound accepted at the float64
# floor of the residual: its digits are rounding, so any value in
# [0, tol_fixed_point] matches it.
FLOOR = "<floor>"
TOL_FIXED_POINT = 1e-10  # of the shipped configs


def assert_matches_golden(text: str, golden: str) -> None:
    """``text`` equals ``golden`` byte for byte, except where ``golden`` holds FLOOR."""
    pattern = re.escape(golden).replace(re.escape(FLOOR), r"([-+.0-9e]+)")
    match = re.fullmatch(pattern, text)
    assert match is not None, text
    for value in match.groups():
        assert 0.0 <= float(value) <= TOL_FIXED_POINT, value


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
error_bound: <floor>
v_x0: 5.91822088078
feedback_fractions: 0 0.738390101361
""",
}


@pytest.mark.parametrize("name", sorted(SOLVE_GOLDEN))
def test_solve_report_golden(capsys, name):
    assert cli.main(["solve", "--config", str(CONFIGS / f"{name}.cfg")]) == cli.EXIT_OK
    assert_matches_golden(capsys.readouterr().out, SOLVE_GOLDEN[name])


# Sweep specs and CSVs: every column each utility offers.
SWEEP_GOLDEN = {
    "table2_power": (
        "[sweep]\nparameter = gamma\ngrid = 0.6 0.75 0.9\n"
        "outputs = a_star y_star v_x0 lower_bound upper_bound contraction_modulus"
        " iterations error_bound xi_tilde_sq frac_1 frac_2\n",
        """\
gamma,a_star,y_star,v_x0,lower_bound,upper_bound,contraction_modulus,iterations,error_bound,xi_tilde_sq,frac_1,frac_2
0.6,3.30153923204,2.42405912715,5.74831367639,3.26148438865,3.30377824845,0.760180024051,3,<floor>,0.0144,0,0.718913226467
0.75,3.20257350377,1.88254194086,5.87354570323,3.17206885786,3.20499210907,0.752788152632,3,<floor>,0.0144,0,0.725088903177
0.9,3.11213514258,1.38245415895,6.01224878949,3.08816357596,3.11393176703,0.745558965526,3,<floor>,0.0144,0,0.797534420493
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
    assert_matches_golden(out.read_text(), expected)


# A sweep file with a [sweep] section takes its sweep from the section, so
# sweep keys at its top level would be ignored: they exit 2, named.
def test_sweep_keys_shadowed_by_the_sweep_section_exit_config(tmp_path, capsys):
    spec = tmp_path / "spec.sweep"
    spec.write_text("parameter = gamma\n[sweep]\nparameter = tau\ngrid = 0.5 1\noutputs = a_star\n")
    out = tmp_path / "out.csv"
    argv = ["sweep", "--config", str(CONFIGS / "table2_power.cfg"), "--sweep", str(spec), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "config error: top-level sweep keys ['parameter'] are shadowed by the [sweep] section\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("name", sorted(SWEEP_GOLDEN))
def test_one_file_with_a_sweep_section_is_both_config_and_sweep(tmp_path, name):
    spec_text, expected = SWEEP_GOLDEN[name]
    config = CONFIGS / f"{name}.cfg"
    combined = tmp_path / "combined.cfg"
    combined.write_text(config.read_text() + "\n" + spec_text)
    spec = tmp_path / "spec.sweep"
    spec.write_text(spec_text)
    outputs = []
    for config_path, spec_path in ((config, spec), (combined, combined)):
        out = tmp_path / f"{spec_path.stem}.csv"
        argv = ["sweep", "--config", str(config_path), "--sweep", str(spec_path), "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert_matches_golden(outputs[1].decode(), expected)


# Antithetic sampling is gone: a config that still sets the key is rejected, not ignored.
def test_an_antithetic_key_exits_config(tmp_path, capsys):
    path = tmp_path / "table2_power.cfg"
    path.write_text((CONFIGS / "table2_power.cfg").read_text() + "\n[mc]\nantithetic = false\n")
    for argv in (["solve", "--config", str(path)], ["simulate", "--config", str(path), "--paths", "200"]):
        assert cli.main(argv) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: unknown [mc] keys: ['antithetic']\n"


# A grid is numbers only: the range shorthand start:stop:step, however
# large, exits 2 as a bad number before any grid point is solved.
@pytest.mark.parametrize("grid", ["0.1:1e308:1e-300", "0:nan:1", "0:100000:1"])
def test_unbounded_range_shorthand_exit_config(tmp_path, capsys, grid):
    spec = tmp_path / "spec.sweep"
    spec.write_text(f"[sweep]\nparameter = tau\ngrid = {grid}\noutputs = a_star\n")
    out = tmp_path / "out.csv"
    argv = ["sweep", "--config", str(CONFIGS / "table2_power.cfg"), "--sweep", str(spec), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: grid: ")
    assert not out.exists()


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


# The curve of a power objective with gamma < 1 solves a fixed point per point,
# so it has 33 points, from tau*/10 to 4 tau*, where a closed form has 121.
def test_opt_tau_table2_capped_curve_is_the_objective_on_33_points(tmp_path, capsys):
    curve = tmp_path / "curve.csv"
    config = CONFIGS / "table2_power.cfg"
    argv = ["opt-tau", "--config", str(config), "--tau-cap", "4", "--curve-out", str(curve)]
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out == OPT_TAU_TABLE2_CAPPED_GOLDEN["scaled"]
    header, *rows = curve.read_text().splitlines()
    assert header == "tau,objective"
    objective = tau_objective(parse_problem_config(config.read_text()), True)
    tau_star = optimal_tau(objective, 4.0).tau_star
    taus = np.geomspace(tau_star / 10.0, tau_star * 4.0, 33)
    assert rows == [f"{t:.12g},{objective(t):.12g}" for t in taus]


# `opt-tau` on table2 with gamma = 1 (power, scaled objective): the
# proposition holds for delta = 0.11, where zeta(alpha) = 0.0672 lies in
# (delta/2, delta); for delta = 0.05 it fails, and the capped search over
# (0, 50] takes the last grid point, since A*(tau)*tau grows with tau there.
OPT_TAU_TABLE2_GAMMA1_GOLDEN = {
    "delta-0.11": """\
condition_holds: true
condition_detail: requires delta/2 < zeta(alpha) < delta: delta/2=0.055, zeta(alpha)=0.0672, delta=0.11; g(0+) = 1/delta = 9.09091
tau_star: 12.4738277011
objective_at_star: 9.79825535771
objective_kind: scaled_value
""",
    "delta-0.05-cap-50": """\
condition_holds: false
condition_detail: requires delta/2 < zeta(alpha) < delta: delta/2=0.025, zeta(alpha)=0.0672, delta=0.05; g(0+) = 1/delta = 20
tau_star: 50
objective_at_star: 128.724374815
objective_kind: scaled_value
""",
}


@pytest.mark.parametrize(
    "key,delta,extra",
    [("delta-0.11", 0.11, []), ("delta-0.05-cap-50", 0.05, ["--tau-cap", "50"])],
    ids=["delta-0.11", "delta-0.05-cap-50"],
)
def test_opt_tau_table2_gamma_one_golden(tmp_path, capsys, key, delta, extra):
    argv = ["opt-tau", "--config", write_config(tmp_path, "table2_power", gamma=1.0, delta=delta), *extra]
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out == OPT_TAU_TABLE2_GAMMA1_GOLDEN[key]


# With gamma = 1 and delta = 0.05 the capped tau* is the cap, and the curve
# reaches tau = 8 * cap, where the scaled objective overflows float64. The
# failing point is a typed failure: nothing on stdout and no CSV.
def test_opt_tau_failing_curve_point_prints_nothing(tmp_path, capsys):
    curve = tmp_path / "curve.csv"
    argv = ["opt-tau", "--config", write_config(tmp_path, "table2_power", gamma=1.0, delta=0.05),
            "--tau-cap", "6000", "--curve-out", str(curve)]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == cli.EXIT_NONCONVERGENCE
    assert captured.out == ""
    assert captured.err == "solver error: the gamma = 1 objective overflows at tau=41322.8\n"
    assert not curve.exists()


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


# A non-positive x0 on each log `opt-tau` branch: np.log of it is nan or
# -inf and does not raise, so `tau_objective` rejects it when it is built.
@pytest.mark.parametrize(
    "changes,extra",
    [
        pytest.param({}, ["--objective", "scaled"], id="scaled"),
        pytest.param({}, ["--objective", "value"], id="value-gate"),
        pytest.param({"gamma": 1.0}, ["--objective", "value", "--tau-cap", "4"], id="value-capped"),
        pytest.param({"gamma": 1.0}, ["--objective", "value"], id="value-uncapped"),
    ],
)
def test_opt_tau_log_nonpositive_x0_exit_assumption(tmp_path, capsys, changes, extra):
    argv = ["opt-tau", "--config", write_config(tmp_path, "table1_log", x0=-1.0, **changes), *extra]
    assert cli.main(argv) == cli.EXIT_ASSUMPTION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parameter/assumption error: value function requires x > 0\n"


# `solve` and `opt-tau` build a config in one place, so a config with two
# faults names the same one: the evaluation's before the volatility's.
@pytest.mark.parametrize(
    "name,changes,message",
    [
        pytest.param("table1_log", {"tau": 0.0}, "tau must be a positive real", id="log-tau"),
        pytest.param("table2_power", {"gamma": 1.5}, "gamma must lie in (0, 1]", id="power-gamma"),
    ],
)
def test_solve_and_opt_tau_name_the_same_fault(tmp_path, capsys, name, changes, message):
    path = write_config(tmp_path, name, sigma=(0.2, 0.0, 0.0, 0.0), **changes)
    for argv in (["solve", "--config", path], ["opt-tau", "--config", path, "--tau-cap", "2"]):
        assert cli.main(argv) == cli.EXIT_ASSUMPTION
        assert capsys.readouterr().err == f"parameter/assumption error: {message}\n"


# Power utility with gamma < 1 needs x0 > 0 for both objectives; with no
# proposition and no cap the search evaluates nothing, so `tau_objective`
# checks it when it is built.
@pytest.mark.parametrize("objective", ["scaled", "value"])
def test_opt_tau_power_nonpositive_x0_exit_assumption(tmp_path, capsys, objective):
    argv = ["opt-tau", "--config", write_config(tmp_path, "table2_power", x0=-1.0),
            "--objective", objective]
    assert cli.main(argv) == cli.EXIT_ASSUMPTION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parameter/assumption error: value function requires x > 0\n"


# The exit-code contract on extreme inputs: every run exits with a documented
# code and no traceback. Each value replaces one line of a shipped config (or
# is added to it: log utility rejects alpha, so that file exits 2).
DOCUMENTED_EXITS = {0, 2, 3, 4, 5, 6}
HUGE_COUNT = str(10**20)  # more elements than one array can hold


def config_with_line(tmp_path, name: str, key: str, value: str) -> str:
    text = (CONFIGS / f"{name}.cfg").read_text()
    text, found = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    if not found:
        text = f"{key} = {value}\n{text}"
    path = tmp_path / f"{name}.cfg"
    path.write_text(text)
    return str(path)


def run_cli(capsys, argv) -> tuple[int, str, str]:
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code in DOCUMENTED_EXITS and "Traceback" not in captured.err, (argv, code, captured.err)
    return code, captured.out, captured.err


def assert_typed_failure(code: int, out: str, err: str) -> None:
    assert code in (cli.EXIT_ASSUMPTION, cli.EXIT_NONCONVERGENCE), err
    assert out == ""
    assert err.count("\n") == 1 and err.endswith("\n"), err


# (key, value, configs on which `solve` and `simulate` must exit 3 or 4, and
# whether every subcommand must reject the value with exit 3 on both configs)
EXTREME_MODEL_FIELDS = [
    ("tau", "1e300", {"table2_power"}, False),
    ("tau", "1e-300", {"table1_log", "table2_power"}, False),
    ("alpha", "-1e300", {"table2_power"}, False),
    ("x0", "inf", set(), True),
    ("x0", "nan", set(), True),
    ("x0", "-inf", set(), True),
]


@pytest.mark.parametrize("name", ["table1_log", "table2_power"])
@pytest.mark.parametrize(
    "key,value,typed_on,rejected", EXTREME_MODEL_FIELDS, ids=[f"{k}={v}" for k, v, *_ in EXTREME_MODEL_FIELDS]
)
def test_extreme_model_fields_exit_with_a_documented_code(tmp_path, capsys, name, key, value, typed_on, rejected):
    path = config_with_line(tmp_path, name, key, value)
    for argv in (
        ["solve", "--config", path],
        ["opt-tau", "--config", path, "--tau-cap", "2"],
        ["simulate", "--config", path, "--paths", "200"],
    ):
        code, out, err = run_cli(capsys, argv)
        if rejected:
            assert_typed_failure(code, out, err)
            assert code == cli.EXIT_ASSUMPTION, (argv[0], err)
        elif name in typed_on and argv[0] != "opt-tau":
            assert_typed_failure(code, out, err)


# Monte Carlo values are read only by `simulate`, which rejects them before it draws.
# One path has no standard error, so no comparison could fail: it is rejected too.
@pytest.mark.parametrize("name", ["table1_log", "table2_power"])
@pytest.mark.parametrize(
    "key,value,flags",
    [
        pytest.param("seed", "-3", [], id="config-seed-negative"),
        pytest.param("seed", str(2**128), [], id="config-seed-2**128"),
        pytest.param("n_paths", HUGE_COUNT, [], id="config-paths-1e20"),
        pytest.param("n_paths", "1", [], id="config-paths-1"),
        pytest.param("n_periods", HUGE_COUNT, ["--paths", "200"], id="config-periods-1e20"),
        pytest.param(None, None, ["--seed", "-1"], id="flag-seed-negative"),
        pytest.param(None, None, ["--seed", str(2**128)], id="flag-seed-2**128"),
        pytest.param(None, None, ["--paths", HUGE_COUNT], id="flag-paths-1e20"),
        pytest.param(None, None, ["--paths", "1", "--seed", "3"], id="flag-paths-1"),
    ],
)
def test_extreme_simulation_values_exit_assumption(tmp_path, capsys, name, key, value, flags):
    path = config_with_line(tmp_path, name, key, value) if key else str(CONFIGS / f"{name}.cfg")
    code, out, err = run_cli(capsys, ["simulate", "--config", path, *flags])
    assert_typed_failure(code, out, err)
    assert code == cli.EXIT_ASSUMPTION
    if "1" in (value, *flags):  # the one-path cases
        assert "a standard error needs two paths" in err


# The horizon is set only by [mc] n_periods: a --periods flag is a usage error.
@pytest.mark.parametrize("name", ["table1_log", "table2_power"])
def test_simulate_has_no_periods_flag(capsys, name):
    argv = ["simulate", "--config", str(CONFIGS / f"{name}.cfg"), "--paths", "200", "--periods", HUGE_COUNT]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: periodic-portfolio")
    assert captured.err.endswith(f"error: unrecognized arguments: --periods {HUGE_COUNT}\n")


# Well-posed configurations whose closed forms leave float64 exit 4, not with a traceback.
def test_overflowing_a_priori_bound_exits_nonconvergence(tmp_path, capsys):
    # delta = 0.02 > zeta(0.1) = 0.0128 keeps table2 well-posed, but at tau = 20000
    # the a-priori bounds of A* overflow
    path = write_config(tmp_path, "table2_power", delta=0.02, tau=20000.0)
    for argv in (["solve", "--config", path], ["simulate", "--config", path, "--paths", "200"]):
        code, out, err = run_cli(capsys, argv)
        assert_typed_failure(code, out, err)
        assert code == cli.EXIT_NONCONVERGENCE, (argv[0], err)
        assert "overflows" in err


@pytest.mark.parametrize("cap", ["41000", "100000"])
@pytest.mark.parametrize("objective", ["scaled", "value"])
def test_overflowing_gamma_one_objective_exits_nonconvergence(tmp_path, capsys, objective, cap):
    # with gamma = 1, A*(tau) = exp((zeta(alpha) - delta) tau) / (1 - exp(-delta tau)),
    # and zeta(alpha) > delta = 0.05, so the capped grid reaches a tau where it overflows:
    # with a cap of 41000 the exponential stays finite and only its product with tau overflows
    path = write_config(tmp_path, "table2_power", gamma=1.0, delta=0.05)
    argv = ["opt-tau", "--config", path, "--objective", objective, "--tau-cap", cap]
    code, out, err = run_cli(capsys, argv)
    assert_typed_failure(code, out, err)
    assert code == cli.EXIT_NONCONVERGENCE, err
    assert "overflows" in err


# TINY_LOWER_BOUND (conftest) is well posed, so every call solves: no traceback from
# a fixed-point step below 0 (tau = 1.0506), and no exit 3, which is kept for
# parameter errors, from a period sum that leaves float64 (tau = 2).
@pytest.mark.parametrize(
    "tau,argv",
    [
        (TINY_LOWER_BOUND["tau"], ["solve"]),
        (TINY_LOWER_BOUND["tau"], ["opt-tau", "--tau-cap", "5"]),
        (2.0, ["solve"]),
    ],
    ids=["solve", "capped-opt-tau", "solve-tau-2"],
)
def test_a_tiny_lower_bound_on_a_star_solves(tmp_path, capsys, tau, argv):
    path = write_config(tmp_path, "table2_power", **dict(TINY_LOWER_BOUND, tau=tau))
    code, out, err = run_cli(capsys, [argv[0], "--config", path, *argv[1:]])
    assert code == cli.EXIT_OK, err
    assert out and err == ""


# A tiny delta puts the a-priori upper bound on A* at 2.5e200, 2.5e300 or inf
# (TINY_DELTA, conftest); the A* Newton starts at the lower bound, 59.0, and
# solves in 3 evaluations at each.
@pytest.mark.parametrize("delta", [5e-324, 1e-300, 1e-200])
def test_a_tiny_delta_solves_from_the_lower_bound(tmp_path, capsys, delta):
    path = tmp_path / "tiny_delta.cfg"
    path.write_text(format_problem_config(ProblemConfig(utility="power", **dict(TINY_DELTA, delta=delta))))
    code, out, err = run_cli(capsys, ["solve", "--config", str(path)])
    assert code == cli.EXIT_OK, err
    assert report(out)["a_star"] == "59.1646573692"


# One parser serves every `cli.main` call of a process.
def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_a_capped_call_leaves_no_cap_behind(capsys):
    path = str(CONFIGS / "table2_power.cfg")
    assert cli.main(["opt-tau", "--config", path, "--tau-cap", "2"]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["opt-tau", "--config", path]) == cli.EXIT_NO_PROPOSITION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no sufficient condition" in captured.err


def test_a_seeded_call_leaves_no_seed_behind(capsys):
    argv = ["simulate", "--config", str(CONFIGS / "table1_log.cfg"), "--paths", "200"]
    assert cli.main(argv) == cli.EXIT_OK
    config_seed = capsys.readouterr().out
    cli.main([*argv, "--seed", "5"])
    assert capsys.readouterr().out != config_seed
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out == config_seed


def test_a_rejected_argv_writes_usage_to_the_current_stderr(capsys):
    argv = ["solve", "--config", str(CONFIGS / "table1_log.cfg")]
    assert cli.main(argv) == cli.EXIT_OK
    first = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve"])
    assert exc.value.code == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: periodic-portfolio solve")
    assert "the following arguments are required: --config" in captured.err
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out == first


# A sweep raises the error of its first failing grid point in grid order,
# with the point's prefix and exit code, whichever stage fails: building the
# point (tau = -1), solving its fixed point (tau = 1e-300, 1e300 and 1e301
# fail before any period sum; at tau = 1e4, A* = Psi(A) underflows float64)
# or forming its report (x0 = -1 and 0). In the fourth case tau = 1e300 fails
# in fewer steps than tau = 1e4, which comes first. A non-finite grid value
# is rejected before any point is solved (``SweepSpec``).
SWEEP_ERRORS = {
    ("tau", "-1 1e-300 1"): (
        cli.EXIT_ASSUMPTION,
        "parameter/assumption error: at grid point tau=-1: tau must be a positive real\n",
    ),
    ("tau", "1e-300 1 1e300"): (
        cli.EXIT_ASSUMPTION,
        "parameter/assumption error: at grid point tau=1e-300: "
        "tau is too small to evaluate stably: 1 - q rounds to 0\n",
    ),
    ("tau", "1 1e300 1e301"): (
        cli.EXIT_NONCONVERGENCE,
        "solver error: at grid point tau=1e+300: y* Newton left the float64 range at log y = 6.72e+298\n",
    ),
    ("tau", "1 1e4 1e300"): (
        cli.EXIT_NONCONVERGENCE,
        "solver error: at grid point tau=10000: A* underflows float64 at tau=10000\n",
    ),
    ("x0", "-1 0 1"): (
        cli.EXIT_ASSUMPTION,
        "parameter/assumption error: at grid point x0=-1: value function requires x > 0\n",
    ),
}


@pytest.mark.parametrize("parameter,grid", sorted(SWEEP_ERRORS))
def test_sweep_raises_the_first_failing_point_in_grid_order(tmp_path, capsys, parameter, grid):
    spec = tmp_path / "spec.sweep"
    spec.write_text(f"[sweep]\nparameter = {parameter}\ngrid = {grid}\noutputs = a_star\n")
    out = tmp_path / "out.csv"
    argv = ["sweep", "--config", str(CONFIGS / "table2_power.cfg"), "--sweep", str(spec), "--out", str(out)]
    code, message = SWEEP_ERRORS[parameter, grid]
    assert cli.main(argv) == code
    assert capsys.readouterr().err == message
    assert not out.exists()


def edited(name: str, pattern: str = "", repl: str = "", append: str = ""):
    """A writer of a shipped text config: the one line matching ``pattern`` becomes ``repl``, then ``append``."""

    def write(tmp_path) -> str:
        text = (CONFIGS / f"{name}.cfg").read_text()
        if pattern:
            text, found = re.subn(pattern, repl, text, flags=re.M)
            assert found == 1, pattern
        path = tmp_path / f"{name}.cfg"
        path.write_text(text + append)
        return str(path)

    return write


def shipped(name: str):
    return lambda tmp_path: str(CONFIGS / f"{name}.cfg")


def written(filename: str, text: str):
    """A writer of ``text`` to ``filename`` in the temporary directory."""

    def write(tmp_path) -> str:
        path = tmp_path / filename
        path.write_text(text)
        return str(path)

    return write


# table1 as a JSON object: the text grammar reads its first line, and stops there
JSON_CONFIG = (
    '{"utility": "log", "mu": [0.1, 0.15], "sigma": [0.2, 0, 0, 0.25], '
    '"r": 0.12, "tau": 1, "gamma": 0.8, "delta": 0.3, "x0": 0.5}'
)
# a sweep as a JSON object, read the same way
JSON_SWEEP = '{"sweep": {"parameter": "tau", "grid": [0.5, 1], "outputs": ["a_star"]}}'


def sweep_spec(parameter: str = "tau", grid: str = "0.5 1", outputs: str = "a_star") -> str:
    return f"[sweep]\nparameter = {parameter}\ngrid = {grid}\noutputs = {outputs}\n"


# One case per message of a config, sweep or parameter error: (command, config
# writer, sweep spec, exit code, the whole stderr, with {path} for the config's path).
EXIT_PATHS = [
    pytest.param("solve", edited("table1_log", r"^tau = .*\n"), None, cli.EXIT_CONFIG,
                 "config error: missing required key 'tau'\n", id="missing-key"),
    pytest.param("solve", edited("table1_log", append="[foo]\nbar = 1\n"), None, cli.EXIT_CONFIG,
                 "config error: unknown section [foo]\n", id="unknown-section"),
    pytest.param("solve", edited("table1_log", r"^utility = log$", "utility = exp"), None, cli.EXIT_CONFIG,
                 "config error: utility must be 'power' or 'log', got 'exp'\n", id="utility"),
    pytest.param("solve", edited("table1_log", r"^n = 2\nmu = .*$", "mu ="), None, cli.EXIT_CONFIG,
                 "config error: mu must have at least one entry\n", id="empty-mu"),
    pytest.param("solve", edited("table1_log", r"^sigma = .*$", "sigma = 0.2 0 0.25"), None, cli.EXIT_CONFIG,
                 "config error: sigma must have n*n=4 row-major entries, got 3\n", id="sigma-size"),
    pytest.param("solve", edited("table2_power", r"^alpha = .*\n"), None, cli.EXIT_CONFIG,
                 "config error: power utility requires alpha\n", id="no-alpha"),
    pytest.param("solve", edited("table1_log", r"^n = 2$", "n = 3"), None, cli.EXIT_CONFIG,
                 "config error: declared n=3 but mu has 2 entries\n", id="declared-n"),
    pytest.param("solve", edited("table1_log", append="garbage line\n"), None, cli.EXIT_CONFIG,
                 "config error: line 16: expected 'key = value', got 'garbage line'\n", id="no-equals"),
    pytest.param("solve", lambda tmp_path: str(tmp_path / "missing.cfg"), None, cli.EXIT_CONFIG,
                 "config error: cannot read {path}: [Errno 2] No such file or directory: '{path}'\n",
                 id="unreadable"),
    pytest.param("solve", written("table1.json", JSON_CONFIG), None, cli.EXIT_CONFIG,
                 f"config error: line 1: expected 'key = value', got {JSON_CONFIG!r}\n", id="json-config"),
    pytest.param("solve", edited("table2_power", r"^n_paths = .*$", "n_paths = 2.5"), None, cli.EXIT_CONFIG,
                 "config error: n_paths: expected an integer, got '2.5'\n", id="integer"),
    pytest.param("solve", edited("table1_log", r"^x0 = 0.5$", "x0 = 0.5\nfoo = 1"), None, cli.EXIT_CONFIG,
                 "config error: unknown top-level keys: ['foo']\n", id="unknown-top-level-key"),
    pytest.param("solve", edited("table1_log", append="[solver]\nmax_iter = 50\n"), None, cli.EXIT_CONFIG,
                 "config error: unknown [solver] keys: ['max_iter']\n", id="unknown-solver-key"),
    pytest.param("solve", edited("table2_power", append="[solver]\nquad_order = 32\n"), None, cli.EXIT_CONFIG,
                 "config error: quad_order: the solver fixes it at 64, got '32'\n", id="solver-fixed"),
    pytest.param("solve", edited("table1_log", r"^x0 = 0.5$", "x0 = 0.5\nalpha = 0.5"), None, cli.EXIT_CONFIG,
                 "config error: log utility takes no alpha\n", id="log-alpha"),
    pytest.param("sweep", shipped("table2_power"), sweep_spec(grid=""), cli.EXIT_CONFIG,
                 "config error: sweep grid is empty\n", id="empty-grid"),
    pytest.param("sweep", shipped("table2_power"), sweep_spec(grid="1 0.5"), cli.EXIT_CONFIG,
                 "config error: sweep grid must be strictly increasing\n", id="decreasing-grid"),
    pytest.param("sweep", shipped("table2_power"), sweep_spec(grid="1 nan 0.5"), cli.EXIT_CONFIG,
                 "config error: sweep grid values must be finite, got nan\n", id="nan-grid"),
    pytest.param("sweep", shipped("table1_log"), sweep_spec(parameter="x0", grid="0.5 1 inf"), cli.EXIT_CONFIG,
                 "config error: sweep grid values must be finite, got inf\n", id="inf-grid"),
    pytest.param("sweep", shipped("table2_power"), sweep_spec(grid="0.5:1.5:0.5"), cli.EXIT_CONFIG,
                 "config error: grid: expected a number, got '0.5:1.5:0.5'\n", id="range-grid"),
    pytest.param("sweep", shipped("table2_power"), sweep_spec(outputs=""), cli.EXIT_CONFIG,
                 "config error: sweep outputs are empty\n", id="empty-outputs"),
    pytest.param("sweep", shipped("table2_power"), "[sweep]\nparameter = tau\noutputs = a_star\n", cli.EXIT_CONFIG,
                 "config error: sweep is missing key 'grid'\n", id="no-grid"),
    pytest.param("sweep", shipped("table2_power"), sweep_spec() + "outptus = v_x0\n", cli.EXIT_CONFIG,
                 "config error: unknown sweep keys: ['outptus']\n", id="unknown-sweep-key"),
    pytest.param("sweep", shipped("table2_power"), JSON_SWEEP, cli.EXIT_CONFIG,
                 f"config error: line 1: expected 'key = value', got {JSON_SWEEP!r}\n", id="json-sweep"),
    pytest.param("sweep", shipped("table1_log"), sweep_spec(parameter="alpha"), cli.EXIT_CONFIG,
                 "config error: alpha can only be swept for power utility\n", id="log-alpha-sweep"),
    pytest.param("sweep", shipped("table2_power"), sweep_spec(parameter="foo"), cli.EXIT_CONFIG,
                 "config error: unknown sweep parameter 'foo'\n", id="unknown-parameter"),
    pytest.param("sweep", shipped("table2_power"), sweep_spec(parameter="mu_3"), cli.EXIT_CONFIG,
                 "config error: index out of range in sweep parameter 'mu_3'\n", id="mu-index"),
    pytest.param("sweep", shipped("table2_power"), sweep_spec(parameter="mu_1_0"), cli.EXIT_CONFIG,
                 "config error: bad index in sweep parameter 'mu_1_0'\n", id="mu-underscore"),
    pytest.param("sweep", shipped("table2_power"), sweep_spec(parameter="sigma_1"), cli.EXIT_CONFIG,
                 "config error: bad sigma sweep parameter 'sigma_1': expected sigma_<i>_<j>\n", id="sigma-index"),
    pytest.param("sweep", shipped("table2_power"), sweep_spec(parameter="sigma_12"), cli.EXIT_CONFIG,
                 "config error: bad sigma sweep parameter 'sigma_12': expected sigma_<i>_<j>\n", id="sigma-two-digits"),
    pytest.param("sweep", shipped("table1_log"), sweep_spec(outputs="y_star"), cli.EXIT_CONFIG,
                 "config error: unknown sweep outputs for log: ['y_star']\n", id="log-outputs"),
    pytest.param("solve", edited("table1_log", r"^mu = .*$", "mu = nan 0.15"), None, cli.EXIT_ASSUMPTION,
                 "parameter/assumption error: market coefficients must be finite\n", id="nan-mu"),
    pytest.param("simulate", edited("table2_power", r"^n_periods = auto$", "n_periods = 0"), None,
                 cli.EXIT_ASSUMPTION, "parameter/assumption error: n_periods must be >= 1 when given\n",
                 id="zero-periods"),
]  # fmt: skip


@pytest.mark.parametrize("command,config,spec,code,message", EXIT_PATHS)
def test_each_rejected_input_exits_with_its_one_message(tmp_path, capsys, command, config, spec, code, message):
    path = config(tmp_path)
    out = tmp_path / "out.csv"
    argv = [command, "--config", path]
    if command == "sweep":
        spec_path = tmp_path / "spec.sweep"
        spec_path.write_text(spec)
        argv += ["--sweep", str(spec_path), "--out", str(out)]
    elif command == "simulate":
        argv += ["--paths", "200"]
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message.replace("{path}", path)
    assert not out.exists()


def test_a_sweep_with_a_byte_order_mark_writes_the_csv_of_its_plain_copy(tmp_path, capsys):
    text = sweep_spec(grid="0.5 1 2", outputs="a_star v_x0 frac_2").encode()
    csvs = []
    for name, data in (("plain", text), ("bom", b"\xef\xbb\xbf" + text)):
        spec, out = tmp_path / f"{name}.sweep", tmp_path / f"{name}.csv"
        spec.write_bytes(data)
        argv = ["sweep", "--config", str(CONFIGS / "table2_power.cfg"), "--sweep", str(spec), "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        assert capsys.readouterr().err == ""
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]


# CRLF line ends, and the byte-order mark that some Windows editors write first
SPELLINGS = {
    "crlf": ("table1_log", lambda data: data.replace(b"\n", b"\r\n")),
    "bom": ("table2_power", lambda data: b"\xef\xbb\xbf" + data),
}


@pytest.mark.parametrize("spelling", sorted(SPELLINGS))
def test_a_config_prints_the_report_of_its_plain_copy(tmp_path, capsys, spelling):
    name, respell = SPELLINGS[spelling]
    config = CONFIGS / f"{name}.cfg"
    copy = tmp_path / f"{name}_{spelling}.cfg"
    copy.write_bytes(respell(config.read_bytes()))
    reports = []
    for path in (config, copy):
        assert cli.main(["solve", "--config", str(path)]) == cli.EXIT_OK
        reports.append(capsys.readouterr())
    assert reports[0].err == reports[1].err == ""
    assert reports[0].out == reports[1].out
