import dataclasses
import importlib.util
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodic_portfolio import ProblemConfig, format_problem_config, parse_problem_config
from periodic_portfolio.config import apply_sweep_value, parse_sweep_spec
from periodic_portfolio.errors import ConfigError

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

reals = st.floats(allow_nan=False)


@st.composite
def problem_configs(draw):
    n = draw(st.integers(1, 4))
    utility = draw(st.sampled_from(["power", "log"]))
    as_numpy = draw(st.booleans())
    mu = draw(st.lists(reals, min_size=n, max_size=n))
    sigma = draw(st.lists(reals, min_size=n * n, max_size=n * n))
    scalars = {k: draw(reals) for k in ("r", "tau", "gamma", "delta", "x0")}
    alpha = draw(reals) if utility == "power" else None
    ints = dict(
        n_paths=draw(st.integers(1, 10**7)),
        n_periods=draw(st.none() | st.integers(1, 10**5)),
        seed=draw(st.integers(0, 2**63 - 1)),
    )
    if as_numpy:
        mu, sigma = np.array(mu), np.array(sigma)
        scalars = {k: np.float64(v) for k, v in scalars.items()}
        alpha = None if alpha is None else np.float64(alpha)
        ints = {k: None if v is None else np.int64(v) for k, v in ints.items()}
    return ProblemConfig(utility=utility, mu=mu, sigma=sigma, alpha=alpha, **scalars, **ints)


@settings(max_examples=200, deadline=None)
@given(problem_configs())
def test_format_parse_round_trip(cfg):
    text = format_problem_config(cfg)
    assert "np." not in text
    assert parse_problem_config(text) == cfg


def test_numpy_vectors_are_stored_as_tuples():
    cfg = ProblemConfig(
        utility="log",
        mu=np.array([0.1, 0.15]),
        sigma=np.array([0.2, 0.0, 0.0, 0.25]),
        r=0.12,
        tau=1.0,
        gamma=0.8,
        delta=0.3,
        x0=0.5,
    )
    assert cfg.mu == (0.1, 0.15) and cfg.sigma == (0.2, 0.0, 0.0, 0.25)
    assert cfg == dataclasses.replace(cfg, mu=[0.1, 0.15])


def test_bad_vector_token_is_named():
    text = "utility = log\nn = 3\nmu = 0.1, 0.2 oops\nsigma = 1 0 0 0 1 0 0 0 1\n"
    with pytest.raises(ConfigError, match=r"^mu: expected a number, got 'oops'$"):
        parse_problem_config(text)


# Keys, section names and the words utility and auto ignore case.
@pytest.mark.parametrize("name", ["table1_log", "table2_power"])
def test_a_config_in_capitals_parses_equal(name):
    text = (CONFIGS / f"{name}.cfg").read_text()
    assert parse_problem_config(text.upper()) == parse_problem_config(text)


# A JSON file is not a second syntax: its first line, "{", is no key = value pair.
@pytest.mark.parametrize("name", ["table1_log", "table2_power"])
def test_a_shipped_config_as_json_is_rejected_at_line_1(name):
    cfg = parse_problem_config((CONFIGS / f"{name}.cfg").read_text())
    payload = {key: value for key, value in dataclasses.asdict(cfg).items() if value is not None}
    with pytest.raises(ConfigError, match=r"^line 1: expected 'key = value', got '\{'$"):
        parse_problem_config(json.dumps(payload, indent=2))


# Comments, blank lines, indentation and spaces around "=" change nothing.
def test_comments_and_layout_are_ignored():
    text = (CONFIGS / "table1_log.cfg").read_text()
    laid_out = "\n# a comment line\n\n" + "".join(
        f"  {key.strip()}   =\t{value.strip()}  # note\n" if eq else f"{line}\n"
        for line in text.splitlines()
        for key, eq, value in [line.partition("=")]
    )
    assert parse_problem_config(laid_out) == parse_problem_config(text)


# A vector's numbers are separated by commas, whitespace or both.
@pytest.mark.parametrize("mu", ["0.1,0.15", "0.1, 0.15", "0.1 ,0.15", "0.1\t0.15", "  0.1   0.15  "])
def test_vector_separators_parse_equal(mu):
    text = (CONFIGS / "table1_log.cfg").read_text()
    assert parse_problem_config(text.replace("mu = 0.1 0.15", f"mu = {mu}")) == parse_problem_config(text)


# Each key's parser names the key and the raw value it rejects.
@pytest.mark.parametrize(
    "old,new,message",
    [
        pytest.param("r = 0.12", "r = 0.12 0.1", "r: expected a number, got '0.12 0.1'", id="vector-for-scalar"),
        pytest.param("n = 2", "n = true", "n: expected an integer, got 'true'", id="n-word"),
        pytest.param("n_periods = auto", "n_periods = 2.5", "n_periods: expected an integer, got '2.5'", id="periods"),
        pytest.param("seed = 42", "seed = 1e3", "seed: expected an integer, got '1e3'", id="seed-float-literal"),
    ],
)
def test_a_value_its_key_rejects_is_named(old, new, message):
    text = (CONFIGS / "table1_log.cfg").read_text()
    assert old in text
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_problem_config(text.replace(old, new))


def sweep_text(grid: str) -> str:
    return f"[sweep]\nparameter = tau\ngrid = {grid}\noutputs = a_star\n"


# A sweep file without a [sweep] section keeps its keys at the top level,
# and outputs, like a grid, may be separated by commas.
def test_a_sweep_without_a_section_parses_equal():
    top = "parameter = tau\ngrid = 0.5, 1 2\noutputs = a_star,v_x0\n"
    spec = parse_sweep_spec(top)
    assert spec == parse_sweep_spec("[sweep]\n" + top)
    assert spec.grid == (0.5, 1.0, 2.0) and spec.outputs == ("a_star", "v_x0")


def test_an_unknown_sweep_key_is_a_config_error():
    with pytest.raises(ConfigError, match=r"^unknown sweep keys: \['outptus'\]$"):
        parse_sweep_spec(sweep_text("1 2") + "outptus = v_x0\n")


# A grid is numbers only. The spellings the start:stop:step range once read,
# each an edge of that range's bounds, are each one bad number now.
@pytest.mark.parametrize(
    "grid",
    [
        pytest.param("0.5:1.5:0.5", id="inclusive"),
        pytest.param("0.1:1e308:1e-300", id="quotient-overflows"),
        pytest.param("-1e308:1e308:1", id="difference-overflows"),
        pytest.param("0:100000:1", id="many-points"),
        pytest.param("0:nan:1", id="nan-stop"),
        pytest.param("nan:1:1", id="nan-start"),
        pytest.param("0:1:nan", id="nan-step"),
        pytest.param("-inf:1:1", id="infinite-start"),
        pytest.param("0:inf:1", id="infinite-stop"),
        pytest.param("0:1:inf", id="infinite-step"),
        pytest.param("0:1:0", id="zero-step"),
    ],
)
def test_a_range_grid_is_one_bad_number(grid):
    with pytest.raises(ConfigError, match=f"^grid: expected a number, got {re.escape(repr(grid))}$"):
        parse_sweep_spec(sweep_text(grid))


# format_problem_config's text of the shipped configs: the grammar's order,
# with n right after utility, and every float written as repr(float(v)).
SHIPPED_TEXT = {
    "table1_log": """\
utility = log
n = 2
mu = 0.1 0.15
sigma = 0.2 0.0 0.0 0.25
r = 0.12
tau = 1.0
gamma = 0.8
delta = 0.3
x0 = 0.5

[mc]
n_paths = 100000
n_periods = auto
seed = 42
""",
    "table2_power": """\
utility = power
n = 2
mu = 0.1 0.15
sigma = 0.2 0.0 0.0 0.25
r = 0.12
tau = 1.0
gamma = 0.8
delta = 0.3
x0 = 0.5
alpha = 0.5

[mc]
n_paths = 100000
n_periods = auto
seed = 42
""",
}


@pytest.mark.parametrize("name", sorted(SHIPPED_TEXT))
def test_format_of_the_shipped_configs_is_pinned(name):
    cfg = parse_problem_config((CONFIGS / f"{name}.cfg").read_text())
    assert format_problem_config(cfg) == SHIPPED_TEXT[name]


# Every optional key set to a value other than its default.
EVERY_KEY_TEXT = """\
utility = power
n = 3
mu = 0.1, 0.15, 0.05
sigma = 0.2 0 0  0.01 0.25 0  0 0.02 0.3
r = 0.03
tau = 0.5
gamma = 0.6
delta = 0.7
x0 = 2.5
alpha = -1.5
[mc]
n_paths = 5000
n_periods = 40
seed = 7
"""


def test_setting_every_key_parses_and_round_trips():
    cfg = parse_problem_config(EVERY_KEY_TEXT)
    assert cfg.mu == (0.1, 0.15, 0.05) and cfg.sigma[3] == 0.01 and cfg.alpha == -1.5
    for field in dataclasses.fields(ProblemConfig):
        if field.default is not dataclasses.MISSING:
            assert getattr(cfg, field.name) != field.default, field.name
    assert cfg.n_periods == 40
    assert parse_problem_config(format_problem_config(cfg)) == cfg


def test_float32_scalars_round_trip():
    f32 = np.float32
    cfg = ProblemConfig(
        utility="power",
        mu=(f32(0.1), f32(0.15)),
        sigma=(f32(0.2), f32(0.0), f32(0.0), f32(0.25)),
        r=f32(0.12),
        tau=f32(1.0),
        gamma=f32(0.8),
        delta=f32(0.3),
        x0=f32(0.5),
        alpha=f32(0.5),
    )
    text = format_problem_config(cfg)
    assert "np." not in text and f"r = {float(f32(0.12))!r}\n" in text
    assert parse_problem_config(text) == cfg


TABLE2 = (CONFIGS / "table2_power.cfg").read_text()


# A key given twice in one section is an error naming the key and the line of
# its second occurrence; keys and section names ignore case.
@pytest.mark.parametrize(
    "text,message",
    [
        pytest.param(TABLE2.replace("r = 0.12", "r = 0.5\nr = 0.12"), "line 7: repeated key 'r'", id="top"),
        pytest.param(TABLE2.replace("r = 0.12", "R = 0.5\nr = 0.12"), "line 7: repeated key 'r'", id="case"),
        pytest.param(
            TABLE2 + "[solver]\ntol_root = 1e-10\ntol_root = 1e-10\n", "line 19: repeated key 'tol_root'", id="solver"
        ),
        pytest.param(TABLE2 + "[MC]\nseed = 7\n", "line 18: repeated key 'seed'", id="reopened-section"),
        pytest.param(TABLE2.replace("seed = 42", "seed = 7\nSeed = 42"), "line 17: repeated key 'seed'", id="mc"),
        pytest.param(
            TABLE2 + "[Solver]\nquad_order = 64\n[SOLVER]\nQUAD_ORDER = 64\n",
            "line 20: repeated key 'quad_order'",
            id="section-case",
        ),
    ],
)
def test_repeated_text_key_is_a_config_error(text, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_problem_config(text)


# A section opened again adds its keys to those it already holds.
def test_a_reopened_section_adds_its_keys():
    split = TABLE2.replace("seed = 42", "[solver]\nquad_order = 64\n[mc]\nseed = 42")
    assert split.count("[mc]") == 2
    assert parse_problem_config(split) == parse_problem_config(TABLE2)


def test_a_key_may_repeat_across_sections():
    assert parse_problem_config(TABLE2 + "[sweep]\nseed = 7\n") == parse_problem_config(TABLE2)


def test_repeated_sweep_key_is_a_config_error():
    with pytest.raises(ConfigError, match=r"^line 5: repeated key 'grid'$"):
        parse_sweep_spec(sweep_text("1 2") + "grid = 3 4\n")


# A sweep index is ASCII digits alone; int() would also read these.
@pytest.mark.parametrize("parameter", ["mu_+1", "mu_\u0661", "sigma_1_+2", "sigma_ 1_2"])
def test_a_sweep_index_that_is_not_ascii_digits_is_a_config_error(parameter):
    cfg = parse_problem_config((CONFIGS / "table1_log.cfg").read_text())
    with pytest.raises(ConfigError, match=f"^bad index in sweep parameter {re.escape(repr(parameter))}$"):
        apply_sweep_value(cfg, parameter, 0.1)


# The benchmark writes its own config files, with a [solver] section at the
# solver's fixed values; a change to the grammar that rejects one of them
# fails here, not only in the benchmark.
@pytest.mark.parametrize("workload", ["power_grid", "mc_verify", "closed_form"])
def test_every_config_the_benchmark_writes_parses(tmp_path, monkeypatch, workload):
    spec = importlib.util.spec_from_file_location("perfbench_inputs", ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, inputs)  # its dataclasses look their module up
    spec.loader.exec_module(inputs)
    inputs.build(workload, 1, tmp_path)
    paths = sorted(tmp_path.glob("*.cfg"))
    assert paths
    for path in paths:
        parse_problem_config(path.read_text())
