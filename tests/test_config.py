import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodic_portfolio import ProblemConfig, format_problem_config, parse_problem_config
from periodic_portfolio.config import _RANGE_POINTS_CAP, parse_sweep_spec
from periodic_portfolio.errors import ConfigError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

reals = st.floats(allow_nan=False)


@st.composite
def problem_configs(draw):
    n = draw(st.integers(1, 4))
    utility = draw(st.sampled_from(["power", "log"]))
    as_numpy = draw(st.booleans())
    mu = draw(st.lists(reals, min_size=n, max_size=n))
    sigma = draw(st.lists(reals, min_size=n * n, max_size=n * n))
    scalars = {k: draw(reals) for k in ("r", "tau", "gamma", "delta", "x0", "tol_root", "tol_fixed_point")}
    alpha = draw(reals) if utility == "power" else None
    ints = dict(
        quad_order=draw(st.integers(1, 512)),
        n_paths=draw(st.integers(1, 10**7)),
        n_periods=draw(st.none() | st.integers(1, 10**5)),
        seed=draw(st.integers(0, 2**63 - 1)),
    )
    antithetic = draw(st.booleans())
    if as_numpy:
        mu, sigma = np.array(mu), np.array(sigma)
        scalars = {k: np.float64(v) for k, v in scalars.items()}
        alpha = None if alpha is None else np.float64(alpha)
        ints = {k: None if v is None else np.int64(v) for k, v in ints.items()}
        antithetic = np.bool_(antithetic)
    return ProblemConfig(
        utility=utility, mu=mu, sigma=sigma, alpha=alpha, antithetic=antithetic, **scalars, **ints
    )


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


# The shipped configs written as JSON, by hand.
SHIPPED_JSON = {
    "table1_log": {
        "utility": "log",
        "n": 2,
        "mu": [0.1, 0.15],
        "sigma": [0.2, 0, 0, 0.25],
        "r": 0.12,
        "tau": 1,
        "gamma": 0.8,
        "delta": 0.3,
        "x0": 0.5,
        "solver": {"tol_root": 1e-10, "tol_fixed_point": 1e-10, "quad_order": 64},
        "mc": {"n_paths": 100000, "n_periods": None, "seed": 42},
    },
    "table2_power": {
        "utility": "power",
        "n": 2,
        "mu": [0.1, 0.15],
        "sigma": [0.2, 0, 0, 0.25],
        "r": 0.12,
        "tau": 1,
        "gamma": 0.8,
        "alpha": 0.5,
        "delta": 0.3,
        "x0": 0.5,
        "solver": {"tol_root": 1e-10, "tol_fixed_point": 1e-10, "quad_order": 64},
        "mc": {"n_paths": 100000, "n_periods": "auto", "seed": 42, "antithetic": False},
    },
}


@pytest.mark.parametrize("name", sorted(SHIPPED_JSON))
def test_shipped_config_as_json_parses_equal(name):
    text = (CONFIGS / f"{name}.cfg").read_text()
    assert parse_problem_config(json.dumps(SHIPPED_JSON[name], indent=2)) == parse_problem_config(text)


def upper_keys(payload: dict) -> dict:
    return {key.upper(): upper_keys(value) if isinstance(value, dict) else value for key, value in payload.items()}


def test_json_keys_and_sections_ignore_case_as_text_keys_do():
    text = (CONFIGS / "table1_log.cfg").read_text()
    assert parse_problem_config(json.dumps(upper_keys(SHIPPED_JSON["table1_log"]))) == parse_problem_config(text)


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("mu", [0.1, "x"], "mu: expected a number, got 'x'"),
        ("mu", "0.1 0.15", "mu: expected a JSON array of scalars"),
        ("r", [0.12], "r: expected a number, got '[0.12]'"),
        ("n", True, "n: expected an integer, got 'true'"),
    ],
)
def test_json_values_go_through_the_text_grammar(key, value, message):
    payload = {**SHIPPED_JSON["table1_log"], key: value}
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        parse_problem_config(json.dumps(payload))


def sweep_text(grid: str) -> str:
    return f"[sweep]\nparameter = tau\ngrid = {grid}\noutputs = a_star\n"


def test_range_shorthand_expands_inclusively():
    assert parse_sweep_spec(sweep_text("0.5:1.5:0.5")).grid == (0.5, 1.0, 1.5)
    grid = parse_sweep_spec(sweep_text(f"1:{_RANGE_POINTS_CAP}:1")).grid
    assert len(grid) == _RANGE_POINTS_CAP and grid[-1] == _RANGE_POINTS_CAP


OVER_CAP = f"at most {_RANGE_POINTS_CAP} points"


# Each range is rejected before any of its points is built.
@pytest.mark.parametrize(
    "grid,message",
    [
        pytest.param("0.1:1e308:1e-300", OVER_CAP, id="quotient-overflows"),
        pytest.param("-1e308:1e308:1", OVER_CAP, id="difference-overflows"),
        pytest.param(f"0:{_RANGE_POINTS_CAP}:1", OVER_CAP, id="one-point-over-the-cap"),
        pytest.param("0:nan:1", "must be finite", id="nan-stop"),
        pytest.param("nan:1:1", "must be finite", id="nan-start"),
        pytest.param("0:1:nan", "must be finite", id="nan-step"),
        pytest.param("-inf:1:1", "must be finite", id="infinite-start"),
        pytest.param("0:inf:1", "must be finite", id="infinite-stop"),
        pytest.param("0:1:inf", "must be finite", id="infinite-step"),
        pytest.param("0:1:0", "step must be positive", id="zero-step"),
    ],
)
def test_range_shorthand_out_of_bounds_is_a_config_error(grid, message):
    with pytest.raises(ConfigError, match=f"^grid: .*{message}"):
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

[solver]
tol_root = 1e-10
tol_fixed_point = 1e-10
quad_order = 64

[mc]
n_paths = 100000
n_periods = auto
seed = 42
antithetic = false
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

[solver]
tol_root = 1e-10
tol_fixed_point = 1e-10
quad_order = 64

[mc]
n_paths = 100000
n_periods = auto
seed = 42
antithetic = false
""",
}


@pytest.mark.parametrize("name", sorted(SHIPPED_TEXT))
def test_format_of_the_shipped_configs_is_pinned(name):
    cfg = parse_problem_config((CONFIGS / f"{name}.cfg").read_text())
    assert format_problem_config(cfg) == SHIPPED_TEXT[name]


# Every optional key set to a value other than its default, as JSON and as text.
EVERY_KEY_JSON = {
    "utility": "power",
    "n": 3,
    "mu": [0.1, 0.15, 0.05],
    "sigma": [0.2, 0, 0, 0.01, 0.25, 0, 0, 0.02, 0.3],
    "r": 0.03,
    "tau": 0.5,
    "gamma": 0.6,
    "delta": 0.7,
    "x0": 2.5,
    "alpha": -1.5,
    "solver": {"tol_root": 1e-12, "tol_fixed_point": 1e-11, "quad_order": 96},
    "mc": {"n_paths": 5000, "n_periods": 40, "seed": 7, "antithetic": True},
}
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
[solver]
tol_root = 1e-12
tol_fixed_point = 1e-11
quad_order = 96
[mc]
n_paths = 5000
n_periods = 40
seed = 7
antithetic = true
"""


def test_json_setting_every_key_parses_equal_to_its_text_twin():
    cfg = parse_problem_config(json.dumps(EVERY_KEY_JSON))
    assert cfg == parse_problem_config(EVERY_KEY_TEXT)
    for field in dataclasses.fields(ProblemConfig):
        if field.default is not dataclasses.MISSING:
            assert getattr(cfg, field.name) != field.default, field.name
    assert (cfg.quad_order, cfg.n_periods, cfg.antithetic) == (96, 40, True)
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
        tol_root=f32(1e-10),
        tol_fixed_point=f32(1e-9),
    )
    text = format_problem_config(cfg)
    assert "np." not in text and f"r = {float(f32(0.12))!r}\n" in text
    assert parse_problem_config(text) == cfg


TABLE2 = (CONFIGS / "table2_power.cfg").read_text()


# A key given twice in one section is an error naming the key and, in text,
# the line of its second occurrence; keys and section names ignore case, in
# text and in JSON.
@pytest.mark.parametrize(
    "text,message",
    [
        pytest.param(TABLE2.replace("r = 0.12", "r = 0.5\nr = 0.12"), "line 7: repeated key 'r'", id="top"),
        pytest.param(TABLE2.replace("r = 0.12", "R = 0.5\nr = 0.12"), "line 7: repeated key 'r'", id="case"),
        pytest.param(TABLE2.replace("quad_order", "tol_root"), "line 16: repeated key 'tol_root'", id="solver"),
        pytest.param(TABLE2 + "[MC]\nseed = 7\n", "line 23: repeated key 'seed'", id="reopened-section"),
    ],
)
def test_repeated_text_key_is_a_config_error(text, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_problem_config(text)


def test_a_key_may_repeat_across_sections():
    assert parse_problem_config(TABLE2 + "[sweep]\nseed = 7\n") == parse_problem_config(TABLE2)


SHIPPED2_JSON = json.dumps(SHIPPED_JSON["table2_power"])


@pytest.mark.parametrize(
    "text,key",
    [
        pytest.param(SHIPPED2_JSON.replace('"r": 0.12', '"r": 0.5, "r": 0.12'), "r", id="top"),
        pytest.param(SHIPPED2_JSON.replace('"seed": 42', '"seed": 7, "seed": 42'), "seed", id="mc"),
        pytest.param(SHIPPED2_JSON.replace('"solver": {', '"solver": {}, "solver": {'), "solver", id="section"),
        pytest.param(SHIPPED2_JSON.replace('"r": 0.12', '"R": 0.5, "r": 0.12'), "r", id="case"),
        pytest.param(SHIPPED2_JSON.replace('"solver": {', '"Solver": {}, "SOLVER": {'), "solver", id="section-case"),
    ],
)
def test_repeated_json_key_is_a_config_error(text, key):
    with pytest.raises(ConfigError, match=f"^repeated key '{key}'$"):
        parse_problem_config(text)


@pytest.mark.parametrize(
    "text,message",
    [
        pytest.param(sweep_text("1 2") + "grid = 3 4\n", "line 5: repeated key 'grid'", id="text"),
        pytest.param(
            '{"sweep": {"parameter": "tau", "grid": [1], "outputs": ["a_star"], "grid": [2]}}',
            "repeated key 'grid'",
            id="json",
        ),
    ],
)
def test_repeated_sweep_key_is_a_config_error(text, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_sweep_spec(text)
