import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from periodic_portfolio import ProblemConfig, format_problem_config, parse_problem_config

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
