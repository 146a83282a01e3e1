import math

import numpy as np
import pytest
from scipy.optimize import brentq

from periodic_portfolio import (
    EvaluationSpec,
    ProblemConfig,
    constrained_sharpe,
    optimal_tau,
    solve_log,
    tau_objective,
    value_log,
    zeta,
)
from periodic_portfolio.errors import DomainError

from conftest import TABLE_MU, TABLE_R, TABLE_SIGMA, random_market


def table_config(utility="log", **changes) -> ProblemConfig:
    """The benchmark two-stock market at tau = 1, with evaluation fields from ``changes``."""
    fields = dict(
        utility=utility,
        mu=TABLE_MU,
        sigma=tuple(np.ravel(TABLE_SIGMA)),
        r=TABLE_R,
        tau=1.0,
        gamma=0.8,
        delta=0.3,
        x0=0.5,
        alpha=0.5 if utility == "power" else None,
    )
    fields.update(changes)
    return ProblemConfig(**fields)


def scaled_log_objective(m, cs, gamma, delta, x, tau):
    sol = solve_log(m, EvaluationSpec(tau, gamma, delta), cs)
    return value_log(sol, x) * tau


def test_log_scaled_gamma_one_matches_scalar_root(table_market, table_cone):
    delta = 0.3
    res = optimal_tau(tau_objective(table_config(gamma=1.0, delta=delta, x0=0.5), True))
    assert res.condition_holds and res.objective_kind == "scaled_value"
    # independent root of exp(u)*(2-u) = 2 locates delta*tau*
    u_root = brentq(lambda u: math.exp(u) * (2.0 - u) - 2.0, 1.0, 1.99, xtol=1e-14)
    assert delta * res.tau_star == pytest.approx(u_root, abs=1e-6)
    assert res.tau_star == pytest.approx(5.312, abs=1e-3)
    assert res.tau_star > 1.0 / delta


def test_log_scaled_gamma_one_local_certificate(table_market, table_cone):
    res = optimal_tau(tau_objective(table_config(gamma=1.0, delta=0.3, x0=0.5), True))
    for bump in (0.999, 1.001):
        assert (
            scaled_log_objective(table_market, table_cone, 1.0, 0.3, 0.5, res.tau_star * bump)
            <= res.objective_at_star + 1e-12
        )


def test_log_scaled_gamma_below_one_gate(table_market, table_cone):
    res = optimal_tau(tau_objective(table_config(gamma=0.8, delta=0.3, x0=0.5), True))
    # gate value 0.1272*(0.8/0.3) - 0.1*log(0.5) > 0
    gate = 0.1272 * (0.8 / 0.3) - 0.1 * math.log(0.5)
    assert gate > 0 and res.condition_holds
    assert res.tau_star is not None and res.objective_at_star > 0
    # violated gate: huge initial wealth with a tiny gamma weight
    res_fail = optimal_tau(tau_objective(table_config(gamma=0.01, delta=0.3, x0=1e60), True))
    assert not res_fail.condition_holds and res_fail.tau_star is None


def test_log_value_gate_both_sides(table_market, table_cone):
    threshold = math.exp(-(0.12 + 0.5 * 0.0144) / 0.3)

    def result(x):
        return optimal_tau(tau_objective(table_config(gamma=0.8, delta=0.3, x0=x), False))

    res_in = result(threshold * 0.98)
    assert res_in.condition_holds
    assert res_in.tau_star is not None
    assert res_in.objective_at_star > 0
    res_out = result(threshold * 1.02)
    assert not res_out.condition_holds and res_out.tau_star is None
    # log(1) = 0 puts x = 1 outside the condition
    res_one = result(1.0)
    assert not res_one.condition_holds


def test_log_value_table_point(table_market, table_cone):
    res = optimal_tau(tau_objective(table_config(gamma=0.8, delta=0.3, x0=0.5), False))
    assert res.condition_holds
    assert res.objective_at_star > 0
    for bump in (0.999, 1.001):
        sol = solve_log(
            table_market, EvaluationSpec(res.tau_star * bump, 0.8, 0.3), table_cone
        )
        assert value_log(sol, 0.5) <= res.objective_at_star + 1e-12


def test_power_scaled_figure_parameters(table_market, table_cone):
    res = optimal_tau(tau_objective(table_config("power", gamma=1.0, delta=0.11), True))
    za = zeta(0.5, 0.12, table_cone.objective)
    assert 0.11 / 2 < za < 0.11
    assert res.condition_holds and res.tau_star is not None
    assert "1/delta" in res.condition_detail  # records the g(0+) limit
    # unimodal on the searched range: increasing then decreasing slope signs
    def g(tau):
        return math.exp((za - 0.11) * tau) * tau / (1.0 - math.exp(-0.11 * tau))

    taus = np.linspace(res.tau_star / 20, res.tau_star * 5, 200)
    slopes = np.sign(np.diff([g(t) for t in taus]))
    switch = np.where(np.diff(slopes) != 0)[0]
    assert len(switch) == 1
    for bump in (0.999, 1.001):
        assert g(res.tau_star * bump) <= res.objective_at_star + 1e-12


def test_power_scaled_condition_gate(table_market, table_cone):
    # zeta(alpha) >= delta: no search
    objective = tau_objective(table_config("power", gamma=1.0, delta=0.05), True)
    res = optimal_tau(objective)
    assert not res.condition_holds and res.tau_star is None
    assert math.isnan(res.objective_at_star)
    # capped supremum still reported when requested
    res_cap = optimal_tau(objective, cap=50.0)
    assert not res_cap.condition_holds and res_cap.tau_star is not None


def test_scaled_objectives_vanish_at_long_horizons(table_market, table_cone):
    res = optimal_tau(tau_objective(table_config("power", gamma=1.0, delta=0.11), True))
    za = zeta(0.5, 0.12, table_cone.objective)
    far = 1e3 / 0.11
    g_far = math.exp((za - 0.11) * far) * far / (1.0 - math.exp(-0.11 * far))
    assert g_far < 1e-6 * res.objective_at_star

    res_log = optimal_tau(tau_objective(table_config(gamma=1.0, delta=0.3, x0=0.5), True))
    f_far = scaled_log_objective(table_market, table_cone, 1.0, 0.3, 0.5, 1e3 / 0.3)
    assert f_far < 1e-6 * res_log.objective_at_star


@pytest.mark.parametrize("n", [2, 10, 50])
def test_log_objective_equals_solve_log_exactly(n):
    # the closed form on the tau objective is the same arithmetic as solve_log
    # followed by value_log, so the two agree bit for bit
    rng = np.random.default_rng(n)
    taus = np.geomspace(1e-3, 1e2, 16)
    for _ in range(3):
        m = random_market(rng, n)
        cs = constrained_sharpe(m)
        delta = float(rng.uniform(0.1, 0.5))
        for gamma in (0.3, 0.8, 1.0):
            for x0 in (0.2, 1.0, 50.0):
                cfg = ProblemConfig(
                    utility="log", mu=m.mu, sigma=m.sigma.ravel(), r=m.r,
                    tau=1.0, gamma=gamma, delta=delta, x0=x0,
                )
                value, scaled = tau_objective(cfg, False), tau_objective(cfg, True)
                for tau in taus:
                    tau = float(tau)
                    want = value_log(solve_log(m, EvaluationSpec(tau, gamma, delta), cs), x0)
                    assert value(tau) == want
                    assert scaled(tau) == want * tau


def test_power_gamma_one_objective_matches_closed_form(table_cone):
    alpha, delta = 0.5, 0.11
    za = TABLE_R * alpha + alpha * table_cone.objective / (2.0 * (1.0 - alpha))
    scaled = tau_objective(table_config("power", gamma=1.0, delta=delta, alpha=alpha), True)
    value = tau_objective(table_config("power", gamma=1.0, delta=delta, alpha=alpha), False)
    for tau in np.geomspace(1e-3, 1e2, 16):
        tau = float(tau)
        g = math.exp((za - delta) * tau) * tau / (-math.expm1(-delta * tau))
        assert scaled(tau) == pytest.approx(g, rel=1e-13)
        assert value(tau) == pytest.approx(g / tau / alpha, rel=1e-13)


# x0 is checked once, when the objective is built, wherever the objective
# depends on it: log utility, and power utility with gamma < 1.
@pytest.mark.parametrize(
    "utility,gamma",
    [
        pytest.param("log", 0.8, id="log-gamma-0.8"),
        pytest.param("log", 1.0, id="log-gamma-1"),
        pytest.param("power", 0.8, id="power-gamma-0.8"),
    ],
)
@pytest.mark.parametrize("scaled", [False, True], ids=["value", "scaled"])
def test_tau_objective_rejects_nonpositive_x0_when_built(utility, gamma, scaled):
    with pytest.raises(DomainError, match=r"^value function requires x > 0$"):
        tau_objective(table_config(utility, gamma=gamma, x0=-1.0), scaled)


@pytest.mark.parametrize("scaled", [False, True], ids=["value", "scaled"])
def test_power_gamma_one_objective_ignores_x0(scaled):
    # x0^(alpha(1-gamma)) = 1, so any x0 builds and gives the same objective
    negative = tau_objective(table_config("power", gamma=1.0, delta=0.11, x0=-1.0), scaled)
    positive = tau_objective(table_config("power", gamma=1.0, delta=0.11, x0=0.5), scaled)
    for tau in (0.5, 1.0, 12.0):
        assert negative(tau) == positive(tau)
    assert optimal_tau(negative, 4.0) == optimal_tau(positive, 4.0)
