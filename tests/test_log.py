import math

import numpy as np
import pytest

from periodic_portfolio import (
    EvaluationSpec,
    MarketModel,
    constrained_sharpe,
    constraint_cost,
    solve_log,
    value_log,
)
from periodic_portfolio.errors import DomainError, ParameterOutOfRange

from conftest import TABLE_DELTA, TABLE_R, TABLE_TAU, random_market


def test_solve_log_benchmark_values(table_market, table_eval, table_cone):
    sol = solve_log(table_market, table_eval, table_cone)
    # closed forms evaluated independently
    e_dt = math.exp(0.3)
    a_expected = (e_dt - 0.8) / (e_dt - 1.0) ** 2 * (0.12 + 0.5 * 0.0144) * 1.0
    c_expected = 0.2 / (e_dt - 1.0)
    assert sol.a_star == pytest.approx(a_expected, rel=1e-13)
    assert sol.c_star == pytest.approx(c_expected, rel=1e-13)
    assert sol.a_star == pytest.approx(0.5714, abs=2e-4)
    assert sol.c_star == pytest.approx(0.5717, abs=2e-4)
    np.testing.assert_allclose(sol.feedback_fractions, [0.0, 0.48], atol=1e-12)


def test_value_log(table_market, table_eval, table_cone):
    sol = solve_log(table_market, table_eval, table_cone)
    assert value_log(sol, 1.0) == pytest.approx(sol.a_star)
    assert value_log(sol, 0.5) == pytest.approx(
        sol.a_star - sol.c_star * math.log(2.0), rel=1e-12
    )
    assert value_log(sol, 0.5) == pytest.approx(0.1752, abs=1e-4)
    # increasing in x while gamma < 1
    assert value_log(sol, 2.0) > value_log(sol, 1.0) > value_log(sol, 0.5)
    with pytest.raises(DomainError):
        value_log(sol, 0.0)
    # x is one wealth level, a float
    with pytest.raises(TypeError):
        value_log(sol, np.array([0.5, 1.0]))


def test_gamma_one_constant_value(table_market, table_cone):
    e = EvaluationSpec(tau=TABLE_TAU, gamma=1.0, delta=TABLE_DELTA)
    sol = solve_log(table_market, e, table_cone)
    assert sol.c_star == 0.0
    assert value_log(sol, 0.25) == value_log(sol, 42.0) == sol.a_star


def test_unconstrained_comparison(table_market, table_eval, table_cone):
    sol = solve_log(table_market, table_eval, table_cone)
    a_unc, fractions = sol.a_unconstrained, sol.unconstrained_fractions
    np.testing.assert_allclose(fractions, [-0.5, 0.48], atol=1e-12)
    e_dt = math.exp(0.3)
    q_free = 0.0244
    assert a_unc == pytest.approx(
        (e_dt - 0.8) / (e_dt - 1.0) ** 2 * (0.12 + 0.5 * q_free), rel=1e-12
    )
    assert a_unc >= sol.a_star


def test_unconstrained_zero_excess():
    m = MarketModel(mu=[0.12, 0.12], sigma=np.diag([0.2, 0.25]), r=0.12)
    e = EvaluationSpec(tau=1.0, gamma=0.8, delta=0.3)
    sol = solve_log(m, e, constrained_sharpe(m))
    a_unc, fractions = sol.a_unconstrained, sol.unconstrained_fractions
    np.testing.assert_allclose(fractions, [0.0, 0.0], atol=1e-14)
    e_dt = math.exp(0.3)
    assert a_unc == pytest.approx((e_dt - 0.8) / (e_dt - 1.0) ** 2 * 0.12, rel=1e-12)


def test_constraint_cost_benchmark(table_market, table_eval, table_cone):
    cost = constraint_cost(table_market, table_eval, table_cone)
    e_dt = math.exp(0.3)
    expected = (e_dt - 0.8) / (2.0 * (e_dt - 1.0) ** 2) * (0.0244 - 0.0144) * 1.0
    assert cost == pytest.approx(expected, rel=1e-12)
    assert cost == pytest.approx(0.02246, abs=1e-5)
    sol = solve_log(table_market, table_eval, table_cone)
    assert sol.constraint_cost == pytest.approx(sol.a_unconstrained - sol.a_star, abs=1e-14)


def test_constraint_cost_zero_when_unbinding():
    m = MarketModel(mu=[0.15, 0.2], sigma=np.diag([0.2, 0.25]), r=0.12)
    e = EvaluationSpec(tau=1.0, gamma=0.8, delta=0.3)
    cs = constrained_sharpe(m)
    assert constraint_cost(m, e, cs) == pytest.approx(0.0, abs=1e-16)


def test_constraint_cost_decreasing_in_gamma(table_market, table_cone):
    costs = [
        constraint_cost(
            table_market, EvaluationSpec(tau=1.0, gamma=g, delta=0.3), table_cone
        )
        for g in (0.2, 0.5, 0.8, 1.0)
    ]
    assert all(c1 > c2 for c1, c2 in zip(costs, costs[1:]))
    assert costs[-1] > 0  # still positive at gamma = 1 here


def test_feedback_independent_of_gamma_and_tau(table_market, table_cone):
    reference = None
    for gamma in (0.2, 0.5, 0.8, 1.0):
        for tau in (0.5, 1.0, 2.0):
            sol = solve_log(
                table_market, EvaluationSpec(tau=tau, gamma=gamma, delta=0.3), table_cone
            )
            if reference is None:
                reference = sol.feedback_fractions
            else:
                assert np.array_equal(sol.feedback_fractions, reference)


def test_merton_coincidence_when_constraint_unbinding():
    # with both excess returns positive and diagonal sigma the cone projection
    # is inactive and the feedback equals the one-period optimal fractions
    m = MarketModel(mu=[0.16, 0.2], sigma=np.diag([0.2, 0.25]), r=0.12)
    e = EvaluationSpec(tau=1.0, gamma=0.8, delta=0.3)
    cs = constrained_sharpe(m)
    sol = solve_log(m, e, cs)
    merton = np.linalg.solve(m.sigma @ m.sigma.T, m.mu - m.r)
    np.testing.assert_allclose(sol.feedback_fractions, merton, rtol=1e-12)


def test_value_decomposition_identity(table_market, table_cone):
    # V(x) = S(x) * (1 - gamma*rho) - rho*gamma*log(x), where S(x) is the
    # discounted sum of expected log wealth under the optimal policy:
    # S(x) = sum_i rho^i (log x + i*(r + q/2)*tau)
    for gamma in (0.3, 0.8):
        for x in (0.4, 1.0, 2.5):
            e = EvaluationSpec(tau=1.0, gamma=gamma, delta=0.3)
            sol = solve_log(table_market, e, table_cone)
            rho = math.exp(-0.3)
            mu_g = (TABLE_R + 0.5 * table_cone.objective) * TABLE_TAU
            s_val = math.log(x) * rho / (1 - rho) + mu_g * rho / (1 - rho) ** 2
            lhs = value_log(sol, x)
            rhs = s_val * (1 - gamma * rho) - rho * gamma * math.log(x)
            assert lhs == pytest.approx(rhs, abs=1e-10)


def test_constrained_below_unconstrained_on_random_markets():
    rng = np.random.default_rng(17)
    for _ in range(100):
        m = random_market(rng)
        cs = constrained_sharpe(m)
        assert cs.objective <= float(cs.xi @ cs.xi) + 1e-12


def test_tiny_delta_tau_rejected(table_market, table_cone):
    e = EvaluationSpec(tau=1e-13, gamma=0.8, delta=1.0)
    with pytest.raises(ParameterOutOfRange):
        solve_log(table_market, e, table_cone)
