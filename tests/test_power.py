import dataclasses
import functools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodic_portfolio import (
    DeflatorLaw,
    EvaluationSpec,
    MarketModel,
    PowerProblem,
    ProblemConfig,
    budget_function,
    constrained_sharpe,
    contraction_map,
    fixed_point,
    intra_period_profile,
    marginal_inverse,
    moderated_utility,
    solve,
    value_function,
    zeta,
)
from periodic_portfolio import power
from periodic_portfolio.errors import AssumptionViolated, DomainError, NonFinite, ParameterOutOfRange, PortfolioError
from periodic_portfolio.mc import SimulationConfig
from periodic_portfolio.quadrature import expect_deflator_adaptive

import reference
from conftest import (
    TABLE_ALPHA,
    TABLE_DELTA,
    TABLE_GAMMA,
    TABLE_MU,
    TABLE_R,
    TABLE_SIGMA,
    TABLE_TAU,
    TABLE_X0,
    TINY_DELTA,
    TINY_LOWER_BOUND,
    h_expectation,
    random_market,
)

Q_TILDE = 0.0144  # |xi_tilde|^2 for the benchmark market


def closed_a_star_gamma1(alpha, delta, tau, q=Q_TILDE, r=TABLE_R):
    za = zeta(alpha, r, q)
    return math.exp((za - delta) * tau) / (1.0 - math.exp(-delta * tau))


# --- moderated utility -----------------------------------------------------


def test_moderated_utility_values():
    assert moderated_utility(0.0, 0.5, 0.8, 4.0) == pytest.approx(4.0)
    assert moderated_utility(1.0, 0.5, 0.8, 1.0) == pytest.approx(4.0)
    # gamma = 1 collapses the second exponent to zero
    x = 2.7
    assert moderated_utility(3.0, 0.5, 1.0, x) == pytest.approx(
        2.0 * math.sqrt(x) + 3.0 / 0.5
    )


def test_moderated_utility_domain():
    with pytest.raises(DomainError):
        moderated_utility(1.0, 0.5, 0.8, 0.0)


def test_marginal_inverse_pure_power_cases():
    y = np.array([0.3, 1.0, 2.5])
    np.testing.assert_allclose(marginal_inverse(0.0, 0.5, 0.8, y), y**-2.0, rtol=1e-14)
    np.testing.assert_allclose(marginal_inverse(7.0, 0.5, 1.0, y), y**-2.0, rtol=1e-14)
    np.testing.assert_allclose(marginal_inverse(7.0, -1.0, 1.0, y), y**-0.5, rtol=1e-14)


def test_marginal_inverse_against_bisection_oracle():
    a, alpha, gamma, y = 1.0, 0.5, 0.8, 2.0

    def marginal(x):
        return x ** (alpha - 1.0) + a * (1.0 - gamma) * x ** (alpha * (1.0 - gamma) - 1.0)

    lo, hi = 1e-8, 1e8
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if marginal(mid) > y:
            lo = mid
        else:
            hi = mid
    oracle = math.sqrt(lo * hi)
    assert marginal_inverse(a, alpha, gamma, y) == pytest.approx(oracle, rel=1e-9)


def test_marginal_inverse_round_trip():
    rng = np.random.default_rng(5)
    for alpha in (-2.0, -0.5, 0.3, 0.7):
        for gamma in (0.2, 0.8, 1.0):
            for a in (0.0, 0.5, 3.0):
                y = rng.uniform(0.05, 20.0, size=16)
                x = marginal_inverse(a, alpha, gamma, y)
                np.testing.assert_allclose(
                    reference.marginal(a, alpha, gamma, x), y, rtol=1e-8
                )


def test_marginal_inverse_domain():
    with pytest.raises(DomainError):
        marginal_inverse(1.0, 0.5, 0.8, 0.0)


def test_marginal_inverse_raises_where_x_leaves_float64():
    # as in _period_sums: an x beyond float64 is NonFinite, and one that
    # rounds to 0 is a DomainError, never inf or 0 with a warning
    assert marginal_inverse(3.17, 0.5, 0.8, 1e-150) == pytest.approx(1e300, rel=1e-12)
    with pytest.raises(NonFinite):
        marginal_inverse(3.17, 0.5, 0.8, 1e-200)
    with pytest.raises(NonFinite):
        marginal_inverse(3.17, 0.5, 0.8, np.array([1.0, 1e-200]))
    with pytest.raises(DomainError):
        marginal_inverse(0.0, 0.5, 0.8, 1e300)  # x = y^-2 = 1e-600


@pytest.mark.parametrize(
    "y", [np.array([]), [], np.empty((0, 3), dtype=int)], ids=["array", "list", "2d-int"]
)
def test_marginal_inverse_of_an_empty_array_is_empty(y):
    x = marginal_inverse(3.17, 0.5, 0.8, y)
    assert isinstance(x, np.ndarray) and x.shape == np.shape(y) and x.dtype == np.float64


@pytest.mark.parametrize("a", [3.17, 0.0], ids=["newton", "closed-form"])
@pytest.mark.parametrize("shape", [(0,), (0, 3)], ids=["1d", "2d"])
def test_log_marginal_inverse_of_an_empty_array_is_empty(a, shape):
    # a = 0 takes the c == 0 branch, u = log y / (alpha - 1); any other a runs the Newton loop
    u = power._log_marginal_inverse(a, 0.5, 0.8, np.empty(shape))
    assert isinstance(u, np.ndarray) and u.shape == shape and u.dtype == np.float64


KERNEL_CASES = dict(
    a=st.floats(1e-6, 1e6),
    gamma=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    alpha=st.sampled_from([0.5, -0.5, -1.0]),
)


@settings(max_examples=300, deadline=None)
@given(log_y=st.floats(-30.0, 30.0), **KERNEL_CASES)
def test_newton_start_bounds_the_root_from_below(a, gamma, alpha, log_y):
    lc, p1, beta = math.log(a * (1.0 - gamma)), alpha - 1.0, -alpha * gamma
    u0 = float(power._newton_start(lc, p1, beta, np.array([log_y]))[0])
    root = reference.log_marginal_inverse(a, alpha, gamma, log_y)
    g0 = p1 * u0 + np.logaddexp(0.0, lc + beta * u0) - log_y
    slack = 1e-12 * (1.0 + abs(log_y) + abs(lc))
    assert u0 <= root + 1e-12 * (1.0 + abs(root))
    assert -slack <= g0 <= math.log(2.0) + slack


@settings(max_examples=300, deadline=None)
@given(log_x=st.floats(-30.0, 30.0), **KERNEL_CASES)
def test_marginal_inverse_inverts_the_marginal(a, gamma, alpha, log_x):
    x = math.exp(log_x)
    y = float(reference.marginal(a, alpha, gamma, x))
    assert marginal_inverse(a, alpha, gamma, y) == pytest.approx(x, rel=1e-12)


# --- Legendre transform ----------------------------------------------------
# phi_a(y) = h_a(I(y)) - y I(y) is row 2 of the period sums under the point
# law Z/B = 1.

POINT_LAW = DeflatorLaw(s=0.0, drift=0.0)


def legendre(p, a, y):
    return power._period_sums(p, POINT_LAW, a, y)[2]


def test_legendre_pure_power_closed_form(power_problem):
    # a = 0: phi(y) = ((1-alpha)/alpha) * y^(alpha/(alpha-1)); alpha = 0.5, gamma = 0.8
    alpha = 0.5
    for y in (0.2, 1.0, 3.0):
        expected = (1.0 - alpha) / alpha * y ** (alpha / (alpha - 1.0))
        assert legendre(power_problem, 0.0, y) == pytest.approx(expected, rel=1e-10)
    assert legendre(power_problem, 0.0, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_legendre_limits_alpha_positive(power_problem):
    # phi decays to h(0) = 0 as y -> inf (slowly: like y^(-1/9) here) and
    # blows up to h(inf) = inf as y -> 0+; a = 1, alpha = 0.5, gamma = 0.8
    ys = np.array([1e6, 1e12, 1e24, 1e40])
    vals = np.array([legendre(power_problem, 1.0, y) for y in ys])
    assert np.all(np.diff(vals) < 0) and np.all(vals > 0)
    assert vals[-1] < 1e-3
    assert legendre(power_problem, 1.0, 1e-8) > 1e3


def test_legendre_is_supremum(power_problem):
    # phi(y) >= h(x) - x*y with equality at the inverse marginal
    a, alpha, gamma = 1.5, -0.5, 0.8
    y = 0.9
    phi = legendre(dataclasses.replace(power_problem, alpha=alpha), a, y)
    xs = np.geomspace(1e-4, 1e4, 400)
    candidates = moderated_utility(a, alpha, gamma, xs) - xs * y
    assert phi >= candidates.max() - 1e-9


@pytest.mark.parametrize(
    "drift,y,finite",
    [
        (-400.0, math.exp(-400.0), False),  # Z/B x = e^1200 overflows
        (-800.0, math.exp(400.0), True),  # Z/B = e^-800 is no float64, but every sum is
        (400.0, 1.0, True),  # x = e^-800 underflows, but no sum needs x itself
        (-400.0, 1.0, True),  # x = e^800 overflows, Z/B x = e^400 does not
    ],
)
def test_period_sums_overflow_only_past_float64(power_problem_g1, drift, y, finite):
    # the sums work in log space, so a node whose Z/B or x is no float64 fails
    # only if a sum is none either, and then as NonFinite (exit 4); gamma = 1
    # gives x = (y Z/B)^(1/(alpha-1)) in closed form
    law, alpha = DeflatorLaw(s=0.0, drift=drift), TABLE_ALPHA
    if not finite:
        with pytest.raises(NonFinite):
            power._period_sums(power_problem_g1, law, 1.0, y)
        return
    u = (math.log(y) + drift) / (alpha - 1.0)
    zx = math.exp(drift + u)
    expected = [zx, -zx / (1.0 - alpha), (math.exp(alpha * u) + 1.0) / alpha - y * zx, 1.0, 0.0]
    np.testing.assert_allclose(power._period_sums(power_problem_g1, law, 1.0, y), expected, rtol=1e-12, atol=0)


# --- the u-grid sums against an independent reference -------------------------
# tests/reference.py integrates each column over G with scipy's quad and solves
# every node with brentq. Cases: table2 at (A*, y*) with gamma < 1, gamma = 1
# (c = 0, L linear), alpha = -1 and alpha = -4; tau = 1e-3 (the narrow-window
# branch); the widest law of the random grid, random_market(default_rng(30002),
# 30) at tau = 100 (s = 39.4), at two points where every column is a float64;
# a point-mass law; and alpha near 1, whose tilt needs the wider window.


def _table_problem(tau, gamma, alpha, delta=TABLE_DELTA):
    m = MarketModel(mu=TABLE_MU, sigma=TABLE_SIGMA, r=TABLE_R)
    return PowerProblem(market=m, evaluation=EvaluationSpec(tau, gamma, delta), alpha=alpha, cs=constrained_sharpe(m))


def _widest_grid_problem(tau=100.0):
    m = random_market(np.random.default_rng(30002), 30)
    cs = constrained_sharpe(m)
    delta = max(zeta(-1.0 * (1.0 - 0.8), m.r, cs.objective), 0.0) + 0.3
    return PowerProblem(market=m, evaluation=EvaluationSpec(tau, 0.8, delta), alpha=-1.0, cs=cs)


REFERENCE_CASES = {
    "table2": lambda: (_table_problem(TABLE_TAU, 0.8, 0.5), None, None),
    "gamma-one": lambda: (_table_problem(TABLE_TAU, 1.0, 0.5), None, None),
    "alpha-minus-one": lambda: (_table_problem(TABLE_TAU, 0.8, -1.0), None, None),
    "alpha-minus-four": lambda: (_table_problem(4.0, 0.5, -4.0, delta=1.0), None, None),
    "tau-1e-3": lambda: (_table_problem(1e-3, 0.8, 0.5), None, None),
    "widest-law": lambda: (_widest_grid_problem(), None, (1e-20, math.exp(-200.0))),
    "widest-law-a-one": lambda: (_widest_grid_problem(), None, (1.0, math.exp(-150.0))),
    "point-mass": lambda: (_table_problem(TABLE_TAU, 0.8, 0.5), DeflatorLaw(s=0.0, drift=-0.1), (1.7, 1.3)),
    # x^alpha tilts phi by alpha / (1 - alpha) = 5.1 standard normals per unit of s
    "alpha-near-one": lambda: (
        _table_problem(TABLE_TAU, 0.32, 0.836, delta=5.0),
        DeflatorLaw(s=2.22, drift=-0.5 * 2.22**2 - 0.05),
        (350.0, 0.404),
    ),
}


@pytest.mark.parametrize("name", list(REFERENCE_CASES))
def test_period_sums_match_an_independent_reference(name):
    p, law, point = REFERENCE_CASES[name]()
    law = law or p.law
    if point is None:
        sol = fixed_point(p)
        point = (sol.a_star, sol.y_star)
    a, y = point
    expected = reference.period_sums(p.alpha, p.evaluation.gamma, a, y, law.s, law.drift)
    np.testing.assert_allclose(power._period_sums(p, law, a, y), expected, rtol=1e-9, atol=0)


# A* and y* against tests/reference.py, which roots A - Psi(A) and log F with brentq
# on its own quad columns: every table2 alpha, gamma and tau extreme of power_grid
@pytest.mark.parametrize(
    "alpha,gamma,tau", [(0.5, 0.55, 0.2), (0.5, 1.0, 4.0), (-1.0, 0.55, 4.0), (-1.0, 1.0, 0.2)]
)
def test_fixed_point_matches_an_independent_reference(alpha, gamma, tau):
    sol = fixed_point(_table_problem(tau, gamma, alpha))
    a_ref, y_ref = reference.a_star(alpha, gamma, TABLE_R, tau, TABLE_DELTA, Q_TILDE)
    assert sol.a_star == pytest.approx(a_ref, rel=1e-9, abs=0.0)
    assert sol.y_star == pytest.approx(y_ref, rel=1e-9, abs=0.0)


# --- the random grid --------------------------------------------------------------
# tools/solve_grid.py prints it: random_market(default_rng(1000 n + k), n) for n in
# {2, 10, 30} and k < 6, alpha in {0.5, -1, -0.5}, gamma = 0.8, delta 0.3 above the
# well-posedness bound, tau from 1e-3 to 100. With an 80-bit np.longdouble 431 solve;
# the one failure left is n = 30, k = 2, alpha = 0.5 at tau = 100 (s = 39), where y*
# itself leaves float64 (log y* = 778). Where np.longdouble is float64, two more
# alpha = 0.5 solves (n = 30, k = 2 at tau = 10 and k = 5 at tau = 30) stall at the
# float64 floor of A* (see _period_sums); no solve fails with a parameter error.

GRID_GAMMA = 0.8
GRID_TAUS = (1e-3, 1e-2, 0.1, 1.0, 4.0, 10.0, 30.0, 100.0)


def grid_outcomes(n, ks):
    # a solve is "ok" only if an independent evaluation of Psi(A*) moves A* by at
    # most tol min(1, A*) + 4 ulp(A*), and "loose" otherwise
    outcomes = Counter()
    for k in ks:
        m = random_market(np.random.default_rng(1000 * n + k), n)
        cs = constrained_sharpe(m)
        for alpha in (0.5, -1.0, -0.5):
            delta = max(zeta(alpha * (1.0 - GRID_GAMMA), m.r, cs.objective), 0.0) + 0.3
            for tau in GRID_TAUS:
                p = PowerProblem(m, EvaluationSpec(tau, GRID_GAMMA, delta), alpha, cs)
                try:
                    a = fixed_point(p).a_star
                except PortfolioError as exc:
                    outcomes[type(exc).__name__, alpha] += 1
                    continue
                allowed = p.tol_fixed_point * min(1.0, a) + 4 * math.ulp(a)
                outcomes["ok" if abs(contraction_map(p, a) - a) <= allowed else ("loose", alpha)] += 1
    return outcomes


def test_random_grid_solves_without_parameter_errors():
    outcomes = grid_outcomes(2, range(6)) + grid_outcomes(10, range(6)) + grid_outcomes(30, range(6))
    assert outcomes["ok"] >= 429, outcomes
    assert all(key in ("ok", ("NonFinite", 0.5), ("NonConvergence", 0.5)) for key in outcomes), outcomes


# (n, k, alpha, tau) of the grid: n = 30, k = 2, alpha = -1 at tau = 10, where
# A* = 5e-19 is far below the absolute tol_fixed_point of 1e-10, and every
# alpha < 0 point of k < 2 with n in {2, 10} and tau in {10, 100}, where A*
# falls as far as 4e-39
A_STAR_REFERENCE_POINTS = [(30, 2, -1.0, 10.0)] + [
    (n, k, alpha, tau)
    for k in range(2)
    for n in (2, 10)
    for alpha in (-1.0, -0.5)
    for tau in (10.0, 100.0)
]


@pytest.mark.parametrize(
    "n,k,alpha,tau",
    A_STAR_REFERENCE_POINTS,
    ids=[f"n{n}-k{k}-alpha{alpha:g}-tau{tau:g}" for n, k, alpha, tau in A_STAR_REFERENCE_POINTS],
)
def test_a_star_far_below_tol_matches_an_independent_reference(n, k, alpha, tau):
    m = random_market(np.random.default_rng(1000 * n + k), n)
    cs = constrained_sharpe(m)
    delta = max(zeta(alpha * (1.0 - GRID_GAMMA), m.r, cs.objective), 0.0) + 0.3
    sol = fixed_point(PowerProblem(m, EvaluationSpec(tau, GRID_GAMMA, delta), alpha, cs))
    a_ref, y_ref = reference.a_star(alpha, GRID_GAMMA, m.r, tau, delta, cs.objective)
    assert abs(sol.a_star - a_ref) <= sol.error_bound + 1e-9 * abs(a_ref)
    assert sol.a_star == pytest.approx(a_ref, rel=1e-9, abs=0.0)
    assert sol.y_star == pytest.approx(y_ref, rel=1e-9, abs=0.0)


def test_random_grid_n50_row():
    # n = 50, k < 2: |xi_tilde|^2 = 21 to 27, so s reaches 52 at tau = 100, where at
    # alpha = 0.5 log y* is about alpha s^2 / (2 (1 - alpha)) > 1000, beyond float64:
    # both solves stop with "y* Newton left the float64 range" at log y = 1070 and
    # 1330 (their upper bounds on A* are inf). Where np.longdouble is float64, one
    # more alpha = 0.5 solve stalls at the float64 floor (tau = 4)
    outcomes = grid_outcomes(50, range(2))
    assert outcomes["ok"] >= 45, outcomes
    assert all(key in ("ok", ("NonFinite", 0.5), ("NonConvergence", 0.5)) for key in outcomes), outcomes


# --- h_a shape invariants (used at desk scale; the full grid runs in the
# acceptance suite) -----------------------------------------------------------


@pytest.mark.parametrize("alpha,gamma,a", [(0.5, 0.8, 1.0), (-1.0, 0.2, 3.0)])
def test_h_concave_increasing(alpha, gamma, a):
    xs = np.geomspace(1e-6, 1e6, 121)
    eps = 1e-3
    up = moderated_utility(a, alpha, gamma, xs * (1 + eps))
    mid = moderated_utility(a, alpha, gamma, xs)
    down = moderated_utility(a, alpha, gamma, xs * (1 - eps))
    assert np.all(up > mid)
    assert np.all(up - 2 * mid + down < 0)


def test_h_steepness_inequality():
    # theta * h'(x) >= h'(rho x) with theta the larger of the termwise decay
    # ratios rho^(alpha-1) and rho^(alpha(1-gamma)-1); for alpha > 0 the first
    # dominates, for alpha < 0 the second
    rho = 2.0
    gamma = 0.8
    xs = np.geomspace(1e-6, 1e6, 121)
    for alpha in (0.5, -1.0):
        theta = max(rho ** (alpha - 1.0), rho ** (alpha * (1.0 - gamma) - 1.0))
        assert 0 < theta < 1
        lhs = theta * reference.marginal(1.0, alpha, gamma, xs)
        rhs = reference.marginal(1.0, alpha, gamma, rho * xs)
        assert np.all(lhs >= rhs * (1 - 1e-12))


# --- dual value and budget function -----------------------------------------
# The dual value E[phi_a(y Z/B)] over one period is row 2 of the period sums.


def dual_value(p, a, y):
    return power._period_sums(p, p.law, a, y)[2]


def test_dual_value_gamma1_closed_form(power_problem_g1):
    alpha = TABLE_ALPHA
    beta = alpha / (alpha - 1.0)
    rate = (alpha / (1 - alpha)) * (TABLE_R + Q_TILDE / (2 * (1 - alpha))) * TABLE_TAU
    for y in (0.5, 1.0, 2.0):
        expected = (1 - alpha) / alpha * y**beta * math.exp(rate)
        got = dual_value(power_problem_g1, 0.0, y)
        assert got == pytest.approx(expected, abs=1e-8)


def test_dual_value_monotone_decreasing(power_problem):
    v1 = dual_value(power_problem, 1.0, 0.5)
    v2 = dual_value(power_problem, 1.0, 1.0)
    v3 = dual_value(power_problem, 1.0, 2.0)
    assert v1 > v2 > v3


def test_dual_value_matches_monte_carlo():
    # a = 1 with the benchmark parameters, y = 1, against 10^6 raw draws
    import periodic_portfolio as pp

    m = pp.MarketModel(mu=[0.1, 0.15], sigma=np.diag([0.2, 0.25]), r=0.12)
    cs = pp.constrained_sharpe(m)
    e = EvaluationSpec(tau=TABLE_TAU, gamma=TABLE_GAMMA, delta=TABLE_DELTA)
    p = PowerProblem(market=m, evaluation=e, alpha=TABLE_ALPHA, cs=cs)
    rng = np.random.default_rng(123)
    z = np.exp(p.law.drift + p.law.s * rng.standard_normal(1_000_000))
    x = marginal_inverse(1.0, TABLE_ALPHA, TABLE_GAMMA, z)
    samples = moderated_utility(1.0, TABLE_ALPHA, TABLE_GAMMA, x) - z * x  # phi_1(z)
    se = samples.std(ddof=1) / math.sqrt(samples.size)
    assert dual_value(p, 1.0, 1.0) == pytest.approx(samples.mean(), abs=3 * se)


def test_budget_function_gamma1_closed_form(power_problem_g1):
    alpha = TABLE_ALPHA
    beta = alpha / (alpha - 1.0)
    law = power_problem_g1.law
    moment = math.exp(beta * law.drift + 0.5 * beta**2 * law.s**2)
    for y in (0.7, 1.3):
        expected = y ** (1.0 / (alpha - 1.0)) * moment
        assert budget_function(power_problem_g1, 3.0, y) == pytest.approx(
            expected, rel=1e-10
        )
    # F = 1 exactly at y = exp(zeta(alpha) * tau)
    y_closed = math.exp(zeta(alpha, TABLE_R, Q_TILDE) * TABLE_TAU)
    assert budget_function(power_problem_g1, 3.0, y_closed) == pytest.approx(1.0, abs=1e-10)


def test_budget_function_strictly_decreasing(power_problem):
    for y in (0.3, 1.0, 4.0):
        assert budget_function(power_problem, 1.0, 2 * y) < budget_function(
            power_problem, 1.0, y
        )


def test_budget_crosses_one_once(power_problem):
    # sign change bracketed by expansion: F(small) > 1 > F(large)
    assert budget_function(power_problem, 1.0, 1e-3) > 1.0
    assert budget_function(power_problem, 1.0, 1e3) < 1.0


# --- y* ---------------------------------------------------------------------


def newton_y_star(p, a, hint=1.0):
    """Root of F(y) = 1 by the y* Newton, started from y = ``hint``."""
    return power._newton_y(p, a, math.log(hint))[2]


def test_y_star_gamma1_closed_form(power_problem_g1):
    expected = math.exp(zeta(TABLE_ALPHA, TABLE_R, Q_TILDE) * TABLE_TAU)
    assert newton_y_star(power_problem_g1, 0.0) == pytest.approx(expected, rel=1e-10)
    assert expected == pytest.approx(1.0695, abs=1e-4)


def test_y_star_a_zero_equals_moment_formula(power_problem):
    # h_0 is a pure power even for gamma < 1
    alpha = TABLE_ALPHA
    beta = alpha / (alpha - 1.0)
    law = power_problem.law
    moment = math.exp(beta * law.drift + 0.5 * beta**2 * law.s**2)
    assert newton_y_star(power_problem, 0.0) == pytest.approx(
        moment ** (1.0 - alpha), rel=1e-10
    )


# --- H, Psi and the fixed point ----------------------------------------------


def test_moderated_value_gamma1_affine(power_problem_g1):
    base = math.exp(zeta(TABLE_ALPHA, TABLE_R, Q_TILDE) * TABLE_TAU)
    for a in (0.0, 1.0, 3.0):
        assert power._newton_y(power_problem_g1, a, 0.0)[0] == pytest.approx(a + base, rel=1e-9)


def test_contraction_map_increasing_both_signs(table_market, table_cone):
    for alpha in (0.5, -1.0):
        e = EvaluationSpec(tau=TABLE_TAU, gamma=0.8, delta=TABLE_DELTA)
        p = PowerProblem(market=table_market, evaluation=e, alpha=alpha, cs=table_cone)
        values = [contraction_map(p, a) for a in (0.0, 1.0, 2.0, 4.0)]
        assert all(v1 < v2 for v1, v2 in zip(values, values[1:]))


def test_contraction_lipschitz_on_random_pairs(power_problem, power_solution):
    rng = np.random.default_rng(11)
    q = power_solution.contraction_modulus
    hi = 2.0 * power_solution.upper_bound
    for _ in range(6):
        a1, a2 = rng.uniform(0.0, hi, size=2)
        lhs = abs(contraction_map(power_problem, a1) - contraction_map(power_problem, a2))
        assert lhs <= q * abs(a1 - a2) + 1e-8


def test_fixed_point_gamma1_closed_form(power_solution_g1):
    expected = closed_a_star_gamma1(TABLE_ALPHA, TABLE_DELTA, TABLE_TAU)
    assert power_solution_g1.a_star == pytest.approx(expected, abs=1e-8)
    assert expected == pytest.approx(3.057, abs=1e-3)


def test_fixed_point_brackets_and_residual(power_problem, power_solution):
    sol = power_solution
    assert sol.lower_bound <= sol.a_star <= sol.upper_bound
    assert abs(sol.a_star - contraction_map(power_problem, sol.a_star)) <= 1e-10
    assert 0 < sol.contraction_modulus < 1
    assert sol.contraction_modulus == pytest.approx(
        math.exp(-(TABLE_DELTA - zeta(TABLE_ALPHA * 0.2, TABLE_R, Q_TILDE)) * TABLE_TAU)
    )


def test_fixed_point_bracket_expressions(power_solution):
    # lower/upper per the alpha in (0,1) branch
    lower = math.exp((TABLE_R * TABLE_ALPHA - TABLE_DELTA) * TABLE_TAU) / (
        1.0 - math.exp(-(TABLE_DELTA - TABLE_R * TABLE_ALPHA * 0.2) * TABLE_TAU)
    )
    upper = math.exp((zeta(TABLE_ALPHA, TABLE_R, Q_TILDE) - TABLE_DELTA) * TABLE_TAU) / (
        1.0 - math.exp(-(TABLE_DELTA - zeta(TABLE_ALPHA * 0.2, TABLE_R, Q_TILDE)) * TABLE_TAU)
    )
    assert power_solution.lower_bound == pytest.approx(lower, rel=1e-12)
    assert power_solution.upper_bound == pytest.approx(upper, rel=1e-12)


def test_a_priori_bounds_beyond_float64_are_inf(table_market, table_cone):
    # table2 at delta = 0.02 and tau = 20000: both exponentials overflow, and so
    # does A*, which is at least the lower bound
    p = PowerProblem(table_market, EvaluationSpec(20000.0, TABLE_GAMMA, 0.02), TABLE_ALPHA, table_cone)
    assert power.fixed_point_bounds(p) == (math.inf, math.inf)
    with pytest.raises(NonFinite, match=r"^A\* overflows float64 at tau=20000"):
        fixed_point(p)
    # TINY_DELTA: the upper bound's denominator -expm1(-delta tau) rounds to 0
    c = TINY_DELTA
    m = MarketModel(mu=c["mu"], sigma=np.reshape(c["sigma"], (1, 1)), r=c["r"])
    p = PowerProblem(m, EvaluationSpec(c["tau"], c["gamma"], c["delta"]), c["alpha"], constrained_sharpe(m))
    lower, upper = power.fixed_point_bounds(p)
    assert upper == math.inf
    assert lower == pytest.approx(59.0076042685, rel=1e-10)
    assert fixed_point(p).a_star == pytest.approx(59.1646573692, rel=1e-11)


def test_fixed_point_negative_alpha(table_market, table_cone):
    e = EvaluationSpec(tau=TABLE_TAU, gamma=0.8, delta=TABLE_DELTA)
    p = PowerProblem(market=table_market, evaluation=e, alpha=-1.0, cs=table_cone)
    sol = fixed_point(p)
    assert sol.lower_bound <= sol.a_star <= sol.upper_bound
    assert abs(sol.a_star - contraction_map(p, sol.a_star)) <= 1e-10
    assert budget_function(p, sol.a_star, sol.y_star) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("alpha", [0.5, -1.0])
def test_envelope_derivatives_match_central_differences(table_market, table_cone, alpha):
    e = EvaluationSpec(tau=TABLE_TAU, gamma=0.8, delta=TABLE_DELTA)
    p = PowerProblem(market=table_market, evaluation=e, alpha=alpha, cs=table_cone)
    a, h = 2.5, 1e-4
    _, h_slope, y, _, _ = power._newton_y(p, a, 0.0)
    central = (power._newton_y(p, a * (1 + h), 0.0)[0] - power._newton_y(p, a * (1 - h), 0.0)[0]) / (2 * a * h)
    assert h_slope == pytest.approx(central, rel=1e-7)
    for y_at in (y, 0.5 * y, 3.0 * y):
        f_slope = power._period_sums(p, p.law, a, y_at)[1] / y_at  # sums[1] = y F'(y)
        central = (
            budget_function(p, a, y_at * (1 + h)) - budget_function(p, a, y_at * (1 - h))
        ) / (2 * y_at * h)
        assert f_slope == pytest.approx(central, rel=1e-7)


@pytest.mark.parametrize("alpha", [0.5, -1.0])
def test_budget_a_slope_matches_central_difference(table_market, table_cone, alpha):
    # the fifth period sum, dF/da at fixed y, steers the y* Newton start along A
    e = EvaluationSpec(tau=TABLE_TAU, gamma=0.8, delta=TABLE_DELTA)
    p = PowerProblem(market=table_market, evaluation=e, alpha=alpha, cs=table_cone)
    a, h = 2.5, 1e-4
    y = newton_y_star(p, a)
    for y_at in (y, 0.5 * y, 3.0 * y):
        slope = power._period_sums(p, p.law, a, y_at)[4]
        central = (
            budget_function(p, a * (1 + h), y_at) - budget_function(p, a * (1 - h), y_at)
        ) / (2 * a * h)
        assert slope == pytest.approx(central, rel=1e-7)


@pytest.mark.parametrize("hint", [1e-30, 1e-3, 1e3, 1e30])
def test_y_star_independent_of_hint(power_problem, hint):
    expected = newton_y_star(power_problem, 1.0)
    assert newton_y_star(power_problem, 1.0, hint=hint) == pytest.approx(expected, rel=1e-12)
    assert budget_function(power_problem, 1.0, expected) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("slope_scale", [1e-3, float("nan")])
def test_y_star_safeguard_survives_bad_slopes(power_problem, monkeypatch, slope_scale):
    # Newton steps 1000x too long, or not finite: bracket and bisection take over
    expected = newton_y_star(power_problem, 1.0)
    exact = power._period_sums

    def skewed(p, law, a, y):
        f, yf, *rest = exact(p, law, a, y)
        return (f, yf * slope_scale, *rest)

    monkeypatch.setattr(power, "_period_sums", skewed)
    assert newton_y_star(power_problem, 1.0) == pytest.approx(expected, rel=1e-9)


def test_y_star_newton_step_onto_the_bracket_edge_ends_the_solve(table_market, table_cone, count_calls):
    # here a Newton step lands on the root with log F slightly below 0, so the
    # next step rounds to 0 on the bracket's edge; it must end the solve and
    # not be replaced by a bisection away from the root
    e = EvaluationSpec(tau=1e-3, gamma=0.8, delta=TABLE_DELTA)
    p = PowerProblem(market=table_market, evaluation=e, alpha=0.5, cs=table_cone)
    a = 3471.88889288953
    calls = count_calls(power, "_period_sums")
    y = newton_y_star(p, a)
    assert len(calls) <= 5
    assert budget_function(p, a, y) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("gamma,budget", [(0.55, 5), (0.8, 4), (1.0, 4)])
@pytest.mark.parametrize("alpha", [0.5, -1.0])
def test_fixed_point_work_budget_on_table2(table_market, table_cone, count_calls, alpha, gamma, budget):
    # every y* Newton starts near its root: from the s = 0 root at the first A,
    # then from the tangent of y*(A), and an evaluation that cannot be accepted
    # stops after one short step; each _period_sums call is one quadrature call
    calls = count_calls(power, "_period_sums")
    for tau in (1e-3, 0.2, 1.0, 4.0):
        e = EvaluationSpec(tau=tau, gamma=gamma, delta=TABLE_DELTA)
        p = PowerProblem(market=table_market, evaluation=e, alpha=alpha, cs=table_cone)
        calls.clear()
        fixed_point(p)
        assert len(calls) <= budget, f"tau={tau}"


def test_fixed_point_gamma1_newton_step_above_the_upper_bound():
    # for gamma = 1 and alpha > 0 the upper a-priori bound is A* itself, and
    # the first Newton step lands 1.1e-9 above it, beyond an absolute slack of
    # tol_fixed_point; the bracket's relative slack keeps that step
    m = random_market(np.random.default_rng(130), 30)
    cs = constrained_sharpe(m)
    e = EvaluationSpec(tau=1.0, gamma=1.0, delta=0.3)
    p = PowerProblem(market=m, evaluation=e, alpha=0.5, cs=cs)
    sol = fixed_point(p)
    expected = math.exp(zeta(0.5, m.r, cs.objective) - 0.3) / (1.0 - math.exp(-0.3))
    assert sol.a_star == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("n", [2, 10, 30])
@pytest.mark.parametrize("alpha", [0.5, -1.0, -0.5])
def test_fixed_point_newton_on_random_markets(monkeypatch, n, alpha):
    # the random markets default_rng(1000 n + k), k < 6, at tau <= 4; delta
    # sits 0.3 above the well-posedness bound. After its first evaluation,
    # fixed_point starts each y* Newton from the tangent of y*(A), while
    # contraction_map starts from _log_y_start, so the residual check also
    # compares the two.
    steps = []  # the log-y step over which each evaluation carries H to y*
    carry = power._carry_to

    def recorded(p, y, sums, s):
        steps.append(s)
        return carry(p, y, sums, s)

    monkeypatch.setattr(power, "_carry_to", recorded)
    for k in range(6):
        m = random_market(np.random.default_rng(1000 * n + k), n)
        cs = constrained_sharpe(m)
        delta = max(zeta(alpha * 0.2, m.r, cs.objective), 0.0) + 0.3
        for tau in (1e-3, 1e-2, 0.1, 1.0, 4.0):
            e = EvaluationSpec(tau=tau, gamma=0.8, delta=delta)
            p = PowerProblem(market=m, evaluation=e, alpha=alpha, cs=cs)
            sol = fixed_point(p)
            a, tol, q = sol.a_star, p.tol_fixed_point, sol.contraction_modulus
            assert sol.iterations <= 10
            # the accepted evaluation ran its y* Newton to tol_root
            assert abs(steps[-1]) <= p.tol_root, (k, tau)
            assert budget_function(p, a, sol.y_star) == pytest.approx(1.0, abs=1e-9), (k, tau)
            # an absolute residual cannot fall below the float64 spacing of A*
            floor = 4 * math.ulp(a)
            assert abs(contraction_map(p, a) - a) <= tol + floor, (k, tau)
            if tau >= 1e-2:
                assert sol.error_bound <= max(tol, floor / (1 - q)), (k, tau)


def test_a_lower_bound_below_tol_keeps_every_evaluated_a_positive(monkeypatch):
    # the lower bound, 4.1e-20, is below tol, so a bracket widened by tol alone
    # reaches below 0, where H(a) is not defined; A* > 0, so every evaluated a must
    # stay positive, Picard steps included (A + (Psi(A) - A) rounds to 0 when
    # Psi(A) < ulp(A))
    c = TINY_LOWER_BOUND
    m = MarketModel(mu=c["mu"], sigma=np.reshape(c["sigma"], (4, 4)), r=c["r"])
    p = PowerProblem(m, EvaluationSpec(c["tau"], c["gamma"], c["delta"]), c["alpha"], constrained_sharpe(m))
    evaluated = []
    exact = power._period_sums

    def recorded(p, law, a, y):
        evaluated.append(a)
        return exact(p, law, a, y)

    monkeypatch.setattr(power, "_period_sums", recorded)
    sol = fixed_point(p)
    assert sol.lower_bound < p.tol_fixed_point
    assert min(evaluated) > 0.0
    assert sol.lower_bound * (1.0 - 1e-10) <= sol.a_star <= sol.upper_bound
    assert abs(contraction_map(p, sol.a_star) - sol.a_star) <= p.tol_fixed_point


def test_contraction_map_rejects_a_negative_a(power_problem):
    with pytest.raises(DomainError):
        contraction_map(power_problem, -1e-17)


@pytest.mark.parametrize("n,seed", [(10, 10000), (10, 10001), (30, 30000)])
def test_a_star_far_below_the_upper_bound_stays_positive(n, seed):
    # A* is about 1e-36 to 1e-40, below one ulp of the upper bound, where
    # A + (Psi(A) - A) would round to 0; the A* accepted is a fixed point relative
    # to its own size
    m = random_market(np.random.default_rng(seed), n)
    cs = constrained_sharpe(m)
    delta = max(zeta(-1.0 * 0.2, m.r, cs.objective), 0.0) + 0.3
    e = EvaluationSpec(tau=100.0, gamma=0.8, delta=delta)
    p = PowerProblem(market=m, evaluation=e, alpha=-1.0, cs=cs)
    sol = fixed_point(p)
    assert abs(contraction_map(p, sol.a_star) - sol.a_star) <= p.tol_fixed_point * sol.a_star + 4 * math.ulp(sol.a_star)
    assert 0.0 < sol.a_star < 1e-30
    assert sol.a_star < math.ulp(sol.upper_bound)
    assert value_function(sol, 0.5, -1.0, 0.8) < 0.0


@pytest.mark.parametrize("alpha", [0.5, -1.0])
def test_carried_h_and_slope_have_the_taylor_orders(table_market, table_cone, alpha):
    # from the sums at y, H carried to y e^s errs by O(s^3) and H' by O(s^2);
    # y = 1.3 y* is far from the root, so a wrong first-order term would show as O(s)
    e = EvaluationSpec(tau=TABLE_TAU, gamma=0.8, delta=TABLE_DELTA)
    p = PowerProblem(market=table_market, evaluation=e, alpha=alpha, cs=table_cone)
    a = 2.5
    y = 1.3 * newton_y_star(p, a)
    sums = power._period_sums(p, p.law, a, y)

    def errors(s):
        h, h_slope, _ = power._carry_to(p, y, sums, s)
        exact = power._period_sums(p, p.law, a, y * math.exp(s))
        return abs(h - alpha * (exact[2] + y * math.exp(s))), abs(h_slope - exact[3])

    (h_wide, slope_wide), (h_narrow, slope_narrow) = errors(0.02), errors(0.01)
    assert 7.0 <= h_wide / h_narrow <= 9.0
    assert 3.5 <= slope_wide / slope_narrow <= 4.5


@pytest.mark.parametrize("seed", [1, 2])
def test_psi_slope_is_taken_at_y_star(seed):
    # psi_slope, the Monte Carlo's tail ratio, is e^{-delta tau} H' at the returned y*,
    # not at the y* Newton's last quadrature point
    m = random_market(np.random.default_rng(seed), 10)
    e = EvaluationSpec(tau=1.0, gamma=0.8, delta=0.3)
    p = PowerProblem(market=m, evaluation=e, alpha=-1.0, cs=constrained_sharpe(m))
    sol = fixed_point(p)
    at_y_star = math.exp(-0.3) * power._period_sums(p, p.law, sol.a_star, sol.y_star)[3]
    assert abs(sol.psi_slope / at_y_star - 1.0) <= 1e-12


@pytest.mark.parametrize("alpha", [0.5, -1.0])
def test_table2_short_period_solves(table_market, table_cone, alpha):
    # tau = 0.003: 1 - q ~ 1e-3 and A* ~ 1e3, so the residual meets the float64 floor
    e = EvaluationSpec(tau=0.003, gamma=0.8, delta=TABLE_DELTA)
    p = PowerProblem(market=table_market, evaluation=e, alpha=alpha, cs=table_cone)
    sol = fixed_point(p)
    assert sol.iterations <= 10
    assert sol.lower_bound <= sol.a_star <= sol.upper_bound
    assert abs(contraction_map(p, sol.a_star) - sol.a_star) <= p.tol_fixed_point
    assert budget_function(p, sol.a_star, sol.y_star) == pytest.approx(1.0, abs=1e-10)


def test_gamma_to_one_continuity(table_market, table_cone):
    e = EvaluationSpec(tau=TABLE_TAU, gamma=1.0 - 1e-6, delta=TABLE_DELTA)
    p = PowerProblem(market=table_market, evaluation=e, alpha=TABLE_ALPHA, cs=table_cone)
    sol = fixed_point(p)
    assert sol.a_star == pytest.approx(
        closed_a_star_gamma1(TABLE_ALPHA, TABLE_DELTA, TABLE_TAU), abs=1e-3
    )


def test_assumption_gate(table_market, table_cone):
    e = EvaluationSpec(tau=TABLE_TAU, gamma=0.8, delta=0.01)
    with pytest.raises(AssumptionViolated):
        PowerProblem(market=table_market, evaluation=e, alpha=0.5, cs=table_cone)


def test_alpha_zero_rejected(table_market, table_eval, table_cone):
    for alpha in (0.0, math.nan):
        with pytest.raises(ParameterOutOfRange, match=r"alpha must lie in \(-inf, 0\) or \(0, 1\)"):
            PowerProblem(market=table_market, evaluation=table_eval, alpha=alpha, cs=table_cone)


# --- value function, period ratio, intra-period profile ----------------------


def test_value_function_shapes(power_solution):
    sol = power_solution
    assert value_function(sol, 1.0, TABLE_ALPHA, 0.8) == pytest.approx(sol.a_star / TABLE_ALPHA)
    with pytest.raises(DomainError):
        value_function(sol, 0.0, TABLE_ALPHA, 0.8)


def test_value_function_of_a_float_matches_numpy_pow(power_solution):
    # x, such as the CLI's x0, is a float: its power is libm's pow, within an ulp of
    # numpy's vectorised one; an int x0 is taken as a float; where V itself overflows it raises
    for x in (1e-8, 0.5, 3.0, 1e8):
        v = value_function(power_solution, x, TABLE_ALPHA, 0.8)
        assert type(v) is float
        assert v == pytest.approx(power_solution.a_star / TABLE_ALPHA * np.power([x], TABLE_ALPHA * (1.0 - 0.8))[0], rel=5e-16)
    assert value_function(power_solution, 3, TABLE_ALPHA, 0.8) == value_function(power_solution, 3.0, TABLE_ALPHA, 0.8)
    with pytest.raises(NonFinite):
        value_function(power_solution, 1e-300, -50.0, 0.0)


def test_value_function_gamma1_constant(power_solution_g1):
    v1 = value_function(power_solution_g1, 0.5, TABLE_ALPHA, 1.0)
    v2 = value_function(power_solution_g1, 7.0, TABLE_ALPHA, 1.0)
    assert v1 == pytest.approx(v2, rel=1e-14)
    closed = math.exp((zeta(TABLE_ALPHA, TABLE_R, Q_TILDE) - TABLE_DELTA) * TABLE_TAU) / (
        TABLE_ALPHA * (1.0 - math.exp(-TABLE_DELTA * TABLE_TAU))
    )
    assert v1 == pytest.approx(closed, abs=1e-8)


def test_value_function_within_growth_bracket(power_solution):
    # value bounds from the bond-only and one-period-optimal growth rates
    x = 0.5
    beta = TABLE_ALPHA * 0.2
    lo = (
        math.exp((TABLE_R * TABLE_ALPHA - TABLE_DELTA) * TABLE_TAU)
        / (TABLE_ALPHA * (1 - math.exp(-(TABLE_DELTA - TABLE_R * beta) * TABLE_TAU)))
        * x**beta
    )
    hi = (
        math.exp((zeta(TABLE_ALPHA, TABLE_R, Q_TILDE) - TABLE_DELTA) * TABLE_TAU)
        / (
            TABLE_ALPHA
            * (1 - math.exp((zeta(beta, TABLE_R, Q_TILDE) - TABLE_DELTA) * TABLE_TAU))
        )
        * x**beta
    )
    v = value_function(power_solution, x, TABLE_ALPHA, 0.8)
    assert lo <= v <= hi


def test_period_ratio_gamma1_closed_form(power_problem_g1, power_solution_g1):
    # gross wealth growth over one period at deflator ratio R is I(y* R)
    p, sol = power_problem_g1, power_solution_g1
    za = zeta(TABLE_ALPHA, TABLE_R, Q_TILDE)
    for ratio in (0.7, 1.0, 1.4):
        expected = math.exp(za / (TABLE_ALPHA - 1.0) * TABLE_TAU) * ratio ** (
            1.0 / (TABLE_ALPHA - 1.0)
        )
        growth = marginal_inverse(sol.a_star, p.alpha, p.evaluation.gamma, sol.y_star * ratio)
        assert growth == pytest.approx(expected, rel=1e-9)


def test_period_ratio_decreasing_and_positive(power_problem, power_solution):
    p, sol = power_problem, power_solution
    grid = np.geomspace(0.2, 5.0, 25)
    vals = marginal_inverse(sol.a_star, p.alpha, p.evaluation.gamma, sol.y_star * grid)
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) < 0)
    median = math.exp(p.law.drift)
    assert (
        marginal_inverse(sol.a_star, p.alpha, p.evaluation.gamma, sol.y_star * median)
        > 0
    )


def test_period_budget_identity_by_quadrature(power_problem, power_solution):
    p, sol = power_problem, power_solution
    val = expect_deflator_adaptive(
        lambda z: z
        * marginal_inverse(sol.a_star, p.alpha, p.evaluation.gamma, sol.y_star * z),
        p.law,
    )
    assert val == pytest.approx(1.0, abs=1e-8)


def test_intra_period_terminal_boundary(power_problem, power_solution):
    z = 0.9
    mult, _ = intra_period_profile(power_problem, power_solution, TABLE_TAU, z)
    expected = marginal_inverse(
        power_solution.a_star, TABLE_ALPHA, 0.8, power_solution.y_star * z
    )
    assert mult == pytest.approx(expected, rel=1e-9)


def test_intra_period_gamma1_fractions(power_problem_g1, power_solution_g1, table_cone):
    expected = table_cone.kkt_gradient / (1.0 - TABLE_ALPHA)
    for t, z in [(0.0, 1.0), (0.3, 0.8), (0.9, 1.2)]:
        _, fractions = intra_period_profile(power_problem_g1, power_solution_g1, t, z)
        np.testing.assert_allclose(fractions, expected, atol=1e-8)


def test_intra_period_start_normalization(power_problem, power_solution):
    mult, fractions = intra_period_profile(power_problem, power_solution, 0.0, 1.0)
    assert mult == pytest.approx(1.0, abs=1e-9)
    assert np.all(fractions >= -1e-6)


def test_intra_period_complementary_slackness(power_problem, power_solution, table_cone):
    _, fractions = intra_period_profile(power_problem, power_solution, 0.5, 1.05)
    assert abs(fractions @ table_cone.pi_tilde_star) <= 1e-10


def test_intra_period_profile_takes_one_quadrature_call(power_problem, power_solution, count_calls):
    calls = count_calls(power, "_period_sums")
    intra_period_profile(power_problem, power_solution, 0.5, 1.05)
    assert len(calls) == 1


# --- the period-start portfolio that `solve` prints ---------------------------
# Markets: table2, and the random grid's random_market(default_rng(1000 n), n).

PORTFOLIO_MARKETS = ["table2", 2, 10, 30]
PORTFOLIO_TAUS = (1e-3, 0.1, 1.0, 4.0)


@functools.lru_cache(maxsize=None)
def portfolio_report(market_name, alpha, gamma, tau):
    if market_name == "table2":
        market = MarketModel(mu=TABLE_MU, sigma=TABLE_SIGMA, r=TABLE_R)
        delta = TABLE_DELTA
    else:
        market = random_market(np.random.default_rng(1000 * market_name), market_name)
        q = constrained_sharpe(market).objective
        delta = max(zeta(alpha * (1.0 - gamma), market.r, q), 0.0) + 0.3
    cfg = ProblemConfig(
        utility="power", mu=tuple(market.mu), sigma=tuple(np.ravel(market.sigma)),
        r=market.r, tau=tau, gamma=gamma, delta=delta, x0=TABLE_X0, alpha=alpha,
    )
    return solve(cfg)


@pytest.mark.parametrize("alpha", [0.5, -1.0])
@pytest.mark.parametrize("market_name", PORTFOLIO_MARKETS)
def test_solve_fractions_gamma1_are_merton(market_name, alpha):
    for tau in PORTFOLIO_TAUS:
        rep = portfolio_report(market_name, alpha, 1.0, tau)
        expected = rep.problem.cs.kkt_gradient / (1.0 - alpha)
        np.testing.assert_allclose(rep.fields["feedback_fractions"], expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize("alpha", [0.5, -1.0])
@pytest.mark.parametrize("market_name", PORTFOLIO_MARKETS)
def test_solve_fractions_complementary_slackness(market_name, alpha):
    for gamma in (0.55, 0.8, 1.0):
        for tau in PORTFOLIO_TAUS:
            fields = portfolio_report(market_name, alpha, gamma, tau).fields
            assert abs(fields["feedback_fractions"] @ fields["pi_tilde_star"]) <= 1e-10


@pytest.mark.parametrize("alpha", [0.5, -1.0])
@pytest.mark.parametrize("market_name", PORTFOLIO_MARKETS)
def test_solve_fractions_equal_profile_at_period_start(market_name, alpha):
    # solve reads the slope ratio of the last fixed-point evaluation;
    # the profile sums again at (A*, y*)
    for gamma in (0.55, 0.8, 1.0):
        for tau in PORTFOLIO_TAUS:
            rep = portfolio_report(market_name, alpha, gamma, tau)
            _, profile = intra_period_profile(rep.problem, rep.solution, 0.0, 1.0)
            diff = np.abs(rep.fields["feedback_fractions"] - profile).max()
            assert diff <= 1e-10 * np.abs(profile).max()


# --- duality sandwich (small MC; the full run lives in the acceptance suite) --


def test_one_period_policy_attains_h(power_problem, power_solution):
    mean, std_error = h_expectation(power_problem, power_solution, 2, 20_000)
    analytic = power._newton_y(power_problem, power_solution.a_star, 0.0)[0]
    assert abs(mean - analytic) <= 3 * std_error


def test_full_horizon_mc_matches_value(power_problem, power_solution):
    from periodic_portfolio import estimate_power_objective

    est = estimate_power_objective(
        power_solution, power_problem, 0.5, SimulationConfig(n_paths=20_000, seed=4)
    )
    v = value_function(power_solution, 0.5, TABLE_ALPHA, 0.8)
    assert abs(est.mean - v) <= 3 * est.std_error + est.truncation_bound
