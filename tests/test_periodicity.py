import math

import numpy as np
import pytest
from scipy.optimize import brentq

from periodic_portfolio import (
    EvaluationSpec,
    MarketModel,
    ProblemConfig,
    constrained_sharpe,
    optimal_tau,
    solve_log,
    tau_objective,
    value_log,
    zeta,
)
from periodic_portfolio import periodicity
from periodic_portfolio.errors import DomainError, NonConvergence, NonFinite, ParameterOutOfRange
from periodic_portfolio.logutil import _log_coefficients

from conftest import STEEP, TABLE_MU, TABLE_R, TABLE_SIGMA, random_market


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


# A zero-growth market: r = 0 and every excess return negative, so the cone
# projection holds no stock and r + |xi_tilde|^2/2 = 0. Then A*(tau) = 0 and
# V = C*(tau) log x0 < 0 rises toward 0 without a maximum, and for gamma = 1
# V*tau is 0 at every tau: no log proposition gives a tau* there. Capped at 4,
# a rising objective is best at the cap, and the flat one at the first of the
# 257 points.
ZERO_GROWTH_DETAIL = "requires r + |xi_tilde|^2/2 > 0: the market has zero growth"


def zero_growth_config(gamma: float) -> ProblemConfig:
    return table_config(mu=(-0.1, -0.05), r=0.0, gamma=gamma)


@pytest.mark.parametrize(
    "gamma,scaled,capped_tau",
    [(1.0, True, 4.0 / 257), (0.8, False, 4.0), (0.8, True, 4.0)],
    ids=["gamma-1-scaled", "value", "scaled"],
)
def test_log_propositions_fail_on_a_zero_growth_market(gamma, scaled, capped_tau):
    f = tau_objective(zero_growth_config(gamma), scaled)
    assert f.market.r + 0.5 * f.cs.objective == 0.0
    values = np.array([f(t) for t in np.geomspace(1e-2, 1e3, 64)])
    if gamma == 1.0:
        assert (values == 0.0).all()
    else:
        assert (values < 0.0).all() and (np.diff(values) > 0.0).all()
    assert periodicity._condition(f) == (False, ZERO_GROWTH_DETAIL)
    res = optimal_tau(f)
    assert not res.condition_holds and res.tau_star is None and math.isnan(res.objective_at_star)
    assert res.condition_detail == ZERO_GROWTH_DETAIL
    capped = optimal_tau(f, 4.0)
    assert (capped.condition_holds, capped.condition_detail) == (False, ZERO_GROWTH_DETAIL)
    assert capped.tau_star == pytest.approx(capped_tau, rel=1e-15)
    assert capped.objective_at_star == f(capped.tau_star)


def test_log_gamma_one_value_on_a_zero_growth_market_has_no_proposition():
    # no proposition covers the gamma = 1 value, whatever the growth
    assert periodicity._condition(tau_objective(zero_growth_config(1.0), False)) is None


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


def grid_markets():
    """The table market and ``random_market`` with n in {2, 10, 50}."""
    yield "table", MarketModel(mu=TABLE_MU, sigma=TABLE_SIGMA, r=TABLE_R)
    for n in (2, 10, 50):
        yield f"random-n{n}", random_market(np.random.default_rng(7000 + n), n)


def closed_form_configs():
    """(id, config) of log utility and of power utility with gamma = 1 on every grid market.

    Log utility takes gamma in {0.3, 0.8, 1} and x0 in {0.2, 1, 50}; power
    utility (gamma = 1, alpha = 0.5) takes delta = 1.5, 3 and 0.8 times
    zeta(alpha): inside the scaled gate delta/2 < zeta(alpha) < delta, and
    outside it on either side.
    """
    for name, m in grid_markets():
        market = dict(mu=tuple(m.mu), sigma=tuple(m.sigma.ravel()), r=m.r, tau=1.0)
        for gamma in (0.3, 0.8, 1.0):
            for x0 in (0.2, 1.0, 50.0):
                cfg = ProblemConfig(utility="log", gamma=gamma, delta=0.3, x0=x0, **market)
                yield f"{name}-log-gamma{gamma}-x{x0}", cfg
        za = zeta(0.5, m.r, constrained_sharpe(m).objective)
        for factor in (1.5, 3.0, 0.8):
            cfg = ProblemConfig(
                utility="power", gamma=1.0, delta=factor * za, x0=0.5, alpha=0.5, **market
            )
            yield f"{name}-power-delta{factor}zeta", cfg


CLOSED_FORMS = list(closed_form_configs())


def capped_grid(cap: float) -> np.ndarray:
    return np.arange(1, periodicity._CAP_POINTS + 1) * cap / periodicity._CAP_POINTS


def scalar_capped_supremum(f, cap: float) -> tuple[float, float]:
    """The capped search point by point on the scalar path: the reference for the grid."""
    points = periodicity._CAP_POINTS
    pts = [cap * (k + 1) / points for k in range(points)]
    vals = [f(t) for t in pts]
    i = max(range(points), key=vals.__getitem__)
    if 0 < i < points - 1:
        return periodicity._golden_max(f, pts[i - 1], pts[i + 1])
    return pts[i], vals[i]


def term_scale(f, tau: float) -> float:
    """|V| of a power objective; |A*| + |C* log x0| of a log one: the size of its rounded terms."""
    cfg = f.cfg
    if cfg.utility == "power":
        return abs(f(tau))
    a_star, c_star = _log_coefficients(f.market.r + 0.5 * f.cs.objective, tau, cfg.gamma, cfg.delta)
    return (abs(a_star) + abs(c_star * f.log_x0)) * (tau if f.scaled else 1.0)


@pytest.mark.parametrize("scaled", [False, True], ids=["value", "scaled"])
@pytest.mark.parametrize("cfg", [c for _, c in CLOSED_FORMS], ids=[i for i, _ in CLOSED_FORMS])
def test_grid_is_within_8_ulps_of_scalar_calls(cfg, scaled):
    # numpy's exp and expm1 are within 1 ulp of glibc's, not equal to them.
    # (e^u - gamma) / (e^u - 1)^2 doubles that, and each side rounds its
    # half dozen operations on different inputs, so 8 ulps bound the gap. A
    # log value sums two terms that may cancel, so the ulps are those of the
    # terms' size.
    f = tau_objective(cfg, scaled)
    for cap in (4.0 / cfg.delta, 100.0 / cfg.delta):
        taus = capped_grid(cap)
        grid = f.grid(taus)
        scalar = np.array([f(t) for t in taus.tolist()])
        scale = np.array([term_scale(f, t) for t in taus.tolist()])
        assert np.all(np.abs(grid - scalar) <= 8 * np.spacing(scale))


@pytest.mark.parametrize("scaled", [False, True], ids=["value", "scaled"])
@pytest.mark.parametrize("cfg", [c for _, c in CLOSED_FORMS], ids=[i for i, _ in CLOSED_FORMS])
def test_capped_optimal_tau_has_the_scalar_loop_bits(cfg, scaled):
    # gates that hold never reach the grid; the rest, and caps whose grid
    # leaves the normal range (delta*tau > 350), must match the reference
    f = tau_objective(cfg, scaled)
    for cap in (4.0 / cfg.delta, 100.0 / cfg.delta, 1000.0 / cfg.delta):
        res = optimal_tau(f, cap)
        if res.condition_holds:
            want = periodicity._maximize(f, 1e-4 / cfg.delta, 1.0 / cfg.delta)
        else:
            want = scalar_capped_supremum(f, cap)
        assert (res.tau_star, res.objective_at_star) == want


def test_capped_searches_cover_both_gates_and_both_ends():
    # the cases above hold each gate and fail it; where it fails, the closed
    # forms peak at the first grid point (V(x0; 0+) = +inf, or a scaled
    # objective that falls from 1/delta) or at the cap (zeta(alpha) > delta)
    holds, ends = set(), set()
    for _, cfg in CLOSED_FORMS:
        for scaled in (False, True):
            cap = 4.0 / cfg.delta
            res = optimal_tau(tau_objective(cfg, scaled), cap)
            holds.add(res.condition_holds)
            if not res.condition_holds:
                ends.add(capped_grid(cap).tolist().index(res.tau_star))
    assert holds == {False, True}
    assert ends == {0, periodicity._CAP_POINTS - 1}


def test_power_gamma_below_one_has_no_grid():
    f = tau_objective(table_config("power"), True)
    assert f.grid(capped_grid(4.0)) is None


def test_a_grid_below_the_smallest_delta_tau_raises_the_scalar_error():
    # delta * cap / 257 < 1e-12 at the first point; the value gate fails at x0 = 1
    f = tau_objective(table_config(gamma=0.8, delta=0.3, x0=1.0), False)
    cap = 1e-10
    assert f.grid(capped_grid(cap)) is None
    with pytest.raises(ParameterOutOfRange) as scalar:
        scalar_capped_supremum(f, cap)
    with pytest.raises(ParameterOutOfRange) as capped:
        optimal_tau(f, cap)
    assert str(capped.value) == str(scalar.value) == "delta*tau is too small to evaluate stably"


@pytest.mark.parametrize("scaled", [False, True], ids=["value", "scaled"])
def test_a_gamma_one_grid_that_overflows_raises_the_scalar_error(scaled):
    # zeta(alpha) > delta: the objective grows like exp((zeta - delta) tau)
    # and overflows inside the grid, first at the scalar loop's point
    f = tau_objective(table_config("power", gamma=1.0, delta=0.05), scaled)
    cap = 1e6
    assert f.grid(capped_grid(cap)) is None
    with pytest.raises(NonFinite) as scalar:
        scalar_capped_supremum(f, cap)
    with pytest.raises(NonFinite) as capped:
        optimal_tau(f, cap)
    assert str(capped.value) == str(scalar.value)
    assert str(scalar.value).startswith("the gamma = 1 objective overflows at tau=")


# For alpha < 0, V = A*/alpha < 0, and the scaled gamma = 1 objective is
# |alpha| V tau, not A* tau. On table2 at alpha = -1, V tau rises over
# (0, 4] to its supremum at the cap, where A* tau is lowest. The grid's
# argmax and the scalar path's agree.
def test_scaled_gamma_one_search_for_negative_alpha_maximises_v_tau():
    cfg = table_config("power", gamma=1.0, alpha=-1.0)
    f, value = tau_objective(cfg, True), tau_objective(cfg, False)
    taus = capped_grid(4.0)
    v_tau = np.array([value(t) * t for t in taus.tolist()])
    assert np.all(np.diff(v_tau) > 0) and v_tau[-1] < 0
    assert f.grid(taus) == pytest.approx(abs(cfg.alpha) * v_tau, rel=1e-13)
    res = optimal_tau(f, 4.0)
    assert not res.condition_holds
    assert (res.tau_star, res.objective_at_star) == scalar_capped_supremum(f, 4.0) == (4.0, f(4.0))
    assert res.objective_at_star == pytest.approx(-1.05156210639, rel=1e-11)


# V(x0) = -2.3e-560 on the steep market at tau = 1 and x0 = 1e300 is below
# float64: the objective raises, as where V overflows, so no capped search
# picks its argmax among values rounded to -0.
def test_a_power_objective_below_float64_raises():
    cfg = ProblemConfig(utility="power", tau=1.0, x0=1e300, **STEEP)
    with pytest.raises(NonFinite, match=r"^V\(x\) underflows float64 at x=1e\+300$"):
        tau_objective(cfg, True)(1.0)


class InteriorPeak:
    """A stub objective, -log(tau / peak)^2, whose maximum 0 lies inside the capped grid.

    With ``closed`` its ``grid`` returns twice the scalar values, which have
    the same argmax; otherwise ``grid`` returns None, as for power utility
    with gamma < 1. ``calls`` records the scalar calls.
    """

    def __init__(self, peak: float, closed: bool):
        self.peak, self.closed, self.calls = peak, closed, []

    def __call__(self, tau: float) -> float:
        self.calls.append(tau)
        return -math.log(tau / self.peak) ** 2

    def grid(self, taus: np.ndarray):
        return -2.0 * np.log(taus / self.peak) ** 2 if self.closed else None


@pytest.mark.parametrize("closed", [False, True], ids=["scalar", "grid"])
def test_capped_search_refines_an_interior_maximum(closed):
    # no shipped or benchmark search reaches this branch: their best points
    # lie at cap/257 or at the cap
    cap, peak = 4.0, 1.2345
    f = InteriorPeak(peak, closed)
    tau_star, obj = periodicity._capped_supremum(f, cap)
    taus = capped_grid(cap)
    i = int(np.abs(taus - peak).argmin())
    assert 0 < i < periodicity._CAP_POINTS - 1
    # golden section stops once its bracket is within _REL_TOL of its midpoint
    assert abs(tau_star - peak) <= periodicity._REL_TOL * peak
    assert taus[i - 1] < tau_star < taus[i + 1]
    # the objective is the scalar path's value at tau*, never the grid's
    assert f.calls[-1] == tau_star and obj == -math.log(tau_star / peak) ** 2
    assert len(f.calls) > (0 if closed else periodicity._CAP_POINTS)


def test_search_expands_downward_to_a_maximum_below_its_first_point():
    # the first geometric grid runs from lo = 1e-4 up to hi = 1; the peak lies
    # below lo, so the grid's best point is its first until it halves twice
    lo, hi, peak = 1e-4, 1.0, 3e-5
    f = InteriorPeak(peak, closed=False)
    tau_star, obj = periodicity._maximize(f, lo, hi)
    assert min(f.calls) < peak < lo
    assert abs(tau_star - peak) <= periodicity._REL_TOL * peak
    assert obj == -math.log(tau_star / peak) ** 2


@pytest.mark.parametrize("slope", [1.0, -1.0], ids=["rising", "falling"])
def test_search_without_an_interior_maximum_raises(slope):
    # a monotone objective keeps its best point at an end through all
    # _EXPAND_CAP doublings or halvings
    calls = []

    def monotone(tau: float) -> float:
        calls.append(tau)
        return slope * math.log(tau)

    with pytest.raises(NonConvergence, match="^could not bracket an interior maximizer$"):
        periodicity._maximize(monotone, 1e-4, 1.0)
    end = max(calls) if slope > 0 else min(calls)
    assert end == (2.0**periodicity._EXPAND_CAP if slope > 0 else 1e-4 / 2.0**periodicity._EXPAND_CAP)


def test_certificate_fails_where_a_neighbour_is_higher():
    def hill(tau: float) -> float:
        return -((tau - 2.0) ** 2)

    periodicity._certify(hill, 2.0, hill(2.0))
    with pytest.raises(NonConvergence, match=r"^local-max certificate failed at tau\*$"):
        periodicity._certify(hill, 1.0, hill(1.0))
