import math
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy.integrate import quad
from scipy.special import ndtri

from periodic_portfolio import (
    DeflatorLaw,
    EvaluationSpec,
    MarketModel,
    PowerProblem,
    SimulationConfig,
    compare,
    constrained_sharpe,
    estimate_log_objective,
    estimate_power_objective,
    fixed_point,
    solve_log,
    value_function,
    value_log,
    zeta,
)
from periodic_portfolio import mc, power
from periodic_portfolio.errors import DomainError, NonConvergence, NonFinite, ParameterOutOfRange
from periodic_portfolio.mc import K_SIGMA, _log_tail
from periodic_portfolio.power import budget_function, marginal_inverse

from conftest import HUGE_SAMPLES, TABLE_ALPHA, h_expectation, random_market


@pytest.fixture(scope="module")
def bond_market():
    # mu = r*1 collapses the optimal policy to the money account
    return MarketModel(mu=[0.12, 0.12], sigma=np.diag([0.2, 0.25]), r=0.12)


@pytest.fixture
def use_workers(monkeypatch):
    """use_workers(n): split each estimate's blocks into at most n ranges, for the rest of the test."""
    return lambda workers: monkeypatch.setattr(mc, "_WORKERS", workers)


@pytest.fixture
def range_threads(monkeypatch):
    """The threads that ``mc._per_path`` starts for the rest of the test, in the order they start."""
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(mc, "Thread", Recorded)
    return started


def normals(seed: int, start: int, rows: int, n_periods: int) -> np.ndarray:
    """Rows ``start`` to ``start + rows`` of the (paths, n_periods) normals of ``seed``, drawn on their own."""
    return mc._normals(mc._stream(seed, start, n_periods), np.empty((rows, n_periods)))


def per_path(cfg: SimulationConfig, n_periods: int, kernel) -> np.ndarray:
    """``mc._per_path`` with one ``kernel`` for every range, for kernels that keep no scratch."""
    return mc._per_path(cfg, n_periods, lambda: kernel)


def table_start(start, g: np.ndarray) -> np.ndarray:
    """``start(g, ...)`` of ``mc._start_table`` into a new array, with new scratch."""
    return start(g, np.empty_like(g), np.empty_like(g), np.empty(g.shape, dtype=np.intp), np.empty_like(g))


def deflator_ratios(law: DeflatorLaw, seed: int, rows: int, n_periods: int) -> np.ndarray:
    """exp(drift + s G) over the first ``rows`` rows of the (paths, n_periods) normals of ``seed``."""
    return np.exp(law.drift + law.s * normals(seed, 0, rows, n_periods))


def test_simulate_deterministic_given_seed():
    law = DeflatorLaw.for_horizon(0.0144, 0.12, 1.0)
    a = deflator_ratios(law, 99, 64, 7)
    b = deflator_ratios(law, 99, 64, 7)
    assert np.array_equal(a, b)
    c = deflator_ratios(law, 100, 64, 7)
    assert not np.array_equal(a, c)


def test_simulate_degenerate_volatility():
    law = DeflatorLaw.for_horizon(0.0, 0.12, 1.0)
    cells = deflator_ratios(law, 1, 8, 3)
    np.testing.assert_allclose(cells, math.exp(-0.12), rtol=0, atol=0)


def test_simulate_unit_mean_identity():
    law = DeflatorLaw.for_horizon(0.0144, 0.12, 1.0)
    cells = deflator_ratios(law, 5, 1000, 1000).ravel() * math.exp(0.12)
    se = cells.std(ddof=1) / math.sqrt(cells.size)
    assert abs(cells.mean() - 1.0) <= 4 * se


def test_a_standard_error_needs_two_paths():
    with pytest.raises(ParameterOutOfRange, match="a standard error needs two paths"):
        SimulationConfig(n_paths=1)
    assert SimulationConfig(n_paths=2).n_paths == 2


def test_log_estimate_matches_closed_form(table_market, table_eval, table_cone):
    sol = solve_log(table_market, table_eval, table_cone)
    est = estimate_log_objective(
        table_market, table_eval, table_cone, 0.5, SimulationConfig(n_paths=40_000, seed=12)
    )
    v = value_log(sol, 0.5)
    assert abs(est.mean - v) <= 3 * est.std_error + est.truncation_bound
    assert compare(est, v)


def test_log_zero_policy_deterministic(bond_market):
    e = EvaluationSpec(tau=1.0, gamma=1.0, delta=0.3)
    cs = constrained_sharpe(bond_market)
    est = estimate_log_objective(bond_market, e, cs, 1.0, SimulationConfig(n_paths=100, seed=3))
    expected = 0.12 / (math.exp(0.3) - 1.0)
    assert est.std_error == pytest.approx(0.0, abs=1e-14)
    assert est.mean == pytest.approx(expected, abs=1e-8)
    assert expected == pytest.approx(0.343, abs=5e-4)


def test_log_optimal_equals_zero_policy_when_no_excess(bond_market):
    e = EvaluationSpec(tau=1.0, gamma=0.8, delta=0.3)
    cs = constrained_sharpe(bond_market)
    assert cs.objective == 0.0
    est = estimate_log_objective(bond_market, e, cs, 0.5, SimulationConfig(n_paths=50, seed=3))
    assert est.mean == pytest.approx(value_log(solve_log(bond_market, e, cs), 0.5), abs=1e-8)


def test_truncation_bound_is_sound(table_market, table_eval, table_cone):
    est = estimate_log_objective(
        table_market, table_eval, table_cone, 0.5, SimulationConfig(n_paths=16, seed=1)
    )
    # brute-force the omitted tail from per-period expected contributions
    rho = math.exp(-0.3)
    mu_g = (0.12 + 0.5 * table_cone.objective) * 1.0
    n_used = 1
    while abs(_log_tail(n_used, rho, 0.8, math.log(0.5), mu_g)) >= 1e-8:
        n_used += 1
    brute = sum(
        rho**i * ((1 - 0.8) * math.log(0.5) + mu_g * (1 + (1 - 0.8) * (i - 1)))
        for i in range(n_used + 1, n_used + 20_000)
    )
    assert est.truncation_bound >= abs(brute) - 1e-12


@pytest.mark.parametrize("case", ["table2", "random10_alpha_-1"])
def test_power_truncation_bound_is_the_exact_tail(monkeypatch, table_market, case):
    # the tail sum_{i>n} x0^beta/alpha e^{-i delta tau} m_a m_b^(i-1), with
    # m_k = E[G^k] of the per-period growth G = I(y* R) from scipy's quad
    if case == "table2":
        market, alpha = table_market, TABLE_ALPHA
    else:  # V < 0
        market, alpha = random_market(np.random.default_rng(2), 10), -1.0
    e = EvaluationSpec(tau=1.0, gamma=0.8, delta=0.3)
    p = PowerProblem(market=market, evaluation=e, alpha=alpha, cs=constrained_sharpe(market))
    sol = fixed_point(p)

    def moment(k):
        def integrand(g):
            ratio = math.exp(p.law.drift + p.law.s * g)
            growth = marginal_inverse(sol.a_star, alpha, 0.8, sol.y_star * ratio)
            return math.exp(-0.5 * g * g) / math.sqrt(2.0 * math.pi) * growth**k

        return quad(integrand, -20.0, 20.0, epsabs=0.0, epsrel=1e-13, limit=200)[0]

    m_a, m_b = moment(alpha), moment(alpha * 0.2)
    disc = math.exp(-0.3)

    def tail(n):
        first = 0.5 ** (alpha * 0.2) / alpha * disc * m_a
        return math.fsum(first * (disc * m_b) ** (i - 1) for i in range(n + 1, n + 5000))

    horizon = 1
    while abs(tail(horizon)) >= mc.TAIL_EPS:
        horizon += 1
    periods = []
    run = mc._per_path
    monkeypatch.setattr(mc, "_per_path", lambda cfg, n, f: periods.append(n) or run(cfg, n, f))
    est = estimate_power_objective(sol, p, 0.5, SimulationConfig(n_paths=16, seed=1))
    assert periods == [horizon]
    assert est.truncation_bound == pytest.approx(abs(tail(horizon)), rel=1e-9, abs=0.0)


def test_power_zero_policy_matches_geometric_sum(bond_market):
    e = EvaluationSpec(tau=1.0, gamma=0.8, delta=0.3)
    cs = constrained_sharpe(bond_market)
    p = PowerProblem(market=bond_market, evaluation=e, alpha=0.5, cs=cs)
    sol = fixed_point(p)
    est = estimate_power_objective(sol, p, 0.5, SimulationConfig(n_paths=64, seed=2))
    alpha, beta, r, delta = 0.5, 0.5 * 0.2, 0.12, 0.3
    expected = (
        (1.0 / alpha)
        * math.exp((r * alpha - delta) * 1.0)
        / (1.0 - math.exp(-(delta - r * beta) * 1.0))
        * 0.5**beta
    )
    assert est.std_error == pytest.approx(0.0, abs=1e-12)
    assert est.mean == pytest.approx(expected, abs=est.truncation_bound + 1e-10)


def test_power_estimate_within_growth_bounds(power_problem, power_solution):
    est = estimate_power_objective(
        power_solution, power_problem, 0.5, SimulationConfig(n_paths=20_000, seed=21)
    )
    from periodic_portfolio import zeta

    alpha, beta = TABLE_ALPHA, TABLE_ALPHA * 0.2
    q = power_problem.xi_tilde_norm_sq
    upper = (
        math.exp((zeta(alpha, 0.12, q) - 0.3) * 1.0)
        / (alpha * (1.0 - math.exp((zeta(beta, 0.12, q) - 0.3) * 1.0)))
        * 0.5**beta
    )
    assert est.mean <= upper + 3 * est.std_error


def test_suboptimality_sandwich(power_problem, power_solution):
    # perturbed policies, each rescaled to spend unit wealth, do not beat the optimum
    analytic = value_function(power_solution, 0.5, TABLE_ALPHA, 0.8)
    cfg = SimulationConfig(n_paths=20_000, seed=31)
    for shift in (0.9, 1.1):
        y_star = power_solution.y_star * shift
        mean, se = matrix_power_objective(power_solution, power_problem, 0.5, cfg, 71, y_star)
        assert mean <= analytic + 3 * se


def test_h_expectation_perturbations_never_beat_optimum(power_problem, power_solution):
    analytic = power._newton_y(power_problem, power_solution.a_star, 0.0)[0]
    for shift in (0.9, 1.0, 1.1):
        mean, std_error = h_expectation(
            power_problem,
            power_solution,
            41,
            30_000,
            y_star=None if shift == 1.0 else power_solution.y_star * shift,
        )
        assert mean <= analytic + 3 * std_error


def test_compare_contract():
    from periodic_portfolio import ObjectiveEstimate

    exact = ObjectiveEstimate(mean=1.0, std_error=0.5, truncation_bound=0.0)
    assert compare(exact, 1.0)
    assert compare(exact, 1.0 + K_SIGMA * 0.5)
    assert not compare(exact, 1.0 + K_SIGMA * 0.5 + 1e-9)
    off = ObjectiveEstimate(mean=1.0, std_error=0.01, truncation_bound=0.0)
    assert not compare(off, 1.05)


@pytest.mark.parametrize("name", ["table1_log", "table2_power"])
def test_compare_allows_rounding_but_not_a_relative_error_of_1e_4(name):
    from periodic_portfolio import ObjectiveEstimate, parse_problem_config, solve

    config = Path(__file__).resolve().parent.parent / "configs" / f"{name}.cfg"
    v = solve(parse_problem_config(config.read_text())).fields["v_x0"]
    exact = ObjectiveEstimate(mean=v, std_error=0.0, truncation_bound=0.0)
    assert compare(exact, v + 8 * math.ulp(v)) and compare(exact, v - 8 * math.ulp(v))
    assert not compare(exact, v * (1.0 + 1e-4)) and not compare(exact, v * (1.0 - 1e-4))


def test_estimates_reject_bad_wealth(power_problem, power_solution, table_market, table_eval, table_cone):
    with pytest.raises(DomainError):
        estimate_log_objective(
            table_market, table_eval, table_cone, -1.0, SimulationConfig(n_paths=4, seed=0)
        )
    with pytest.raises(DomainError):
        estimate_power_objective(
            power_solution, power_problem, 0.0, SimulationConfig(n_paths=4, seed=0)
        )


# --- streamed estimators ---------------------------------------------------
#
# The references below are the whole-matrix formulas the streamed estimators
# replaced: one (rows, n_periods) draw of uniforms, then the per-path objective
# built from full path matrices.


def matrix_normals(cfg: SimulationConfig, n_periods: int) -> np.ndarray:
    u = Generator(Philox(key=cfg.seed)).random((cfg.n_paths, n_periods))
    return ndtri(np.maximum(u, 2.0**-53))


def matrix_mean_and_se(per_path: np.ndarray) -> tuple[float, float]:
    return float(per_path.mean()), float(per_path.std(ddof=1) / math.sqrt(per_path.size))


def matrix_log_objective(cs, m, e, x0, cfg, periods):
    law = DeflatorLaw.for_horizon(cs.objective, m.r, e.tau)
    ratios = np.exp(law.drift + law.s * matrix_normals(cfg, periods))
    rho = math.exp(-e.delta * e.tau)
    growth = -np.log(ratios)
    cumulative = np.cumsum(growth, axis=1)
    prev = np.hstack([np.zeros((growth.shape[0], 1)), cumulative[:, :-1]])
    discounts = rho ** np.arange(1, periods + 1)
    terms = discounts * (growth + (1.0 - e.gamma) * (math.log(x0) + prev))
    return matrix_mean_and_se(terms.sum(axis=1))


def matrix_power_objective(sol, p, x0, cfg, periods, y_star=None):
    alpha, gamma = p.alpha, p.evaluation.gamma
    beta = alpha * (1.0 - gamma)
    y_level = sol.y_star if y_star is None else y_star
    norm = 1.0 if y_star is None else budget_function(p, sol.a_star, y_star)
    ratios = np.exp(p.law.drift + p.law.s * matrix_normals(cfg, periods))
    growth = marginal_inverse(sol.a_star, alpha, gamma, y_level * ratios) / norm
    growth_beta = growth**beta
    prev_pow = np.hstack(
        [np.ones((growth.shape[0], 1)), np.cumprod(growth_beta[:, :-1], axis=1)]
    )
    discounts = math.exp(-p.evaluation.delta * p.evaluation.tau) ** np.arange(1, periods + 1)
    terms = discounts * (growth**alpha / alpha) * (x0**beta * prev_pow)
    return matrix_mean_and_se(terms.sum(axis=1))


@pytest.mark.parametrize(
    "n_paths, n_periods, chunk",
    [
        (25, 9, 7 * 9),
        (50, 9, 7 * 9),  # offsets 63, 126, 189, 252: k % 4 = 3, 2, 1, 0
        (13, 11, 5),  # one-row blocks, element offsets 11, 22, 33, ...
        (64, 3, 10**9),  # one block
        (14, 13, 5),  # one-row blocks, offsets 13, 26, 39: every k % 4
        (31, 7, 3 * 7),  # offsets 21, 42, 63, 84: k % 4 = 1, 2, 3, 0
    ],
)
def test_blocks_stack_to_the_matrix_draws(monkeypatch, use_workers, n_paths, n_periods, chunk):
    monkeypatch.setattr(mc, "_CHUNK_ELEMENTS", chunk)
    cfg = SimulationConfig(n_paths=n_paths, seed=77)
    step = max(1, chunk // n_periods)
    reference = matrix_normals(cfg, n_periods)
    blocks = [normals(cfg.seed, start, min(step, n_paths - start), n_periods) for start in range(0, n_paths, step)]
    assert np.array_equal(np.vstack(blocks), reference)
    # the blocks that _per_path draws put every cell in its own place
    for workers in (1, 3):
        use_workers(workers)
        for j in range(n_periods):
            column = per_path(cfg, n_periods, lambda g, j=j: g[:, j])
            assert np.array_equal(column, reference[:, j])
    law = DeflatorLaw.for_horizon(0.0144, 0.12, 1.0)
    ratios = np.exp(law.drift + law.s * normals(cfg.seed, 0, n_paths, n_periods))
    assert np.array_equal(ratios, np.exp(law.drift + law.s * reference))


@pytest.mark.parametrize("workers", [1, 3])
def test_a_paths_draws_do_not_depend_on_n_paths(monkeypatch, use_workers, workers):
    # blocks of 3 rows: 14 blocks against 34, and only with 40 paths is row 39 a block of its own
    monkeypatch.setattr(mc, "_CHUNK_ELEMENTS", 3 * 7)
    use_workers(workers)
    for j in range(7):
        few, many = (
            per_path(SimulationConfig(n_paths=n, seed=19), 7, lambda g, j=j: g[:, j]) for n in (40, 100)
        )
        assert np.array_equal(few, many[:40])


@pytest.mark.parametrize("start, n_periods", [(0, 5), (1, 5), (1, 3), (3, 1), (4, 1), (5, 1), (47, 11), (1, 998)])
def test_block_draws_start_at_any_element_offset(start, n_periods):
    cfg = SimulationConfig(n_paths=start + 3, seed=123)
    block = normals(cfg.seed, start, 3, n_periods)
    assert np.array_equal(block, matrix_normals(cfg, n_periods)[start:])


@pytest.fixture
def estimate_kind(table_market, table_eval, table_cone, power_problem, power_solution):
    """estimate_kind(kind, cfg): the log or power estimate at x0 = 0.5."""

    def estimate(kind, cfg):
        if kind == "log":
            return estimate_log_objective(table_market, table_eval, table_cone, 0.5, cfg)
        return estimate_power_objective(power_solution, power_problem, 0.5, cfg)

    return estimate


@pytest.mark.parametrize("kind", ["log", "power"])
def test_estimates_do_not_depend_on_block_size(monkeypatch, estimate_kind, kind):
    periods = 30
    cfg = SimulationConfig(n_paths=202, n_periods=periods, seed=5)
    monkeypatch.setattr(mc, "_CHUNK_ELEMENTS", 7 * periods)
    small = estimate_kind(kind, cfg)
    monkeypatch.setattr(mc, "_CHUNK_ELEMENTS", 10**9)
    whole = estimate_kind(kind, cfg)
    assert small.mean == whole.mean
    assert small.std_error == whole.std_error
    assert small.truncation_bound == whole.truncation_bound


def test_power_estimate_on_a_wide_law_does_not_depend_on_block_size(monkeypatch):
    # s = 1.47: the table start leaves some cells more than one Newton step
    # from their root, and each cell must stop on its own step test
    m = random_market(np.random.default_rng(2001), 2)
    cs = constrained_sharpe(m)
    alpha, gamma = 0.9, 0.8
    delta = max(zeta(alpha * (1.0 - gamma), m.r, cs.objective), 0.0) + 0.3
    p = PowerProblem(market=m, evaluation=EvaluationSpec(1.0, gamma, delta), alpha=alpha, cs=cs)
    sol = fixed_point(p)
    cfg = SimulationConfig(n_paths=202, n_periods=30, seed=5)
    monkeypatch.setattr(mc, "_CHUNK_ELEMENTS", 7 * 30)
    small = estimate_power_objective(sol, p, 1.0, cfg)
    monkeypatch.setattr(mc, "_CHUNK_ELEMENTS", 10**9)
    whole = estimate_power_objective(sol, p, 1.0, cfg)
    assert small.mean == whole.mean
    assert small.std_error == whole.std_error


@pytest.mark.parametrize("kind", ["log", "power"])
@pytest.mark.parametrize("n_paths, chunk", [(202, 7 * 30), (4000, None), (101, 7 * 30), (2000, None)])
def test_estimates_do_not_depend_on_worker_count(
    monkeypatch, use_workers, estimate_kind, kind, n_paths, chunk
):
    # blocks of 7 rows, or of the default 1092 rows; 101 rows end in a block
    # of 3 and 2000 rows make only two blocks
    if chunk is not None:
        monkeypatch.setattr(mc, "_CHUNK_ELEMENTS", chunk)
    cfg = SimulationConfig(n_paths=n_paths, n_periods=30, seed=5)
    use_workers(1)
    serial = estimate_kind(kind, cfg)
    use_workers(3)
    pooled = estimate_kind(kind, cfg)
    assert pooled.mean == serial.mean
    assert pooled.std_error == serial.std_error
    assert pooled.truncation_bound == serial.truncation_bound


def test_one_worker_or_one_block_starts_no_thread(use_workers, range_threads, estimate_kind):
    use_workers(1)
    estimate_kind("power", SimulationConfig(n_paths=4000, n_periods=30, seed=5))
    use_workers(3)
    estimate_kind("power", SimulationConfig(n_paths=100, n_periods=30, seed=5))
    assert range_threads == []


def test_ndtri_loads_in_the_calling_thread(monkeypatch, use_workers, estimate_kind):
    # the first lookup of ndtri and Philox must not happen inside a range thread
    use_workers(3)
    monkeypatch.setattr(mc, "_CHUNK_ELEMENTS", 7 * 30)
    lookup = mc._draw_imports
    lookup.cache_clear()
    first_lookups = []

    def record():
        if lookup.cache_info().currsize == 0:
            first_lookups.append(threading.current_thread())
        return lookup()

    monkeypatch.setattr(mc, "_draw_imports", record)
    estimate_kind("log", SimulationConfig(n_paths=202, n_periods=30, seed=5))
    assert first_lookups == [threading.main_thread()]
    lib = lookup()
    assert (lib.Generator, lib.Philox, lib.ndtri) == (Generator, Philox, ndtri)


def test_pooled_blocks_fill_every_row_under_fast_switching(monkeypatch, use_workers):
    # more workers than cores and a short switch interval: a lost or misplaced write breaks a row
    use_workers(8)
    monkeypatch.setattr(mc, "_CHUNK_ELEMENTS", 5)
    cfg = SimulationConfig(n_paths=400, seed=11)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        values = per_path(cfg, 5, lambda g: g[:, 0])
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(values, matrix_normals(cfg, 5)[:, 0])


def _fail_short_blocks(monkeypatch, rows: int) -> None:
    """Make the power kernel raise DomainError on every block of fewer than ``rows`` rows."""
    kernel = mc._log_marginal_inverse

    def failing(a, alpha, gamma, log_y, start=None, scratch=None):
        if log_y.shape[0] < rows:
            raise DomainError("injected failure in a short block")
        return kernel(a, alpha, gamma, log_y, start, scratch)

    monkeypatch.setattr(mc, "_log_marginal_inverse", failing)


def test_block_error_reaches_the_caller_and_no_range_thread_outlives_it(
    monkeypatch, use_workers, range_threads, power_problem, power_solution, estimate_kind
):
    periods = 30
    monkeypatch.setattr(mc, "_CHUNK_ELEMENTS", 7 * periods)
    use_workers(3)
    cfg = SimulationConfig(n_paths=202, n_periods=periods, seed=5)  # the last block, at row 196, has 6 rows
    active = threading.active_count()
    expected = estimate_kind("power", cfg)
    assert threading.active_count() == active
    with monkeypatch.context() as patch:
        _fail_short_blocks(patch, 7)
        with pytest.raises(DomainError, match="short block"):
            estimate_power_objective(power_solution, power_problem, 0.5, cfg)
    assert threading.active_count() == active
    assert len(range_threads) == 4 and not any(thread.is_alive() for thread in range_threads)
    assert estimate_kind("power", cfg) == expected


def test_block_error_exits_with_the_parameter_code(monkeypatch, use_workers, tmp_path, capsys):
    from periodic_portfolio import cli

    monkeypatch.setattr(mc, "_CHUNK_ELEMENTS", 7 * 30)
    use_workers(3)
    _fail_short_blocks(monkeypatch, 7)  # 2000 paths: the last block, at row 1995, has 5 rows
    table2 = Path(__file__).resolve().parent.parent / "configs" / "table2_power.cfg"
    config = tmp_path / "table2_power.cfg"
    config.write_text(table2.read_text().replace("n_periods = auto", "n_periods = 30"))
    argv = ["simulate", "--config", str(config), "--paths", "2000", "--seed", "3"]
    assert cli.main(argv) == cli.EXIT_ASSUMPTION
    assert "short block" in capsys.readouterr().err


@pytest.mark.parametrize("workers", [1, 3])
def test_the_first_failing_block_decides_the_error(monkeypatch, use_workers, range_threads, workers):
    # 200 blocks of 3 rows take 10 ms each. The block at row 6 fails late; the
    # ones at rows 15 and 198 fail early, and with 3 workers row 198 starts the
    # second range, which fails before the first range reaches row 6
    use_workers(workers)
    monkeypatch.setattr(mc, "_CHUNK_ELEMENTS", 3 * 4)
    cfg = SimulationConfig(n_paths=600, seed=1)
    row_of = {value: row for row, value in enumerate(matrix_normals(cfg, 4)[:, 0])}
    lock = threading.Lock()
    started, running = [], [0]

    def failing(g):
        start = row_of[g[0, 0]]
        with lock:
            started.append(start)
            running[0] += 1
        try:
            time.sleep(0.05 if start == 6 else 0.01)
            if start in (6, 15, 198):
                raise DomainError(f"block at row {start}")
            return g.sum(axis=1)
        finally:
            with lock:
                running[0] -= 1

    active = threading.active_count()
    with pytest.raises(DomainError, match="block at row 6$"):
        per_path(cfg, 4, failing)
    assert running[0] == 0  # blocks that had started finished before the error was raised
    assert len(started) < 200  # and the rest never started
    assert len(range_threads) == workers - 1 and threading.active_count() == active


@pytest.mark.parametrize("n_paths, ranges", [(202, 3), (14, 2), (7, 1)])
def test_a_pooled_estimate_makes_one_stream_per_range(
    monkeypatch, use_workers, range_threads, estimate_kind, n_paths, ranges
):
    # blocks of 7 rows: 29, 2 and 1 of them on 3 workers
    use_workers(3)
    monkeypatch.setattr(mc, "_CHUNK_ELEMENTS", 7 * 30)
    lib = mc._draw_imports()
    philox = lib.Philox
    made = []
    monkeypatch.setattr(lib, "Philox", lambda *args, **kwargs: made.append(1) or philox(*args, **kwargs))
    active = threading.active_count()
    estimate_kind("power", SimulationConfig(n_paths=n_paths, n_periods=30, seed=5))
    assert (len(made), len(range_threads)) == (ranges, ranges - 1)
    assert threading.active_count() == active


def test_back_to_back_power_estimates_keep_no_scratch_between_them(use_workers, power_problem, power_solution):
    # table2, then a 10-asset market at alpha = -1 with a longer horizon, back
    # to back on 3 workers, twice: each gives the estimate of a serial run
    market = random_market(np.random.default_rng(2), 10)
    e = EvaluationSpec(tau=0.5, gamma=0.8, delta=0.3)
    p = PowerProblem(market=market, evaluation=e, alpha=-1.0, cs=constrained_sharpe(market))
    runs = [
        (power_solution, power_problem, SimulationConfig(n_paths=4000, n_periods=30, seed=5)),
        (fixed_point(p), p, SimulationConfig(n_paths=3000, n_periods=45, seed=6)),
    ]
    use_workers(1)
    serial = [estimate_power_objective(sol, problem, 0.5, cfg) for sol, problem, cfg in runs]
    use_workers(3)
    pooled = [estimate_power_objective(sol, problem, 0.5, cfg) for sol, problem, cfg in runs * 2]
    assert pooled == serial * 2


def test_log_estimate_matches_matrix_formula(table_market, table_eval, table_cone):
    cfg = SimulationConfig(n_paths=2000, n_periods=71, seed=8)
    est = estimate_log_objective(table_market, table_eval, table_cone, 0.5, cfg)
    mean, se = matrix_log_objective(table_cone, table_market, table_eval, 0.5, cfg, 71)
    assert est.mean == pytest.approx(mean, rel=1e-12)
    assert est.std_error == pytest.approx(se, rel=1e-12)


def test_power_estimate_matches_matrix_formula(power_problem, power_solution):
    cfg = SimulationConfig(n_paths=2000, n_periods=71, seed=8)
    est = estimate_power_objective(power_solution, power_problem, 0.5, cfg)
    mean, se = matrix_power_objective(power_solution, power_problem, 0.5, cfg, 71)
    assert est.mean == pytest.approx(mean, rel=1e-12)
    assert est.std_error == pytest.approx(se, rel=1e-12)


@pytest.mark.parametrize("kind, limit_mb", [("log", 8), ("power", 16)])
def test_estimator_peak_memory(
    table_market, table_eval, table_cone, power_problem, power_solution, kind, limit_mb
):
    # one call on the table configs, 30k paths, automatic horizon
    cfg = SimulationConfig(n_paths=30_000, seed=3)
    tracemalloc.start()
    try:
        if kind == "log":
            estimate_log_objective(table_market, table_eval, table_cone, 0.5, cfg)
        else:
            estimate_power_objective(power_solution, power_problem, 0.5, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mb * 2**20


# --- the tabulated Newton start of the power estimator ------------------------


def newton_steps(monkeypatch, solve) -> int:
    """The fewest Newton steps after which ``solve()`` passes the kernel's step test."""
    for cap in range(1, power._NEWTON_CAP + 1):
        with monkeypatch.context() as patch:
            patch.setattr(power, "_NEWTON_CAP", cap)
            try:
                solve()
                return cap
            except NonConvergence:
                pass
    raise AssertionError("no Newton step count passes")


# every table node, seven points inside each interval, and the draws' bounds
TABLE_DRAWS = np.linspace(-mc._NORMAL_BOUND, mc._NORMAL_BOUND, 8 * mc._TABLE_INTERVALS + 1)


@pytest.mark.parametrize("gamma", [0.2, 0.8])
@pytest.mark.parametrize("alpha", [0.5, -1.0, -5.0, 0.9])
def test_table_start_gives_the_line_start_root_in_no_more_steps(monkeypatch, alpha, gamma):
    beta = -alpha * gamma
    for a in (1e-8, 1.0, 1e8):
        for s in (0.0, 1e-9, 0.1, 1.0, 5.0, 40.0):
            log_y = 0.3 + s * TABLE_DRAWS
            start = mc._start_table(a, alpha, gamma, 0.3, s)
            line = power._log_marginal_inverse(a, alpha, gamma, log_y)
            tabled = power._log_marginal_inverse(a, alpha, gamma, log_y, table_start(start, TABLE_DRAWS))
            # a few ulps of the terms of g(u) = (alpha-1) u + softplus(t) - log y, over |g'(u)|
            t = math.log(a * (1.0 - gamma)) + beta * line
            slope = alpha - 1.0 + beta * np.exp(-np.logaddexp(0.0, -t))
            terms = np.abs(log_y) + np.abs((alpha - 1.0) * line) + np.logaddexp(0.0, t)
            assert np.all(np.abs(tabled - line) <= 8.0 * np.spacing(terms) / np.abs(slope)), (a, s)
            steps = [
                newton_steps(monkeypatch, lambda: power._log_marginal_inverse(a, alpha, gamma, log_y)),
                newton_steps(
                    monkeypatch,
                    lambda: power._log_marginal_inverse(a, alpha, gamma, log_y, table_start(start, TABLE_DRAWS)),
                ),
            ]
            assert steps[1] <= steps[0], (a, s, steps)


def test_kernel_ignores_the_start_when_c_is_zero():
    log_y = 0.3 + 40.0 * TABLE_DRAWS
    line = power._log_marginal_inverse(1.0, 0.5, 1.0, log_y)
    assert np.array_equal(line, log_y / (0.5 - 1.0))
    assert np.array_equal(power._log_marginal_inverse(1.0, 0.5, 1.0, log_y, np.zeros_like(log_y)), line)


@pytest.mark.parametrize("tau", [1.0, 0.5])
def test_table_start_takes_one_newton_step_on_table2(monkeypatch, use_workers, table_market, table_cone, tau):
    p = PowerProblem(
        market=table_market, evaluation=EvaluationSpec(tau=tau, gamma=0.8, delta=0.3), alpha=TABLE_ALPHA, cs=table_cone
    )
    sol = fixed_point(p)
    g = normals(3, 0, 1000, 30)
    log_y = math.log(sol.y_star) + p.law.drift + p.law.s * g
    start = mc._start_table(sol.a_star, p.alpha, 0.8, math.log(sol.y_star) + p.law.drift, p.law.s)
    line = newton_steps(monkeypatch, lambda: power._log_marginal_inverse(sol.a_star, p.alpha, 0.8, log_y))
    tabled = newton_steps(
        monkeypatch, lambda: power._log_marginal_inverse(sol.a_star, p.alpha, 0.8, log_y, table_start(start, g))
    )
    assert (line, tabled) == (4, 1)
    # the estimator solves the table's nodes from the line start, then starts every block from the table
    kernel, starts = mc._log_marginal_inverse, []

    def recording(a, alpha, gamma, log_y, start=None, scratch=None):
        starts.append(start is not None)
        return kernel(a, alpha, gamma, log_y, start, scratch)

    monkeypatch.setattr(mc, "_log_marginal_inverse", recording)
    use_workers(1)
    estimate_power_objective(sol, p, 0.5, SimulationConfig(n_paths=3000, n_periods=30, seed=3))
    assert starts == [False] + [True] * math.ceil(3000 / (mc._CHUNK_ELEMENTS // 30))


# --- the reduction to a mean and a standard error ---------------------------


def test_reduction_in_range_is_the_unscaled_one():
    per_path = np.random.default_rng(6).lognormal(1.0, 2.0, size=1000)
    mean, std_error = matrix_mean_and_se(per_path)
    est = mc._reduce(per_path, 0.0)
    assert (est.mean, est.std_error) == (mean, std_error)


@pytest.mark.parametrize("scale", [2.0**1000, 2.0**-1000])
def test_reduction_survives_values_whose_squares_leave_float64(scale):
    per_path = np.random.default_rng(6).lognormal(1.0, 2.0, size=1000)
    mean, std_error = matrix_mean_and_se(per_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = mc._reduce(per_path * scale, 0.0)
    assert (est.mean, est.std_error) == (mean * scale, std_error * scale)


def test_reduction_of_a_sample_that_is_not_finite_raises():
    with pytest.raises(NonFinite):
        mc._reduce(np.array([1.0, np.inf, 2.0]), 0.0)
    with pytest.raises(NonFinite):
        mc._reduce(np.array([1.0, np.nan, 2.0]), 0.0)


def test_simulate_of_values_near_the_float64_limit_reports_a_finite_std_error(tmp_path, capsys):
    from periodic_portfolio import cli

    config = tmp_path / "huge.cfg"
    config.write_text(
        "utility = power\n"
        + "".join(
            f"{key} = {' '.join(map(repr, value)) if isinstance(value, tuple) else repr(value)}\n"
            for key, value in HUGE_SAMPLES.items()
        )
        + "[mc]\nn_periods = 20\n"
    )
    argv = ["simulate", "--config", str(config), "--paths", "200", "--seed", "3"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(argv)
    fields = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    assert code in (cli.EXIT_OK, cli.EXIT_MISMATCH)
    assert abs(float(fields["mean"])) > 1e290
    assert math.isfinite(float(fields["std_error"])) and float(fields["std_error"]) > 0.0


def test_simulate_of_values_near_the_float64_limit_passes(tmp_path, capsys):
    # the estimate and V(x0) agree to a few ulps, 5.5e275 apart, while 3 SE is 1.5e274
    from periodic_portfolio import cli

    config = tmp_path / "huge.cfg"
    config.write_text(
        "utility = power\n"
        + "".join(
            f"{key} = {' '.join(map(repr, value)) if isinstance(value, tuple) else repr(value)}\n"
            for key, value in HUGE_SAMPLES.items()
        )
        + "[mc]\nn_periods = 20\n"
    )
    argv = ["simulate", "--config", str(config), "--paths", "200", "--seed", "3"]
    assert cli.main(argv) == cli.EXIT_OK
    assert dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())["verdict"] == "pass"
