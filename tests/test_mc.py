import math
import multiprocessing
import os
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy.special import ndtri

from periodic_portfolio import (
    DeflatorLaw,
    EvaluationSpec,
    MarketModel,
    PowerProblem,
    SimulationConfig,
    compare,
    constrained_sharpe,
    estimate_h_expectation,
    estimate_log_objective,
    estimate_power_objective,
    fixed_point,
    moderated_value,
    simulate_deflator_ratios,
    solve_log,
    value_function,
    value_log,
)
from periodic_portfolio import mc
from periodic_portfolio.errors import DomainError, ParameterOutOfRange
from periodic_portfolio.mc import _log_tail
from periodic_portfolio.power import budget_function, marginal_inverse

from conftest import TABLE_ALPHA


@pytest.fixture(scope="module")
def bond_market():
    # mu = r*1 collapses the optimal policy to the money account
    return MarketModel(mu=[0.12, 0.12], sigma=np.diag([0.2, 0.25]), r=0.12)


def test_simulate_deterministic_given_seed():
    law = DeflatorLaw.for_horizon(0.0144, 0.12, 1.0)
    cfg = SimulationConfig(n_paths=64, n_periods=7, seed=99)
    a = simulate_deflator_ratios(law, cfg)
    b = simulate_deflator_ratios(law, cfg)
    assert np.array_equal(a, b)
    c = simulate_deflator_ratios(law, SimulationConfig(n_paths=64, n_periods=7, seed=100))
    assert not np.array_equal(a, c)


def test_simulate_degenerate_volatility():
    law = DeflatorLaw.for_horizon(0.0, 0.12, 1.0)
    cfg = SimulationConfig(n_paths=8, n_periods=3, seed=1)
    cells = simulate_deflator_ratios(law, cfg)
    np.testing.assert_allclose(cells, math.exp(-0.12), rtol=0, atol=0)


def test_simulate_unit_mean_identity():
    law = DeflatorLaw.for_horizon(0.0144, 0.12, 1.0)
    cfg = SimulationConfig(n_paths=1000, n_periods=1000, seed=5)
    cells = simulate_deflator_ratios(law, cfg).ravel() * math.exp(0.12)
    se = cells.std(ddof=1) / math.sqrt(cells.size)
    assert abs(cells.mean() - 1.0) <= 4 * se


def test_simulate_requires_resolved_periods():
    law = DeflatorLaw.for_horizon(0.0144, 0.12, 1.0)
    with pytest.raises(ParameterOutOfRange):
        simulate_deflator_ratios(law, SimulationConfig(n_paths=4, seed=0))


def test_antithetic_needs_even_paths():
    with pytest.raises(ParameterOutOfRange):
        SimulationConfig(n_paths=7, antithetic=True)


def test_log_estimate_matches_closed_form(table_market, table_eval, table_cone):
    sol = solve_log(table_market, table_eval, table_cone)
    est = estimate_log_objective(
        sol, table_market, table_eval, 0.5, SimulationConfig(n_paths=40_000, seed=12)
    )
    v = value_log(sol, 0.5)
    assert abs(est.mean - v) <= 3 * est.std_error + est.truncation_bound
    assert est.n_effective == 40_000
    assert compare(est, v, 3.0)


def test_log_zero_policy_deterministic(bond_market):
    e = EvaluationSpec(tau=1.0, gamma=1.0, delta=0.3)
    cs = constrained_sharpe(bond_market)
    sol = solve_log(bond_market, e, cs)
    est = estimate_log_objective(
        sol, bond_market, e, 1.0, SimulationConfig(n_paths=100, seed=3)
    )
    expected = 0.12 / (math.exp(0.3) - 1.0)
    assert est.std_error == pytest.approx(0.0, abs=1e-14)
    assert est.mean == pytest.approx(expected, abs=1e-8)
    assert expected == pytest.approx(0.343, abs=5e-4)


def test_log_optimal_equals_zero_policy_when_no_excess(bond_market):
    e = EvaluationSpec(tau=1.0, gamma=0.8, delta=0.3)
    cs = constrained_sharpe(bond_market)
    assert cs.objective == 0.0
    sol = solve_log(bond_market, e, cs)
    est = estimate_log_objective(
        sol, bond_market, e, 0.5, SimulationConfig(n_paths=50, seed=3)
    )
    assert est.mean == pytest.approx(value_log(sol, 0.5), abs=1e-8)


def test_truncation_bound_is_sound(table_market, table_eval, table_cone):
    sol = solve_log(table_market, table_eval, table_cone)
    est = estimate_log_objective(
        sol, table_market, table_eval, 0.5, SimulationConfig(n_paths=16, seed=1)
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


def test_antithetic_reduces_log_std_error(table_market, table_eval, table_cone):
    sol = solve_log(table_market, table_eval, table_cone)
    plain = estimate_log_objective(
        sol, table_market, table_eval, 0.5, SimulationConfig(n_paths=20_000, seed=9)
    )
    anti = estimate_log_objective(
        sol,
        table_market,
        table_eval,
        0.5,
        SimulationConfig(n_paths=20_000, seed=9, antithetic=True),
    )
    assert anti.std_error <= plain.std_error
    assert anti.n_effective == 10_000


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
    analytic = value_function(power_solution, 0.5, TABLE_ALPHA, 0.8)
    for shift in (0.9, 1.1):
        est = estimate_power_objective(
            power_solution,
            power_problem,
            0.5,
            SimulationConfig(n_paths=20_000, seed=31),
            y_star=power_solution.y_star * shift,
        )
        assert est.mean <= analytic + 3 * est.std_error


def test_h_expectation_perturbations_never_beat_optimum(power_problem, power_solution):
    analytic = moderated_value(power_problem, power_solution.a_star)
    for shift in (0.9, 1.0, 1.1):
        est = estimate_h_expectation(
            power_problem,
            power_solution,
            SimulationConfig(n_paths=30_000, seed=41),
            y_star=None if shift == 1.0 else power_solution.y_star * shift,
        )
        assert est.mean <= analytic + 3 * est.std_error


def test_compare_contract():
    from periodic_portfolio import ObjectiveEstimate

    exact = ObjectiveEstimate(mean=1.0, std_error=0.5, n_effective=10, truncation_bound=0.0)
    assert compare(exact, 1.0, 3.0)
    off = ObjectiveEstimate(mean=1.0, std_error=0.01, n_effective=10, truncation_bound=0.0)
    assert not compare(off, 1.05, 3.0)
    with pytest.raises(DomainError):
        compare(off, 1.0, 0.0)


def test_estimates_reject_bad_wealth(power_problem, power_solution, table_market, table_eval, table_cone):
    sol = solve_log(table_market, table_eval, table_cone)
    with pytest.raises(DomainError):
        estimate_log_objective(
            sol, table_market, table_eval, -1.0, SimulationConfig(n_paths=4, seed=0)
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
    rows = cfg.n_paths // 2 if cfg.antithetic else cfg.n_paths
    u = Generator(Philox(key=cfg.seed)).random((rows, n_periods))
    g = ndtri(np.maximum(u, 2.0**-53))
    return np.vstack([g, -g]) if cfg.antithetic else g


def matrix_mean_and_se(per_path: np.ndarray, cfg: SimulationConfig) -> tuple[float, float]:
    if cfg.antithetic:
        half = cfg.n_paths // 2
        per_path = 0.5 * (per_path[:half] + per_path[half:])
    return float(per_path.mean()), float(per_path.std(ddof=1) / math.sqrt(per_path.size))


def matrix_log_objective(sol, m, e, x0, cfg, periods):
    law = DeflatorLaw.for_horizon(sol.xi_tilde_norm_sq, m.r, e.tau)
    ratios = np.exp(law.drift + law.s * matrix_normals(cfg, periods))
    rho = math.exp(-e.delta * e.tau)
    growth = -np.log(ratios)
    cumulative = np.cumsum(growth, axis=1)
    prev = np.hstack([np.zeros((growth.shape[0], 1)), cumulative[:, :-1]])
    discounts = rho ** np.arange(1, periods + 1)
    terms = discounts * (growth + (1.0 - e.gamma) * (math.log(x0) + prev))
    return matrix_mean_and_se(terms.sum(axis=1), cfg)


def matrix_power_objective(sol, p, x0, cfg, periods, y_star=None):
    alpha, gamma = p.alpha, p.evaluation.gamma
    beta = alpha * (1.0 - gamma)
    y_level = sol.y_star if y_star is None else y_star
    norm = 1.0 if y_star is None else budget_function(p, sol.a_star, y_star)
    ratios = np.exp(p.law.drift + p.law.s * matrix_normals(cfg, periods))
    growth = marginal_inverse(sol.a_star, alpha, gamma, y_level * ratios, p.tol_root) / norm
    growth_beta = growth**beta
    prev_pow = np.hstack(
        [np.ones((growth.shape[0], 1)), np.cumprod(growth_beta[:, :-1], axis=1)]
    )
    discounts = math.exp(-p.evaluation.delta * p.evaluation.tau) ** np.arange(1, periods + 1)
    terms = discounts * (growth**alpha / alpha) * (x0**beta * prev_pow)
    return matrix_mean_and_se(terms.sum(axis=1), cfg)


@pytest.mark.parametrize(
    "n_paths, n_periods, chunk, antithetic",
    [
        (25, 9, 7 * 9, False),
        (50, 9, 7 * 9, True),
        (13, 11, 5, False),  # one-row blocks, element offsets 11, 22, 33, ...
        (64, 3, 10**9, True),
        (14, 13, 5, True),  # one-row antithetic blocks, offsets 13, 26, 39: every k % 4
        (31, 7, 3 * 7, False),  # offsets 21, 42, 63, 84: k % 4 = 1, 2, 3, 0
    ],
)
def test_blocks_stack_to_the_matrix_draws(monkeypatch, n_paths, n_periods, chunk, antithetic):
    monkeypatch.setattr(mc, "_CHUNK_ELEMENTS", chunk)
    cfg = SimulationConfig(n_paths=n_paths, seed=77, antithetic=antithetic)
    rows = n_paths // 2 if antithetic else n_paths
    step = max(1, chunk // n_periods)
    reference = matrix_normals(cfg, n_periods)
    blocks = [mc._normals(cfg.seed, start, min(step, rows - start), n_periods) for start in range(0, rows, step)]
    assert np.array_equal(np.vstack(blocks), reference[:rows])
    # the blocks that _per_path draws put every cell in its own place
    for workers in (1, 3):
        monkeypatch.setattr(mc, "_WORKERS", workers)
        for j in range(n_periods):
            column = mc._per_path(cfg, n_periods, lambda g, j=j: g[:, j])
            assert np.array_equal(column, reference[:, j])
    law = DeflatorLaw.for_horizon(0.0144, 0.12, 1.0)
    ratios = simulate_deflator_ratios(law, cfg, n_periods)
    assert np.array_equal(ratios, np.exp(law.drift + law.s * reference))


@pytest.mark.parametrize("start, n_periods", [(0, 5), (1, 5), (1, 3), (3, 1), (4, 1), (5, 1), (47, 11), (1, 998)])
def test_block_draws_start_at_any_element_offset(start, n_periods):
    cfg = SimulationConfig(n_paths=start + 3, seed=123)
    block = mc._normals(cfg.seed, start, 3, n_periods)
    assert np.array_equal(block, matrix_normals(cfg, n_periods)[start:])


def _log_estimate(table_market, table_eval, table_cone, cfg):
    sol = solve_log(table_market, table_eval, table_cone)
    return estimate_log_objective(sol, table_market, table_eval, 0.5, cfg)


@pytest.fixture
def estimate_kind(table_market, table_eval, table_cone, power_problem, power_solution):
    """estimate_kind(kind, cfg): the log, power or power-with-override estimate at x0 = 0.5."""

    def estimate(kind, cfg):
        if kind == "log":
            return _log_estimate(table_market, table_eval, table_cone, cfg)
        y_star = power_solution.y_star * 1.1 if kind == "power_override" else None
        return estimate_power_objective(power_solution, power_problem, 0.5, cfg, y_star=y_star)

    return estimate


@pytest.mark.parametrize("kind", ["log", "power", "power_override"])
@pytest.mark.parametrize("antithetic", [False, True])
def test_estimates_do_not_depend_on_block_size(monkeypatch, estimate_kind, kind, antithetic):
    periods = 30
    cfg = SimulationConfig(n_paths=202, n_periods=periods, seed=5, antithetic=antithetic)
    monkeypatch.setattr(mc, "_CHUNK_ELEMENTS", 7 * periods)
    small = estimate_kind(kind, cfg)
    monkeypatch.setattr(mc, "_CHUNK_ELEMENTS", 10**9)
    whole = estimate_kind(kind, cfg)
    assert small.mean == pytest.approx(whole.mean, rel=1e-12)
    assert small.std_error == pytest.approx(whole.std_error, rel=1e-12)
    assert small.truncation_bound == whole.truncation_bound


@pytest.mark.parametrize("kind", ["log", "power", "power_override"])
@pytest.mark.parametrize("antithetic", [False, True])
@pytest.mark.parametrize("n_paths, chunk", [(202, 7 * 30), (4000, None)])
def test_estimates_do_not_depend_on_worker_count(monkeypatch, estimate_kind, kind, antithetic, n_paths, chunk):
    # blocks of 7 rows, or of the default 1092 rows
    if chunk is not None:
        monkeypatch.setattr(mc, "_CHUNK_ELEMENTS", chunk)
    cfg = SimulationConfig(n_paths=n_paths, n_periods=30, seed=5, antithetic=antithetic)
    monkeypatch.setattr(mc, "_WORKERS", 1)
    serial = estimate_kind(kind, cfg)
    monkeypatch.setattr(mc, "_WORKERS", 3)
    pooled = estimate_kind(kind, cfg)
    assert pooled.mean == serial.mean
    assert pooled.std_error == serial.std_error
    assert pooled.truncation_bound == serial.truncation_bound


def test_one_worker_or_one_block_starts_no_thread(monkeypatch, estimate_kind):
    monkeypatch.setattr(mc, "_pool", None)
    monkeypatch.setattr(mc, "_WORKERS", 1)
    estimate_kind("power", SimulationConfig(n_paths=4000, n_periods=30, seed=5))
    monkeypatch.setattr(mc, "_WORKERS", 3)
    estimate_kind("power", SimulationConfig(n_paths=100, n_periods=30, seed=5))
    assert mc._pool is None


def test_pooled_blocks_fill_every_row_under_fast_switching(monkeypatch):
    # more workers than cores and a short switch interval: a lost or misplaced write breaks a row
    monkeypatch.setattr(mc, "_WORKERS", 8)
    monkeypatch.setattr(mc, "_CHUNK_ELEMENTS", 5)
    cfg = SimulationConfig(n_paths=400, seed=11, antithetic=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        values = mc._per_path(cfg, 5, lambda g: g[:, 0].copy())
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(values, matrix_normals(cfg, 5)[:, 0])


def _per_path_in_child(cfg: SimulationConfig, expected: np.ndarray) -> None:
    sys.exit(0 if np.array_equal(mc._per_path(cfg, 4, lambda g: g[:, 0].copy()), expected) else 1)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_makes_its_own_pool(monkeypatch):
    monkeypatch.setattr(mc, "_WORKERS", 2)
    monkeypatch.setattr(mc, "_CHUNK_ELEMENTS", 5 * 4)
    cfg = SimulationConfig(n_paths=40, seed=2)
    expected = mc._per_path(cfg, 4, lambda g: g[:, 0].copy())
    assert mc._pool is not None
    child = multiprocessing.get_context("fork").Process(target=_per_path_in_child, args=(cfg, expected))
    child.start()
    child.join(timeout=60)
    hung = child.is_alive()
    if hung:
        child.kill()
        child.join()
    assert not hung
    assert child.exitcode == 0


def _fail_short_blocks(monkeypatch, rows: int) -> None:
    """Make the power kernel raise DomainError on every block of fewer than ``rows`` rows."""
    kernel = mc._log_marginal_inverse

    def failing(a, alpha, gamma, log_y, tol):
        if log_y.shape[0] < rows:
            raise DomainError("injected failure in a short block")
        return kernel(a, alpha, gamma, log_y, tol)

    monkeypatch.setattr(mc, "_log_marginal_inverse", failing)


def test_block_error_reaches_the_caller_and_the_pool_survives(
    monkeypatch, power_problem, power_solution, estimate_kind
):
    periods = 30
    monkeypatch.setattr(mc, "_CHUNK_ELEMENTS", 7 * periods)
    monkeypatch.setattr(mc, "_WORKERS", 3)
    cfg = SimulationConfig(n_paths=202, n_periods=periods, seed=5)  # the last block, at row 196, has 6 rows
    expected = estimate_kind("power", cfg)
    pool = mc._pool
    with monkeypatch.context() as patch:
        _fail_short_blocks(patch, 7)
        with pytest.raises(DomainError, match="short block"):
            estimate_power_objective(power_solution, power_problem, 0.5, cfg)
    assert estimate_kind("power", cfg) == expected
    assert mc._pool is pool


def test_block_error_exits_with_the_parameter_code(monkeypatch, capsys):
    from periodic_portfolio import cli

    monkeypatch.setattr(mc, "_CHUNK_ELEMENTS", 7 * 30)
    monkeypatch.setattr(mc, "_WORKERS", 3)
    _fail_short_blocks(monkeypatch, 7)  # 2000 paths: the last block, at row 1995, has 5 rows
    config = Path(__file__).resolve().parent.parent / "configs" / "table2_power.cfg"
    argv = ["simulate", "--config", str(config), "--paths", "2000", "--periods", "30", "--seed", "3"]
    assert cli.main(argv) == cli.EXIT_ASSUMPTION
    assert "short block" in capsys.readouterr().err


@pytest.mark.parametrize("workers", [1, 3])
def test_the_first_failing_block_decides_the_error(monkeypatch, workers):
    # the block at row 6 fails late, the one at row 15 early; 200 blocks of 3 rows take 10 ms each
    monkeypatch.setattr(mc, "_WORKERS", workers)
    monkeypatch.setattr(mc, "_CHUNK_ELEMENTS", 3 * 4)
    normals = mc._normals
    lock = threading.Lock()
    started, running = [], [0]

    def failing(seed, start, rows, n_periods):
        with lock:
            started.append(start)
            running[0] += 1
        try:
            time.sleep(0.05 if start == 6 else 0.01)
            if start in (6, 15):
                raise DomainError(f"block at row {start}")
            return normals(seed, start, rows, n_periods)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(mc, "_normals", failing)
    with pytest.raises(DomainError, match="block at row 6$"):
        mc._per_path(SimulationConfig(n_paths=600, seed=1), 4, lambda g: g.sum(axis=1))
    assert running[0] == 0  # blocks that had started finished before the error was raised
    assert len(started) < 200  # and the rest never started


@pytest.mark.parametrize("antithetic", [False, True])
def test_log_estimate_matches_matrix_formula(table_market, table_eval, table_cone, antithetic):
    sol = solve_log(table_market, table_eval, table_cone)
    cfg = SimulationConfig(n_paths=2000, n_periods=71, seed=8, antithetic=antithetic)
    est = estimate_log_objective(sol, table_market, table_eval, 0.5, cfg)
    mean, se = matrix_log_objective(sol, table_market, table_eval, 0.5, cfg, 71)
    assert est.mean == pytest.approx(mean, rel=1e-12)
    assert est.std_error == pytest.approx(se, rel=1e-12)


@pytest.mark.parametrize("antithetic", [False, True])
@pytest.mark.parametrize("shift", [None, 0.9])
def test_power_estimate_matches_matrix_formula(power_problem, power_solution, antithetic, shift):
    cfg = SimulationConfig(n_paths=2000, n_periods=71, seed=8, antithetic=antithetic)
    y_star = None if shift is None else power_solution.y_star * shift
    est = estimate_power_objective(power_solution, power_problem, 0.5, cfg, y_star=y_star)
    mean, se = matrix_power_objective(power_solution, power_problem, 0.5, cfg, 71, y_star)
    assert est.mean == pytest.approx(mean, rel=1e-12)
    assert est.std_error == pytest.approx(se, rel=1e-12)


def test_antithetic_pairs_cancel_across_block_boundaries(
    monkeypatch, table_market, table_eval, table_cone
):
    # the log objective is affine in the normals, so every pair averages to one constant
    monkeypatch.setattr(mc, "_CHUNK_ELEMENTS", 1000)
    cfg = SimulationConfig(n_paths=2 * 1001, seed=4, antithetic=True)
    est = _log_estimate(table_market, table_eval, table_cone, cfg)
    assert est.std_error <= 1e-12 * (1.0 + abs(est.mean))


@pytest.mark.parametrize("kind, limit_mb", [("log", 8), ("power", 16)])
def test_estimator_peak_memory(
    table_market, table_eval, table_cone, power_problem, power_solution, kind, limit_mb
):
    # one call on the table configs, 30k paths, automatic horizon
    cfg = SimulationConfig(n_paths=30_000, seed=3)
    tracemalloc.start()
    try:
        if kind == "log":
            _log_estimate(table_market, table_eval, table_cone, cfg)
        else:
            estimate_power_objective(power_solution, power_problem, 0.5, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mb * 2**20
