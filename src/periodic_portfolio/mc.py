"""Independent Monte Carlo verification of the analytic solutions.

Simulates i.i.d. per-period deflator ratios, rolls the optimal wealth
recursion forward, and estimates the discounted periodic-evaluation objective
together with a closed-form bound on the truncated tail.

Draws come from a counter-based Philox stream through the normal inverse CDF,
numbered row-major over the (paths, n_periods) matrix. The estimators never
build that matrix: they split its rows into blocks of max(1, _CHUNK_ELEMENTS
// n_periods) consecutive rows, _CHUNK_ELEMENTS = 2**15. Philox is
counter-based (Salmon et al. 2011, "Parallel random numbers: as easy as 1, 2,
3"), so each block is drawn on its own from its element offset in the
stream, and every cell gets the value it has in the whole matrix. The blocks
run on a pool of one thread per available CPU (numpy's generator, ``ndtri``
and the block kernels release the GIL); with one CPU, or one block, they run
in the calling thread and no thread is started. Each block writes only its
own rows of the per-path values, so every estimate is bit-identical for any
worker count; the block size moves it only by rounding. A pass holds
O(workers * block + n_paths) floats. With antithetic sampling a block of the
n_paths/2 rows is evaluated at G and at -G, as paths i and n_paths/2 + i.
Within a block the work runs in log space: the log objective is affine in
the log growth, and the power objective sums exp(alpha u_i + beta S_{i-1} -
i delta tau) with u = log I(y* R) from the log-space Newton kernel of
``power``. A given (seed, path, period) cell is reproducible for a fixed
matrix shape, but it moves when n_periods (or, with antithetic pairs,
n_paths) changes.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtri

from .errors import DomainError, NonConvergence, ParameterOutOfRange
from .logutil import LogSolution
from .market import EvaluationSpec, MarketModel
from .power import (
    PowerProblem,
    PowerSolution,
    _log_marginal_inverse,
    budget_function,
    marginal_inverse,
    moderated_utility,
)
from .quadrature import DeflatorLaw, expect_deflator_adaptive

TAIL_EPS = 1e-8
_N_PERIODS_CAP = 200_000
_MIN_UNIFORM = 2.0**-53
# draws per streamed block; it does not depend on the worker count, so neither do the estimates
_CHUNK_ELEMENTS = 2**15
# blocks run at once; the pool starts a thread per submitted block up to this many
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_pool: tuple[int, ThreadPoolExecutor] | None = None  # (workers, pool), made on first use


@dataclass(frozen=True)
class SimulationConfig:
    n_paths: int
    n_periods: int | None = None  # None selects the smallest tail-safe horizon
    seed: int = 0
    antithetic: bool = False

    def __post_init__(self):
        if self.n_paths < 1:
            raise ParameterOutOfRange("n_paths must be >= 1")
        if self.antithetic and self.n_paths % 2 != 0:
            raise ParameterOutOfRange("antithetic sampling needs an even n_paths")
        if self.n_periods is not None and self.n_periods < 1:
            raise ParameterOutOfRange("n_periods must be >= 1 when given")


@dataclass(frozen=True)
class ObjectiveEstimate:
    mean: float
    std_error: float
    n_effective: int
    truncation_bound: float


def _normals(seed: int, start: int, rows: int, n_periods: int) -> np.ndarray:
    """Rows ``start`` to ``start + rows`` of the (paths, n_periods) standard normals of ``seed``.

    The uniforms are the row-major stream of ``Generator(Philox(key=seed))``.
    Philox emits four doubles per counter step, so the block's first element,
    k = start * n_periods, is reached by starting at counter k // 4 and
    discarding k % 4 doubles: any block is drawn on its own, bit for bit.
    """
    k = start * n_periods
    gen = Generator(Philox(key=seed, counter=k // 4))
    if k % 4:
        gen.random(k % 4)
    u = gen.random((rows, n_periods))
    np.maximum(u, _MIN_UNIFORM, out=u)  # keep the inverse CDF finite at u == 0
    return ndtri(u, out=u)


def _executor(workers: int) -> ThreadPoolExecutor:
    global _pool
    if _pool is None or _pool[0] != workers:
        if _pool is not None:
            _pool[1].shutdown()
        _pool = (workers, ThreadPoolExecutor(workers, thread_name_prefix="mc-block"))
    return _pool[1]


def _forget_pool() -> None:
    # a forked child has none of the parent's threads, so it must not reuse their pool
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _run_blocks(run_block, starts: range) -> None:
    """Call ``run_block(start)`` for every start: in this thread, or on the pool.

    On the pool, the first failure in ``starts`` order is re-raised, which is
    the error a serial run raises; blocks that have not started are cancelled,
    and the running ones finish before it is raised.
    """
    if _WORKERS <= 1 or len(starts) <= 1:
        for start in starts:
            run_block(start)
        return
    futures = [_executor(_WORKERS).submit(run_block, start) for start in starts]
    for i, future in enumerate(futures):
        try:
            future.result()
        except BaseException:
            for later in futures[i + 1 :]:
                later.cancel()
            wait(futures)
            raise


def _per_path(cfg: SimulationConfig, n_periods: int, path_values) -> np.ndarray:
    """Per-path values, streamed: ``path_values`` maps a block of normals to one value per row."""
    per_path = np.empty(cfg.n_paths)
    rows = cfg.n_paths // 2 if cfg.antithetic else cfg.n_paths
    step = max(1, _CHUNK_ELEMENTS // n_periods)

    def run_block(start: int) -> None:
        g = _normals(cfg.seed, start, min(step, rows - start), n_periods)
        stop = start + g.shape[0]
        per_path[start:stop] = path_values(g)
        if cfg.antithetic:
            per_path[rows + start : rows + stop] = path_values(-g)

    _run_blocks(run_block, range(0, rows, step))
    return per_path


def simulate_deflator_ratios(
    law: DeflatorLaw, cfg: SimulationConfig, n_periods: int | None = None
) -> np.ndarray:
    """(n_paths, n_periods) matrix of i.i.d. draws of exp(drift + s*G)."""
    periods = n_periods if n_periods is not None else cfg.n_periods
    if periods is None:
        raise ParameterOutOfRange("n_periods must be resolved before simulation")
    g = _normals(cfg.seed, 0, cfg.n_paths // 2 if cfg.antithetic else cfg.n_paths, periods)
    if cfg.antithetic:
        g = np.vstack([g, -g])
    return np.exp(law.drift + law.s * g)


def _reduce(per_path: np.ndarray, cfg: SimulationConfig, truncation: float) -> ObjectiveEstimate:
    if cfg.antithetic:
        half = cfg.n_paths // 2
        samples = 0.5 * (per_path[:half] + per_path[half:])
    else:
        samples = per_path
    n = samples.size
    mean = float(samples.mean())
    std_error = float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else float("inf")
    return ObjectiveEstimate(
        mean=mean, std_error=std_error, n_effective=n, truncation_bound=truncation
    )


def _log_tail(n: int, rho: float, gamma: float, log_x0: float, mu_g: float) -> float:
    # exact discounted tail sum_{i>n} rho^i * [(1-gamma) log x0 + mu_g (1 + (1-gamma)(i-1))]
    s0 = rho ** (n + 1) / (1.0 - rho)
    s1 = rho ** (n + 1) * ((n + 1) - n * rho) / (1.0 - rho) ** 2
    return (1.0 - gamma) * log_x0 * s0 + mu_g * (s0 + (1.0 - gamma) * (s1 - s0))


def _auto_periods(tail_at) -> int:
    for n in range(1, _N_PERIODS_CAP + 1):
        if abs(tail_at(n)) < TAIL_EPS:
            return n
    raise NonConvergence("could not find a horizon with tail below TAIL_EPS")


def estimate_log_objective(
    s: LogSolution,
    m: MarketModel,
    e: EvaluationSpec,
    x0: float,
    cfg: SimulationConfig,
) -> ObjectiveEstimate:
    """Estimate the discounted log objective under the optimal policy.

    The optimal per-period gross growth is the reciprocal of the deflator
    ratio, so each period contributes log growth -log R plus the relative
    penalty (1-gamma) times the running log wealth.
    """
    if x0 <= 0:
        raise DomainError("x0 must be positive")
    rho = math.exp(-e.delta * e.tau)
    mu_g = (m.r + 0.5 * s.xi_tilde_norm_sq) * e.tau
    log_x0 = math.log(x0)

    def tail(n: int) -> float:
        return _log_tail(n, rho, e.gamma, log_x0, mu_g)

    periods = cfg.n_periods if cfg.n_periods is not None else _auto_periods(tail)
    law = DeflatorLaw.for_horizon(s.xi_tilde_norm_sq, m.r, e.tau)
    # sum_i rho^i prev_i = sum_j growth_j (rho^(j+1) - rho^(P+1)) / (1 - rho), so the
    # objective is growth @ w plus a constant, with growth = -(drift + s G)
    discounts = rho ** np.arange(1, periods + 2)
    w = discounts[:-1] + (1.0 - e.gamma) * (discounts[1:] - discounts[-1]) / (1.0 - rho)
    base = (1.0 - e.gamma) * log_x0 * discounts[:-1].sum() - law.drift * w.sum()
    per_path = _per_path(cfg, periods, lambda g: base - law.s * (g @ w))
    return _reduce(per_path, cfg, abs(tail(periods)))


def _power_ratio_moments(
    p: PowerProblem, a_star: float, y_level: float, norm: float
) -> tuple[float, float]:
    """E[G^alpha] and E[G^(alpha(1-gamma))] of the per-period growth G, in one call."""
    alpha, gamma = p.alpha, p.evaluation.gamma
    beta = alpha * (1.0 - gamma)

    def powers(z):
        growth = marginal_inverse(a_star, alpha, gamma, y_level * z, p.tol_root) / norm
        return np.stack([growth**alpha, growth**beta])

    m_a, m_b = expect_deflator_adaptive(powers, p.law, order=p.quad_order)
    return float(m_a), 1.0 if beta == 0.0 else float(m_b)


def estimate_power_objective(
    sol: PowerSolution,
    p: PowerProblem,
    x0: float,
    cfg: SimulationConfig,
    y_star: float | None = None,
) -> ObjectiveEstimate:
    """Estimate the discounted power objective under a per-period ratio policy.

    By default the policy is the solver's optimum I(y* R). Passing ``y_star``
    evaluates a perturbed comparison policy instead; it is rescaled by its own
    one-period budget E[R I(y R)] so the simulated policy stays admissible
    from unit wealth.
    """
    if x0 <= 0:
        raise DomainError("x0 must be positive")
    alpha, gamma = p.alpha, p.evaluation.gamma
    beta = alpha * (1.0 - gamma)
    delta_tau = p.evaluation.delta * p.evaluation.tau

    if y_star is None:
        y_level, norm = sol.y_star, 1.0
    else:
        if y_star <= 0:
            raise DomainError("y_star override must be positive")
        y_level = y_star
        norm = budget_function(p, sol.a_star, y_level)

    m_a, m_b = _power_ratio_moments(p, sol.a_star, y_level, norm)
    q_tail = math.exp(-delta_tau) * m_b
    if not q_tail < 1.0:
        raise NonConvergence("discounted per-period growth is not a contraction")

    scale = x0**beta * m_a / alpha * math.exp(-delta_tau)

    def tail(n: int) -> float:
        return scale * q_tail**n / (1.0 - q_tail)

    periods = cfg.n_periods if cfg.n_periods is not None else _auto_periods(tail)
    # term i = exp(alpha u_i + beta S_{i-1} - i delta tau) x0^beta / alpha with
    # u = log I(y R) - log norm and S the running sum of u; the exponent is
    # taken as beta S_i + (alpha - beta) u_i
    log_y = math.log(y_level) + p.law.drift
    log_norm = math.log(norm)
    decay = delta_tau * np.arange(1, periods + 1)

    def path_values(g):
        log_y_block = p.law.s * g
        log_y_block += log_y
        u = _log_marginal_inverse(sol.a_star, alpha, gamma, log_y_block, p.tol_root)
        u -= log_norm
        exponent = np.cumsum(u, axis=1)
        exponent *= beta
        u *= alpha - beta
        exponent += u
        exponent -= decay
        return np.exp(exponent, out=exponent).sum(axis=1)

    per_path = _per_path(cfg, periods, path_values)
    per_path *= x0**beta / alpha
    return _reduce(per_path, cfg, abs(tail(periods)))


def estimate_h_expectation(
    p: PowerProblem,
    sol: PowerSolution,
    cfg: SimulationConfig,
    y_star: float | None = None,
) -> ObjectiveEstimate:
    """One-period MC estimate of alpha * E[h_{A*}(X_tau)] from unit wealth.

    With the default y* this targets the one-period optimum H(A*); a
    perturbed (budget-renormalized) y produces an admissible comparison
    policy whose estimate cannot significantly exceed it.
    """
    alpha, gamma = p.alpha, p.evaluation.gamma
    if y_star is None:
        y_level, norm = sol.y_star, 1.0
    else:
        if y_star <= 0:
            raise DomainError("y_star override must be positive")
        y_level = y_star
        norm = budget_function(p, sol.a_star, y_level)

    ratios = simulate_deflator_ratios(p.law, cfg, 1).ravel()
    wealth = marginal_inverse(sol.a_star, alpha, gamma, y_level * ratios, p.tol_root) / norm
    values = alpha * moderated_utility(sol.a_star, alpha, gamma, wealth)
    return _reduce(values, cfg, 0.0)


def compare(estimate: ObjectiveEstimate, analytic: float, k_sigma: float) -> bool:
    """True when |mean - analytic| <= k_sigma * SE + truncation bound."""
    if k_sigma <= 0:
        raise DomainError("k_sigma must be positive")
    return abs(estimate.mean - analytic) <= (
        k_sigma * estimate.std_error + estimate.truncation_bound
    )
