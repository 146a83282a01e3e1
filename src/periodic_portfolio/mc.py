"""Independent Monte Carlo verification of the analytic solutions.

Simulates i.i.d. per-period deflator ratios, rolls the optimal wealth
recursion forward, and estimates the discounted periodic-evaluation objective
together with a closed-form bound on the truncated tail. Draws come from a
counter-based Philox stream through the normal inverse CDF, numbered row-major
over the (paths, n_periods) matrix: a given (seed, path, period) cell is
reproducible for a fixed matrix shape, but it moves when n_periods (or, with
antithetic pairs, n_paths) changes.
"""

from __future__ import annotations

import math
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
    budget_function,
    marginal_inverse,
    moderated_utility,
)
from .quadrature import DeflatorLaw, expect_deflator_adaptive

TAIL_EPS = 1e-8
_N_PERIODS_CAP = 200_000
_MIN_UNIFORM = 2.0**-53


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


def _standard_normals(cfg: SimulationConfig, n_periods: int) -> np.ndarray:
    gen = Generator(Philox(key=cfg.seed))
    rows = cfg.n_paths // 2 if cfg.antithetic else cfg.n_paths
    u = gen.random((rows, n_periods))
    np.maximum(u, _MIN_UNIFORM, out=u)  # keep the inverse CDF finite at u == 0
    g = ndtri(u)
    if cfg.antithetic:
        g = np.vstack([g, -g])
    return g


def simulate_deflator_ratios(
    law: DeflatorLaw, cfg: SimulationConfig, n_periods: int | None = None
) -> np.ndarray:
    """(n_paths, n_periods) matrix of i.i.d. draws of exp(drift + s*G)."""
    periods = n_periods if n_periods is not None else cfg.n_periods
    if periods is None:
        raise ParameterOutOfRange("n_periods must be resolved before simulation")
    g = _standard_normals(cfg, periods)
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
    ratios = simulate_deflator_ratios(law, cfg, periods)

    growth = -np.log(ratios)
    cumulative = np.cumsum(growth, axis=1)
    prev = np.hstack([np.zeros((growth.shape[0], 1)), cumulative[:, :-1]])
    discounts = rho ** np.arange(1, periods + 1)
    terms = discounts * (growth + (1.0 - e.gamma) * (log_x0 + prev))
    per_path = terms.sum(axis=1)
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
    ratios_deflator = simulate_deflator_ratios(p.law, cfg, periods)
    growth = (
        marginal_inverse(sol.a_star, alpha, gamma, y_level * ratios_deflator, p.tol_root)
        / norm
    )

    growth_beta = growth**beta
    prev_pow = np.hstack(
        [
            np.ones((growth.shape[0], 1)),
            np.cumprod(growth_beta[:, :-1], axis=1),
        ]
    )
    discounts = math.exp(-delta_tau) ** np.arange(1, periods + 1)
    terms = discounts * (growth**alpha / alpha) * (x0**beta * prev_pow)
    per_path = terms.sum(axis=1)
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
