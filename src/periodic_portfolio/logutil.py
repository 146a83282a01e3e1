"""Closed-form solution layer for logarithmic utility.

Everything here is explicit: V(x) = A* + C* log x with

    A* = (e^(delta*tau) - gamma) / (e^(delta*tau) - 1)^2 * (r + |xi_tilde|^2/2) * tau,
    C* = (1 - gamma) / (e^(delta*tau) - 1),

a feedback portfolio (sigma^T)^{-1} xi_tilde that is independent of gamma and
tau, and the cost of the short-selling ban relative to the unconstrained
problem, which replaces xi_tilde by xi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cone import ConstrainedSharpe
from .errors import DomainError, ParameterOutOfRange
from .market import EvaluationSpec, MarketModel

_MIN_DELTA_TAU = 1e-12
# above this delta*tau, (e^u - gamma) / (e^u - 1)^2 rounds to e^-u, and (e^u - 1)^2
# overflows float64 from u = 355
_MAX_DELTA_TAU = 350.0


def _growth_coef(u: float, gamma: float) -> float:
    # (e^u - gamma) / (e^u - 1)^2, stable for tiny and huge u
    if u < _MIN_DELTA_TAU:
        raise ParameterOutOfRange("delta*tau is too small to evaluate stably")
    if u > _MAX_DELTA_TAU:
        return math.exp(-u)
    em1 = math.expm1(u)
    return (em1 + (1.0 - gamma)) / em1**2


def _log_coefficients(growth: float, tau: float, gamma: float, delta: float) -> tuple[float, float]:
    """A* and C* of V(x) = A* + C* log x, for the growth rate r + |xi_tilde|^2/2."""
    u = delta * tau
    a_star = _growth_coef(u, gamma) * growth * tau
    c_star = (1.0 - gamma) / math.expm1(u) if u <= 700.0 else 0.0
    return a_star, c_star


@dataclass(eq=False)
class LogSolution:
    a_star: float
    c_star: float
    a_unconstrained: float
    unconstrained_fractions: np.ndarray
    constraint_cost: float


def solve_log(m: MarketModel, e: EvaluationSpec, cs: ConstrainedSharpe) -> LogSolution:
    """Populate all closed-form fields of the logarithmic solution.

    |xi_tilde|^2 and the feedback fractions (sigma^T)^{-1} xi_tilde are the
    cone projection's (``cs.objective``, ``cs.kkt_gradient``); the solution
    holds no copy of either. The unconstrained fields solve the problem with
    short selling allowed: the intercept built from |xi|^2 and the Merton
    fractions A^T xi = (sigma sigma^T)^{-1} (mu - r 1), A = sigma^{-1}, which
    may be negative. The growth coefficient (e^u - gamma) / (e^u - 1)^2,
    u = delta*tau, is formed once for both the unconstrained intercept and
    the constraint cost, the value lost to the short-selling ban:
    coef * (|xi|^2 - |xi_tilde|^2) / 2 * tau >= 0, independent of initial
    wealth and zero exactly when the constraint never binds (xi >= 0 already).
    """
    q_tilde = cs.objective
    q_free = float(cs.xi @ cs.xi)
    a_star, c_star = _log_coefficients(m.r + 0.5 * q_tilde, e.tau, e.gamma, e.delta)
    coef = _growth_coef(e.delta * e.tau, e.gamma)
    return LogSolution(
        a_star=a_star,
        c_star=c_star,
        a_unconstrained=coef * (m.r + 0.5 * q_free) * e.tau,
        unconstrained_fractions=cs.sigma_inv.T @ cs.xi,
        constraint_cost=coef * 0.5 * (q_free - q_tilde) * e.tau,
    )


def value_log(s: LogSolution, x) -> float:
    """V(x) = A* + C* log x for x > 0, a float.

    x is taken as a float, as in ``power.value_function``; its log is numpy's.
    """
    x = float(x)
    if x <= 0.0:
        raise DomainError("value function requires x > 0")
    return float(s.a_star + s.c_star * np.log(x))

