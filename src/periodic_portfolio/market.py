"""Market model, growth-rate function and the well-posedness check."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AssumptionViolated,
    Degenerate,
    DimensionMismatch,
    DomainError,
    ParameterOutOfRange,
    SingularVolatility,
)

KAPPA0_DEFAULT = 1e-10
COND_CAP_DEFAULT = 1e12


@dataclass(frozen=True, eq=False)
class MarketModel:
    """Constant-coefficient market with n risky assets and one money account.

    mu is the annualized drift vector (length n), sigma the n-by-n volatility
    matrix and r >= 0 the risk-free rate. Values are normalized to float
    arrays at construction and never mutated afterwards.
    """

    mu: np.ndarray
    sigma: np.ndarray
    r: float

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        if mu.ndim != 1 or mu.size < 1:
            raise DimensionMismatch("mu must be a vector of length n >= 1")
        if sigma.shape != (mu.size, mu.size):
            raise DimensionMismatch(
                f"sigma must be {mu.size}x{mu.size}, got {sigma.shape}"
            )
        if not (np.isfinite(mu).all() and np.isfinite(sigma).all()):
            raise ParameterOutOfRange("market coefficients must be finite")
        if not math.isfinite(self.r) or self.r < 0:
            raise ParameterOutOfRange("risk-free rate r must be >= 0")

    @property
    def n(self) -> int:
        return self.mu.size

    def excess_returns(self) -> np.ndarray:
        return self.mu - self.r


@dataclass(frozen=True)
class EvaluationSpec:
    """Periodic evaluation parameters: period length tau, relative
    performance weight gamma in (0, 1], subjective discount rate delta > 0."""

    tau: float
    gamma: float
    delta: float

    def __post_init__(self):
        if not (self.tau > 0 and math.isfinite(self.tau)):
            raise ParameterOutOfRange("tau must be a positive real")
        if not (0 < self.gamma <= 1):
            raise ParameterOutOfRange("gamma must lie in (0, 1]")
        if not (self.delta > 0 and math.isfinite(self.delta)):
            raise ParameterOutOfRange("delta must be a positive real")


def validate_market(m: MarketModel) -> None:
    """Check invertibility and strong non-degeneracy of the volatility matrix.

    Raises SingularVolatility if sigma is singular or its condition number
    exceeds ``COND_CAP_DEFAULT``, and Degenerate if the smallest eigenvalue of
    sigma*sigma^T falls below ``KAPPA0_DEFAULT``. Both come from one SVD.
    ``cone.constrained_sharpe`` calls this only when a cheaper certificate,
    Frobenius-norm bounds on sigma and its computed inverse, cannot show
    that it passes: on a market within half of both caps the SVD is skipped.
    """
    svals = np.linalg.svd(m.sigma, compute_uv=False).tolist()
    smin, smax = svals[-1], svals[0]
    if smin <= 0.0 or not math.isfinite(smin):
        raise SingularVolatility("sigma is not invertible")
    if smax / smin > COND_CAP_DEFAULT:
        raise SingularVolatility(
            f"sigma condition number {smax / smin:.3g} exceeds cap {COND_CAP_DEFAULT:.3g}"
        )
    # min eigenvalue of sigma*sigma^T equals the square of the smallest
    # singular value of sigma
    if smin * smin < KAPPA0_DEFAULT:
        raise Degenerate(
            f"min eigenvalue of sigma*sigma^T is {smin * smin:.3g} < kappa0 {KAPPA0_DEFAULT:.3g}"
        )


def zeta(x: float, r: float, xi_tilde_norm_sq: float) -> float:
    """Growth-rate function r*x + x*q/(2*(1-x)) for x < 1, q = |xi_tilde|^2."""
    if not x < 1:
        raise DomainError("zeta is defined only for x < 1")
    if xi_tilde_norm_sq < 0:
        raise DomainError("squared norm must be nonnegative")
    return r * x + x * xi_tilde_norm_sq / (2.0 * (1.0 - x))


def check_assumption(
    m: MarketModel,
    e: EvaluationSpec,
    alpha: float,
    xi_tilde_norm_sq: float,
) -> None:
    """Check the standing condition delta > max(zeta(alpha*(1-gamma)), 0).

    ``alpha`` is the power-utility exponent, in (-inf, 0) or (0, 1). Raises
    ParameterOutOfRange for any other alpha and AssumptionViolated, naming
    delta and zeta, when the condition fails.
    """
    if not math.isfinite(alpha) or alpha == 0 or alpha >= 1:
        raise ParameterOutOfRange("alpha must lie in (-inf, 0) or (0, 1)")
    zval = zeta(alpha * (1.0 - e.gamma), m.r, xi_tilde_norm_sq)
    if not e.delta > max(zval, 0.0):
        raise AssumptionViolated(
            "well-posedness requires delta > max(zeta(alpha*(1-gamma)), 0): "
            f"delta={e.delta:.6g}, zeta={zval:.6g}"
        )
