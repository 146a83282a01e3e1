"""Projection of the Sharpe ratio onto the no-short-selling cone.

Solves min_{p >= 0} |xi + sigma^{-1} p|^2, a small nonnegative least-squares
problem, by block principal pivoting: each round solves one least-squares
problem on the current free set and exchanges every index that violates the
KKT conditions at once, so a projection takes a handful of solves even for
dozens of assets. This is the method of Judice & Pires (1994), "A block
principal pivoting algorithm for large-scale strictly monotone linear
complementarity problems", Comput. Oper. Res. 21(5), in the nonnegative
least-squares form of Kim & Park (2011), "Fast nonnegative matrix
factorization: an active-set-like method and comparisons", SIAM J. Sci.
Comput. 33(6). The result carries an explicit KKT certificate so that
optimality can be re-verified after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence
from .market import MarketModel, sharpe_ratio

KKT_TOL_DEFAULT = 1e-10


@dataclass(eq=False)
class ConstrainedSharpe:
    """Result of the cone projection.

    Attributes
    ----------
    xi : ndarray
        Unconstrained market price of risk.
    sigma_inv : ndarray
        Inverse volatility matrix used as the design matrix.
    pi_tilde_star : ndarray
        Nonnegative dual minimizer.
    xi_tilde : ndarray
        Modified price of risk xi + sigma_inv @ pi_tilde_star.
    kkt_gradient : ndarray
        sigma_inv.T @ xi_tilde; nonnegative at an optimum and zero on the
        coordinates where pi_tilde_star is strictly positive.
    objective : float
        |xi_tilde|^2, the minimized squared norm.
    """

    xi: np.ndarray
    sigma_inv: np.ndarray
    pi_tilde_star: np.ndarray
    xi_tilde: np.ndarray
    kkt_gradient: np.ndarray
    objective: float


def _ls_on_support(A: np.ndarray, b: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Unconstrained least squares on the free columns, zero elsewhere."""
    z = np.zeros(A.shape[1])
    if free.any():
        sol, *_ = np.linalg.lstsq(A[:, free], b, rcond=None)
        z[free] = sol
    return z


def solve_cone(
    xi: np.ndarray, sigma_inv: np.ndarray, tol: float = KKT_TOL_DEFAULT
) -> ConstrainedSharpe:
    """Minimize |xi + sigma_inv @ p|^2 over p >= 0 (block principal pivoting).

    Each round solves the least-squares problem on the free set F (p = 0
    off F), takes the gradient w = sigma_inv.T @ (xi + sigma_inv @ p), and
    moves every infeasible index across at once: p_i < 0 on F leaves F,
    w_i < -tol off F joins it. After 3 full exchanges that leave the
    infeasible count at or above its lowest value so far, only the largest
    infeasible index moves, until the count sets a new low; this backup
    guarantees finite termination. The problem is strictly convex for
    invertible sigma, so the minimizer, and hence the final support, is
    unique.

    Parameters
    ----------
    xi : (n,) array
        Market price of risk.
    sigma_inv : (n, n) array
        Inverse of a validated volatility matrix.
    tol : float
        KKT residual tolerance.
    """
    xi = np.asarray(xi, dtype=float)
    A = np.asarray(sigma_inv, dtype=float)
    n = xi.size
    free = np.zeros(n, dtype=bool)
    fewest, backup = n + 1, 3
    for _ in range(100 * n):
        p = _ls_on_support(A, -xi, free)
        xi_tilde = xi + A @ p
        gradient = A.T @ xi_tilde
        infeasible = np.where(free, p < 0.0, gradient < -tol)
        count = np.count_nonzero(infeasible)
        if count == 0:
            break
        if count < fewest:
            fewest, backup = count, 3
        elif backup > 0:
            backup -= 1
        else:
            infeasible = np.arange(n) == np.flatnonzero(infeasible)[-1]
        free ^= infeasible
    else:
        raise NonConvergence("cone projection exceeded iteration cap")

    cs = ConstrainedSharpe(
        xi=xi,
        sigma_inv=A,
        pi_tilde_star=p,
        xi_tilde=xi_tilde,
        kkt_gradient=gradient,
        objective=float(xi_tilde @ xi_tilde),
    )
    if not verify_kkt(cs, tol):
        raise NonConvergence("cone projection terminated without a KKT certificate")
    return cs


def verify_kkt(c: ConstrainedSharpe, tol: float = KKT_TOL_DEFAULT) -> bool:
    """Re-verify primal feasibility, stationarity and complementary slackness.

    The gradient is recomputed from the stored xi_tilde so that a corrupted
    certificate cannot pass on stale fields.
    """
    g = c.sigma_inv.T @ c.xi_tilde
    if c.pi_tilde_star.min() < -tol:
        return False
    if g.min() < -tol:
        return False
    if np.abs(c.pi_tilde_star * g).max() > tol:
        return False
    return True


def constrained_sharpe(m: MarketModel, tol: float = KKT_TOL_DEFAULT) -> ConstrainedSharpe:
    """Validate the market, compute xi and project it onto the cone."""
    xi = sharpe_ratio(m)
    return solve_cone(xi, np.linalg.inv(m.sigma), tol=tol)
