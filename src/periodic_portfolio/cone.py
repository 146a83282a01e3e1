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

Each round's least-squares problem is solved through the Gram matrix
G = A^T A and c = A^T xi (A = sigma^{-1}), both formed once per projection:
one LU solve of G[F, F] per round instead of an SVD of A[:, F], about 15
times cheaper at 50 assets. The normal equations square the condition
number of A[:, F], so on badly column-scaled markets their solution alone
can miss the KKT certificate where an SVD fit meets it. The certificate
itself is still taken in A-space, on xi_tilde = xi + A p and A^T xi_tilde.
When it fails, the final support gets up to three steps of iterative
refinement on that true residual, p_F -= G[F, F]^{-1} (A^T xi_tilde)_F,
which recovers the accuracy of the direct fit (Bjorck 1967, "Iterative
refinement of linear least squares solutions I", BIT 7(4)).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence, SingularVolatility
from .market import COND_CAP_DEFAULT, KAPPA0_DEFAULT, MarketModel, validate_market

KKT_TOL = 1e-10  # absolute tolerance of every KKT residual, in pivoting and in ``verify_kkt``
_REFINE_STEPS = 3


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
        sigma_inv.T @ xi_tilde = (sigma^T)^{-1} xi_tilde, the log-utility
        risky fractions; nonnegative at an optimum and zero on the
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


def _solve_free(G: np.ndarray, rhs: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Solve G[F, F] z = rhs on the free set F, given by its indices ``free``.

    A singular G[F, F] raises SingularVolatility.
    """
    try:
        return np.linalg.solve(G[free[:, None], free], rhs)
    except np.linalg.LinAlgError:
        raise SingularVolatility("sigma^{-1} has linearly dependent columns") from None


def solve_cone(xi: np.ndarray, sigma_inv: np.ndarray) -> ConstrainedSharpe:
    """Minimize |xi + sigma_inv @ p|^2 over p >= 0 (block principal pivoting).

    Each round solves the least-squares problem on the free set F (p = 0
    off F) from the normal equations G[F, F] p_F = -c_F, where A = sigma_inv
    and G = A^T A and c = A^T xi are formed once. It takes the gradient w = A^T (xi + A p) in
    A-space (w = c in the first round, at p = 0), and moves every
    infeasible index across at once: p_i < 0 on F leaves F, w_i < -KKT_TOL
    off F joins it. After 3 full exchanges that leave the infeasible count
    at or above its lowest value so far, only the largest infeasible index
    moves, until the count sets a new low; this backup guarantees finite
    termination. The problem is strictly convex for invertible sigma, so
    the minimizer, and hence the final support, is unique. If the final
    point fails ``verify_kkt``, up to 3 steps of iterative refinement
    p_F -= G[F, F]^{-1} w_F on the same support follow before
    NonConvergence is raised. A singular G[F, F] raises SingularVolatility.

    Parameters
    ----------
    xi : (n,) array
        Market price of risk.
    sigma_inv : (n, n) array
        Inverse of a validated volatility matrix.
    """
    xi = np.asarray(xi, dtype=float)
    A = np.asarray(sigma_inv, dtype=float)
    n = xi.size
    At = A.T
    G = At @ A
    c = At @ xi
    neg_c = -c
    free = np.zeros(n, dtype=bool)
    p, xi_tilde, gradient = np.zeros(n), xi.copy(), c
    fewest, backup = n + 1, 3
    for _ in range(100 * n):
        infeasible = np.where(free, p < 0.0, gradient < -KKT_TOL)
        count = np.count_nonzero(infeasible)
        if count == 0:
            break
        if count < fewest:
            fewest, backup = count, 3
        elif backup > 0:
            backup -= 1
        else:
            infeasible = np.arange(n) == infeasible.nonzero()[0][-1]
        free ^= infeasible
        support = free.nonzero()[0]
        p = np.zeros(n)
        p[support] = _solve_free(G, neg_c[support], support)
        xi_tilde = xi + A @ p
        gradient = At @ xi_tilde
    else:
        raise NonConvergence("cone projection exceeded iteration cap")

    refinements = 0
    while True:
        cs = ConstrainedSharpe(
            xi=xi,
            sigma_inv=A,
            pi_tilde_star=p,
            xi_tilde=xi_tilde,
            kkt_gradient=gradient,
            objective=float(xi_tilde @ xi_tilde),
        )
        if verify_kkt(cs):
            return cs
        if refinements == _REFINE_STEPS:
            raise NonConvergence("cone projection terminated without a KKT certificate")
        refinements += 1
        support = free.nonzero()[0]
        p[support] -= _solve_free(G, gradient[support], support)
        xi_tilde = xi + A @ p
        gradient = At @ xi_tilde


def verify_kkt(c: ConstrainedSharpe) -> bool:
    """Re-verify primal feasibility, stationarity and complementary slackness.

    Each residual is held to the absolute tolerance KKT_TOL.
    The gradient is recomputed from the stored xi_tilde so that a corrupted
    certificate cannot pass on stale fields.
    """
    g = c.sigma_inv.T @ c.xi_tilde
    p = c.pi_tilde_star
    return not (
        np.minimum.reduce(p) < -KKT_TOL
        or np.minimum.reduce(g) < -KKT_TOL
        or np.maximum.reduce(np.abs(p * g)) > KKT_TOL
    )


def _certified(sigma: np.ndarray, sigma_inv: np.ndarray) -> bool:
    """Whether matrix norms alone show that ``validate_market`` passes sigma.

    ||M||_2 <= ||M||_F (Golub & Van Loan, Matrix Computations, ch. 2), so
    cond(sigma) <= ||sigma||_F ||sigma^{-1}||_F and
    smin(sigma)^2 >= ||sigma^{-1}||_F^-2. The certificate holds when the first
    bound is at most COND_CAP_DEFAULT / 2 and the second at least
    2 * KAPPA0_DEFAULT; the factor 2 covers the rounding of the computed
    inverse. A squared norm that overflows, or underflows below the normal
    range, declines.
    """
    sigma_sq = float(np.vdot(sigma, sigma))
    inv_sq = float(np.vdot(sigma_inv, sigma_inv))
    normal = sys.float_info.min
    if not (normal <= sigma_sq < math.inf and normal <= inv_sq < math.inf):
        return False
    return (
        math.sqrt(sigma_sq * inv_sq) <= COND_CAP_DEFAULT / 2.0
        and 1.0 / inv_sq >= 2.0 * KAPPA0_DEFAULT
    )


def _validated_inverse(m: MarketModel) -> np.ndarray:
    """sigma^{-1} of a market that ``validate_market`` passes; its error otherwise.

    The norm certificate (``_certified``) on the computed inverse decides
    first. Where it declines, or ``np.linalg.inv`` finds sigma singular,
    ``validate_market`` runs its SVD and raises its own error; a singular
    sigma that it passes raises SingularVolatility.
    """
    try:
        sigma_inv = np.linalg.inv(m.sigma)
    except np.linalg.LinAlgError:
        sigma_inv = None
    if sigma_inv is None or not _certified(m.sigma, sigma_inv):
        validate_market(m)
        if sigma_inv is None:
            raise SingularVolatility("sigma is not invertible")
    return sigma_inv


def constrained_sharpe(m: MarketModel) -> ConstrainedSharpe:
    """Validate the market, compute xi and project it onto the cone.

    The market passes or fails exactly as ``validate_market`` decides, but
    its SVD runs only when the norm certificate on sigma^{-1} declines
    (``_validated_inverse``): on a well-conditioned sigma, such as both
    shipped configs', cond(sigma) <= ||sigma||_F ||sigma^{-1}||_F and
    smin(sigma)^2 >= ||sigma^{-1}||_F^-2 already clear the caps. xi then
    solves sigma xi = mu - r 1, as in ``sharpe_ratio``.
    """
    sigma_inv = _validated_inverse(m)
    xi = np.linalg.solve(m.sigma, m.excess_returns())
    return solve_cone(xi, sigma_inv)
