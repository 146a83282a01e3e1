"""Gauss-Hermite quadrature for expectations against the lognormal deflator.

Every expectation in the pricing pipeline reduces to E[f(exp(drift + s*G))]
with G standard normal. This module integrates such expectations with a
one-dimensional probabilists' Gauss-Hermite rule. The solver no longer uses
it: only ``power.budget_function``, which serves the benchmark gate's
independent budget check, and perfbench's set-up probe, which builds the
rules, call into it.

The rules are built in numpy (Golub & Welsch 1969, "Calculation of Gauss
quadrature rules", Math. Comp. 23). Hermite polynomials are even or odd, so
the positive nodes are square roots of generalized-Laguerre nodes: He_n(x) is
proportional to L_{n/2}^{(-1/2)}(x^2/2) for even n and to
x L_{(n-1)/2}^{(1/2)}(x^2/2) for odd n, whose Jacobi matrix has half the size
of the Hermite one. Its eigenvalues seed Newton on the orthonormal Hermite
recurrence, which also gives the weights in log scale, so no weight overflows
or turns to NaN at any order; weights below the float range round to 0.

The power solver's period sums sum on a uniform grid in u = log x instead,
where each node's x is given (``power._period_sums``). ``budget_function``
is a second, independent kernel for the budget F(y): it integrates through
the order-doubling ``expect_deflator_adaptive``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonFinite, ParameterOutOfRange, QuadratureError

DEFAULT_ORDER = 64
MAX_ORDER = 512
DEFAULT_REL_TOL = 1e-10
_RESCALE_EVERY = 16  # recurrence steps between rescalings; a step grows values by < |x| + 1
_NEWTON_CAP = 8


def _all(a) -> bool:
    """Whether every entry of ``a`` is true: ``np.all`` without its Python-level wrappers."""
    return np.logical_and.reduce(a, axis=None)


@dataclass(frozen=True, eq=False)
class GaussHermiteRule:
    """Nodes and weights normalized so that sum(w_k * f(x_k)) ~ E[f(G)]."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray


def _orthonormal_hermite(x: np.ndarray, n: int):
    """(h_n(x), h_{n-1}(x), log_scale) for the orthonormal h_k = He_k / sqrt(k!).

    The recurrence sqrt(k+1) h_{k+1} = x h_k - sqrt(k) h_{k-1} starts at
    h_0 = 1 and divides both terms by the larger of them every
    ``_RESCALE_EVERY`` steps, so nothing overflows or underflows at any order;
    the true values are the returned ones times exp(log_scale).
    """
    root = np.sqrt(np.arange(n + 1.0))
    prev = np.zeros_like(x)
    cur = np.ones_like(x)
    log_scale = np.zeros_like(x)
    for k in range(n):
        nxt = x * cur
        nxt -= root[k] * prev
        nxt /= root[k + 1]
        prev, cur = cur, nxt
        if k % _RESCALE_EVERY == _RESCALE_EVERY - 1:
            big = np.maximum(np.abs(prev), np.abs(cur))
            prev /= big
            cur /= big
            log_scale += np.log(big)
    return cur, prev, log_scale


@lru_cache(maxsize=None)
def make_rule(order: int) -> GaussHermiteRule:
    """Build (and cache) the probabilists' Gauss-Hermite rule of a given order.

    Exact for polynomials in G of degree <= 2*order - 1. The nonnegative
    nodes start from the eigenvalues t of the (order // 2)-square Jacobi
    matrix of L^{(-1/2)} (even order) or L^{(1/2)} (odd order, plus the node
    0), as x = sqrt(2 t), and Newton on h_order polishes them, with
    h_order' = sqrt(order) h_{order-1}. The Christoffel weights
    1 / (order h_{order-1}(x)^2) come from the last Newton evaluation, in log
    scale, and are normalized to sum to one; the rule is mirrored about 0.
    """
    if order < 1:
        raise ParameterOutOfRange("quadrature order must be >= 1")
    half, odd = divmod(order, 2)
    shift = 0.5 if odd else -0.5
    jacobi = np.zeros((half, half))
    k = np.arange(half, dtype=float)
    jacobi.flat[:: half + 1] = 2.0 * k + shift + 1.0
    jacobi.flat[half :: half + 1] = np.sqrt(k[1:] * (k[1:] + shift))  # below the diagonal
    x = np.sqrt(2.0 * np.linalg.eigvalsh(jacobi))
    if odd:
        x = np.concatenate([[0.0], x])
    for _ in range(_NEWTON_CAP):
        h_n, h_prev, log_scale = _orthonormal_hermite(x, order)
        step = h_n / (math.sqrt(order) * h_prev)
        x = x - step
        if np.all(np.abs(step) <= 1e-15 * (1.0 + x)):
            break  # x had converged, so h_prev is the one the weights need
    w = np.exp(-math.log(order) - 2.0 * (np.log(np.abs(h_prev)) + log_scale))
    mirror = slice(None, 0, -1) if odd else slice(None, None, -1)
    nodes = np.concatenate([-x[mirror], x])
    weights = np.concatenate([w[mirror], w])
    weights /= weights.sum()
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return GaussHermiteRule(order=order, nodes=nodes, weights=weights)


@dataclass(frozen=True)
class DeflatorLaw:
    """Lognormal law of the per-period deflator: exp(drift + s*G).

    For a period of length ``horizon`` the production construction uses
    s = |xi_tilde| * sqrt(horizon) and drift = -s^2/2 - r*horizon, which
    makes exp(r*horizon) * E[deflator] = 1.
    """

    s: float
    drift: float

    def __post_init__(self):
        if self.s < 0 or not math.isfinite(self.s):
            raise ParameterOutOfRange("s must be a nonnegative real")
        if not math.isfinite(self.drift):
            raise ParameterOutOfRange("drift must be finite")

    @classmethod
    def for_horizon(cls, xi_tilde_norm_sq: float, r: float, horizon: float) -> "DeflatorLaw":
        if horizon < 0:
            raise ParameterOutOfRange("horizon must be nonnegative")
        if xi_tilde_norm_sq < 0:
            raise ParameterOutOfRange("squared norm must be nonnegative")
        s2 = xi_tilde_norm_sq * horizon
        return cls(s=math.sqrt(s2), drift=-0.5 * s2 - r * horizon)


def expect_deflator(f, law: DeflatorLaw, rule: GaussHermiteRule):
    """Return sum_k w_k * f(exp(drift + s*x_k)).

    ``f`` must accept an ndarray of positive deflator samples and return
    either an array of the same shape or a stack of shape (k, nodes) (k
    expectations); the result is a float or an array of k. Raises NonFinite
    if any evaluation is NaN/inf.
    """
    vals = np.asarray(f(np.exp(law.drift + law.s * rule.nodes)), dtype=float)
    if not _all(np.isfinite(vals)):
        raise NonFinite("integrand produced a non-finite value at a quadrature node")
    out = vals @ rule.weights
    return float(out) if out.ndim == 0 else out


def expect_deflator_adaptive(f, law: DeflatorLaw, order: int = DEFAULT_ORDER, rel_tol: float = DEFAULT_REL_TOL):
    """Evaluate the expectation with order doubling until it stabilizes.

    Accepts the value at 2n once |result(n) - result(2n)| falls below
    rel_tol * (1 + |result(2n)|); for a stacked integrand every component
    must pass. Raises QuadratureError if the doubling cascade reaches
    ``MAX_ORDER``, the largest order of every expectation, without
    stabilizing; a starting order above ``MAX_ORDER // 2`` raises at once.
    """
    coarse = expect_deflator(f, law, make_rule(order))
    while 2 * order <= MAX_ORDER:
        order *= 2
        fine = expect_deflator(f, law, make_rule(order))
        if _all(np.abs(fine - coarse) <= rel_tol * (1.0 + np.abs(fine))):
            return fine
        coarse = fine
    raise QuadratureError(f"quadrature did not stabilize at rel_tol={rel_tol:g} by order {MAX_ORDER}")
