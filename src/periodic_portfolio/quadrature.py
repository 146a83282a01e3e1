"""Gauss-Hermite quadrature for expectations against the lognormal deflator.

Every expectation in the pricing pipeline reduces to E[f(exp(drift + s*G))]
with G standard normal, so a one-dimensional probabilists' Gauss-Hermite rule
is the only integration kernel needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_hermitenorm

from .errors import NonFinite, ParameterOutOfRange, QuadratureError

DEFAULT_ORDER = 64
MAX_ORDER = 512
DEFAULT_REL_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class GaussHermiteRule:
    """Nodes and weights normalized so that sum(w_k * f(x_k)) ~ E[f(G)]."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=None)
def make_rule(order: int) -> GaussHermiteRule:
    """Build (and cache) the probabilists' Gauss-Hermite rule of a given order.

    Exact for polynomials in G of degree <= 2*order - 1. Nodes come from the
    symmetric-tridiagonal (Golub-Welsch) route used by scipy, which stays
    stable at the highest escalation order; weights are renormalized to sum
    to one.
    """
    if order < 1:
        raise ParameterOutOfRange("quadrature order must be >= 1")
    nodes, w = roots_hermitenorm(order)
    weights = w / math.sqrt(2.0 * math.pi)
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
        if self.s < 0 or not np.isfinite(self.s):
            raise ParameterOutOfRange("s must be a nonnegative real")
        if not np.isfinite(self.drift):
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
    either an array of the same shape (the result is a float) or a stack of
    shape (k, nodes) (the result is an array of k expectations). Raises
    NonFinite if any evaluation is NaN/inf.
    """
    z = np.exp(law.drift + law.s * rule.nodes)
    vals = np.asarray(f(z), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise NonFinite("integrand produced a non-finite value at a quadrature node")
    out = vals @ rule.weights
    return float(out) if vals.ndim == 1 else out


def expect_deflator_adaptive(
    f,
    law: DeflatorLaw,
    order: int = DEFAULT_ORDER,
    rel_tol: float = DEFAULT_REL_TOL,
    max_order: int = MAX_ORDER,
):
    """Evaluate the expectation with order doubling until it stabilizes.

    Accepts the refined value once |result(order) - result(2*order)| falls
    below rel_tol * (1 + |result|); for a stacked integrand every component
    must pass, and ``rel_tol`` may give one tolerance per component. Raises
    QuadratureError if the doubling cascade reaches ``max_order`` without
    stabilizing.
    """
    coarse = expect_deflator(f, law, make_rule(order))
    while 2 * order <= max_order:
        order *= 2
        fine = expect_deflator(f, law, make_rule(order))
        if np.all(np.abs(fine - coarse) <= rel_tol * (1.0 + np.abs(fine))):
            return fine
        coarse = fine
    raise QuadratureError(
        f"quadrature did not stabilize at rel_tol={np.min(rel_tol):g} by order {max_order}"
    )
