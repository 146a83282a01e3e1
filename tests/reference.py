"""An independent reference for the power period sums, from scipy alone.

``period_sums(alpha, gamma, a, y, s, drift)`` returns the five columns of
``power._period_sums``: [F(y), y F'(y), E[phi_a(y Z/B)], H'(a), dF/da] with
log Z/B = drift + s G and G standard normal. It shares no code with the
package. Each node's x = I(y Z/B) is the root u = log x of the scalar node
equation (alpha-1) u + log(1 + c e^(-alpha gamma u)) = log(y Z/B),
c = a(1-gamma), found by ``scipy.optimize.brentq``. Each column is a sum of
three or fewer expectations of positive terms f(G), and each of those is
``scipy.integrate.quad`` over G of f(G) phi(G), scaled by its largest value
so that no term overflows: f(G) phi(G) = exp(l(G)), and quad integrates
exp(l(G) - l(G*)) over G* +- 40 with G* the maximum of l. A law with s = 0
is a point mass at G = 0.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar

_REACH = 40.0  # the integral runs over G* +- this many standard deviations


def _softplus(t: float) -> float:
    return max(t, 0.0) + math.log1p(math.exp(-abs(t)))


def _expit(t: float) -> float:
    return 1.0 / (1.0 + math.exp(-t)) if t >= 0.0 else math.exp(t) / (1.0 + math.exp(t))


def period_sums(alpha: float, gamma: float, a: float, y: float, s: float, drift: float) -> np.ndarray:
    beta = alpha * (1.0 - gamma)
    c = a * (1.0 - gamma)
    log_c = math.log(c) if c > 0.0 else -math.inf

    def node_equation(u: float, log_yz: float) -> float:
        t = log_c - alpha * gamma * u
        return (alpha - 1.0) * u + (_softplus(t) if c > 0.0 else 0.0) - log_yz

    @lru_cache(maxsize=None)
    def node(g: float) -> tuple[float, float, float]:
        """(log Z/B, u = log x, |d log h_a'/d log x|) at G = g."""
        log_z = drift + s * g
        log_yz = math.log(y) + log_z
        lo, hi = -1.0, 1.0
        while node_equation(lo, log_yz) <= 0.0:
            lo *= 2.0
        while node_equation(hi, log_yz) >= 0.0:
            hi *= 2.0
        u = brentq(node_equation, lo, hi, args=(log_yz,), xtol=1e-300, rtol=4.0 * np.finfo(float).eps, maxiter=500)
        slope = 1.0 - alpha + (alpha * gamma * _expit(log_c - alpha * gamma * u) if c > 0.0 else 0.0)
        return log_z, u, slope

    # log f of each positive term, as a function of a node
    terms = {
        "zx": lambda z, u, sl: z + u,
        "zx/slope": lambda z, u, sl: z + u - math.log(sl),
        "x^alpha": lambda z, u, sl: alpha * u,
        "x^beta": lambda z, u, sl: beta * u,
        "x^beta/slope": lambda z, u, sl: beta * u - math.log(sl),
    }

    def expect(name: str) -> float:
        log_f = terms[name]
        if s == 0.0:
            return math.exp(log_f(*node(0.0)))

        def log_integrand(g: float) -> float:
            return log_f(*node(g)) - 0.5 * g * g

        peak = minimize_scalar(
            lambda g: -log_integrand(g), bracket=(-1.0, 1.0), tol=1e-10
        ).x
        top = log_integrand(peak)
        value, _ = quad(
            lambda g: math.exp(log_integrand(g) - top),
            peak - _REACH,
            peak + _REACH,
            points=[peak],
            epsabs=0.0,
            epsrel=1e-13,
            limit=400,
        )
        return value * math.exp(top) / math.sqrt(2.0 * math.pi)

    zx, zx_slope = expect("zx"), expect("zx/slope")
    xa, xb, xb_slope = expect("x^alpha"), expect("x^beta"), expect("x^beta/slope")
    return np.array(
        [zx, -zx_slope, xa / alpha + (a / alpha) * xb - y * zx, xb, (1.0 - gamma) / y * xb_slope]
    )
