"""An independent reference for the power period sums and fixed point, from scipy alone.

``period_sums(alpha, gamma, a, y, s, drift)`` returns the five columns of
``power._period_sums``: [F(y), y F'(y), E[phi_a(y Z/B)], H'(a), dF/da] with
log Z/B = drift + s G and G standard normal. It shares no code with the
package. Each node's x = I(y Z/B) is the root u = log x of the scalar node
equation (alpha-1) u + log(1 + c e^(-alpha gamma u)) = log(y Z/B),
c = a(1-gamma), found by ``scipy.optimize.brentq`` (``log_marginal_inverse``;
``marginal`` is h_a' itself, the function that I inverts, and
``moderated_utility`` is h_a). Each column is a sum of three or fewer
expectations of positive terms f(G), and each of those is
``scipy.integrate.quad`` over G of f(G) phi(G), scaled by its largest value
so that no term overflows: f(G) phi(G) = exp(l(G)), and quad integrates
exp(l(G) - l(G*)) over G* +- 40 with G* the maximum of l. A law with s = 0
is a point mass at G = 0.

``y_star`` and ``a_star`` solve the fixed point A* = e^(-delta tau) H(A*),
H(a) = alpha (E[phi_a(y* Z/B)] + y*), from the same quad columns; at y*,
where F = 1, H = E[x^alpha] + a E[x^beta].

* y*(a) is ``brentq`` on log F in log y. d log F / d log y lies between
  -1/(1 - min(alpha, beta)) and -1/(1 - max(alpha, beta)), beta =
  alpha (1-gamma), so log F at one point brackets the root.
* A* is ``brentq`` on A - Psi(A) over the a-priori bracket of A*: the
  bond-only value e^((r alpha - delta) tau) / (1 - e^(-(delta - r beta) tau))
  and the one-period optimum e^((zeta(alpha) - delta) tau) /
  (1 - e^(-(delta - zeta(beta)) tau)), zeta(x) = r x + x q / (2 (1-x)),
  each end widened by 1e-9 of itself, since for gamma = 1 and alpha > 0 the
  upper end is A* itself.
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


def marginal(a: float, alpha: float, gamma: float, x):
    """h_a'(x) = x^(alpha-1) + a (1-gamma) x^(alpha(1-gamma)-1), elementwise for x > 0."""
    x = np.asarray(x, dtype=float)
    return x ** (alpha - 1.0) + a * (1.0 - gamma) * x ** (alpha * (1.0 - gamma) - 1.0)


def moderated_utility(a: float, alpha: float, gamma: float, x):
    """h_a(x) = (1/alpha) x^alpha + (a/alpha) x^(alpha(1-gamma)), a float for a scalar x > 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("moderated utility requires x > 0")
    out = x**alpha / alpha + (a / alpha) * x ** (alpha * (1.0 - gamma))
    return float(out) if out.ndim == 0 else out


def log_marginal_inverse(a: float, alpha: float, gamma: float, log_y: float) -> float:
    """u = log x of the x > 0 with h_a'(x) = e^log_y, by brentq on the node equation."""
    c = a * (1.0 - gamma)
    log_c = math.log(c) if c > 0.0 else -math.inf

    def node_equation(u: float) -> float:
        t = log_c - alpha * gamma * u
        return (alpha - 1.0) * u + (_softplus(t) if c > 0.0 else 0.0) - log_y

    lo, hi = -1.0, 1.0
    while node_equation(lo) <= 0.0:
        lo *= 2.0
    while node_equation(hi) >= 0.0:
        hi *= 2.0
    return brentq(node_equation, lo, hi, xtol=1e-300, rtol=4.0 * np.finfo(float).eps, maxiter=500)


def period_sums(alpha: float, gamma: float, a: float, y: float, s: float, drift: float) -> np.ndarray:
    zx, zx_slope, xa, xb, xb_slope = _expectations(
        alpha, gamma, a, y, s, drift, ("zx", "zx/slope", "x^alpha", "x^beta", "x^beta/slope")
    )
    return np.array(
        [zx, -zx_slope, xa / alpha + (a / alpha) * xb - y * zx, xb, (1.0 - gamma) / y * xb_slope]
    )


def _expectations(
    alpha: float, gamma: float, a: float, y: float, s: float, drift: float, names: tuple[str, ...]
) -> list[float]:
    """The expectations of the named positive terms at (a, y), one quad each."""
    beta = alpha * (1.0 - gamma)
    c = a * (1.0 - gamma)
    log_c = math.log(c) if c > 0.0 else -math.inf

    @lru_cache(maxsize=None)
    def node(g: float) -> tuple[float, float, float]:
        """(log Z/B, u = log x, |d log h_a'/d log x|) at G = g."""
        log_z = drift + s * g
        u = log_marginal_inverse(a, alpha, gamma, math.log(y) + log_z)
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

    return [expect(name) for name in names]


def y_star(alpha: float, gamma: float, a: float, s: float, drift: float, log_y: float = 0.0) -> float:
    """The y with F(y) = 1, by brentq on log F in u = log y, bracketed from ``log_y``."""
    beta = alpha * (1.0 - gamma)

    def log_budget(u: float) -> float:
        return math.log(_expectations(alpha, gamma, a, math.exp(u), s, drift, ("zx",))[0])

    g = log_budget(log_y)
    if g == 0.0:
        return math.exp(log_y)
    # the root lies g / |slope| from log_y, |slope| between these bounds; a bound can be
    # exact (gamma = 1), so each end moves out until the quadrature's sign confirms it
    lo, hi = sorted(log_y + g * k for k in (1.0 - max(alpha, beta), 1.0 - min(alpha, beta)))
    pad = 1e-6 * (hi - lo) + 1e-13 * (1.0 + abs(log_y))
    while log_budget(lo - pad) <= 0.0 or log_budget(hi + pad) >= 0.0:
        pad *= 8.0
    u = brentq(log_budget, lo - pad, hi + pad, xtol=1e-15, rtol=4.0 * np.finfo(float).eps, maxiter=200)
    return math.exp(u)


def a_star(alpha: float, gamma: float, r: float, tau: float, delta: float, q: float) -> tuple[float, float]:
    """(A*, y*(A*)) of the table's market law: q = |xi_tilde|^2, s^2 = q tau, drift = -s^2/2 - r tau."""
    beta = alpha * (1.0 - gamma)
    s = math.sqrt(q * tau)
    drift = -0.5 * q * tau - r * tau

    def zeta(x: float) -> float:
        return r * x + x * q / (2.0 * (1.0 - x))

    def bound(growth: float, decay: float) -> float:
        return math.exp((growth - delta) * tau) / -math.expm1(-decay * tau)

    ends = sorted((bound(r * alpha, delta - r * beta), bound(zeta(alpha), delta - zeta(beta))))
    disc = math.exp(-delta * tau)
    last = {"log_y": 0.0}  # each y* root starts from the last one

    def residual(a: float) -> float:
        y = y_star(alpha, gamma, a, s, drift, last["log_y"])
        last["log_y"] = math.log(y)
        xa, xb = _expectations(alpha, gamma, a, y, s, drift, ("x^alpha", "x^beta"))
        # with F(y*) = 1, H = alpha (E[phi_a] + y*) = E[x^alpha] + a E[x^beta]
        return a - disc * (xa + a * xb)

    a = brentq(residual, ends[0] * (1.0 - 1e-9), ends[1] * (1.0 + 1e-9), xtol=1e-300, rtol=1e-14, maxiter=200)
    return a, y_star(alpha, gamma, a, s, drift, last["log_y"])
