"""Power-utility pipeline for the periodically evaluated portfolio problem.

The infinite-horizon value function has the form V(x) = (1/alpha) * A* *
x^(alpha*(1-gamma)) where A* solves the one-dimensional fixed-point equation
A* = exp(-delta*tau) * H(A*). H(a) is the optimal value of a one-period
problem with the moderated utility

    h_a(x) = (1/alpha) * x^alpha + (a/alpha) * x^(alpha*(1-gamma)),

evaluated through its convex dual: H(a) = alpha * (V_dual(y*) + y*), where
V_dual(y) = E[phi_a(y * Z/B)] is a lognormal expectation of the Legendre
transform of h_a and y* balances the unit budget E[(Z/B) * X] = 1.

Both roots are found by safeguarded Newton iteration whose derivatives are
further sums over the quadrature nodes that give the values, taken in the
same (vector-valued) quadrature call. With x = I(y * Z/B) at each node:

* y* solves log F(u) = 0 in u = log y, F(y) = E[(Z/B) x], with
  y F'(y) = E[(Z/B) x / (d log h_a'/d log x)] (inverse-function rule);
* A* solves G(A) = A - exp(-delta*tau) H(A) = 0 with
  H'(a) = E[x^(alpha(1-gamma))] at y*(a) (envelope theorem: Milgrom and
  Segal, Econometrica 70(2), 2002).

Each Newton iteration keeps a sign bracket and falls back to bisection (y*)
or to the Picard step A -> Psi(A) (A*) when a step leaves it.

The y* Newton sits inside the A* iteration, and only the evaluation that
``fixed_point`` accepts needs y* to ``tol_root``. H is stationary in y at y*,
and with u = log y its Taylor terms come from sums the call already took:
dH/du = alpha y (1 - F), d^2H/du^2 = alpha y (1 - F - y F') and
dH'/du = -alpha y dF/da. Each evaluation carries H and H' from its last
quadrature point to y* by these terms. An evaluation whose residual is well
above what acceptance allows stops its y* Newton after the first short step
inside the bracket whose left-out cubic term is small against the residual,
an inexact Newton step in the sense of Dembo, Eisenstat and Steihaug (SIAM
J. Numer. Anal. 19(2), 1982); such an evaluation takes one quadrature call.

The y* Newton of each A step starts near its root, as in the predictor step
of numerical continuation (Allgower and Georg, Introduction to Numerical
Continuation Methods, SIAM 2003). At the first A it starts from the root for
a deterministic deflator (s = 0), y0 = e^{r tau} h_a'(e^{r tau}); after each
step of A it starts from the tangent of y*(A), d log y*/dA = -(dF/da) /
(y F'(y)) by the implicit-function rule, with dF/da = E[(Z/B) dx/da] =
E[-(1-gamma) x^(alpha(1-gamma)) / (y d log h_a'/d log x)] from
differentiating h_a'(x) = y Z/B. That sum rides in the same quadrature call.

The same continuation runs one level down, at the quadrature nodes. Every
quadrature pass of one ``fixed_point`` solve integrates over the same nodes,
so each pass carries to the next, at every node, u = log x and the slope
g'(u) = d log h_a'/d log x of the node equation g(u) = 0 (see
``marginal_inverse``). The next pass starts its node Newton from the
first-order predictor u + (d log y - expit(t) d log c) / g'(u), with
c = a(1-gamma). g is convex and strictly decreasing, so Newton converges
from any finite start: the predictor changes how many steps it takes, not
where it ends. Each pass then forms its sums from u and log Z/B with exp alone.
Other callers (``contraction_map``, ``intra_period_profile``) and the
Monte Carlo start every node cold.

The same sums give the optimal constrained portfolio (convex duality:
Cvitanic and Karatzas, Ann. Appl. Probab. 2(4), 1992). At deflator level z
and time t of a period, with F and y F'(y) taken at y = y* z under the law
of the remaining horizon tau - t, wealth is F times its period-start value
and the risky fractions are (-d log F / d log y) (sigma^T)^{-1} xi_tilde.
At the period start that slope ratio is the one the solver's last
evaluation already took.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cone import ConstrainedSharpe
from .errors import (
    AssumptionViolated,
    DomainError,
    NonConvergence,
    NonFinite,
    NumericalFault,
    ParameterOutOfRange,
)
from .market import EvaluationSpec, MarketModel, check_assumption, zeta
from .quadrature import DEFAULT_REL_TOL, DeflatorLaw, check_solver_settings, expect_deflator_adaptive

_NEWTON_CAP = 100
# Above this t, log(1 + exp(t)) rounds to t and expit(t) to 1 in float64.
_SOFTPLUS_LINEAR = 36.0
# exp(t) is a positive, finite float64 for t in [_LOG_TINY, _LOG_HUGE]
_LOG_TINY = math.log(math.ulp(0.0))
_LOG_HUGE = math.log(sys.float_info.max)
_FIXED_POINT_CAP = 50
_FLOOR_ULPS = 4  # residual allowance in ulps of A once the residual stops falling
# guards of the early y* stop of a fixed-point evaluation (``_newton_y``)
_INEXACT_MARGIN = 4.0
_INEXACT_STEP_CAP = 1e-2
_INEXACT_TAYLOR_SHARE = 1e-3
# Quadrature acceptance for the derivative sums, which only steer Newton:
# the value sums keep DEFAULT_REL_TOL, and a looser slope tolerance keeps the
# slopes from escalating the order past the one the values need (on wide laws,
# s ~ 10, order 512 puts x = I(y Z/B) beyond float64 at the outer nodes).
_SLOPE_REL_TOL = 1e-6
# The last sum, dF/da, only seeds the next y* Newton, so it never raises the order.
_PERIOD_SUMS_REL_TOL = np.array(
    [DEFAULT_REL_TOL, _SLOPE_REL_TOL, DEFAULT_REL_TOL, _SLOPE_REL_TOL, np.inf]
)


@dataclass(eq=False)
class PowerProblem:
    """Parameter bundle for one power-utility solve.

    Construction validates alpha, the solver settings and the standing
    well-posedness condition delta > max(zeta(alpha*(1-gamma)), 0); an
    invalid bundle never exists.
    """

    market: MarketModel
    evaluation: EvaluationSpec
    alpha: float
    cs: ConstrainedSharpe
    tol_root: float = 1e-10
    tol_fixed_point: float = 1e-10
    quad_order: int = 64

    def __post_init__(self):
        if not np.isfinite(self.alpha) or self.alpha == 0 or self.alpha >= 1:
            raise ParameterOutOfRange("alpha must lie in (-inf, 0) or (0, 1)")
        check_solver_settings(self.quad_order, self.tol_root, self.tol_fixed_point)
        report = check_assumption(
            self.market, self.evaluation, self.alpha, self.xi_tilde_norm_sq
        )
        if not report.satisfied:
            raise AssumptionViolated(
                "well-posedness requires delta > max(zeta(alpha*(1-gamma)), 0): "
                f"delta={self.evaluation.delta:.6g}, "
                f"zeta={report.zeta_at_alpha_one_minus_gamma:.6g}"
            )

    @property
    def xi_tilde_norm_sq(self) -> float:
        return self.cs.objective

    @cached_property
    def law(self) -> DeflatorLaw:
        """Lognormal law of Z/B over one full evaluation period, formed once per problem."""
        return DeflatorLaw.for_horizon(
            self.xi_tilde_norm_sq, self.market.r, self.evaluation.tau
        )


@dataclass(frozen=True)
class PowerSolution:
    """Fixed point A*, its y*, and how the solve ended.

    ``iterations`` counts evaluations of Psi (each one y* solve plus H and
    H'), not Newton steps. ``error_bound`` = |Psi(A) - A| / (1 - q) at the
    last evaluated A bounds |A* - A_true|; when it exceeds tol_fixed_point
    the solve was accepted at the float64 floor of the residual instead (see
    ``fixed_point``). ``fraction_scale`` is -d log F / d log y at the last
    evaluation's y* Newton point: the period-start risky fractions are
    ``fraction_scale`` * (sigma^T)^{-1} xi_tilde. ``psi_slope`` is Psi'(A) =
    exp(-delta*tau) E[I(y* R)^(alpha(1-gamma))] from the same evaluation,
    carried from its last Newton point to y* by d H'/d log y = -alpha y dF/da:
    the ratio of the expected period rewards that sum to V(x0), so the reward
    left after n periods is V(x0) ``psi_slope``^n.
    """

    a_star: float
    y_star: float
    contraction_modulus: float
    lower_bound: float
    upper_bound: float
    iterations: int
    error_bound: float
    fraction_scale: float
    psi_slope: float


def moderated_utility(a: float, alpha: float, gamma: float, x):
    """h_a(x) = (1/alpha) x^alpha + (a/alpha) x^(alpha(1-gamma)) for x > 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise DomainError("moderated utility requires x > 0")
    out = x**alpha / alpha + (a / alpha) * x ** (alpha * (1.0 - gamma))
    return float(out) if out.ndim == 0 else out


def moderated_marginal(a: float, alpha: float, gamma: float, x):
    """Derivative x^(alpha-1) + a(1-gamma) x^(alpha(1-gamma)-1)."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise DomainError("marginal requires x > 0")
    out = x ** (alpha - 1.0) + a * (1.0 - gamma) * x ** (alpha * (1.0 - gamma) - 1.0)
    return float(out) if out.ndim == 0 else out


def _newton_start(lc: float, p1: float, beta: float, log_y):
    """Larger root of the two lines that bound g from below (see ``marginal_inverse``)."""
    u = log_y / p1
    u_c = log_y - lc
    u_c /= p1 + beta
    return np.maximum(u, u_c, out=u)


def _log_marginal_inverse(a: float, alpha: float, gamma: float, log_y, tol: float, start=None):
    """u = log I(exp(log_y)) for finite log_y, by Newton in log space.

    The Newton kernel behind ``marginal_inverse``; see its docstring. Newton
    starts from ``start`` if given, an array like ``log_y`` of finite values
    that it overwrites, and from ``_newton_start`` otherwise. g is convex and
    strictly decreasing with g' <= max(alpha-1, alpha(1-gamma)-1) < 0, so a
    step from any finite start is finite and lands at or below the root,
    from where the iterates rise to it monotonically. Returns a new array (or
    ``start``) and leaves ``log_y`` unchanged; an empty ``log_y`` gives an
    empty float array.
    """
    p1 = alpha - 1.0
    c = a * (1.0 - gamma)
    if c == 0.0:
        return log_y / p1
    beta = -alpha * gamma
    lc = math.log(c)
    u = _newton_start(lc, p1, beta, log_y) if start is None else start
    for _ in range(_NEWTON_CAP):
        t = beta * u
        t += lc
        e = np.minimum(t, _SOFTPLUS_LINEAR)
        np.exp(e, out=e)
        g = np.log1p(e)
        np.maximum(g, t, out=g)  # log(1 + exp(t))
        t = p1 * u
        g += t
        g -= log_y
        t = e + 1.0
        e /= t  # expit(t)
        e *= beta
        e += p1  # g'(u)
        g /= e  # Newton step
        u -= g
        # ufunc reductions without ndarray.max's Python-level wrapper; an empty log_y converges at once
        if np.maximum.reduce(np.abs(g, out=g), axis=None, initial=0.0) <= tol:
            return u
    raise NonConvergence("marginal inverse Newton iteration hit its cap")


def marginal_inverse(a: float, alpha: float, gamma: float, y, tol: float = 1e-10):
    """Invert the moderated marginal: the unique x > 0 with h_a'(x) = y.

    The marginal decreases strictly from +inf to 0, so the inverse exists for
    every y > 0. With c = a*(1-gamma) and t = log c - alpha*gamma*u, the
    equation in u = log x reads

        g(u) = (alpha-1)*u + log(1 + exp(t)) - log y = 0,

    and g is convex and strictly decreasing in u. Since
    max(0, t) <= log(1 + exp(t)) <= max(0, t) + log 2, the lines
    (alpha-1)*u - log y and (alpha-1-alpha*gamma)*u + log c - log y bound g
    from below and come within log 2 of it. Newton starts at the larger of
    their roots,

        u0 = max(log y / (alpha-1), (log y - log c) / (alpha-1-alpha*gamma)),

    so u0 <= root and 0 <= g(u0) <= log 2, and by convexity every Newton
    iterate stays below the root and rises to it monotonically. It stops once
    the largest step is at most ``tol``. The whole iteration runs in log
    space: ``_log_marginal_inverse`` takes log y and returns u, the Monte
    Carlo calls it directly (from this cold start), the quadrature sums of
    ``_period_sums`` call it from a warm start, and this function returns
    exp(u). log(1 + e^t) is evaluated as max(t, log1p(exp(min(t, 36)))),
    accurate to rounding for every t, and expit(t) reuses its exponential.
    When c == 0 (a == 0 or gamma == 1), u = log(y) / (alpha-1) exactly.

    As in ``_period_sums``, an x that would round to 0 raises DomainError
    and an x that would overflow float64 raises NonFinite. An empty y gives
    an empty float array of the same shape.
    """
    y_arr = np.asarray(y, dtype=float)
    scalar = y_arr.ndim == 0
    y_arr = np.atleast_1d(y_arr)
    if np.any(y_arr <= 0.0) or not np.all(np.isfinite(y_arr)):
        raise DomainError("marginal inverse requires finite y > 0")
    u = _log_marginal_inverse(a, alpha, gamma, np.log(y_arr), tol)
    if np.any(u < _LOG_TINY):
        raise DomainError("marginal inverse rounds to x = 0")
    if np.any(u > _LOG_HUGE):
        raise NonFinite("marginal inverse x = I(y) overflows")
    x = np.exp(u)
    return float(x[0]) if scalar else x


def budget_function(p: PowerProblem, a: float, y: float) -> float:
    """F(y) = E[(Z/B) * I(y * Z/B)], strictly decreasing with F(0+)=inf, F(inf)=0."""
    if y <= 0.0:
        raise DomainError("budget function requires y > 0")
    return expect_deflator_adaptive(
        lambda z: z * marginal_inverse(a, p.alpha, p.evaluation.gamma, y * z, p.tol_root),
        p.law,
        order=p.quad_order,
    )


def _log_elasticity(a: float, alpha: float, gamma: float, u):
    """(g'(u), tanh(t/2)) at u = log x, with g'(u) = d log h_a'(x) / d log x.

    g'(u) = alpha - 1 - alpha gamma expit(t), t = log c - alpha gamma u, is a
    weighted mean of alpha-1 and alpha(1-gamma)-1, and expit(t) =
    (1 + tanh(t/2)) / 2. When c = a(1-gamma) = 0 it returns (alpha - 1, None).
    """
    c = a * (1.0 - gamma)
    if c == 0.0:
        return alpha - 1.0, None
    half = 0.5 * alpha * gamma
    tanh_half = half * u
    np.subtract(0.5 * math.log(c), tanh_half, out=tanh_half)
    np.tanh(tanh_half, out=tanh_half)
    weighted = tanh_half * half
    return np.subtract(alpha - 1.0 - half, weighted, out=weighted), tanh_half


def _predict_log_inverse(u, el, tanh_half, d_log_y: float, d_log_c: float):
    """First-order predictor of u = log I(y) after log y moves by d_log_y and log c by d_log_c.

    ``u``, ``el`` = g'(u) and ``tanh_half`` = tanh(t/2) are the solution and
    its ``_log_elasticity`` before the move. Differentiating g(u) = 0 gives
    du = (d log y - expit(t) d log c) / el. Returns a new array.
    """
    if d_log_c == 0.0:
        step = d_log_y / el
    else:
        step = tanh_half * (-0.5 * d_log_c)
        step += d_log_y - 0.5 * d_log_c  # d log y - expit(t) d log c
        step /= el
    step += u
    return step


def _period_sums(
    p: PowerProblem, law: DeflatorLaw, a: float, y: float, warm: dict | None = None
) -> np.ndarray:
    """One quadrature call at (a, y) over the nodes x = I(y * Z/B), Z/B ~ ``law``.

    Returns [F(y), y F'(y), E[phi_a(y Z/B)], H'(a), dF/da], with
    H'(a) = E[x^(alpha(1-gamma))] (envelope theorem) and dF/da at fixed y
    equal to E[-(1-gamma) x^(alpha(1-gamma)) / (y el)]. Both derivatives come
    from dx = x (d log y - (1-gamma) x^(alpha(1-gamma)-1) da / (y Z/B)) / el,
    el = d log h_a'/d log x, so they stay finite wherever F does. The last
    sum is not tested for convergence (its tolerance is inf).

    The integrand works in log space: from log z = drift + s * node it solves
    u = log x by ``_log_marginal_inverse`` and forms every column with exp
    of u and log z. It keeps the domain checks of ``marginal_inverse`` and
    ``moderated_utility``: Z/B and y Z/B must be positive finite float64s
    (DomainError), and so must x, which raises DomainError when it would
    round to 0 and NonFinite when it would overflow.

    ``warm``, when given, carries the node solutions from one call to the
    next, for calls under one law: for each rule (keyed by its node count)
    the last log y, log c (c = a(1-gamma) > 0), u and ``_log_elasticity``
    of u. A call then starts the node Newton from ``_predict_log_inverse``
    in place of the cold start; any finite start converges to the same root,
    so only the iteration count depends on it. The caller owns the dict;
    None starts cold.
    """
    alpha, gamma = p.alpha, p.evaluation.gamma
    beta = alpha * (1.0 - gamma)
    log_y = math.log(y)
    c = a * (1.0 - gamma)
    log_c = math.log(c) if c > 0.0 else None
    keep = warm is not None and log_c is not None  # no Newton runs when c = 0

    def integrand(log_z):
        lo, hi = law.log_range(log_z)
        if min(lo, lo + log_y) < _LOG_TINY or max(hi, hi + log_y) > _LOG_HUGE:
            raise DomainError("marginal inverse requires finite y > 0")
        log_yz = log_z + log_y
        prev = warm.get(log_z.size) if keep else None
        start = None
        if prev is not None:
            start = _predict_log_inverse(*prev[2:], log_y - prev[0], log_c - prev[1])
        u = _log_marginal_inverse(a, alpha, gamma, log_yz, p.tol_root, start)
        if np.minimum.reduce(u, axis=None) < _LOG_TINY:
            raise DomainError("moderated utility requires x > 0")
        if np.maximum.reduce(u, axis=None) > _LOG_HUGE:
            raise NonFinite("x = I(y Z/B) overflows at a quadrature node")
        el, tanh_half = _log_elasticity(a, alpha, gamma, u)
        if keep:
            warm[log_z.size] = (log_y, log_c, u, el, tanh_half)
        zx = np.add(u, log_z)
        np.exp(zx, out=zx)
        xb = np.exp(beta * u)
        phi = np.exp(alpha * u)
        phi /= alpha
        phi += (a / alpha) * xb
        phi -= y * zx
        return np.concatenate([zx, zx / el, phi, xb, xb / el]).reshape(5, -1)

    sums = expect_deflator_adaptive(
        integrand, law, order=p.quad_order, rel_tol=_PERIOD_SUMS_REL_TOL, log_nodes=True
    )
    sums[4] *= -(1.0 - gamma) / y
    return sums


def _newton_y(
    p: PowerProblem,
    a: float,
    u: float,
    warm: dict | None = None,
    stop: tuple[float, float] | None = None,
):
    """Root y* of the unit budget F(y) = 1 by safeguarded Newton in u = log y, from ``u``.

    Each step solves log F(u) = 0 with the exact slope
    d log F / du = y F'(y) / F(y), where
    y F'(y) = E[(Z/B) x / (d log h_a'/d log x)] at x = I(y Z/B) is a second
    sum over the nodes that give F. Evaluated points keep a sign bracket; a
    Newton step that leaves it, or is not finite, is replaced by bisection in
    u (or, while one side is still open, by a step of g * (1 - max(alpha,
    alpha(1-gamma))), which the slope bound keeps short of the root). Stops
    once a step in u is at most ``tol_root``.

    Returns (H, H', y*, -y F'/F, d log y*/dA). y* = y_k e^s is the last
    evaluation point y_k moved by the last step s. H = alpha (E[phi_a(y R)] +
    y) and H' = E[x^(alpha(1-gamma))] are carried from y_k to y* by
    ``_carry_to``. The slope ratio -y F'(y)/F(y) and the tangent
    d log y*/dA = -(dF/da) / (y F'(y)), which steers the next start, are
    taken from the ``_period_sums`` at y_k. ``warm`` is passed to every
    ``_period_sums`` call. A y that would overflow or round to 0 raises
    NonFinite.

    ``stop`` = (disc, r_min) lets a fixed-point evaluation at A = ``a`` that
    cannot be the accepted one end early, as an inexact Newton step of the
    outer iteration (Dembo, Eisenstat and Steihaug, SIAM J. Numer. Anal.
    19(2), 1982). H is stationary in y at y*, so a roughly converged y*
    gives H to the square of its error. After a call whose Newton step s
    stays inside the sign bracket and has |s| <= _INEXACT_STEP_CAP, the
    Newton returns the carried values at once when the residual
    r = disc H - a has |r| > r_min and the cubic term the carried H leaves
    out, about disc |d^2H/du^2| |s|^3, is at most _INEXACT_TAYLOR_SHARE |r|.
    The cap on |s| keeps a long step, where the cubic estimate says little,
    from ending the Newton. Otherwise it runs on to ``tol_root`` as without
    ``stop``.
    """
    # with beta = alpha(1-gamma), d log F / d log y lies in
    # [-1/(1-max(alpha,beta)), -1/(1-min(alpha,beta))]
    safe_scale = 1.0 - max(p.alpha, p.alpha * (1.0 - p.evaluation.gamma))
    lo, hi = -math.inf, math.inf
    law = p.law
    for _ in range(_NEWTON_CAP):
        y = _exp_log_y(u)
        sums = _period_sums(p, law, a, y, warm)
        if not sums[0] > 0.0:
            raise NonFinite(f"budget underflowed to zero at y={y:.6g}")
        g = math.log(sums[0])
        if g > 0.0:
            lo = u
        elif g < 0.0:
            hi = u
        u_next = u - g * sums[0] / sums[1] if g else u  # at the root, whatever the slope
        newton = lo < u_next < hi
        # a step that rounds to 0 may sit on the bracket's edge, and it has converged
        if not (abs(u_next - u) <= p.tol_root or newton):
            # left the sign bracket, or the slope is not finite
            if math.isfinite(lo) and math.isfinite(hi):
                u_next = 0.5 * (lo + hi)
            else:  # a step this short cannot pass the root
                u_next = u + g * safe_scale
        s = u_next - u
        done = abs(s) <= p.tol_root
        if done or (stop is not None and newton and abs(s) <= _INEXACT_STEP_CAP):
            h_val, h_slope, h_uu = _carry_to(p, y, sums, s)
            if not done:
                disc, r_min = stop
                residual = abs(disc * h_val - a)
                done = residual > r_min and disc * abs(h_uu) * abs(s) ** 3 <= _INEXACT_TAYLOR_SHARE * residual
            if done:
                scale, dlog_y = -sums[1] / sums[0], -sums[4] / sums[1]
                return h_val, h_slope, _exp_log_y(u_next), float(scale), float(dlog_y)
        u = u_next
    raise NonConvergence("y* Newton iteration hit its cap")


def _carry_to(p: PowerProblem, y: float, sums: np.ndarray, s: float):
    """(H, H', d^2H/du^2) at y e^s from the ``_period_sums`` at y, u = log y.

    With F = sums[0], y F' = sums[1] and dF/da = sums[4], H = alpha
    (E[phi_a(y R)] + y) has dH/du = alpha y (1 - F) and
    d^2H/du^2 = alpha y (1 - F - y F'), and H' = E[x^(alpha(1-gamma))]
    has dH'/du = -alpha y dF/da (the mixed partial of H). H is carried to
    second order in s, with an O(s^3) error, and H' to first order, with an
    O(s^2) error.
    """
    alpha_y = p.alpha * y
    gap = 1.0 - sums[0]
    h_uu = alpha_y * (gap - sums[1])
    h_val = p.alpha * (sums[2] + y) + (alpha_y * gap + 0.5 * h_uu * s) * s
    return float(h_val), float(sums[3] - alpha_y * sums[4] * s), float(h_uu)


def _exp_log_y(u: float) -> float:
    """y = e^u; NonFinite where y would overflow or round to 0."""
    if u > _LOG_HUGE or u < _LOG_TINY:
        raise NonFinite(f"y* Newton left the float64 range at log y = {u:.6g}")
    return math.exp(u)


def _log_y_start(p: PowerProblem, a: float) -> float:
    """log y* for a deterministic deflator (s = 0): log(e^{r tau} h_a'(e^{r tau})).

    With Z/B = e^{-r tau} the budget fixes x = e^{r tau}, and y = x h_a'(x) =
    x^alpha (1 + c x^(-alpha gamma)), c = a(1-gamma), in log space.
    """
    alpha, gamma = p.alpha, p.evaluation.gamma
    log_x = p.market.r * p.evaluation.tau
    c = a * (1.0 - gamma)
    if c <= 0.0:
        return alpha * log_x
    return alpha * log_x + float(np.logaddexp(0.0, math.log(c) - alpha * gamma * log_x))


def contraction_map(p: PowerProblem, a: float) -> float:
    """Psi(a) = exp(-delta*tau) * H(a); a contraction under well-posedness.

    H(a) = alpha * (V_dual(y*) + y*) is the one-period optimum under h_a.
    """
    return math.exp(-p.evaluation.delta * p.evaluation.tau) * _newton_y(p, a, 0.0)[0]


def contraction_modulus(p: PowerProblem) -> float:
    z2 = zeta(
        p.alpha * (1.0 - p.evaluation.gamma), p.market.r, p.xi_tilde_norm_sq
    )
    return math.exp(-(p.evaluation.delta - z2) * p.evaluation.tau)


def fixed_point_bounds(p: PowerProblem) -> tuple[float, float]:
    """A-priori bracket for the fixed point A*.

    Each side combines the bond-only value exp((r*alpha-delta)*tau) with the
    one-period optimum exp((zeta(alpha)-delta)*tau), divided by one minus the
    matching discount factor; the roles of the two expressions swap between
    alpha in (0,1) and alpha < 0. A side whose denominator is not positive is
    reported as NaN (unreachable when the well-posedness margin is positive).
    A side whose exponential overflows float64 raises NonFinite.
    """
    r, tau, delta = p.market.r, p.evaluation.tau, p.evaluation.delta
    alpha, gamma = p.alpha, p.evaluation.gamma
    q = p.xi_tilde_norm_sq
    za = zeta(alpha, r, q)
    z2 = zeta(alpha * (1.0 - gamma), r, q)

    def term(growth, decay):
        if decay <= 0.0:
            return float("nan")
        try:
            return math.exp((growth - delta) * tau) / (-math.expm1(-decay * tau))
        except OverflowError:
            raise NonFinite(f"a-priori bound on A* overflows at tau={tau:.6g}") from None

    term_bond = term(r * alpha, delta - r * alpha * (1.0 - gamma))
    term_opt = term(za, delta - z2)
    if alpha > 0:
        return term_bond, term_opt
    return term_opt, term_bond


def fixed_point(p: PowerProblem) -> PowerSolution:
    """Solve A = Psi(A) by safeguarded Newton on G(A) = A - Psi(A).

    Each evaluation of Psi also returns Psi'(A) = exp(-delta*tau) * H'(A) with
    H'(A) = E[I(y* R)^(alpha(1-gamma))] (envelope theorem), so the Newton
    step costs no extra solve. H is convex in A for alpha in (0,1) and concave
    for alpha < 0; starting from the lower (resp. upper) a-priori bound makes
    the Newton iterates approach A* from one side. The a-priori bounds, each
    widened by tol + DEFAULT_REL_TOL * |bound| (H is only known to that
    relative accuracy, and for gamma = 1 and alpha > 0 the upper bound is A*
    itself) and narrowed by the sign of every residual, are kept as a
    bracket, and a Newton step that leaves it is replaced by the Picard step
    A -> Psi(A).

    Each evaluation's y* Newton starts near its root: at the first A from
    the deterministic-deflator root ``_log_y_start``, and after each step
    dA from log y* + (d log y*/dA) dA, the tangent of y*(A) taken by the
    previous evaluation. Every quadrature pass of the solve is over the same
    nodes, so each pass's node Newton starts from the previous pass's
    solution, moved by the first-order predictor (``_period_sums``).

    Only the accepted evaluation needs y* to ``tol_root``. Both acceptance
    tests below need |Psi(A) - A| <= tol + 4 ulp(A), since 1-q < 1, so an
    evaluation whose residual is over _INEXACT_MARGIN times that cannot be
    accepted, and its y* Newton may stop after one short step (``_newton_y``).
    The A step it gives is an inexact Newton step, whose error is a small
    share of the residual.

    Stops at the first evaluated A with |Psi(A) - A| / (1-q) <= tol, q the
    contraction modulus, which bounds |A - A*|. When the residual stops
    falling first, it has reached the float64 floor: at small tau 1-q is tiny
    and A* large (tau = 1e-3: 1-q ~ 1e-3, one ulp of A* ~ 1e-13), and for
    A* above ~1e5 one ulp of A* alone exceeds an absolute tol of 1e-10. A is
    then accepted if |Psi(A) - A| <= tol + 4 ulp(A), and NonConvergence is
    raised otherwise. Returns A* = Psi(A) as evaluated, exp(-delta*tau) H(A)
    (A plus the residual would round to 0 when Psi(A) < ulp(A)), which is
    within q * |A - A*| of the fixed point, with the y* of that last
    evaluation (y* moves with A by dy*/dA times |Psi(A) - A|, below the
    tolerances); ``iterations`` counts
    evaluations of Psi and ``error_bound`` is |Psi(A) - A| / (1-q), a bound on
    the error of both A and Psi(A). A tau so small that q rounds to 1 raises
    ParameterOutOfRange.
    """
    q_mod = contraction_modulus(p)
    if q_mod >= 1.0:
        raise ParameterOutOfRange("tau is too small to evaluate stably: 1 - q rounds to 0")
    lower, upper = fixed_point_bounds(p)
    a = lower if p.alpha > 0 else upper
    if not math.isfinite(a):
        a = 1.0

    tol = p.tol_fixed_point
    disc = math.exp(-p.evaluation.delta * p.evaluation.tau)
    lo = lower - (tol + DEFAULT_REL_TOL * abs(lower)) if math.isfinite(lower) else 0.0
    hi = upper + (tol + DEFAULT_REL_TOL * abs(upper)) if math.isfinite(upper) else math.inf
    u = _log_y_start(p, a)
    warm = {}
    last_residual = math.inf
    for iterations in range(1, _FIXED_POINT_CAP + 1):
        allowed = tol + _FLOOR_ULPS * math.ulp(a)  # the largest residual either test accepts
        stop = (disc, _INEXACT_MARGIN * allowed)
        h_val, h_slope, y_star, scale, dlog_y = _newton_y(p, a, u, warm, stop)
        psi = disc * h_val
        residual = psi - a
        error_bound = abs(residual) / (1.0 - q_mod)
        if error_bound <= tol:
            break
        if residual > 0.0:
            lo = max(lo, a)
        else:
            hi = min(hi, a)
        a_next = a + residual / (1.0 - disc * h_slope)
        if not lo <= a_next <= hi:
            a_next = a + residual  # Picard step
        if abs(residual) >= last_residual or a_next == a:  # at the float64 floor
            if abs(residual) <= allowed:
                break
            raise NonConvergence(
                f"fixed-point residual stalled at {abs(residual):.3g} > {allowed:.3g}"
            )
        last_residual = abs(residual)
        u = math.log(y_star) + dlog_y * (a_next - a)
        a = a_next
    else:
        raise NonConvergence("fixed-point iteration hit its cap")

    return PowerSolution(
        a_star=psi,  # q times closer to A* than a
        y_star=y_star,
        contraction_modulus=q_mod,
        lower_bound=lower,
        upper_bound=upper,
        iterations=iterations,
        error_bound=error_bound,
        fraction_scale=scale,
        psi_slope=disc * h_slope,
    )


def value_function(sol: PowerSolution, x, alpha: float, gamma: float):
    """V(x) = (1/alpha) * A* * x^(alpha*(1-gamma)) for x > 0."""
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr <= 0.0):
        raise DomainError("value function requires x > 0")
    out = sol.a_star / alpha * x_arr ** (alpha * (1.0 - gamma))
    return float(out) if out.ndim == 0 else out


def _feedback_fractions(cs: ConstrainedSharpe, scale: float) -> np.ndarray:
    """Risky fractions per unit wealth, ``scale`` * (sigma^T)^{-1} xi_tilde.

    ``scale`` is -d log F / d log y, positive in theory; fractions below
    -1e-6 raise NumericalFault.
    """
    fractions = scale * cs.kkt_gradient
    if fractions.min() < -1e-6:
        raise NumericalFault(
            "computed portfolio fractions are negative beyond tolerance"
        )
    return fractions


def intra_period_profile(
    p: PowerProblem, sol: PowerSolution, t: float, z: float
) -> tuple[float, np.ndarray]:
    """Optimal wealth multiplier and portfolio fractions inside a period.

    ``z`` is the intra-period deflator level Z_t/B_t relative to the period
    start. One quadrature pass over the residual deflator R of horizon
    tau - t gives F(y) = E[R I(y R)] and y F'(y) at a = A* and y = y* z. The
    wealth multiplier is F, and the risky fractions are
    -(y F'(y) / F) (sigma^T)^{-1} xi_tilde; for m(z) = z F(y* z) the factor
    equals 1 - z m'(z) / m(z). Fractions are nonnegative in theory; a
    violation beyond 1e-6 raises NumericalFault.
    """
    tau = p.evaluation.tau
    if not 0.0 <= t <= tau:
        raise DomainError("t must lie in [0, tau]")
    if z <= 0.0:
        raise DomainError("deflator level z must be positive")

    law_res = DeflatorLaw.for_horizon(p.xi_tilde_norm_sq, p.market.r, tau - t)
    sums = _period_sums(p, law_res, sol.a_star, sol.y_star * z)
    return float(sums[0]), _feedback_fractions(p.cs, -sums[1] / sums[0])
