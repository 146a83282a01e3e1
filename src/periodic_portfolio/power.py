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
further sums over the nodes that give the values, taken in the same call of
``_period_sums``. With x = I(y * Z/B) at each node:

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
dH'/du = -alpha y dF/da. Each evaluation carries H and H' from the last
point of its y* Newton to y* by these terms. An evaluation whose residual
is well above what acceptance allows stops its y* Newton after the first
short step inside the bracket whose left-out cubic term is small against
the residual, an inexact Newton step in the sense of Dembo, Eisenstat and
Steihaug (SIAM J. Numer. Anal. 19(2), 1982); such an evaluation takes one
call of the sums.

The y* Newton of each A step starts near its root, as in the predictor step
of numerical continuation (Allgower and Georg, Introduction to Numerical
Continuation Methods, SIAM 2003). At the first A it starts from
y0 = x h_a'(x) at log x = r tau + s^2 / (2 (1-alpha)), the root when
a(1-gamma) = 0 (``_log_y_start``); after each step of A it starts from the
tangent of log y* in log A, with d log y*/dA = -(dF/da) / (y F'(y)) by the
implicit-function rule and dF/da = E[(Z/B) dx/da] =
E[-(1-gamma) x^(alpha(1-gamma)) / (y d log h_a'/d log x)] from
differentiating h_a'(x) = y Z/B. That sum rides in the same call.

The sums themselves need no root at the nodes. They run over a uniform grid
in u = log x, where x = I(y Z/B) is given and Z/B follows from x through
the explicit, strictly decreasing L(u) = log h_a'(e^u); the trapezoid rule
on such a grid converges geometrically for this analytic integrand
(Trefethen and Weideman, "The exponentially convergent trapezoidal rule",
SIAM Review 56(3), 2014), so its window and step are fixed a priori from the
law of Z/B (``_period_sums``). Only the Monte Carlo, whose deflator draws are
random, inverts the marginal at each point (``_log_marginal_inverse``).

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
    DomainError,
    NonConvergence,
    NonFinite,
    NumericalFault,
    ParameterOutOfRange,
    QuadratureError,
)
from .market import EvaluationSpec, MarketModel, check_assumption, zeta
from .quadrature import DeflatorLaw, expect_deflator_adaptive

_NEWTON_CAP = 100
# Above this t, log(1 + exp(t)) rounds to t and expit(t) to 1 in float64.
_SOFTPLUS_LINEAR = 36.0
# exp(t) is a positive, finite float64 for t in [_LOG_TINY, _LOG_HUGE]
_LOG_TINY = math.log(math.ulp(0.0))
_LOG_HUGE = math.log(sys.float_info.max)
_FIXED_POINT_CAP = 50
_FLOOR_ULPS = 4  # residual allowance in ulps of A once the residual stops falling
# Relative slack of the fixed point's bracket on the a-priori bounds. The bounds
# are exact closed forms, but Psi and its slope come from the rounded u-grid
# sums, so a Newton step may land just beyond a bound; for gamma = 1 and
# alpha > 0 the upper bound is A* itself.
_BRACKET_REL_SLACK = 1e-10
# guards of the early y* stop of a fixed-point evaluation (``_newton_y``)
_INEXACT_MARGIN = 4.0
_INEXACT_STEP_CAP = 1e-2
_INEXACT_TAYLOR_SHARE = 1e-3
# the u-grid of ``_period_sums``
_POINT_MASS_S = 1e-8  # a law of Z/B with a smaller s is summed as a point mass
_WINDOW_SIGMAS = 12.0  # plus the largest tilt, standard normals on either side of the centre
_GAUSS_STEP = 0.75  # times the narrowest width of the Gaussian in u
_POLE_STEP = 2.0 * math.pi * math.pi / 128.0  # times 1 / (|alpha| gamma)
_MAX_NODES = 2**16  # on each side of the centre
_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(eq=False)
class PowerProblem:
    """Parameter bundle for one power-utility solve.

    Construction validates alpha and the standing well-posedness condition
    delta > max(zeta(alpha*(1-gamma)), 0), both through ``check_assumption``;
    an invalid bundle never exists.
    The tolerances are constants of the solver, not fields: ``tol_root`` on
    the step in log y* and ``tol_fixed_point`` on the residual of A*.
    """

    market: MarketModel
    evaluation: EvaluationSpec
    alpha: float
    cs: ConstrainedSharpe
    tol_root = 1e-10
    tol_fixed_point = 1e-10

    def __post_init__(self):
        check_assumption(self.market, self.evaluation, self.alpha, self.xi_tilde_norm_sq)

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
    min(1, A*) the solve was accepted at the float64 floor of the residual
    instead (see ``fixed_point``). ``fraction_scale`` is -d log F / d log y at
    the last evaluation's y* Newton point: the period-start risky fractions
    are ``fraction_scale`` * (sigma^T)^{-1} xi_tilde. ``psi_slope`` is Psi'(A)
    = exp(-delta*tau) E[I(y* R)^(alpha(1-gamma))] from the same evaluation,
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


def _newton_start(lc: float, p1: float, beta: float, log_y):
    """Larger root of the two lines that bound g from below (see ``marginal_inverse``)."""
    u = log_y / p1
    u_c = log_y - lc
    u_c /= p1 + beta
    return np.maximum(u, u_c, out=u)


def _log_marginal_inverse(a: float, alpha: float, gamma: float, log_y, start=None, scratch=None):
    """u = log I(exp(log_y)) for finite log_y, by Newton in log space.

    The Newton kernel behind ``marginal_inverse``; see its docstring. It
    starts from the two-line bound, or from ``start``, a finite float array
    of ``log_y``'s shape that it overwrites with the result (the Monte Carlo
    passes one interpolated from a table, ``mc._start_table``). g is convex
    and decreasing, so from a start above the root the first step lands at or
    below it, and the iteration converges from any start; the same step test
    ends it either way. Each cell stops after its first step of at most
    ``PowerProblem.tol_root``, and only the cells still moving take the next
    step, so a cell's result does not depend on the other cells of
    ``log_y``. Returns a new array, or ``start``, and leaves ``log_y``
    unchanged; an empty ``log_y`` gives an empty float array. When c == 0 it
    returns log_y / (alpha-1) and ignores ``start`` and ``scratch``.
    ``scratch``, three float arrays of ``log_y``'s shape, takes the steps'
    temporaries while every cell is still moving, so the Monte Carlo's
    blocks allocate none; a step computes the same values either way.
    """
    p1 = alpha - 1.0
    c = a * (1.0 - gamma)
    if c == 0.0:
        return log_y / p1
    beta = -alpha * gamma
    lc = math.log(c)
    tol = PowerProblem.tol_root
    u = _newton_start(lc, p1, beta, log_y) if start is None else start
    # x and ly are the moving cells: all of u and log_y, then copies at the flat indices ``cells``
    x, ly, cells = u, log_y, None
    for _ in range(_NEWTON_CAP):
        t, e, g = scratch if scratch is not None and cells is None else (None, None, None)
        t = np.multiply(x, beta, out=t)
        t += lc
        e = np.minimum(t, _SOFTPLUS_LINEAR, out=e)
        np.exp(e, out=e)
        g = np.log1p(e, out=g)
        np.maximum(g, t, out=g)  # log(1 + exp(t))
        np.multiply(x, p1, out=t)
        g += t
        g -= ly
        np.add(e, 1.0, out=t)
        e /= t  # expit(t)
        e *= beta
        e += p1  # g'(u)
        g /= e  # Newton step
        x -= g
        if cells is not None:
            np.put(u, cells, x)
        # ufunc reductions without ndarray.max's Python-level wrapper; an empty log_y converges at once
        if np.maximum.reduce(np.abs(g, out=g), axis=None, initial=0.0) <= tol:
            return u
        moving = np.flatnonzero(~(g <= tol))  # a NaN step keeps moving, up to the cap
        cells = moving if cells is None else cells[moving]
        x, ly = x.take(moving), ly.take(moving)
    raise NonConvergence("marginal inverse Newton iteration hit its cap")


def marginal_inverse(a: float, alpha: float, gamma: float, y):
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
    the largest step is at most ``PowerProblem.tol_root``. The whole
    iteration runs in log space: ``_log_marginal_inverse`` takes log y and
    returns u, the Monte Carlo calls it directly from a tabulated start, and
    this function returns exp(u).
    log(1 + e^t) is evaluated as max(t, log1p(exp(min(t, 36)))), accurate to
    rounding for every t, and expit(t) reuses its exponential. When c == 0
    (a == 0 or gamma == 1), u = log(y) / (alpha-1) exactly. The period sums
    (``_period_sums``) need no inverse: they sum over a grid in u, where
    each node's x is given.

    An x that would round to 0 raises DomainError and an x that would
    overflow float64 raises NonFinite. An empty y gives an empty float array
    of the same shape.
    """
    y_arr = np.asarray(y, dtype=float)
    scalar = y_arr.ndim == 0
    y_arr = np.atleast_1d(y_arr)
    if np.any(y_arr <= 0.0) or not np.all(np.isfinite(y_arr)):
        raise DomainError("marginal inverse requires finite y > 0")
    u = _log_marginal_inverse(a, alpha, gamma, np.log(y_arr))
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
        lambda z: z * marginal_inverse(a, p.alpha, p.evaluation.gamma, y * z), p.law
    )


def _node_root(p1: float, bend: float, log_c: float, target: float) -> float:
    """The u with L(u) = (alpha-1) u + log(1 + exp(log c - alpha gamma u)) = target, c > 0.

    ``p1`` = alpha - 1 and ``bend`` = alpha gamma. Scalar Newton from the
    start of ``marginal_inverse``, below the root, from where it rises to it.
    """
    u = max(target / p1, (target - log_c) / (p1 - bend))
    for _ in range(_NEWTON_CAP):
        t = log_c - bend * u
        e = math.exp(min(t, _SOFTPLUS_LINEAR))
        step = (p1 * u + max(t, math.log1p(e)) - target) / (p1 - bend * e / (1.0 + e))
        u -= step
        if abs(step) <= 1e-12 * (1.0 + abs(u)):  # quadratic: u is now far closer
            return u
    raise NonConvergence("node Newton iteration hit its cap")


def _period_sums(
    p: PowerProblem, law: DeflatorLaw, a: float, y: float
) -> tuple[float, float, float, float, float]:
    """The sums at (a, y) over x = I(y * Z/B), Z/B ~ ``law``, on a uniform grid in u = log x.

    Returns the floats (F(y), y F'(y), E[phi_a(y Z/B)], H'(a), dF/da), with
    H'(a) = E[x^beta] (envelope theorem), beta = alpha(1-gamma), and
    y F'(y) = E[(Z/B) x / L'(u)] and dF/da = E[-(1-gamma) x^beta / (y L'(u))]
    from differentiating h_a'(x) = y Z/B.

    x = I(y Z/B) means log(Z/B) = L(u) - log y with
    L(u) = log h_a'(e^u) = (alpha-1) u + log(1 + e^t), t = log c - alpha gamma u,
    c = a(1-gamma). L is explicit and strictly decreasing, with
    |L'(u)| = 1 - alpha + alpha gamma expit(t) between 1 - max(alpha, beta) and
    1 - min(alpha, beta). With G = (L(u) - log y - drift) / s, the standard
    normal behind Z/B, E[f] is the integral of f phi(G) |L'(u)| / s du, so
    every node gives its x and no node solves for it.

    The trapezoid rule on a uniform grid converges geometrically for this
    analytic integrand (Trefethen and Weideman, "The exponentially convergent
    trapezoidal rule", SIAM Review 56(3), 2014), so the grid is fixed a
    priori, with no order doubling:

    * it is centred at the root of G = 0, found by a scalar Newton, and
      reaches 12 + k s standard normals either way, 12 for the tails and
      k s for the largest tilt exp(k s G) that a column puts on phi, which
      is at most |alpha| / (1 - max(alpha, beta)) (x^alpha with L' near its
      smallest); with k = max(2, 1 + |alpha| / (1 - max(alpha, beta))) the
      half-width is (12 + k s) s / (1 - max(alpha, beta)) in u;
    * its step is at most 0.75 s / (1 - min(alpha, beta)), 0.75 of the
      narrowest width of the Gaussian in u, for an error near exp(-35), and
      at most 2 pi d / 128, d = pi / (|alpha| gamma) the distance of the poles
      of log(1 + e^t) from the real axis. The poles alone would allow
      2 pi d / 32, an error near exp(-32); the finer step averages down the
      rounding of each node's terms (below).

    G is formed from L(u) - L(u_c), never from two values of L. When
    |alpha gamma| times the half-width is at most 1, that rise is
    (alpha-1)(u - u_c) + log1p(expit(t_c) expm1(t - t_c)), which keeps its
    relative accuracy however small s is. Wider windows write
    log(1 + e^t) = max(t, 0) + log1p(e^-|t|), so the rise is the larger of
    two lines in u - u_c plus a term below log 2. There the lines and t are
    taken at the exact offsets k * step in ``np.longdouble`` and each rounded
    once to float64. In float64 alone, the offsets and the products that
    form t round by ulps of |L|, and the weight exp(-G^2 / 2) turns that into
    per-node errors that grow like s^2: on wide laws, where A* sits at the
    float64 floor and ``fixed_point`` tests its residual to 4 ulps, that
    noise stalled the fixed point. Where numpy's long double is float64 the
    sums keep their accuracy, and only that noise returns.

    Every column is a sum of positive terms, each the exp of its log, and phi
    is assembled from the columns; a column that would leave float64 raises
    NonFinite. A law with s < 1e-8 is a point mass: the sums are the terms at
    the centre. When c = 0 (a = 0 or gamma = 1), L is linear.
    """
    alpha, gamma = p.alpha, p.evaluation.gamma
    beta = alpha * (1.0 - gamma)
    p1, bend = alpha - 1.0, alpha * gamma
    s, drift = law.s, law.drift
    target = math.log(y) + drift  # L(u) at G = 0
    c = a * (1.0 - gamma)
    if c > 0.0:
        log_c = math.log(c)
        u_c = _node_root(p1, bend, log_c, target)
        t_c = log_c - bend * u_c
        e_c = math.exp(min(t_c, _SOFTPLUS_LINEAR))
        expit_c = e_c / (1.0 + e_c)
    else:
        u_c, expit_c = target / p1, 0.0
    if s < _POINT_MASS_S:
        slope = bend * expit_c - p1
        u, rise, log_w = np.array([u_c]), 0.0, -math.log(slope)
    else:
        step = _GAUSS_STEP * s / (1.0 - min(alpha, beta))
        if c > 0.0 and bend != 0.0:  # alpha gamma can round to 0, and then L has no poles
            step = min(step, _POLE_STEP / abs(bend))
        tilt = max(2.0, 1.0 + abs(alpha) / (1.0 - max(alpha, beta)))
        half = (_WINDOW_SIGMAS + tilt * s) * s / (1.0 - max(alpha, beta))
        if not half <= _MAX_NODES * step:
            raise QuadratureError(f"the law of Z/B is too wide for the u-grid: s = {s:.6g}")
        k = np.arange(-math.ceil(half / step), math.ceil(half / step) + 1.0)
        v = k * step  # u - u_c
        if c > 0.0 and abs(bend) * half <= 1.0:
            # t - t_c is within about 1 here, so the rise of log(1 + e^t), log1p(expit(t_c) expm1(t - t_c)),
            # keeps its relative accuracy however small s is
            e = v * -bend
            np.expm1(e, out=e)
            rise = e * expit_c
            slope = rise + 1.0
            e += 1.0
            e *= bend * expit_c
            e /= slope
            slope = np.subtract(e, p1, out=e)
            np.log1p(rise, out=rise)
            rise += p1 * v
        else:
            # the rise and t at the exact offsets k * step, each rounded once (see the docstring)
            exact = np.multiply(k, step, dtype=np.longdouble)
            if c == 0.0:
                rise, slope = (p1 * exact).astype(float), -p1  # L(u) - L(u_c) and |L'(u)|
            else:
                # log(1 + e^t) = max(t, 0) + log1p(e^-|t|): two lines in u - u_c and a term below log 2
                if t_c >= 0.0:
                    line = np.maximum((p1 - bend) * exact, p1 * exact - t_c)
                else:
                    line = np.maximum((p1 - bend) * exact + t_c, p1 * exact)
                exact *= -bend
                exact += t_c
                t = exact.astype(float)
                e = np.copysign(t, -1.0)  # -|t|
                np.exp(e, out=e)
                np.log1p(e, out=e)
                e -= math.log1p(math.exp(-abs(t_c)))
                line += e
                rise = line.astype(float)
                slope = np.multiply(t, 0.5, out=t)
                np.tanh(slope, out=slope)  # expit(t) = (1 + tanh(t/2)) / 2
                slope *= 0.5 * bend
                slope += 0.5 * bend - p1
        log_w = rise * rise  # the weight step phi(G) / s, in logs
        log_w *= -0.5 / (s * s)
        log_w += math.log(step / (s * _SQRT_2PI))
        u = v
        u += u_c
    # the log terms of E[x^beta/|L'|], E[zx/|L'|], F = E[zx], E[x^alpha] and H' = E[x^beta];
    # the Jacobian |L'| cancels in the first two
    terms = np.multiply.outer(np.array([beta, 1.0, 1.0, alpha, beta]), u)
    terms[1:3] += rise + drift  # log zx = u + L(u) - log y
    terms += log_w
    terms[2:] += np.log(slope)
    if np.maximum.reduce(terms, axis=None) > _LOG_HUGE - math.log(u.size):
        raise NonFinite(f"a period sum overflows at a={a:.6g}, y={y:.6g}")
    np.exp(terms, out=terms)
    xb_el, zx_el, zx, xa, xb = np.add.reduce(terms, axis=1).tolist()
    return zx, -zx_el, (xa + a * xb) / alpha - y * zx, xb, (1.0 - gamma) / y * xb_el


def _newton_y(p: PowerProblem, a: float, u: float, stop: tuple[float, float] | None = None):
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
    taken from the ``_period_sums`` at y_k. A y that would overflow or round
    to 0, and a budget or budget slope that underflows to 0, raise NonFinite.

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
        sums = _period_sums(p, law, a, y)
        f, yf = sums[0], sums[1]
        if not f > 0.0 or yf == 0.0:
            raise NonFinite(f"budget underflowed to zero at y={y:.6g}")
        g = math.log(f)
        if g > 0.0:
            lo = u
        elif g < 0.0:
            hi = u
        u_next = u - g * f / yf if g else u  # at the root, whatever the slope
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
                return h_val, h_slope, _exp_log_y(u_next), -yf / f, -sums[4] / yf
        u = u_next
    raise NonConvergence("y* Newton iteration hit its cap")


def _carry_to(p: PowerProblem, y: float, sums: tuple[float, ...], s: float):
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
    return h_val, sums[3] - alpha_y * sums[4] * s, h_uu


def _exp_log_y(u: float) -> float:
    """y = e^u; NonFinite where y would overflow or round to 0."""
    if u > _LOG_HUGE or u < _LOG_TINY:
        raise NonFinite(f"y* Newton left the float64 range at log y = {u:.6g}")
    return math.exp(u)


def _log_y_start(p: PowerProblem, a: float) -> float:
    """A start for log y*: log(x h_a'(x)) at log x = r tau + s^2 / (2 (1-alpha)).

    y = x h_a'(x) = x^alpha (1 + c x^(-alpha gamma)), c = a(1-gamma), in log
    space. That log x is the root for c = 0 exactly: there the budget is the
    lognormal moment y^(1/(alpha-1)) E[(Z/B)^(alpha/(alpha-1))] = 1, so
    log y* = alpha (r tau + s^2 / (2 (1-alpha))). For s = 0 it is the root
    for a deterministic deflator, x = e^{r tau}.
    """
    alpha, gamma = p.alpha, p.evaluation.gamma
    log_x = p.market.r * p.evaluation.tau + 0.5 * p.law.s**2 / (1.0 - alpha)
    c = a * (1.0 - gamma)
    if c <= 0.0:
        return alpha * log_x
    t = math.log(c) - alpha * gamma * log_x
    softplus = t + math.log1p(math.exp(-t)) if t > 0.0 else math.log1p(math.exp(t))  # log(1 + e^t)
    return alpha * log_x + softplus


def contraction_map(p: PowerProblem, a: float) -> float:
    """Psi(a) = exp(-delta*tau) * H(a); a contraction under well-posedness.

    H(a) = alpha * (V_dual(y*) + y*) is the one-period optimum under h_a;
    its y* Newton starts from ``_log_y_start``. A negative a raises
    DomainError.
    """
    if a < 0.0:
        raise DomainError("the contraction map requires a >= 0")
    return math.exp(-p.evaluation.delta * p.evaluation.tau) * _newton_y(p, a, _log_y_start(p, a))[0]


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
    alpha in (0,1) and alpha < 0. Every ``PowerProblem`` passed
    ``check_assumption``, so both decays are positive: the optimum's is
    delta - zeta(alpha(1-gamma)) > 0, and the bond's, delta - r alpha(1-gamma),
    is at least delta for alpha < 0 and at least delta - zeta(alpha(1-gamma))
    for alpha in (0,1), where zeta(x) >= r x. A side beyond float64 is inf,
    whichever operation leaves the range: the exponential, the division, or a
    denominator that rounds to 0 when decay * tau underflows.
    """
    r, tau, delta = p.market.r, p.evaluation.tau, p.evaluation.delta
    alpha, gamma = p.alpha, p.evaluation.gamma
    q = p.xi_tilde_norm_sq
    za = zeta(alpha, r, q)
    z2 = zeta(alpha * (1.0 - gamma), r, q)

    def term(growth, decay):
        try:
            return math.exp((growth - delta) * tau) / -math.expm1(-decay * tau)
        except (OverflowError, ZeroDivisionError):
            return math.inf

    term_bond = term(r * alpha, delta - r * alpha * (1.0 - gamma))
    term_opt = term(za, delta - z2)
    if alpha > 0:
        return term_bond, term_opt
    return term_opt, term_bond


def fixed_point(p: PowerProblem) -> PowerSolution:
    """Solve A = Psi(A) by safeguarded Newton on G(A) = A - Psi(A).

    Each evaluation of Psi also returns Psi'(A) = exp(-delta*tau) * H'(A) with
    H'(A) = E[I(y* R)^(alpha(1-gamma))] (envelope theorem), so the Newton
    step costs no extra solve. For every alpha the Newton starts at the lower
    a-priori bound. G is increasing (Psi' <= q < 1), so this is the monotone
    Newton for convex and concave maps (Ortega and Rheinboldt, Iterative
    Solution of Nonlinear Equations in Several Variables, 1970). For alpha in
    (0,1) H is convex in A and G concave, and the iterates rise to A* from
    below. For alpha < 0 H is concave and G convex: the tangent of Psi lies
    above Psi, so the first step lands at or above A*, and the iterates then
    fall to A*. A* >= the lower bound, so a lower bound beyond float64 raises
    NonFinite. The a-priori bounds, each widened by tol + _BRACKET_REL_SLACK *
    bound (Psi comes from rounded sums, and for gamma = 1 and alpha > 0 the
    upper bound is A* itself) and narrowed by the sign of every residual, are
    kept as a bracket, open above where the upper bound is inf, and a Newton
    step that leaves it is replaced by the Picard step A -> Psi(A). The lower
    end is never below half the lower bound, however small that bound is
    against tol, so no A evaluated is negative; the first A is 0 where the
    lower bound underflows.

    Each evaluation's y* Newton starts near its root: at the first A from
    ``_log_y_start``, and after each step from A to A' on the tangent of
    log y* in log A taken by the previous evaluation, log y* + (d log y*/dA)
    A log(A'/A). For large A, y* grows like a power of A, so this tangent
    holds over a step of many decades, where the tangent in A would leave
    float64 (a step from 1087.8 to 906962 put it at log y = 838.9, against
    log y* = 13.66); where A = 0 or A'/A leaves float64 it is taken in A,
    log y* + (d log y*/dA)(A' - A). Each evaluation sums over its own
    a-priori u-grid (``_period_sums``), so it carries nothing else from the
    last.

    Only the accepted evaluation needs y* to ``tol_root``. Both acceptance
    tests below need |Psi(A) - A| <= tol min(1, A) + 4 ulp(A), to a factor
    1 + tol (1-q < 1, and Psi(A) <= A + |Psi(A) - A|), so an evaluation whose
    residual is over _INEXACT_MARGIN times that cannot be accepted, and its y*
    Newton may stop after one short step (``_newton_y``). The A step it gives
    is an inexact Newton step, whose error is a small share of the residual.

    Stops at the first evaluated A with |Psi(A) - A| / (1-q) <=
    tol min(1, Psi(A)), q the contraction modulus: the left side bounds
    |A - A*|, so an A* below 1 is known to tol relative, however far below the
    absolute tol it lies. When the residual stops falling first, it has
    reached the float64 floor: at small tau 1-q is tiny and A* large
    (tau = 1e-3: 1-q ~ 1e-3, one ulp of A* ~ 1e-13), and for A* above ~1e5 one
    ulp of A* alone exceeds an absolute tol of 1e-10. A is then accepted if
    |Psi(A) - A| <= tol min(1, A) + 4 ulp(A), and NonConvergence is raised
    otherwise. Returns A* = Psi(A) as evaluated, exp(-delta*tau) H(A) (A plus
    the residual would round to 0 when Psi(A) < ulp(A)), which is within
    q * |A - A*| of the fixed point, with the y* of that last evaluation (y*
    moves with A by dy*/dA times |Psi(A) - A|, below the tolerances);
    ``iterations`` counts evaluations of Psi and ``error_bound`` is
    |Psi(A) - A| / (1-q), a bound on the error of both A and Psi(A). A tau so
    small that q rounds to 1 raises ParameterOutOfRange, and a Psi(A) that
    underflows to 0 (A* below float64) NonFinite.
    """
    q_mod = contraction_modulus(p)
    if q_mod >= 1.0:
        raise ParameterOutOfRange("tau is too small to evaluate stably: 1 - q rounds to 0")
    lower, upper = fixed_point_bounds(p)
    if lower == math.inf:
        raise NonFinite(f"A* overflows float64 at tau={p.evaluation.tau:.6g}: its a-priori lower bound does")
    a = lower

    tol = p.tol_fixed_point
    disc = math.exp(-p.evaluation.delta * p.evaluation.tau)
    lo = max(lower - (tol + _BRACKET_REL_SLACK * lower), 0.5 * lower)
    hi = upper + (tol + _BRACKET_REL_SLACK * upper)
    u = _log_y_start(p, a)
    last_residual = math.inf
    for iterations in range(1, _FIXED_POINT_CAP + 1):
        allowed = tol * min(1.0, a) + _FLOOR_ULPS * math.ulp(a)  # the largest residual either test accepts
        stop = (disc, _INEXACT_MARGIN * allowed)
        h_val, h_slope, y_star, scale, dlog_y = _newton_y(p, a, u, stop)
        psi = disc * h_val
        if not psi > 0.0:
            raise NonFinite(f"A* underflows float64 at tau={p.evaluation.tau:.6g}")
        residual = psi - a
        error_bound = abs(residual) / (1.0 - q_mod)
        if error_bound <= tol * min(1.0, psi):
            break
        if residual > 0.0:
            lo = max(lo, a)
        else:
            hi = min(hi, a)
        a_next = a + residual / (1.0 - disc * h_slope)
        if not lo <= a_next <= hi:
            a_next = psi  # the Picard step, which a + residual would round to 0 when psi < ulp(a)
        if abs(residual) >= last_residual or a_next == a:  # at the float64 floor
            if abs(residual) <= allowed:
                break
            raise NonConvergence(
                f"fixed-point residual stalled at {abs(residual):.3g} > {allowed:.3g}"
            )
        last_residual = abs(residual)
        ratio = a_next / a if a > 0.0 else 0.0
        if 0.0 < ratio < math.inf:  # the tangent in log A: for large A, y* grows like a power of A
            u = math.log(y_star) + dlog_y * a * math.log(ratio)
        else:  # A = 0, or A steps across more than float64's range
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
    """V(x) = (1/alpha) * A* * x^(alpha*(1-gamma)) for x > 0, a float.

    x, such as a configuration's x0, is taken as a float and computed in
    floats. Where the power x^beta and the product are both normal floats,
    V is that product, with libm's pow. Otherwise the power alone may leave
    float64 while V fits, so V is formed from log|V| = log A* - log|alpha| +
    beta log x. A V beyond float64 raises NonFinite ("overflows"), and so
    does one below its normal range ("underflows"): a subnormal or zero V
    has lost the digits that the report prints.
    """
    x = float(x)
    if x <= 0.0:
        raise DomainError("value function requires x > 0")
    beta = alpha * (1.0 - gamma)
    try:
        power = x**beta
    except OverflowError:
        power = math.inf
    v = sol.a_star / alpha * power
    if _is_normal(power) and _is_normal(v):
        return v
    try:
        v = math.exp(math.log(sol.a_star) - math.log(abs(alpha)) + beta * math.log(x))
    except OverflowError:
        raise NonFinite(f"V(x) overflows float64 at x={x:.6g}") from None
    if not _is_normal(v):
        raise NonFinite(f"V(x) underflows float64 at x={x:.6g}")
    return math.copysign(v, alpha)


def _is_normal(v: float) -> bool:
    """Whether v is a normal float64: finite, nonzero and not subnormal."""
    return sys.float_info.min <= abs(v) < math.inf


def _feedback_fractions(cs: ConstrainedSharpe, scale: float) -> np.ndarray:
    """Risky fractions per unit wealth, ``scale`` * (sigma^T)^{-1} xi_tilde.

    ``scale`` is -d log F / d log y, positive in theory; fractions below
    -1e-6 raise NumericalFault.
    """
    fractions = scale * cs.kkt_gradient
    if np.minimum.reduce(fractions) < -1e-6:
        raise NumericalFault(
            "computed portfolio fractions are negative beyond tolerance"
        )
    return fractions


def intra_period_profile(
    p: PowerProblem, sol: PowerSolution, t: float, z: float
) -> tuple[float, np.ndarray]:
    """Optimal wealth multiplier and portfolio fractions inside a period.

    ``z`` is the intra-period deflator level Z_t/B_t relative to the period
    start. One ``_period_sums`` call over the residual deflator R of horizon
    tau - t gives F(y) = E[R I(y R)] and y F'(y) at a = A* and y = y* z (a
    point mass at t = tau, and NonFinite if y* z leaves float64). The
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
    y = sol.y_star * z
    if not 0.0 < y < math.inf:
        raise NonFinite(f"y* z leaves the float64 range at z = {z:.6g}")
    f, yf, *_ = _period_sums(p, law_res, sol.a_star, y)
    if not f > 0.0:
        raise NonFinite(f"budget underflowed to zero at y={y:.6g}")
    return f, _feedback_fractions(p.cs, -yf / f)
