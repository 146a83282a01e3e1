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

* y* solves log F(u) = log budget in u = log y, F(y) = E[(Z/B) x], with
  y F'(y) = E[(Z/B) x / (d log h_a'/d log x)] (inverse-function rule);
* A* solves G(A) = A - exp(-delta*tau) H(A) = 0 with
  H'(a) = E[x^(alpha(1-gamma))] at y*(a) (envelope theorem: Milgrom and
  Segal, Econometrica 70(2), 2002).

Each Newton iteration keeps a sign bracket and falls back to bisection (y*)
or to the Picard step A -> Psi(A) (A*) when a step leaves it.

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
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

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
from .quadrature import DEFAULT_REL_TOL, DeflatorLaw, expect_deflator_adaptive

_NEWTON_CAP = 100
# Above this t, log(1 + exp(t)) rounds to t and expit(t) to 1 in float64.
_SOFTPLUS_LINEAR = 36.0
_FIXED_POINT_CAP = 50
_FLOOR_ULPS = 4  # residual allowance in ulps of A once the residual stops falling
# Quadrature acceptance for the derivative sums, which only steer Newton:
# the value sums keep DEFAULT_REL_TOL, and a looser slope tolerance keeps the
# slopes from escalating the order past the one the values need (on wide laws,
# s ~ 10, order 512 puts x = I(y Z/B) beyond float64 at the outer nodes).
_SLOPE_REL_TOL = 1e-6
_PERIOD_SUMS_REL_TOL = np.array([DEFAULT_REL_TOL, _SLOPE_REL_TOL, DEFAULT_REL_TOL, _SLOPE_REL_TOL])


@dataclass(eq=False)
class PowerProblem:
    """Parameter bundle for one power-utility solve.

    Construction validates alpha and the standing well-posedness condition
    delta > max(zeta(alpha*(1-gamma)), 0); an invalid bundle never exists.
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

    @property
    def law(self) -> DeflatorLaw:
        """Lognormal law of Z/B over one full evaluation period."""
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
    ``fraction_scale`` * (sigma^T)^{-1} xi_tilde.
    """

    a_star: float
    y_star: float
    contraction_modulus: float
    lower_bound: float
    upper_bound: float
    iterations: int
    error_bound: float
    fraction_scale: float


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


def _log_marginal_inverse(a: float, alpha: float, gamma: float, log_y, tol: float):
    """u = log I(exp(log_y)) for finite log_y, by Newton in log space.

    The Newton kernel behind ``marginal_inverse``; see its docstring. Returns
    a new array and leaves ``log_y`` unchanged.
    """
    p1 = alpha - 1.0
    c = a * (1.0 - gamma)
    if c == 0.0:
        return log_y / p1
    beta = -alpha * gamma
    lc = math.log(c)
    u = _newton_start(lc, p1, beta, log_y)
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
        if np.abs(g, out=g).max() <= tol:
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
    Carlo calls it directly, and this function returns exp(u). log(1 + e^t)
    is evaluated as max(t, log1p(exp(min(t, 36)))), accurate to rounding for
    every t, and expit(t) reuses its exponential. When c == 0
    (a == 0 or gamma == 1), u = log(y) / (alpha-1) exactly.
    """
    y_arr = np.asarray(y, dtype=float)
    scalar = y_arr.ndim == 0
    y_arr = np.atleast_1d(y_arr)
    if np.any(y_arr <= 0.0) or not np.all(np.isfinite(y_arr)):
        raise DomainError("marginal inverse requires finite y > 0")
    x = np.exp(_log_marginal_inverse(a, alpha, gamma, np.log(y_arr), tol))
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


def _marginal_elasticity(a: float, alpha: float, gamma: float, x):
    """d log h_a'(x) / d log x, a weighted mean of alpha-1 and alpha(1-gamma)-1."""
    c = a * (1.0 - gamma)
    if c == 0.0:
        return alpha - 1.0
    return (alpha - 1.0) - alpha * gamma * expit(math.log(c) - alpha * gamma * np.log(x))


def _period_sums(p: PowerProblem, law: DeflatorLaw, a: float, y: float) -> np.ndarray:
    """One quadrature pass at (a, y) over the nodes x = I(y * Z/B), Z/B ~ ``law``.

    Returns [F(y), y F'(y), E[phi_a(y Z/B)], E[x^(alpha(1-gamma))]]. The slope
    uses dx/dlog y = x / (d log h_a'/d log x), so it stays finite wherever F
    does; the last entry is H'(a) by the envelope theorem.
    """
    alpha, gamma = p.alpha, p.evaluation.gamma
    beta = alpha * (1.0 - gamma)

    def integrand(z):
        x = marginal_inverse(a, alpha, gamma, y * z, p.tol_root)
        zx = z * x
        return np.stack(
            [
                zx,
                zx / _marginal_elasticity(a, alpha, gamma, x),
                moderated_utility(a, alpha, gamma, x) - y * zx,
                x**beta,
            ]
        )

    return expect_deflator_adaptive(
        integrand, law, order=p.quad_order, rel_tol=_PERIOD_SUMS_REL_TOL
    )


def _newton_y(p: PowerProblem, a: float, budget: float, hint: float | None):
    """Safeguarded Newton on log F(u) = log budget in u = log y.

    Returns (y*, y_k, sums): y* is y_k moved by the last step, and ``sums``
    are the ``_period_sums`` taken at y_k.
    """
    if budget <= 0.0:
        raise DomainError("budget must be positive")
    log_budget = math.log(budget)
    # with beta = alpha(1-gamma), d log F / d log y lies in
    # [-1/(1-max(alpha,beta)), -1/(1-min(alpha,beta))]
    safe_scale = 1.0 - max(p.alpha, p.alpha * (1.0 - p.evaluation.gamma))
    u = math.log(hint) if (hint is not None and hint > 0.0) else 0.0
    lo, hi = -math.inf, math.inf
    for _ in range(_NEWTON_CAP):
        y = math.exp(u)
        sums = _period_sums(p, p.law, a, y)
        if not sums[0] > 0.0:
            raise NonFinite(f"budget underflowed to zero at y={y:.6g}")
        g = math.log(sums[0]) - log_budget
        if g == 0.0:
            return y, y, sums
        if g > 0.0:
            lo = u
        else:
            hi = u
        u_next = u - g * sums[0] / sums[1]
        if not lo < u_next < hi:  # left the sign bracket, or the slope is not finite
            if math.isfinite(lo) and math.isfinite(hi):
                u_next = 0.5 * (lo + hi)
            else:  # a step this short cannot pass the root
                u_next = u + g * safe_scale
        if abs(u_next - u) <= p.tol_root:
            return math.exp(u_next), y, sums
        u = u_next
    raise NonConvergence("y* Newton iteration hit its cap")


def solve_y_star(
    p: PowerProblem, a: float, budget: float = 1.0, hint: float | None = None
) -> float:
    """Root of F(y) = budget by safeguarded Newton in u = log y.

    Starting from ``hint`` (default 1), each step solves log F(u) = log budget
    with the exact slope d log F / du = y F'(y) / F(y), where
    y F'(y) = E[(Z/B) x / (d log h_a'/d log x)] at x = I(y Z/B) is a second
    sum over the nodes that give F. Evaluated points keep a sign bracket; a
    Newton step that leaves it, or is not finite, is replaced by bisection in
    u (or, while one side is still open, by a step of g * (1 - max(alpha,
    alpha(1-gamma))), which the slope bound keeps short of the root). Stops
    once a step in u is at most ``tol_root`` and returns y after that step.
    """
    return _newton_y(p, a, budget, hint)[0]


def _value_and_y(p: PowerProblem, a: float, hint: float | None = None):
    """H(a), H'(a), y*(a) and -d log F / d log y from the last y* Newton evaluation.

    H = alpha * (E[phi_a(y R)] + y) is stationary in y at y*, so taking it at
    the evaluation point y_k of the last (accepted) step costs only the square
    of that step.
    """
    y_star, y_eval, sums = _newton_y(p, a, 1.0, hint)
    h_val, h_slope = float(p.alpha * (sums[2] + y_eval)), float(sums[3])
    return h_val, h_slope, y_star, float(-sums[1] / sums[0])


def moderated_value(p: PowerProblem, a: float) -> float:
    """H(a) = alpha * (V_dual(y*) + y*), the one-period optimum under h_a."""
    return _value_and_y(p, a)[0]


def contraction_map(p: PowerProblem, a: float) -> float:
    """Psi(a) = exp(-delta*tau) * H(a); a contraction under well-posedness."""
    return math.exp(-p.evaluation.delta * p.evaluation.tau) * moderated_value(p, a)


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
    """
    r, tau, delta = p.market.r, p.evaluation.tau, p.evaluation.delta
    alpha, gamma = p.alpha, p.evaluation.gamma
    q = p.xi_tilde_norm_sq
    za = zeta(alpha, r, q)
    z2 = zeta(alpha * (1.0 - gamma), r, q)

    def term(growth, decay):
        if decay <= 0.0:
            return float("nan")
        return math.exp((growth - delta) * tau) / (-math.expm1(-decay * tau))

    term_bond = term(r * alpha, delta - r * alpha * (1.0 - gamma))
    term_opt = term(za, delta - z2)
    if alpha > 0:
        return term_bond, term_opt
    return term_opt, term_bond


def fixed_point(p: PowerProblem, start: float | None = None) -> PowerSolution:
    """Solve A = Psi(A) by safeguarded Newton on G(A) = A - Psi(A).

    Each evaluation of Psi also returns Psi'(A) = exp(-delta*tau) * H'(A) with
    H'(A) = E[I(y* R)^(alpha(1-gamma))] (envelope theorem), so the Newton
    step costs no extra solve. H is convex in A for alpha in (0,1) and concave
    for alpha < 0; starting from the lower (resp. upper) a-priori bound makes
    the Newton iterates approach A* from one side. The a-priori bounds,
    widened by ``tol_fixed_point`` and narrowed by the sign of every residual,
    are kept as a bracket, and a Newton step that leaves it is replaced by the
    Picard step A -> Psi(A).

    Stops at the first evaluated A with |Psi(A) - A| / (1-q) <= tol, q the
    contraction modulus, which bounds |A - A*|. When the residual stops
    falling first, it has reached the float64 floor: at small tau 1-q is tiny
    and A* large (tau = 1e-3: 1-q ~ 1e-3, one ulp of A* ~ 1e-13), and for
    A* above ~1e5 one ulp of A* alone exceeds an absolute tol of 1e-10. A is
    then accepted if |Psi(A) - A| <= tol + 4 ulp(A), and NonConvergence is
    raised otherwise. Returns A* = Psi(A), which is within q * |A - A*| of
    the fixed point, with the y* of that last evaluation (y* moves with A by
    dy*/dA times |Psi(A) - A|, below the tolerances); ``iterations`` counts
    evaluations of Psi and ``error_bound`` is |Psi(A) - A| / (1-q), a bound on
    the error of both A and Psi(A).
    """
    q_mod = contraction_modulus(p)
    lower, upper = fixed_point_bounds(p)
    if start is None:
        start = lower if p.alpha > 0 else upper
        if not np.isfinite(start):
            start = 1.0
    if start < 0:
        raise DomainError("fixed-point start must be nonnegative")

    tol = p.tol_fixed_point
    disc = math.exp(-p.evaluation.delta * p.evaluation.tau)
    lo = lower - tol if np.isfinite(lower) else 0.0
    hi = upper + tol if np.isfinite(upper) else math.inf
    a = float(start)
    y_star = None
    last_residual = math.inf
    for iterations in range(1, _FIXED_POINT_CAP + 1):
        h_val, h_slope, y_star, scale = _value_and_y(p, a, y_star)
        residual = disc * h_val - a
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
            allowed = tol + _FLOOR_ULPS * math.ulp(a)
            if abs(residual) <= allowed:
                break
            raise NonConvergence(
                f"fixed-point residual stalled at {abs(residual):.3g} > {allowed:.3g}"
            )
        last_residual = abs(residual)
        a = a_next
    else:
        raise NonConvergence("fixed-point iteration hit its cap")

    return PowerSolution(
        a_star=a + residual,  # Psi(a): q times closer to A* than a
        y_star=y_star,
        contraction_modulus=q_mod,
        lower_bound=lower,
        upper_bound=upper,
        iterations=iterations,
        error_bound=error_bound,
        fraction_scale=scale,
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
