"""Optimal evaluation-period length: one tau objective, one condition function, one search.

The objective is V(x0; tau), the value at initial wealth x0 when performance
is evaluated every tau years, or V(x0; tau) * tau (the scaled objective;
for power utility with gamma = 1, |alpha| V tau, which has the same argmax).
``tau_objective`` is its one definition: closed form for log utility
(V = A*(tau) + C*(tau) log x0) and for power utility with gamma = 1, and the
fixed point A*(tau) for power utility with gamma < 1. It checks x0 once, when
it is built: x0 > 0 wherever the objective depends on x0.

``_condition`` states the three propositions that give a sufficient condition
for an optimal period length tau*: power utility with gamma = 1 on the scaled
objective, log utility on the value, and log utility on the scaled value. It
says whether the condition holds, with the detail the report prints, or that
no proposition covers the configuration.

``optimal_tau`` is the one search. When the condition holds, it runs
geometric bracket expansion followed by golden-section to a relative tau
tolerance of 1e-8, and the maximizer carries a local certificate: the
objective does not improve at tau* * (1 +/- 1e-3). Otherwise a cap on tau
gives the capped search: the best of 257 evenly spaced points on (0, cap],
refined by golden section when it is interior. Without a cap there is no
tau*.

The closed forms also evaluate the capped search's 257 points in one numpy
expression (``TauObjective.grid``). numpy's ``exp`` and ``expm1`` may differ
from the ``math`` ones by a few ulps, so only the grid's argmax is read from
it: the reported point is evaluated again on the scalar path, as are
golden section, the bracket expansion and the certificate, and tau* and its
objective keep the scalar path's bits. A grid that leaves the closed form's
normal range is evaluated point by point on the scalar path instead.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .cone import ConstrainedSharpe
from .config import ProblemConfig
from .errors import DomainError, NonConvergence, NonFinite
from .logutil import _MAX_DELTA_TAU, _MIN_DELTA_TAU, _log_coefficients
from .market import EvaluationSpec, MarketModel, zeta
from .power import PowerProblem, fixed_point, value_function
from .report import _build

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_REL_TOL = 1e-8
_CAP_POINTS = 257  # grid points of the capped search on (0, cap]
_EXPAND_CAP = 60
_CERT_SHIFT = 1e-3


@dataclass
class TauSearchResult:
    condition_holds: bool
    condition_detail: str
    tau_star: float | None
    objective_at_star: float
    objective_kind: str  # 'value' or 'scaled_value'


@dataclass(frozen=True, eq=False)
class TauObjective:
    """V(x0; tau) of one configuration as a function of tau, times tau if ``scaled``.

    Built by ``tau_objective``. It holds the market and its cone projection,
    computed once for every tau, for log utility log x0, and for power
    utility the problem validated at the configured tau. Log utility and
    power utility with gamma = 1 are closed forms in tau; power utility with
    gamma < 1 solves its fixed point at each tau. Where the gamma = 1 closed
    form overflows float64 it raises NonFinite. For power utility with
    gamma = 1 the scaled objective is sign(alpha) A*(tau) tau = |alpha| V tau:
    the same argmax as V tau, without the division by alpha.
    """

    cfg: ProblemConfig
    scaled: bool
    market: MarketModel
    cs: ConstrainedSharpe
    problem: PowerProblem | None
    log_x0: float | None  # log x0, for log utility

    def __call__(self, tau: float) -> float:
        cfg = self.cfg
        if cfg.utility == "log":
            growth = self.market.r + 0.5 * self.cs.objective
            a_star, c_star = _log_coefficients(growth, tau, cfg.gamma, cfg.delta)
            value = a_star + c_star * self.log_x0
        elif cfg.gamma == 1.0:
            # A*(tau)*tau = exp((zeta(alpha)-delta)*tau) * tau / (1 - exp(-delta*tau)),
            # and V = A*/alpha, since x0^(alpha(1-gamma)) = 1
            za = zeta(cfg.alpha, self.market.r, self.cs.objective)
            try:
                growth = math.exp((za - cfg.delta) * tau)
            except OverflowError:
                growth = math.inf
            scaled_a = growth * tau / (-math.expm1(-cfg.delta * tau))
            value = math.copysign(scaled_a, cfg.alpha) if self.scaled else scaled_a / tau / cfg.alpha
            if not math.isfinite(value):
                raise NonFinite(f"the gamma = 1 objective overflows at tau={tau:.6g}")
            return value
        else:
            evaluation = EvaluationSpec(tau, cfg.gamma, cfg.delta)
            sol = fixed_point(dataclasses.replace(self.problem, evaluation=evaluation))
            value = value_function(sol, cfg.x0, cfg.alpha, cfg.gamma)
        return value * tau if self.scaled else value

    def grid(self, taus: np.ndarray) -> np.ndarray | None:
        """The closed form at every point of ``taus``, in one numpy expression.

        The same arithmetic as ``__call__``, within a few ulps of it. None
        when the objective has no closed form (power utility, gamma < 1) or
        when a point leaves the closed form's normal range, where
        ``__call__`` takes another branch or raises: delta*tau < 1e-12, a log
        utility delta*tau > 350, or a value that is not finite.
        """
        cfg = self.cfg
        if cfg.utility == "power" and cfg.gamma < 1.0:
            return None
        u = cfg.delta * taus
        if u.min() < _MIN_DELTA_TAU:
            return None
        with np.errstate(over="ignore", invalid="ignore"):
            if cfg.utility == "log":
                if u.max() > _MAX_DELTA_TAU:
                    return None
                em1 = np.expm1(u)
                value = (em1 + (1.0 - cfg.gamma)) / (em1 * em1)
                value *= self.market.r + 0.5 * self.cs.objective
                value *= taus
                value += (1.0 - cfg.gamma) / em1 * self.log_x0
                if self.scaled:
                    value *= taus
            else:
                za = zeta(cfg.alpha, self.market.r, self.cs.objective)
                value = np.exp((za - cfg.delta) * taus)
                value *= taus
                value /= -np.expm1(-u)
                if self.scaled:
                    value *= math.copysign(1.0, cfg.alpha)
                else:
                    value /= taus
                    value /= cfg.alpha
        return value if np.isfinite(value).all() else None


def tau_objective(cfg: ProblemConfig, scaled: bool) -> TauObjective:
    """The tau objective of ``cfg``: V(x0; tau), times tau when ``scaled``.

    Validates the market and the evaluation, and for power utility alpha and
    well-posedness, which do not depend on tau, in the order ``solve`` does.
    Then, when the objective depends on x0 (log utility, or power utility
    with gamma < 1), it checks x0 > 0.
    """
    market, _, cs, problem = _build(cfg)
    if cfg.x0 <= 0.0 and (cfg.utility == "log" or cfg.gamma < 1.0):
        raise DomainError("value function requires x > 0")
    log_x0 = float(np.log(cfg.x0)) if cfg.utility == "log" else None
    return TauObjective(cfg, scaled, market, cs, problem, log_x0)


def _golden_max(f, lo: float, hi: float) -> tuple[float, float]:
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while (b - a) > _REL_TOL * (abs(a) + abs(b)) * 0.5:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
    x = 0.5 * (a + b)
    return x, f(x)


def _maximize(f, lo: float, hi: float) -> tuple[float, float]:
    """Expand a geometric grid until the best point is interior, then refine."""
    pts = [lo]
    while pts[-1] < hi:
        pts.append(min(pts[-1] * 2.0, hi))
    vals = [f(t) for t in pts]

    def argmax():
        return max(range(len(pts)), key=vals.__getitem__)

    for _ in range(_EXPAND_CAP):
        if argmax() != len(pts) - 1:
            break
        pts.append(pts[-1] * 2.0)
        vals.append(f(pts[-1]))
    for _ in range(_EXPAND_CAP):
        if argmax() != 0:
            break
        pts.insert(0, pts[0] / 2.0)
        vals.insert(0, f(pts[0]))
    i = argmax()
    if i == 0 or i == len(pts) - 1:
        raise NonConvergence("could not bracket an interior maximizer")
    tau_star, obj = _golden_max(f, pts[i - 1], pts[i + 1])
    _certify(f, tau_star, obj)
    return tau_star, obj


def _certify(f, tau_star: float, obj: float) -> None:
    slack = 1e-12 * (1.0 + abs(obj))
    for shifted in (tau_star * (1.0 - _CERT_SHIFT), tau_star * (1.0 + _CERT_SHIFT)):
        if f(shifted) > obj + slack:
            raise NonConvergence("local-max certificate failed at tau*")


def _capped_supremum(f: TauObjective, cap: float) -> tuple[float, float]:
    """Grid supremum over (0, cap] used when no sufficient condition applies.

    A closed form evaluates the grid in one call (``TauObjective.grid``) and
    only its argmax is read; otherwise, or when ``grid`` declines, each point
    is evaluated on the scalar path, which raises where the objective does.
    An interior best point is refined by golden section, and a best point at
    either end is evaluated again on the scalar path, so the result carries
    the scalar path's bits either way.
    """
    taus = np.arange(1, _CAP_POINTS + 1) * cap / _CAP_POINTS
    pts = taus.tolist()
    grid = f.grid(taus)
    if grid is None:
        vals = [f(t) for t in pts]
        i = max(range(_CAP_POINTS), key=vals.__getitem__)
    else:
        i = int(grid.argmax())
    if 0 < i < _CAP_POINTS - 1:
        return _golden_max(f, pts[i - 1], pts[i + 1])
    return pts[i], vals[i] if grid is None else f(pts[i])


def _condition(objective: TauObjective) -> tuple[bool, str] | None:
    """Whether a proposition's sufficient condition for tau* holds, and its detail.

    None when no proposition covers the objective. Three do:

    * power utility, gamma = 1, on the scaled objective sign(alpha) g(tau),
      g = A*(tau)*tau. The fixed point is explicit:
      g(tau) = exp((zeta(alpha)-delta)*tau) * tau / (1 - exp(-delta*tau)),
      with g(0+) = 1/delta. An interior maximizer exists when
      delta/2 < zeta(alpha) < delta, which needs alpha > 0, since r >= 0
      makes zeta(alpha) <= 0 for alpha < 0;
    * log utility, gamma in (0, 1), on the plain value V(x; tau). The
      condition is (r + |xi_tilde|^2/2)/delta + log x < 0, in which case
      V(x; 0+) = -inf and V(x; inf) = 0 force an interior positive maximum;
    * log utility on the scaled value V(x; tau)*tau. For gamma = 1 an interior
      maximizer exists on every market that grows (below); delta*tau*
      solves exp(u)*(2 - u) = 2, so tau* > 1/delta. For gamma < 1 the condition is
      (r + |xi_tilde|^2/2)*gamma/delta - (1-gamma)/2 * log x > 0.

    Both log propositions need growth, r + |xi_tilde|^2/2 > 0. A market with
    r = 0 and no positive excess return has none: A*(tau) = 0, V(x; tau) =
    C*(tau) log x rises toward 0 without a maximum, and V*tau is flat at 0
    for gamma = 1, so the condition is false there.

    ``tau_objective`` has checked x > 0 wherever log x appears.
    """
    cfg, scaled = objective.cfg, objective.scaled
    gamma, delta = cfg.gamma, cfg.delta
    if cfg.utility == "power":
        if not (scaled and gamma == 1.0):
            return None
        za = zeta(cfg.alpha, objective.market.r, objective.cs.objective)
        detail = (
            f"requires delta/2 < zeta(alpha) < delta: delta/2={delta / 2.0:.6g}, "
            f"zeta(alpha)={za:.6g}, delta={delta:.6g}; g(0+) = 1/delta = {1.0 / delta:.6g}"
        )
        return delta / 2.0 < za < delta, detail
    mu_g = objective.market.r + 0.5 * objective.cs.objective
    if not mu_g > 0.0 and (scaled or gamma < 1.0):
        return False, "requires r + |xi_tilde|^2/2 > 0: the market has zero growth"
    if gamma == 1.0:
        return (True, "gamma = 1: an interior maximizer always exists") if scaled else None
    if scaled:
        gate = mu_g * gamma / delta - 0.5 * (1.0 - gamma) * math.log(cfg.x0)
        detail = (
            "requires (r + |xi_tilde|^2/2)*gamma/delta - (1-gamma)/2*log x > 0: "
            f"value={gate:.6g}"
        )
        return gate > 0.0, detail
    gate = mu_g / delta + math.log(cfg.x0)
    return gate < 0.0, f"requires (r + |xi_tilde|^2/2)/delta + log x < 0: value={gate:.6g}"


def optimal_tau(objective: TauObjective, cap: float | None = None) -> TauSearchResult:
    """tau* of the objective's configuration.

    When a proposition's condition holds (``_condition``), maximizes the
    objective; otherwise returns its capped supremum over (0, ``cap``], or no
    tau* (``tau_star`` None, ``objective_at_star`` nan) when ``cap`` is None.
    """
    holds, detail = _condition(objective) or (
        False, "no sufficient condition applies to this configuration"
    )
    if holds:
        delta = objective.cfg.delta
        tau_star, obj = _maximize(objective, 1e-4 / delta, 1.0 / delta)
    elif cap is not None:
        tau_star, obj = _capped_supremum(objective, cap)
    else:
        tau_star, obj = None, float("nan")
    kind = "scaled_value" if objective.scaled else "value"
    return TauSearchResult(holds, detail, tau_star, obj, kind)
