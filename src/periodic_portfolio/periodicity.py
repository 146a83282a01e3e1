"""Optimal evaluation-period length: one tau objective, one condition function, one search.

The objective is V(x0; tau), the value at initial wealth x0 when performance
is evaluated every tau years, or V(x0; tau) * tau (the scaled objective).
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
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .cone import ConstrainedSharpe
from .config import ProblemConfig
from .errors import DomainError, NonConvergence, NonFinite
from .logutil import _log_coefficients
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
    computed once for every tau, and for power utility the problem validated
    at the configured tau. Log utility and power utility with gamma = 1 are
    closed forms in tau; power utility with gamma < 1 solves its fixed point
    at each tau. Where the gamma = 1 closed form overflows float64 it raises
    NonFinite.
    """

    cfg: ProblemConfig
    scaled: bool
    market: MarketModel
    cs: ConstrainedSharpe
    problem: PowerProblem | None

    def __call__(self, tau: float) -> float:
        cfg = self.cfg
        if cfg.utility == "log":
            growth = self.market.r + 0.5 * self.cs.objective
            a_star, c_star = _log_coefficients(growth, tau, cfg.gamma, cfg.delta)
            value = float(a_star + c_star * np.log(cfg.x0))
        elif cfg.gamma == 1.0:
            # A*(tau)*tau = exp((zeta(alpha)-delta)*tau) * tau / (1 - exp(-delta*tau)),
            # and V = A*/alpha, since x0^(alpha(1-gamma)) = 1
            za = zeta(cfg.alpha, self.market.r, self.cs.objective)
            try:
                growth = math.exp((za - cfg.delta) * tau)
            except OverflowError:
                growth = math.inf
            scaled_a = growth * tau / (-math.expm1(-cfg.delta * tau))
            value = scaled_a if self.scaled else scaled_a / tau / cfg.alpha
            if not math.isfinite(value):
                raise NonFinite(f"the gamma = 1 objective overflows at tau={tau:.6g}")
            return value
        else:
            evaluation = EvaluationSpec(tau, cfg.gamma, cfg.delta)
            sol = fixed_point(dataclasses.replace(self.problem, evaluation=evaluation))
            value = value_function(sol, cfg.x0, cfg.alpha, cfg.gamma)
        return value * tau if self.scaled else value


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
    return TauObjective(cfg, scaled, market, cs, problem)


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


def _capped_supremum(f, cap: float) -> tuple[float, float]:
    """Grid supremum over (0, cap] used when no sufficient condition applies."""
    pts = [cap * (k + 1) / _CAP_POINTS for k in range(_CAP_POINTS)]
    vals = [f(t) for t in pts]
    i = max(range(_CAP_POINTS), key=vals.__getitem__)
    if 0 < i < _CAP_POINTS - 1:
        return _golden_max(f, pts[i - 1], pts[i + 1])
    return pts[i], vals[i]


def _condition(objective: TauObjective) -> tuple[bool, str] | None:
    """Whether a proposition's sufficient condition for tau* holds, and its detail.

    None when no proposition covers the objective. Three do:

    * power utility, gamma = 1, on the scaled objective A*(tau)*tau. The
      fixed point is explicit and the scaled objective is
      g(tau) = exp((zeta(alpha)-delta)*tau) * tau / (1 - exp(-delta*tau)),
      with g(0+) = 1/delta. An interior maximizer exists when
      delta/2 < zeta(alpha) < delta;
    * log utility, gamma in (0, 1), on the plain value V(x; tau). The
      condition is (r + |xi_tilde|^2/2)/delta + log x < 0, in which case
      V(x; 0+) = -inf and V(x; inf) = 0 force an interior positive maximum;
    * log utility on the scaled value V(x; tau)*tau. For gamma = 1 an interior
      maximizer always exists; delta*tau* solves exp(u)*(2 - u) = 2, so
      tau* > 1/delta. For gamma < 1 the condition is
      (r + |xi_tilde|^2/2)*gamma/delta - (1-gamma)/2 * log x > 0.

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
    if gamma == 1.0:
        return (True, "gamma = 1: an interior maximizer always exists") if scaled else None
    mu_g = objective.market.r + 0.5 * objective.cs.objective
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
