"""Correctness gate: recompute what every op should have printed.

Runs after the timed phase. Expected values come from closed forms, from
scipy's NNLS, or (for the power fixed point) from the defining equations
evaluated at the printed solution. Tolerances are the config's own solver
tolerances widened by what printing to 12 significant digits costs; none is
tighter than what the solver promises.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

from inputs import Op, projected_sharpe

PRINT_REL = 5e-12  # relative rounding of a value printed with %.12g
QUAD_REL = 1e-10  # acceptance tolerance of the adaptive quadrature
KKT_TOL = 1e-10  # cone projection KKT tolerance
LOG_REL = 1e-10  # closed-form comparisons: printing plus cone-projection error
TAU_REL = 1e-6  # golden section cannot place a smooth maximum closer than ~sqrt(eps)
CERT_SHIFT = 1e-3  # the program's local-max certificate step
K_SIGMA = 3.0
# delta*tau* of the scaled log objective at gamma = 1: the root of e^u (2 - u) = 2
LOG_SCALED_ROOT = brentq(lambda u: math.exp(u) * (2.0 - u) - 2.0, 1.0, 1.9, xtol=1e-15)


def parse_report(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def parse_csv(text: str) -> tuple[list[str], np.ndarray]:
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]], dtype=float)
    return header, rows


def _vec(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split()], dtype=float)


def _close(name: str, got: float, want: float, tol: float, errors: list[str]) -> None:
    if not abs(got - want) <= tol:
        errors.append(f"{name}: got {float(got)!r}, expected {float(want)!r} within {tol:.3g}")


class Gate:
    """Checks op outputs; caches the NNLS projection of each market."""

    def __init__(self):
        self._cone = {}

    def cone(self, p: dict):
        key = (tuple(p["mu"]), tuple(np.asarray(p["sigma"], dtype=float).ravel()), p["r"])
        if key not in self._cone:
            self._cone[key] = projected_sharpe(p["mu"], p["sigma"], p["r"])
        return self._cone[key]

    def check(self, op: Op, rc: int, stdout: str, file_text: str | None) -> list[str]:
        """Return the list of mismatches; empty when the op is correct."""
        if rc != 0:
            return [f"exit code {rc}"]
        try:
            return getattr(self, "_" + op.kind)(op.params, stdout, file_text)
        except (KeyError, ValueError, IndexError) as exc:
            return [f"unparseable output: {exc!r}"]

    # -- power ---------------------------------------------------------------

    def _power_point(self, p: dict, a: float, y: float, lower: float, upper: float) -> list[str]:
        from periodic_portfolio.cone import constrained_sharpe
        from periodic_portfolio.market import EvaluationSpec, MarketModel
        from periodic_portfolio.power import PowerProblem, budget_function, contraction_map

        errors = []
        slack = 2.0 * PRINT_REL * (abs(a) + max(abs(lower), abs(upper)))
        if not (lower - slack <= a <= upper + slack):
            errors.append(f"a_star {a!r} outside [{lower!r}, {upper!r}]")
        market = MarketModel(mu=p["mu"], sigma=p["sigma"], r=p["r"])
        problem = PowerProblem(
            market=market,
            evaluation=EvaluationSpec(p["tau"], p["gamma"], p["delta"]),
            alpha=p["alpha"],
            cs=constrained_sharpe(market),
        )
        # Psi is a contraction, so printing error in A* moves the residual by
        # at most twice that error.
        tol_fp = problem.tol_fixed_point + 4.0 * PRINT_REL * abs(a)
        _close("contraction residual", contraction_map(problem, a), a, tol_fp, errors)
        # |d log F / d log y| <= max(1/(1-alpha), 1); brentq stops within 2e-12 + 1e-12*y
        elasticity = max(1.0 / (1.0 - p["alpha"]), 1.0)
        tol_budget = (
            problem.tol_root
            + 2.0 * QUAD_REL
            + elasticity * (2.0 * PRINT_REL + 2e-12 / y + 1e-12)
            + PRINT_REL * abs(a)
        )
        _close("budget residual", budget_function(problem, a, y), 1.0, tol_budget, errors)
        if p["gamma"] == 1.0:
            _, _, q = self.cone(p)
            alpha, tau, delta = p["alpha"], p["tau"], p["delta"]
            zeta_a = p["r"] * alpha + alpha * q / (2.0 * (1.0 - alpha))
            want = math.exp((zeta_a - delta) * tau) / -math.expm1(-delta * tau)
            # a map error of QUAD_REL moves the fixed point by QUAD_REL / (1 - q)
            modulus = math.exp(-delta * tau)
            tol = problem.tol_fixed_point + abs(want) * (2.0 * PRINT_REL + QUAD_REL / (1.0 - modulus))
            _close("gamma=1 closed-form a_star", a, want, tol, errors)
        return errors

    def _power_solve(self, p: dict, stdout: str, _file) -> list[str]:
        rep = parse_report(stdout)
        errors = self._cone_report(p, rep)
        errors += self._power_point(
            p,
            float(rep["a_star"]),
            float(rep["y_star"]),
            float(rep["lower_bound"]),
            float(rep["upper_bound"]),
        )
        return errors

    def _power_sweep(self, p: dict, _stdout, file_text: str) -> list[str]:
        header, rows = parse_csv(file_text)
        expected_header = [p["parameter"], "a_star", "y_star", "lower_bound", "upper_bound", "iterations"]
        if header != expected_header or rows.shape[0] != len(p["grid"]):
            return [f"sweep table shape: header {header}, {rows.shape[0]} rows"]
        errors = []
        for value, row in zip(p["grid"], rows):
            point = dict(p, **{p["parameter"]: value})
            _close(f"grid value {p['parameter']}", row[0], value, 2.0 * PRINT_REL * abs(value), errors)
            errors += self._power_point(point, row[1], row[2], row[3], row[4])
        return errors

    # -- cone and log utility --------------------------------------------------

    def _cone_report(self, p: dict, rep: dict) -> list[str]:
        _, pi, q = self.cone(p)
        errors = []
        # KKT residual tol bounds the dual error by tol * sqrt(n) * sigma_max^2
        s_max = float(np.linalg.norm(np.asarray(p["sigma"], dtype=float), 2))
        tol_pi = 10.0 * KKT_TOL * math.sqrt(len(pi)) * s_max**2 + 2.0 * PRINT_REL * float(np.max(np.abs(pi)))
        got = _vec(rep["pi_tilde_star"])
        if got.shape != pi.shape or not np.max(np.abs(got - pi)) <= tol_pi:
            errors.append(f"pi_tilde_star differs from scipy nnls by more than {tol_pi:.3g}")
        _close("xi_tilde_norm_sq", float(rep["xi_tilde_norm_sq"]), q, LOG_REL * (1.0 + q), errors)
        return errors

    def _log_closed_form(self, p: dict):
        """tau -> the logutil closed forms for the market and evaluation in ``p``."""
        xi, _, q = self.cone(p)
        q_free = float(xi @ xi)

        def at(tau: float) -> dict[str, float]:
            # (e^u - gamma) / (e^u - 1)^2 and (1 - gamma) / (e^u - 1), written in
            # e^-u so that they stay finite for large u = delta*tau
            decay = math.exp(-p["delta"] * tau)
            one_minus = -math.expm1(-p["delta"] * tau)
            coef = (1.0 - p["gamma"] * decay) * decay / one_minus**2
            a_star = coef * (p["r"] + 0.5 * q) * tau
            c_star = (1.0 - p["gamma"]) * decay / one_minus
            return dict(
                a_star=a_star,
                c_star=c_star,
                v_x0=a_star + c_star * math.log(p["x0"]),
                xi_tilde_sq=q,
                constraint_cost=coef * 0.5 * (q_free - q) * tau,
            )

        return at

    def _log_value(self, p: dict):
        """tau -> V(x0; tau)."""
        at = self._log_closed_form(p)
        return lambda tau: at(tau)["v_x0"]

    def _log_solve(self, p: dict, stdout: str, _file) -> list[str]:
        rep = parse_report(stdout)
        errors = self._cone_report(p, rep)
        want = self._log_closed_form(p)(p["tau"])
        for name in ("a_star", "c_star", "v_x0", "constraint_cost"):
            _close(name, float(rep[name]), want[name], LOG_REL * (1.0 + abs(want[name])), errors)
        return errors

    def _log_sweep(self, p: dict, _stdout, file_text: str) -> list[str]:
        header, rows = parse_csv(file_text)
        names = ["a_star", "c_star", "v_x0", "xi_tilde_sq", "constraint_cost"]
        if header != ["tau", *names] or rows.shape[0] != len(p["grid"]):
            return [f"sweep table shape: header {header}, {rows.shape[0]} rows"]
        errors = []
        closed_form = self._log_closed_form(p)
        for tau, row in zip(p["grid"], rows):
            want = closed_form(tau)
            _close("grid value tau", row[0], tau, 2.0 * PRINT_REL * tau, errors)
            for name, got in zip(names, row[1:]):
                _close(f"{name} at tau={tau:g}", got, want[name], LOG_REL * (1.0 + abs(want[name])), errors)
        return errors

    def _tau_search(self, rep: dict, f, holds: bool, delta: float, cap: float | None) -> list[str]:
        """Checks of an opt-tau report against its objective f(tau).

        With the condition holding, tau_star must be a local maximum that no
        point of a wide grid beats; otherwise it is the supremum over the
        capped range, checked on that range.
        """
        errors = []
        if rep["condition_holds"] != ("true" if holds else "false"):
            errors.append(f"condition_holds is {rep['condition_holds']}, expected {holds}")
            return errors
        tau = float(rep["tau_star"])
        obj = float(rep["objective_at_star"])
        slack = LOG_REL * (1.0 + abs(obj))
        _close("objective at tau_star", obj, f(tau), slack, errors)
        lo, hi = 1e-4 / delta, 1e3 / delta
        if not holds:
            lo, hi = cap / 257.0, cap  # the program's capped grid starts at cap/257
            if tau > cap * (1.0 + 2.0 * PRINT_REL):
                errors.append(f"tau_star {tau!r} beyond the cap {cap!r}")
        else:
            for shifted in (tau * (1.0 - CERT_SHIFT), tau * (1.0 + CERT_SHIFT)):
                if f(shifted) > obj + slack:
                    errors.append(f"objective improves at tau={shifted!r}")
        best = max(f(t) for t in np.geomspace(lo, hi, 1000))
        if best > obj + slack:
            errors.append(f"objective {obj!r} below grid maximum {best!r}")
        return errors

    def _log_tau_scaled(self, p: dict, stdout: str, _file) -> list[str]:
        rep = parse_report(stdout)
        value = self._log_value(p)
        errors = self._tau_search(rep, lambda t: value(t) * t, True, p["delta"], None)
        if not errors:
            u = p["delta"] * float(rep["tau_star"])
            _close("delta * tau_star", u, LOG_SCALED_ROOT, TAU_REL * LOG_SCALED_ROOT, errors)
        return errors

    def _log_tau_value(self, p: dict, stdout: str, _file) -> list[str]:
        _, _, q = self.cone(p)
        holds = (p["r"] + 0.5 * q) / p["delta"] + math.log(p["x0"]) < 0.0
        return self._tau_search(parse_report(stdout), self._log_value(p), holds, p["delta"], p["cap"])

    def _power_tau_scaled(self, p: dict, stdout: str, _file) -> list[str]:
        _, _, q = self.cone(p)
        alpha, delta = p["alpha"], p["delta"]
        zeta_a = p["r"] * alpha + alpha * q / (2.0 * (1.0 - alpha))

        def g(tau: float) -> float:
            return math.exp((zeta_a - delta) * tau) * tau / -math.expm1(-delta * tau)

        holds = delta / 2.0 < zeta_a < delta
        return self._tau_search(parse_report(stdout), g, holds, delta, p["cap"])

    # -- Monte Carlo -----------------------------------------------------------

    def _simulate(self, p: dict, stdout: str, _file) -> list[str]:
        rep = parse_report(stdout)
        errors = []
        mean, se = float(rep["mean"]), float(rep["std_error"])
        trunc, analytic = float(rep["truncation_bound"]), float(rep["analytic"])
        if rep["verdict"] != "pass":
            errors.append(f"verdict {rep['verdict']}")
        if not abs(mean - analytic) <= K_SIGMA * se + trunc:
            errors.append(f"|mean - analytic| = {abs(mean - analytic):.3g} > 3 SE + truncation")
        if p["utility"] == "log":
            want = self._log_value(p)(p["tau"])
            _close("analytic", analytic, want, LOG_REL * (1.0 + abs(want)), errors)
        return errors
