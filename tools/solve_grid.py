"""Print every solve of the random power grid, or of a draw of the random domain, to compare two trees with ``diff``.

Usage: python3 tools/solve_grid.py
       python3 tools/solve_grid.py domain SEED COUNT

The grid is ``random_market(default_rng(1000 n + k), n)`` from
``tests/conftest.py`` with n in {2, 10, 30} and k < 6, alpha in
{0.5, -1, -0.5}, gamma = 0.8, delta = max(zeta(alpha (1 - gamma)), 0) + 0.3
and tau in {1e-3, 1e-2, 0.1, 1, 4, 10, 30, 100}: 432 ``fixed_point`` solves.

``domain`` solves COUNT problems of the random domain instead, drawn in
order from one ``default_rng(SEED)``. Problem k takes n uniform in
{1, 2, 3}, ``random_market(default_rng(s), n)`` with s a fresh draw below
2**63, alpha = -e^U(log 0.05, log 30) with probability 0.6 and U(0.05, 0.95)
otherwise, gamma ~ U(0.05, 1), tau = e^U(log 1e-3, log 100) and
delta = max(zeta(alpha (1 - gamma)), 0) + e^U(log 1e-4, 0), so each problem
is well-posed.

Either mode solves against the package under ``src/`` of the tree this
script sits in. It prints one line per solve,

    n k alpha tau ok repr(A*) iterations quadrature_calls error_bound

(``n k alpha gamma tau delta ...`` in the domain, each parameter its repr)
or ``n k alpha tau ErrorClass`` when the solve raises, and a last line with
the totals: solves by outcome, ``iterations`` (evaluations of Psi) over the
solves that succeed, and ``quadrature_calls`` over all of them.
``quadrature_calls`` counts ``power._period_sums`` calls, each one trapezoid
sum on the a-priori u = log x grid of that law (no order doubling). The wall
time of the whole run goes to standard error.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from conftest import random_market  # noqa: E402
from periodic_portfolio import EvaluationSpec, PowerProblem, constrained_sharpe, fixed_point  # noqa: E402
from periodic_portfolio import power  # noqa: E402
from periodic_portfolio.errors import PortfolioError  # noqa: E402
from periodic_portfolio.market import zeta  # noqa: E402

GAMMA = 0.8
ALPHAS = (0.5, -1.0, -0.5)
TAUS = (1e-3, 1e-2, 0.1, 1.0, 4.0, 10.0, 30.0, 100.0)


def grid():
    """(head, market, cone, alpha, gamma, delta, tau) of each point of the random grid."""
    for n in (2, 10, 30):
        for k in range(6):
            m = random_market(np.random.default_rng(1000 * n + k), n)
            cs = constrained_sharpe(m)
            for alpha in ALPHAS:
                delta = max(zeta(alpha * (1.0 - GAMMA), m.r, cs.objective), 0.0) + 0.3
                for tau in TAUS:
                    yield f"{n} {k} {alpha} {tau}", m, cs, alpha, GAMMA, delta, tau


def domain(seed: int, count: int):
    """(head, market, cone, alpha, gamma, delta, tau) of the first ``count`` problems of the random domain."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(1, 4))
        m = random_market(np.random.default_rng(int(rng.integers(2**63))), n)
        cs = constrained_sharpe(m)
        if rng.random() < 0.6:
            alpha = -math.exp(rng.uniform(math.log(0.05), math.log(30.0)))
        else:
            alpha = rng.uniform(0.05, 0.95)
        gamma = rng.uniform(0.05, 1.0)
        tau = math.exp(rng.uniform(math.log(1e-3), math.log(100.0)))
        delta = max(zeta(alpha * (1.0 - gamma), m.r, cs.objective), 0.0) + math.exp(rng.uniform(math.log(1e-4), 0.0))
        yield f"{n} {k} {alpha!r} {gamma!r} {tau!r} {delta!r}", m, cs, alpha, gamma, delta, tau


def main(argv: list[str]) -> int:
    if argv and (argv[0] != "domain" or len(argv) != 3):
        sys.stderr.write(__doc__)
        return 2
    problems = domain(int(argv[1]), int(argv[2])) if argv else grid()
    calls = [0]
    period_sums = power._period_sums

    def counted(*args, **kwargs):
        calls[0] += 1
        return period_sums(*args, **kwargs)

    power._period_sums = counted
    outcomes = Counter()
    total_calls = total_iterations = 0
    t0 = time.perf_counter()
    for head, m, cs, alpha, gamma, delta, tau in problems:
        calls[0] = 0
        try:
            e = EvaluationSpec(tau=tau, gamma=gamma, delta=delta)
            p = PowerProblem(market=m, evaluation=e, alpha=alpha, cs=cs)
            sol = fixed_point(p)
        except PortfolioError as exc:
            outcomes[type(exc).__name__] += 1
            print(head, type(exc).__name__)
        else:
            outcomes["ok"] += 1
            total_iterations += sol.iterations
            print(head, "ok", repr(sol.a_star), sol.iterations, calls[0], repr(sol.error_bound))
        total_calls += calls[0]
    summary = " ".join(f"{name}={count}" for name, count in sorted(outcomes.items()))
    print(
        f"total solves={sum(outcomes.values())} {summary} iterations={total_iterations} quadrature_calls={total_calls}"
    )
    sys.stderr.write(f"the run took {time.perf_counter() - t0:.3f} s\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
