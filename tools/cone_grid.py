"""Print every cone projection of the column-scaled markets, to compare two trees with ``diff``.

Usage: python3 tools/cone_grid.py [COUNT [SPREAD]]

Market k < COUNT (default 1000) is ``scaled_market(k, SPREAD)`` from
``tests/conftest.py`` (default SPREAD 6): n = rng.integers(1, 60) assets of
``random_market(rng, n)`` with ``rng = default_rng(10**6 + k)``, and the
columns of sigma scaled by e^U(-SPREAD, SPREAD). Each market is projected
as ``constrained_sharpe`` does it, against the package under ``src/`` of
the tree this script sits in. It prints one line per market,

    k n ok |F| solves repr(|xi_tilde|^2)

or ``k n ErrorClass`` when the projection raises, and a last line with the
totals. |F| is the number of strictly positive multipliers, and ``solves``
counts the ``np.linalg.solve`` and ``np.linalg.lstsq`` calls made inside
``solve_cone``, one per pivot round or refinement step.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from conftest import scaled_market  # noqa: E402
from periodic_portfolio import solve_cone  # noqa: E402
from periodic_portfolio.errors import PortfolioError  # noqa: E402
from periodic_portfolio.market import validate_market  # noqa: E402


def main(argv: list[str]) -> int:
    count = int(argv[0]) if argv else 1000
    spread = float(argv[1]) if len(argv) > 1 else 6.0
    calls = [0]

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    np.linalg.solve, np.linalg.lstsq = counted(np.linalg.solve), counted(np.linalg.lstsq)
    outcomes = Counter()
    total_solves = 0
    for k in range(count):
        m = scaled_market(k, spread)
        head = f"{k} {m.mu.size}"
        calls[0] = 0
        try:
            validate_market(m)
            xi = np.linalg.solve(m.sigma, m.excess_returns())
            sigma_inv = np.linalg.inv(m.sigma)
            calls[0] = 0
            cs = solve_cone(xi, sigma_inv)
        except PortfolioError as exc:
            outcomes[type(exc).__name__] += 1
            print(head, type(exc).__name__)
        else:
            outcomes["ok"] += 1
            print(head, "ok", np.count_nonzero(cs.pi_tilde_star > 0), calls[0], repr(cs.objective))
        total_solves += calls[0]
    summary = " ".join(f"{name}={n}" for name, n in sorted(outcomes.items()))
    print(f"total markets={sum(outcomes.values())} {summary} solves={total_solves}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
