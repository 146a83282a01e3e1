"""Time warm in-process CLI calls on one or more trees, to compare them.

Usage: python3 tools/inproc.py TREE...

Each TREE is the root of a checkout of this repository. Every round starts,
for each tree, one fresh interpreter against the package under that tree's
``src/``, in the alternating order of ``tools/trees.py``. The interpreter
makes one untimed call of each measure below, then times CALLS calls of
each with ``periodic_portfolio.cli.main``, its standard output discarded.
The measures, on the tree's ``configs/table2_power.cfg`` unless named:

    solve          solve
    sweep-tau-20   sweep of tau over 0.2, 0.4, ..., 4 (20 points), a_star v_x0
    opt-tau-scaled opt-tau --tau-cap 4 --objective scaled
    opt-tau-value  opt-tau --tau-cap 4 --objective value
    opt-tau-curve  opt-tau --tau-cap 4 --curve-out (the capped search plus
                   a 33-point curve)
    opt-tau-log-capped  opt-tau --objective value --tau-cap 4 on a copy of
                   ``configs/table1_log.cfg`` with x0 = 5: the value gate
                   fails, so the closed form's 257-point grid runs
    opt-tau-g1-capped   opt-tau --tau-cap 4 on a copy of the config with
                   gamma = 1: delta/2 < zeta(alpha) fails, so the grid runs
    sim-power      simulate --paths 30000 --seed 3 (the Monte Carlo of I(y* R))
    sim-power-0.5  the same on a copy of the config with tau = 0.5
    sim-log        the same on ``configs/table1_log.cfg``

A round's value per measure is the median of its CALLS calls, in ms at
perfbench's reference speed. It prints the shared summary of
``tools/trees.py`` over the ROUNDS rounds: per measure and tree the median
and quartiles, the first tree's ratio range, and every later tree's
speed-up over the first and rounds won. Two trees take about 3 minutes on
a 2-vCPU VM. Most of the spread lies between interpreters, not between the
calls of one, hence many short rounds: with 6 rounds of 5 calls, two
copies of one tree read ratios of 0.90-1.34, 8 of 20 of them outside the
first tree's quartile range.
"""

import json
import re
import sys
import tempfile
from pathlib import Path

import trees

ROUNDS = 40
CALLS = 3
SWEEP = "[sweep]\nparameter = tau\ngrid = 0.2:4:0.2\noutputs = a_star v_x0\n"

# Runs after trees.PRELUDE: argv[1] is a JSON object of measure -> argv.
CHILD = """
for name, argv in json.loads(sys.argv[1]).items():
    main_ns(argv)
    times[name] = [main_ns(argv) for _ in range(int(sys.argv[2]))]
"""


def copy_with(config: str, path: Path, key: str, value: str) -> str:
    """Write ``config`` to ``path`` with its ``key = ...`` line set to ``value``."""
    path.write_text(re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", Path(config).read_text()))
    return str(path)


def measures(tree: Path, work: Path) -> dict[str, list[str]]:
    table1, table2 = (str(tree / "configs" / f"{name}.cfg") for name in ("table1_log", "table2_power"))
    (work / "spec.sweep").write_text(SWEEP)
    half = copy_with(table2, work / "table2_tau_0.5.cfg", "tau", "0.5")
    log_capped = copy_with(table1, work / "table1_x0_5.cfg", "x0", "5")
    g1_capped = copy_with(table2, work / "table2_gamma_1.cfg", "gamma", "1")
    capped = ["opt-tau", "--config", table2, "--tau-cap", "4"]
    sim = ["--paths", "30000", "--seed", "3"]
    return {
        "solve": ["solve", "--config", table2],
        "sweep-tau-20": ["sweep", "--config", table2, "--sweep", str(work / "spec.sweep"), "--out", str(work / "out.csv")],
        "opt-tau-scaled": capped + ["--objective", "scaled"],
        "opt-tau-value": capped + ["--objective", "value"],
        "opt-tau-curve": capped + ["--curve-out", str(work / "curve.csv")],
        "opt-tau-log-capped": ["opt-tau", "--config", log_capped, "--objective", "value", "--tau-cap", "4"],
        "opt-tau-g1-capped": ["opt-tau", "--config", g1_capped, "--tau-cap", "4"],
        "sim-power": ["simulate", "--config", table2] + sim,
        "sim-power-0.5": ["simulate", "--config", str(half)] + sim,
        "sim-log": ["simulate", "--config", table1] + sim,
    }


def main(argv: list[str]) -> int:
    if not argv:
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 2
    roots = [Path(a).resolve() for a in argv]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)

        def one_round(tree: Path) -> dict[str, float]:
            return trees.inproc(tree, CHILD, [json.dumps(measures(tree, work)), str(CALLS)], work, unit_ns=1e6)

        values = trees.alternate(roots, ROUNDS, one_round)
    trees.print_summary(roots, values[0][0], values, "ms")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
