"""The shared core of the tools that compare trees: ``inproc.py``,
``op_split.py`` and ``startup.py``.

A TREE is the root of a checkout of this repository. Every child process
runs in perfbench's hermetic environment with PYTHONPATH set to its tree's
``src/``. The tools measure in rounds: each round runs every tree once, and
the order of the trees reverses from one round to the next (``alternate``), so
a slow spell of the host falls on both sides.

An in-process child (``inproc``) is a fresh interpreter that runs
``PRELUDE`` and then a tool's script. ``main_ns`` times one ``cli.main``
call, then one reference unit (``probe.reference_unit_ns``); the script
appends such (time, unit) pairs in ns to ``times[name]``. Each name's times
are scaled to perfbench's reference speed, as setup_s is: multiplied by
``REF_MS`` over the mean of the reference units run right after them. So
the scale follows the host's speed over the span of that name's calls,
which halves the spread of a short measure's rounds against one scale per
interpreter. A round's value for a name is the median of its calls.

``print_summary`` prints one row per measure and tree: the median and the
quartiles of the tree's values over the rounds. The first tree's row then
gives the range of ratios that its quartiles span, median/q3 to median/q1.
Every later tree's row gives its ratio, the first tree's median over its
own (above 1 is faster), and the number of rounds in which it was faster
than the first tree. Two copies of one tree read ratios inside that range
in most runs, so a ratio outside it is a difference that the spread of the
rounds does not explain. The tools read perfbench and change nothing there.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench")]

from probe import REF_MS  # noqa: E402
from run import hermetic_env  # noqa: E402

PRELUDE = f"""
import contextlib, io, json, sys, time
sys.path.append({str(ROOT / "perfbench")!r})
from probe import reference_unit_ns
from periodic_portfolio import cli, report
clock = time.perf_counter_ns
times = {{}}

def main_ns(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = clock()
        rc = cli.main(argv)
        ns = clock() - t0
    if rc != 0:
        raise SystemExit(f"{{argv}}: exit code {{rc}}")
    return ns, reference_unit_ns()
"""


def alternate(trees: list[Path], n_rounds: int, run) -> list[list]:
    """``run(tree)`` per tree and round: each round visits every tree, the order reversing every round."""
    values = [[None] * n_rounds for _ in trees]
    for r in range(n_rounds):
        for i in range(len(trees)) if r % 2 == 0 else reversed(range(len(trees))):
            values[i][r] = run(trees[i])
    return values


def run(tree: Path, argv: list[str], cwd: Path) -> str:
    """The standard output of ``argv`` run on ``tree``; a failure ends the tool."""
    env = dict(hermetic_env(), PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(argv, env=env, cwd=cwd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: a child process exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def inproc(tree: Path, script: str, args: list[str], cwd: Path, unit_ns: float = 1e3) -> dict[str, float]:
    """Each name's median time at the reference speed, in units of ``unit_ns`` (us by default),
    from one child running ``script``."""
    code = PRELUDE + script + "\nprint(json.dumps({name: list(zip(*pairs)) for name, pairs in times.items()}))\n"
    times = json.loads(run(tree, [sys.executable, "-c", code, *args], cwd).splitlines()[-1])  # name -> (ns, units)
    return {name: statistics.median(ns) * REF_MS * 1e6 / statistics.fmean(units) / unit_ns
            for name, (ns, units) in times.items()}


def summary(values: list[list[float]]) -> list[tuple[float, float, float, float, int]]:
    """Per tree, (q1, median, q3, ratio, rounds won) of ``values[tree][round]``.

    The ratio is the first tree's median over the tree's own; a round is
    won when the tree's value is below the first tree's in that round.
    """
    quartiles = [statistics.quantiles(own, n=4, method="inclusive") for own in values]
    return [(*q, quartiles[0][1] / q[1], sum(a < b for a, b in zip(own, values[0]))) for q, own in zip(quartiles, values)]


def print_summary(trees: list[Path], names, values: list[list[dict[str, float]]], unit: str) -> None:
    """The summary of every measure in ``names``; ``values[tree][round][name]`` is in ``unit``."""
    print(f"{'tree':<40} {'measure':<19} {'q1':>9} {'median':>9} {'q3':>9}  {unit}; speed-up over the first, rounds won")
    for name in names:
        rows = summary([[v[name] for v in per_round] for per_round in values])
        for i, (tree, (q1, median, q3, ratio, won)) in enumerate(zip(trees, rows)):
            tail = f"{median / q3:.2f}-{median / q1:.2f}" if i == 0 else f"{ratio:.2f}x  {won}/{len(values[0])}"
            print(f"{str(tree):<40} {name:<19} {q1:9.3f} {median:9.3f} {q3:9.3f}  {tail}")
