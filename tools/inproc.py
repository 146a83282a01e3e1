"""Time warm in-process CLI calls on one or more trees, to compare them.

Usage: python3 tools/inproc.py TREE...

Each TREE is the root of a checkout of this repository. Every round starts,
for each tree in turn, one fresh interpreter against the package under that
tree's ``src/``; the order of the trees reverses from one round to the next,
so a slow spell of the host falls on both sides. The interpreter makes one
untimed call of each measure below, then times CALLS calls of each with
``periodic_portfolio.cli.main``, its standard output discarded. The
measures, all on the tree's ``configs/table2_power.cfg``:

    solve          solve
    sweep-tau-20   sweep of tau over 0.2, 0.4, ..., 4 (20 points), a_star v_x0
    opt-tau-scaled opt-tau --tau-cap 4 --objective scaled
    opt-tau-value  opt-tau --tau-cap 4 --objective value
    opt-tau-curve  opt-tau --tau-cap 4 --curve-out (the capped search plus
                   a 33-point curve)

It prints, per tree and measure, the median and quartiles in ms over all
calls of all ROUNDS rounds, and for every tree after the first the ratio of
the first tree's median to its own. The environment is perfbench's hermetic
one with PYTHONPATH set to the tree's ``src/``. It reads perfbench and
changes nothing there.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench")]

from run import hermetic_env  # noqa: E402

ROUNDS = 6
CALLS = 5
SWEEP = "[sweep]\nparameter = tau\ngrid = 0.2:4:0.2\noutputs = a_star v_x0\n"

# Runs in the fresh interpreter: argv[1] is a JSON object of measure -> argv.
CHILD = """
import contextlib, io, json, sys, time
from periodic_portfolio import cli
measures = json.loads(sys.argv[1])
calls = int(sys.argv[2])
out = {}
for name, argv in measures.items():
    times = []
    for i in range(calls + 1):
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            rc = cli.main(argv)
        ms = (time.perf_counter() - t0) * 1e3
        if rc != 0:
            raise SystemExit(f"{name}: exit code {rc}")
        if i:
            times.append(ms)
    out[name] = times
print(json.dumps(out))
"""


def measures(tree: Path, work: Path) -> dict[str, list[str]]:
    table2 = str(tree / "configs" / "table2_power.cfg")
    spec = work / "spec.sweep"
    spec.write_text(SWEEP)
    capped = ["opt-tau", "--config", table2, "--tau-cap", "4"]
    return {
        "solve": ["solve", "--config", table2],
        "sweep-tau-20": ["sweep", "--config", table2, "--sweep", str(spec), "--out", str(work / "out.csv")],
        "opt-tau-scaled": capped + ["--objective", "scaled"],
        "opt-tau-value": capped + ["--objective", "value"],
        "opt-tau-curve": capped + ["--curve-out", str(work / "curve.csv")],
    }


def run_tree(tree: Path, work: Path) -> dict[str, list[float]]:
    env = dict(hermetic_env(), PYTHONPATH=str(tree / "src"))
    argv = [sys.executable, "-c", CHILD, json.dumps(measures(tree, work)), str(CALLS)]
    proc = subprocess.run(argv, env=env, cwd=work, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: the timing interpreter exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv: list[str]) -> int:
    if not argv:
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 2
    trees = [Path(a).resolve() for a in argv]
    times: list[dict[str, list[float]]] = [{} for _ in trees]
    with tempfile.TemporaryDirectory() as tmp:
        for round_ in range(ROUNDS):
            order = range(len(trees)) if round_ % 2 == 0 else reversed(range(len(trees)))
            for i in order:
                for name, ms in run_tree(trees[i], Path(tmp)).items():
                    times[i].setdefault(name, []).extend(ms)
    print(f"{'tree':<40} {'measure':<15} {'q1':>9} {'median':>9} {'q3':>9}  speed-up over the first")
    for i, tree in enumerate(trees):
        for name, ms in times[i].items():
            q1, median, q3 = statistics.quantiles(ms, n=4, method="inclusive")
            ratio = "" if i == 0 else f"{statistics.median(times[0][name]) / median:.2f}x"
            print(f"{str(tree):<40} {name:<15} {q1:9.3f} {median:9.3f} {q3:9.3f}  {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
