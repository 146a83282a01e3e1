"""Time the start-up of fresh interpreters on one or more trees, to compare them.

Usage: python3 tools/startup.py TREE...

Each TREE is the root of a checkout of this repository. Every round starts,
for each tree in turn, one fresh interpreter per measure below, against the
package under that tree's ``src/``; the order of the trees reverses from one
round to the next, so a slow spell of the host falls on both sides. One
untimed round comes first. The measures are:

    setup      perfbench's probe (import the CLI and build the quadrature
               rules of orders 64-512), from process start to the end of
               its set-up, scaled to the reference unit as setup_s is
    solve      python -m periodic_portfolio.cli solve on table2_power
    sweep      sweep of tau over 0.5 1 2 on table2_power
    opt-tau    opt-tau --tau-cap 2 on table1_log
    simulate   simulate --paths 2000 on table1_log

The last four are wall times of whole one-shot processes. It prints, per
tree and measure, the median and quartiles in ms over ROUNDS rounds, and for
every tree after the first how many rounds it was faster than the first. The
environment is perfbench's hermetic one with PYTHONPATH set to the tree's
``src/``. It reads perfbench and changes nothing there.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench")]

from probe import REF_MS  # noqa: E402
from run import hermetic_env  # noqa: E402

ROUNDS = 12
SWEEP = "[sweep]\nparameter = tau\ngrid = 0.5 1 2\noutputs = a_star v_x0\n"


def commands(tree: Path, work: Path) -> dict[str, list[str]]:
    cli = [sys.executable, "-m", "periodic_portfolio.cli"]
    table1, table2 = (str(tree / "configs" / f"{name}.cfg") for name in ("table1_log", "table2_power"))
    spec = work / "spec.sweep"
    spec.write_text(SWEEP)
    return {
        "setup": [sys.executable, str(tree / "perfbench" / "probe.py")],
        "solve": cli + ["solve", "--config", table2],
        "sweep": cli + ["sweep", "--config", table2, "--sweep", str(spec), "--out", str(work / "out.csv")],
        "opt-tau": cli + ["opt-tau", "--config", table1, "--tau-cap", "2"],
        "simulate": cli + ["simulate", "--config", table1, "--paths", "2000"],
    }


def time_ms(name: str, argv: list[str], env: dict[str, str], cwd: Path) -> float:
    t0 = time.monotonic()
    proc = subprocess.run(argv, env=env, cwd=cwd, capture_output=True, text=True, timeout=120)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    if name != "setup":
        return wall * 1e3
    done, ref_ms = (float(v) for v in proc.stdout.split()[-2:])
    return (done - t0) * 1e3 * REF_MS / ref_ms


def main(argv: list[str]) -> int:
    if not argv:
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 2
    trees = [Path(a).resolve() for a in argv]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        runs = []
        for tree in trees:
            env = dict(hermetic_env(), PYTHONPATH=str(tree / "src"))
            runs.append((env, commands(tree, work)))
        names = list(runs[0][1])
        times = [{name: [] for name in names} for _ in trees]
        for round_ in range(ROUNDS + 1):
            order = range(len(trees)) if round_ % 2 == 0 else reversed(range(len(trees)))
            for i in order:
                env, cmds = runs[i]
                for name in names:
                    ms = time_ms(name, cmds[name], env, work)
                    if round_:
                        times[i][name].append(ms)
    print(f"{'tree':<40} {'measure':<9} {'q1':>8} {'median':>8} {'q3':>8}  faster than the first")
    for i, tree in enumerate(trees):
        for name in names:
            q1, median, q3 = statistics.quantiles(times[i][name], n=4, method="inclusive")
            wins = "" if i == 0 else f"{sum(a < b for a, b in zip(times[i][name], times[0][name]))}/{ROUNDS}"
            print(f"{str(tree):<40} {name:<9} {q1:8.1f} {median:8.1f} {q3:8.1f}  {wins}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
