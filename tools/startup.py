"""Time the start-up of fresh interpreters on one or more trees, to compare them.

Usage: python3 tools/startup.py TREE...

Each TREE is the root of a checkout of this repository. Every round starts,
for each tree, one fresh interpreter per measure below, against the package
under that tree's ``src/``, in the alternating order of ``tools/trees.py``.
One untimed round comes first. The measures are:

    setup      perfbench's probe (import the CLI and build the quadrature
               rules of orders 64-512), from process start to the end of
               its set-up, scaled to the reference unit as setup_s is
    solve      python -m periodic_portfolio.cli solve on table2_power
    sweep      sweep of tau over 0.5 1 2 on table2_power
    opt-tau    opt-tau --tau-cap 2 on table1_log
    simulate   simulate --paths 2000 on table1_log

The last four are wall times of whole one-shot processes, in ms. It prints
the shared summary of ``tools/trees.py`` over the ROUNDS rounds: per
measure and tree the median and quartiles, the first tree's ratio range,
and every later tree's speed-up over the first and rounds won.
"""

import sys
import tempfile
import time
from pathlib import Path

import trees

ROUNDS = 12
SWEEP = "[sweep]\nparameter = tau\ngrid = 0.5 1 2\noutputs = a_star v_x0\n"


def commands(tree: Path, work: Path) -> dict[str, list[str]]:
    cli = [sys.executable, "-m", "periodic_portfolio.cli"]
    table1, table2 = (str(tree / "configs" / f"{name}.cfg") for name in ("table1_log", "table2_power"))
    (work / "spec.sweep").write_text(SWEEP)
    return {
        "setup": [sys.executable, str(tree / "perfbench" / "probe.py")],
        "solve": cli + ["solve", "--config", table2],
        "sweep": cli + ["sweep", "--config", table2, "--sweep", str(work / "spec.sweep"), "--out", str(work / "out.csv")],
        "opt-tau": cli + ["opt-tau", "--config", table1, "--tau-cap", "2"],
        "simulate": cli + ["simulate", "--config", table1, "--paths", "2000"],
    }


def main(argv: list[str]) -> int:
    if not argv:
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 2
    roots = [Path(a).resolve() for a in argv]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)

        def one_round(tree: Path) -> dict[str, float]:
            times = {}
            for name, cmd in commands(tree, work).items():
                t0 = time.monotonic()
                out = trees.run(tree, cmd, work)
                times[name] = (time.monotonic() - t0) * 1e3
                if name == "setup":  # from process start to the probe's end of set-up, scaled
                    done, ref_ms = (float(v) for v in out.split()[-2:])
                    times[name] = (done - t0) * 1e3 * trees.REF_MS / ref_ms
            return times

        values = [per_tree[1:] for per_tree in trees.alternate(roots, ROUNDS + 1, one_round)]
    trees.print_summary(roots, values[0][0], values, "ms")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
