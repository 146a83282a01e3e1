"""Split the in-process time of each ``solve`` op of a workload into its stages.

Usage: python3 tools/op_split.py WORKLOAD SEED TREE...

WORKLOAD is a perfbench workload (``power_grid``, ``mc_verify`` or
``closed_form``); its ops for SEED are built once with
``perfbench/inputs.build`` in a temporary directory, and every ``solve`` op
among them is timed. Each TREE is the root of a checkout of this
repository. Every round starts, for each tree, one fresh interpreter
against the package under that tree's ``src/``, in the alternating order
of ``tools/trees.py``. The interpreter runs each op once untimed, then
CALLS times. Each timed run makes two ``cli.main(argv)`` calls, its standard
output discarded. The first call runs with the functions that ``cli.main``
calls replaced by wrappers that time them, one stage each:

    argparse   ``parse_args`` of the parser ``cli.build_parser`` caches
    read       ``cli._read_text`` of the config file
    parse      ``cli.parse_problem_config``
    market     ``report.to_market`` and ``report.to_evaluation``
    cone       ``report.constrained_sharpe``
    problem    ``report.PowerProblem`` (power utility only)
    solve      ``report.fixed_point``, or ``report.solve_log``
    fields     the rest of ``cli.main``: the dispatch, the report's fields,
               and the wrappers' own cost
    emit       ``cli._emit``

The second call, unwrapped, is the whole op (``main``). A round's value
per op and stage is the median of its CALLS calls, in us at perfbench's
reference speed. It prints, per tree, each op's median over the ROUNDS
rounds per stage, then the mean over the ops and each stage's share of the
summed stages. Then it prints the shared summary of ``tools/trees.py`` of
each round's mean over the ops: per stage and tree the median and
quartiles, the first tree's ratio range, and every later tree's speed-up
over the first and rounds won. Two trees take about 35 s on a 2-vCPU VM;
as in ``tools/inproc.py``, many short rounds beat a few long ones, since
most of the spread lies between interpreters.
"""

import json
import statistics
import sys
import tempfile
from pathlib import Path

import trees

import inputs  # perfbench's, on the path that trees sets

ROUNDS = 40
CALLS = 5
STAGES = ("argparse", "read", "parse", "market", "cone", "problem", "solve", "fields", "emit")
COLUMNS = (*STAGES, "sum", "main")

# Runs after trees.PRELUDE: argv[1] is a JSON list of argv lists.
CHILD = """
WRAPPED = [(stage, owner, name, getattr(owner, name)) for stage, owner, name in (
    ("argparse", cli.build_parser(), "parse_args"), ("read", cli, "_read_text"), ("parse", cli, "parse_problem_config"),
    ("market", report, "to_market"), ("market", report, "to_evaluation"), ("cone", report, "constrained_sharpe"),
    ("problem", report, "PowerProblem"), ("solve", report, "fixed_point"), ("solve", report, "solve_log"),
    ("emit", cli, "_emit"))]

def timed(stage, fn):
    def call(*args, **kwargs):
        t0 = clock()
        out = fn(*args, **kwargs)
        split[stage] += clock() - t0
        return out
    return call

def wrap(on):
    for stage, owner, name, fn in WRAPPED:
        setattr(owner, name, timed(stage, fn) if on else fn)

for k, argv in enumerate(json.loads(sys.argv[1])):
    main_ns(argv)
    for _ in range(int(sys.argv[2])):
        split = {stage: 0 for stage, *_ in WRAPPED}
        wrap(True)
        total, unit = main_ns(argv)
        wrap(False)
        split["fields"] = total - sum(split.values())
        for stage, ns in split.items():
            times.setdefault(f"{k} {stage}", []).append((ns, unit))
        times.setdefault(f"{k} main", []).append(main_ns(argv))
"""


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] not in inputs.WORKLOADS:
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 2
    name, seed, roots = argv[0], int(argv[1]), [Path(a).resolve() for a in argv[2:]]
    with tempfile.TemporaryDirectory() as tmp:
        ops = [op.argv for op in inputs.build(name, seed, Path(tmp)).ops if op.argv[0] == "solve"]
        if not ops:
            sys.stderr.write(f"{name} has no solve op\n")
            return 2

        def one_round(tree: Path) -> list[list[float]]:
            us = trees.inproc(tree, CHILD, [json.dumps(ops), str(CALLS)], Path(tmp))
            rows = [[us[f"{k} {s}"] for s in STAGES] for k in range(len(ops))]
            return [row + [sum(row), us[f"{k} main"]] for k, row in enumerate(rows)]

        # per tree, per round, per op: the round's median per column
        values = trees.alternate(roots, ROUNDS, one_round)
    for tree, per_round in zip(roots, values):
        print(f"{tree}: median us per call, {name} seed {seed}, {ROUNDS} rounds of {CALLS} calls per op")
        print(f"{'op':>4}" + "".join(f"{s:>9}" for s in COLUMNS))
        rows = [[statistics.median(cells) for cells in zip(*per_op)] for per_op in zip(*per_round)]
        mean = [statistics.fmean(col) for col in zip(*rows)]
        for k, row in [*enumerate(rows), ("mean", mean)]:
            print(f"{k:>4}" + "".join(f"{v:9.1f}" for v in row))
        print(f"{'%':>4}" + "".join(f"{100 * v / mean[-2]:9.1f}" for v in mean[:-1]))
    means = [[dict(zip(COLUMNS, map(statistics.fmean, zip(*rows)))) for rows in per_round] for per_round in values]
    trees.print_summary(roots, COLUMNS, means, "us, mean over the ops")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
