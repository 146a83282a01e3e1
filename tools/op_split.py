"""Split the in-process time of each ``solve`` op of a workload into its stages.

Usage: python3 tools/op_split.py WORKLOAD SEED TREE...

WORKLOAD is a perfbench workload (``power_grid``, ``mc_verify`` or
``closed_form``); its ops for SEED are built once with
``perfbench/inputs.build`` in a temporary directory, and every ``solve`` op
among them is timed. Each TREE is the root of a checkout of this
repository. Every round starts, for each tree in turn, one fresh interpreter
against the package under that tree's ``src/``; the order of the trees
reverses from one round to the next, as in ``tools/inproc.py``. The
interpreter runs each op once untimed, then CALLS times, in these stages:

    argparse   ``cli.build_parser().parse_args(argv)``
    read       ``cli._read_text`` of the config file
    parse      ``config.parse_problem_config``
    market     ``config.to_market`` and ``config.to_evaluation``
    cone       ``cone.constrained_sharpe``
    problem    the ``power.PowerProblem`` (power utility only)
    solve      ``power.fixed_point``, or ``logutil.solve_log``
    fields     ``v_x0``, the fractions and the report's field dict
    emit       ``cli._emit`` into a string buffer

and, separately, the whole op, ``cli.main(argv)`` with its standard output
discarded. It prints, per tree, each op's median time per stage in us over
all calls of all ROUNDS rounds, then the mean over the ops, each stage's
share of the summed stages, and for every tree after the first the ratio of
the first tree's mean to its own. The environment is perfbench's hermetic
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

import inputs  # noqa: E402
from run import hermetic_env  # noqa: E402

ROUNDS = 6
CALLS = 20
STAGES = ("argparse", "read", "parse", "market", "cone", "problem", "solve", "fields", "emit")

# Runs in the fresh interpreter: argv[1] is a JSON list of argv lists.
CHILD = """
import contextlib, io, json, sys, time
from periodic_portfolio import cli, config, cone, logutil, power
clock = time.perf_counter_ns
ops = json.loads(sys.argv[1])
calls = int(sys.argv[2])
parser = cli.build_parser()

def stages(argv):
    t = [clock()]
    args = parser.parse_args(argv)
    t.append(clock())
    text = cli._read_text(args.config)
    t.append(clock())
    cfg = config.parse_problem_config(text)
    t.append(clock())
    market, evaluation = config.to_market(cfg), config.to_evaluation(cfg)
    t.append(clock())
    cs = cone.constrained_sharpe(market)
    t.append(clock())
    if cfg.utility == "power":
        problem = power.PowerProblem(
            market=market, evaluation=evaluation, alpha=cfg.alpha, cs=cs, tol_root=cfg.tol_root,
            tol_fixed_point=cfg.tol_fixed_point, quad_order=cfg.quad_order,
        )
        t.append(clock())
        sol = power.fixed_point(problem)
        t.append(clock())
        fields = {"utility": cfg.utility, "n": market.n, "xi": cs.xi, "pi_tilde_star": cs.pi_tilde_star,
                  "xi_tilde": cs.xi_tilde, "xi_tilde_norm_sq": cs.objective, "a_star": sol.a_star,
                  "y_star": sol.y_star, "lower_bound": sol.lower_bound, "upper_bound": sol.upper_bound,
                  "contraction_modulus": sol.contraction_modulus, "iterations": sol.iterations,
                  "error_bound": sol.error_bound,
                  "v_x0": power.value_function(sol, cfg.x0, cfg.alpha, cfg.gamma),
                  "feedback_fractions": power._feedback_fractions(cs, sol.fraction_scale)}
    else:
        t.append(clock())
        sol = logutil.solve_log(market, evaluation, cs)
        t.append(clock())
        fields = {"utility": cfg.utility, "n": market.n, "xi": cs.xi, "pi_tilde_star": cs.pi_tilde_star,
                  "xi_tilde": cs.xi_tilde, "xi_tilde_norm_sq": cs.objective, "a_star": sol.a_star,
                  "c_star": sol.c_star, "v_x0": logutil.value_log(sol, cfg.x0),
                  "feedback_fractions": sol.feedback_fractions, "a_unconstrained": sol.a_unconstrained,
                  "unconstrained_fractions": sol.unconstrained_fractions,
                  "constraint_cost": sol.constraint_cost}
    t.append(clock())
    with contextlib.redirect_stdout(io.StringIO()):
        cli._emit(fields)
    t.append(clock())
    return [(b - a) / 1e3 for a, b in zip(t, t[1:])]

def whole(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = clock()
        rc = cli.main(argv)
        t1 = clock()
    if rc != 0:
        raise SystemExit(f"{argv}: exit code {rc}")
    return (t1 - t0) / 1e3

out = []
for argv in ops:
    split, total = [], []
    for i in range(calls + 1):
        s, w = stages(argv), whole(argv)
        if i:
            split.append(s)
            total.append(w)
    out.append([split, total])
print(json.dumps(out))
"""


def run_tree(tree: Path, ops: list[list[str]], cwd: Path) -> list:
    env = dict(hermetic_env(), PYTHONPATH=str(tree / "src"))
    argv = [sys.executable, "-c", CHILD, json.dumps(ops), str(CALLS)]
    proc = subprocess.run(argv, env=env, cwd=cwd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: the timing interpreter exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] not in inputs.WORKLOADS:
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 2
    name, seed, trees = argv[0], int(argv[1]), [Path(a).resolve() for a in argv[2:]]
    with tempfile.TemporaryDirectory() as tmp:
        ops = [op.argv for op in inputs.build(name, seed, Path(tmp)).ops if op.argv[0] == "solve"]
        if not ops:
            sys.stderr.write(f"{name} has no solve op\n")
            return 2
        # per tree, per op: the (stage times, whole time) of every call
        samples = [[([], []) for _ in ops] for _ in trees]
        for round_ in range(ROUNDS):
            order = range(len(trees)) if round_ % 2 == 0 else reversed(range(len(trees)))
            for i in order:
                for k, (split, total) in enumerate(run_tree(trees[i], ops, Path(tmp))):
                    samples[i][k][0].extend(split)
                    samples[i][k][1].extend(total)
    head = "".join(f"{s:>9}" for s in (*STAGES, "sum", "main"))
    means = []
    for tree, per_op in zip(trees, samples):
        print(f"{tree}: median us per call, {name} seed {seed}, {ROUNDS * CALLS} calls per op")
        print(f"{'op':>4}{head}")
        rows = []
        for k, (split, total) in enumerate(per_op):
            row = [statistics.median(col) for col in zip(*split)]
            row += [sum(row), statistics.median(total)]
            rows.append(row)
            print(f"{k:>4}" + "".join(f"{v:9.1f}" for v in row))
        mean = [statistics.fmean(col) for col in zip(*rows)]
        means.append(mean)
        print(f"{'mean':>4}" + "".join(f"{v:9.1f}" for v in mean))
        print(f"{'%':>4}" + "".join(f"{100 * v / mean[-2]:9.1f}" for v in mean[:-1]))
    for tree, mean in zip(trees[1:], means[1:]):
        print(f"{tree}: speed-up over the first, mean per stage")
        print(f"{'':>4}{head}")
        print(f"{'':>4}" + "".join(f"{a / b:9.2f}" if b else f"{'-':>9}" for a, b in zip(means[0], mean)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
