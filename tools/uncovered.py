"""Print the lines of the package that a run never executes.

Usage: python3 tools/uncovered.py tests [PYTEST_ARGS...]
       python3 tools/uncovered.py ops SEED...

``tests`` runs ``pytest.main(PYTEST_ARGS)`` in this process, by default on
the tree's ``tests/`` with ``-q``. ``ops`` builds every op of the
power_grid, mc_verify and closed_form workloads for each seed with
``perfbench/inputs.build`` in a temporary directory and runs it through
``perfbench/worker.run_op``, as ``tools/op_outputs.py`` does. Both record
the lines executed in the modules under the tree's
``src/periodic_portfolio``, with ``sys.settrace`` for this thread and
``threading.settrace`` for the threads started during the run (the Monte
Carlo's range threads). A module's executable lines are the line numbers of
its compiled code objects (``co_lines``). It prints one line per module,

    module executed/executable never: LINE...

and a last line with the totals. A line reached only through an error
path that the run never takes shows up here; so does one reached only in
a child interpreter, since only this process is traced (a hook that traced
children too would load ``json`` and ``threading`` into the CLI children of
``tests/test_imports.py`` and fail their checks). Under the tracer the
tier-1 suite took about twice its untraced time (30 s against 16 s on a
2-vCPU VM).
"""

from __future__ import annotations

import os
import sys
import tempfile
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

PACKAGE = ROOT / "src" / "periodic_portfolio"
WORKLOADS = ("power_grid", "mc_verify", "closed_form")


def executable_lines(path: Path) -> set[int]:
    """The line numbers of every code object compiled from ``path``."""
    lines: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no source line
        todo.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def record(run, root: Path) -> tuple[object, dict[str, set[int]]]:
    """Call ``run()``; return its result and the lines it executed in each file under ``root``, by path.

    Frames of other files get no line tracer, so they run at close to full speed.
    """
    prefix = str(root.resolve()) + os.sep
    executed: dict[str, set[int]] = {}
    tracers = {}

    def local_tracer(lines: set[int]):
        def trace_lines(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace_lines

        return trace_lines

    def trace_calls(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        tracer = tracers.get(filename)
        if tracer is None:
            tracer = tracers[filename] = local_tracer(executed.setdefault(filename, set()))
        executed[filename].add(frame.f_lineno)  # the code object's first line
        return tracer

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, executed


def report(executed: dict[str, set[int]], root: Path) -> list[str]:
    """One line per module under ``root``, then the totals."""
    lines, hit_total, total = [], 0, 0
    for path in sorted(root.resolve().rglob("*.py")):
        possible = executable_lines(path)
        hit = executed.get(str(path), set()) & possible
        never = " ".join(map(str, sorted(possible - hit)))
        lines.append(f"{path.relative_to(root.resolve())} {len(hit)}/{len(possible)} never: {never}".rstrip())
        hit_total, total = hit_total + len(hit), total + len(possible)
    lines.append(f"total {hit_total}/{total}")
    return lines


def run_tests(args: list[str]) -> int:
    import pytest

    return int(pytest.main(args or [str(ROOT / "tests"), "-q"]))


def run_ops(seeds: list[int]) -> None:
    import inputs
    from probe import set_up
    from worker import run_op

    cli = set_up()
    for seed in seeds:
        for name in WORKLOADS:
            with tempfile.TemporaryDirectory() as tmp:
                for index, op in enumerate(inputs.build(name, seed, Path(tmp)).ops):
                    run_op(cli, op, index)


def main(argv: list[str]) -> int:
    if not argv or argv[0] not in ("tests", "ops") or (argv[0] == "ops" and len(argv) < 2):
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 2
    mode, args = argv[0], argv[1:]
    if mode == "tests":
        code, executed = record(lambda: run_tests(args), PACKAGE)
    else:
        seeds = [int(seed) for seed in args]
        code, executed = record(lambda: run_ops(seeds), PACKAGE)
    print("\n".join(report(executed, PACKAGE)))
    return code or 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
