"""The scripts under ``tools/``, and their shared module ``tools/trees.py``.

Every script puts perfbench or the tests on ``sys.path`` as it is imported,
so one child interpreter imports them all, as ``python3 tools/NAME.py``
would (the tools directory first on its path), and reports what the
checks below need; the test process imports none of them. It counts the
code lines of the snippet on its stdin with ``tools/code_lines.py``, and
traces ``BRANCH`` with ``tools/uncovered.py``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"

# The branch on line 4 is the only executable line that running the file leaves unexecuted.
BRANCH = """\
def sign(x):
    if x > 0:
        return 1
    return -1


sign(2)
"""

CHILD = f"""
import importlib, json, pathlib, runpy, sys, tempfile
sys.path.insert(0, sys.argv[1])
names = sys.argv[2:]
modules = {{name: importlib.import_module(name) for name in names}}
trees = modules["trees"]
calls = []
order = trees.alternate(["a", "b", "c"], 4, lambda tree: calls.append(tree) or len(calls) - 1)
summary = trees.summary([[4.0, 1.0, 3.0, 5.0, 2.0], [2.0, 2.0, 6.0, 1.0, 1.5]])
uncovered = modules["uncovered"]
with tempfile.TemporaryDirectory() as tmp:
    branch = pathlib.Path(tmp).resolve() / "branch.py"
    branch.write_text({BRANCH!r})
    _, executed = uncovered.record(lambda: runpy.run_path(str(branch)), branch.parent)
    traced = uncovered.report(executed, branch.parent)
print(json.dumps({{
    "mains": [name for name, module in modules.items() if callable(getattr(module, "main", None))],
    "calls": calls, "order": order, "summary": summary,
    "code_lines": modules["code_lines"].code_lines(sys.stdin.read()),
    "traced": traced,
}}))
"""

# The snippet's code lines are 4, 9, 11-15 and 18: no blank, comment or docstring line,
# but every line of a string that is not a docstring, and of a split statement.
SNIPPET = '''\
"""Module docstring,
over two lines."""

import os  # a trailing comment

# a comment line


def f(x):
    """One-line docstring."""
    text = """a string
that is not a docstring"""
    y = (x +
         1)
    return "# not a comment" + text


class C:
    "a docstring in single quotes"
'''


@pytest.fixture(scope="module")
def child() -> dict:
    names = sorted(path.stem for path in TOOLS.glob("*.py"))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(TOOLS), *names],
        input=SNIPPET,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""  # no script ran its main, which writes its usage and exits
    return dict(json.loads(proc.stdout), names=names)


def test_every_tool_imports_without_running_its_main(child):
    assert "trees" in child["names"]
    assert child["mains"] == [name for name in child["names"] if name != "trees"]


def test_the_round_order_is_balanced(child):
    # each round visits every tree once, and the order reverses every round
    assert child["calls"] == ["a", "b", "c", "c", "b", "a", "a", "b", "c", "c", "b", "a"]
    # so over an even number of rounds each tree's mean place in its round is the middle one
    places = [[call - 3 * r for r, call in enumerate(per_round)] for per_round in child["order"]]
    assert places == [[0, 2, 0, 2], [1, 1, 1, 1], [2, 0, 2, 0]]


def test_the_summary_of_fixed_numbers(child):
    first, second = child["summary"]
    # (q1, median, q3, the first tree's median over the tree's own, rounds below the first tree)
    assert first == [2.0, 3.0, 4.0, 1.0, 0]
    assert second == [1.5, 2.0, 2.0, 1.5, 3]


def test_code_lines_of_a_fixed_snippet(child):
    assert child["code_lines"] == 8


def test_uncovered_reports_the_branch_a_run_skips(child):
    # executable: the def line (the function's first line) and lines 2, 3, 4 and 7
    assert child["traced"] == ["branch.py 4/5 never: 4", "total 4/5"]
