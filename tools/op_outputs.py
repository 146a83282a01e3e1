"""Print a digest of every benchmark op's outputs, to compare two trees byte for byte.

Usage: python3 tools/op_outputs.py SEED...

For each seed it builds every op of the power_grid, mc_verify and
closed_form workloads with ``perfbench/inputs.build`` in a temporary
directory, and runs each one in this process through
``perfbench/worker.run_op`` against the package under ``src/`` of the tree
this script sits in. It prints one line per op:

    workload seed index exit_code sha256

The digest covers the op's stdout, stderr and written file, with the
temporary directory's path replaced by a fixed token. Run it on two trees
with the same seeds and ``diff`` the outputs: equal lines mean identical exit
codes, stdout, stderr and files. It reads perfbench and changes nothing there.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import inputs  # noqa: E402
from probe import set_up  # noqa: E402
from worker import run_op  # noqa: E402

WORKLOADS = ("power_grid", "mc_verify", "closed_form")


def main(argv: list[str]) -> int:
    if not argv:
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 2
    cli = set_up()
    for seed in map(int, argv):
        for name in WORKLOADS:
            with tempfile.TemporaryDirectory() as tmp:
                ops = inputs.build(name, seed, Path(tmp)).ops
                for index, op in enumerate(ops):
                    rc, *texts = run_op(cli, op, index).output
                    texts = [None if t is None else t.replace(tmp, "<workdir>") for t in texts]
                    digest = hashlib.sha256(json.dumps(texts).encode()).hexdigest()
                    print(name, seed, index, rc, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
