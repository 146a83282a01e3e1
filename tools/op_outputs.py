"""Print a digest of every benchmark op's outputs, to compare two trees byte for byte.

Usage: python3 tools/op_outputs.py SEED...
       python3 tools/op_outputs.py pool

For each seed it builds every op of the power_grid, mc_verify and
closed_form workloads with ``perfbench/inputs.build`` in a temporary
directory, and runs each one in this process through
``perfbench/worker.run_op`` against the package under ``src/`` of the tree
this script sits in. It prints one line per op:

    workload seed index exit_code sha256

With ``pool`` it runs instead the ``simulate`` op of every Monte Carlo seed
of ``inputs.MC_SEED_POOL`` on each of the four configs of
``inputs.mc_configs``, at ``inputs.MC_PATHS`` paths: every report that an
mc_verify run can print, 256 lines of

    pool mc_seed utility tau exit_code sha256

Before an op that writes a file runs, a stale file of 64 KB, longer than
any output, is written at its path: every output overwrites an existing
file, as in perfbench's passes after the first, and a writer that leaves
old bytes behind changes the digest. The digest covers the op's stdout,
stderr and written file, with the temporary directory's path replaced by
a fixed token. Run it on two trees with the same arguments and ``diff`` the
outputs: equal lines mean identical exit codes, stdout, stderr and files.
It reads perfbench and changes nothing there.
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
STALE = b"stale,0\n" * 8192  # 64 KB


def digest(cli, op, index: int, tmp: str) -> str:
    """The op's exit code and the sha256 of its outputs, run after a stale file at its output path."""
    if op.out_file is not None:
        Path(op.out_file).write_bytes(STALE)
    rc, *texts = run_op(cli, op, index).output
    texts = [None if t is None else t.replace(tmp, "<workdir>") for t in texts]
    return f"{rc} {hashlib.sha256(json.dumps(texts).encode()).hexdigest()}"


def main(argv: list[str]) -> int:
    if not argv:
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 2
    cli = set_up()
    if argv == ["pool"]:
        with tempfile.TemporaryDirectory() as tmp:
            configs = inputs.mc_configs(inputs.Writer(Path(tmp)))
            for mc_seed in inputs.MC_SEED_POOL:
                for (utility, tau), (path, params) in configs.items():
                    op = inputs.simulate_op(path, params, mc_seed)
                    print("pool", mc_seed, utility, tau, digest(cli, op, 0, tmp), flush=True)
        return 0
    for seed in map(int, argv):
        for name in WORKLOADS:
            with tempfile.TemporaryDirectory() as tmp:
                ops = inputs.build(name, seed, Path(tmp)).ops
                for index, op in enumerate(ops):
                    print(name, seed, index, digest(cli, op, index, tmp), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
