"""Re-derive ``inputs.MC_SEED_POOL``.

Prints the first 64 Monte Carlo seeds on which every mc_verify config passes
the CLI's 3-sigma check, and the seeds that missed it. Run from the root of
the repository:

    python3 perfbench/vet_mc_seeds.py
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import inputs  # noqa: E402
from gate import Gate  # noqa: E402
from worker import run_op, set_up  # noqa: E402

POOL_SIZE = 64


def main() -> None:
    cli = set_up()
    gate = Gate()
    pool, missed = [], []
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        configs = inputs.mc_configs(inputs.Writer(Path(tmp)))
        seed = 0
        while len(pool) < POOL_SIZE:
            seed += 1
            ops = [inputs.simulate_op(path, params, seed) for path, params in configs.values()]
            outputs = [run_op(cli, op, i).output for i, op in enumerate(ops)]
            if all(not gate.check(op, rc, out, text) for op, (rc, out, _, text) in zip(ops, outputs)):
                pool.append(seed)
            else:
                missed.append(seed)
    print("pool:", tuple(pool))
    print("missed:", missed)


if __name__ == "__main__":
    main()
