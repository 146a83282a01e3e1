"""Only `simulate` loads scipy, and only when it draws; the parser is built once, on first use."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Runs in a fresh interpreter: every subcommand but `simulate` on both shipped
# configs, then `simulate`, checking sys.modules in between. It also counts
# ArgumentParser constructions: none at import, and one parser with its four
# subparsers over all seven calls.
SCRIPT = r"""
import argparse
import sys
from pathlib import Path

built = []
_init = argparse.ArgumentParser.__init__


def counting_init(self, *args, **kwargs):
    built.append(self)
    _init(self, *args, **kwargs)


argparse.ArgumentParser.__init__ = counting_init

from periodic_portfolio import cli

assert not built, f"import built {len(built)} parsers"

work = Path(sys.argv[1])
spec = work / "spec.sweep"
spec.write_text("[sweep]\nparameter = tau\ngrid = 0.5 1\noutputs = a_star v_x0\n")
codes = []
for name in ("table1_log", "table2_power"):
    config = f"configs/{name}.cfg"
    codes.append(cli.main(["solve", "--config", config]))
    codes.append(cli.main(["sweep", "--config", config, "--sweep", str(spec),
                           "--out", str(work / f"{name}.csv")]))
    codes.append(cli.main(["opt-tau", "--config", config, "--tau-cap", "2"]))
assert codes == [0] * 6, codes
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))[:5]
assert cli.main(["simulate", "--config", "configs/table1_log.cfg", "--paths", "2000"]) == 0
assert "scipy.special" in sys.modules
assert len(built) == 5, f"{len(built)} parsers built"
print("import-hygiene ok")
"""


def test_only_simulate_loads_scipy(tmp_path):
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("import-hygiene ok\n")
