"""What importing the CLI loads, and what each subcommand adds; the parser is built once, on first use.

The import loads every layer that perfbench's tracer patches, but none of the
modules only `simulate` or a JSON config needs: scipy, numpy.random and
concurrent.futures load on the first draw, and json with the first JSON file.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Runs in a fresh interpreter: every subcommand but `simulate` on both shipped
# configs, then `solve` on a JSON config, then `simulate`, checking
# sys.modules in between. It also counts ArgumentParser constructions: none at
# import, and one parser with its four subparsers over all eight calls.
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

# perfbench's Tracer.install reads each of these layers from sys.modules
LAYERS = [f"periodic_portfolio.{layer}" for layer in
          ("cli", "config", "market", "cone", "logutil", "periodicity", "power", "quadrature", "mc")]
# loaded by the first draw, but for json, which the first JSON file loads
LAZY = ("scipy", "scipy.special", "numpy.random", "concurrent.futures", "json")


def loaded():
    return [name for name in LAZY if name in sys.modules]


assert not built, f"import built {len(built)} parsers"
assert all(name in sys.modules for name in LAYERS), [n for n in LAYERS if n not in sys.modules]
assert loaded() == [], loaded()

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
assert loaded() == [], loaded()
config = work / "table1_log.json"
config.write_text('{"utility": "log", "mu": [0.1, 0.15], "sigma": [0.2, 0, 0, 0.25], '
                  '"r": 0.12, "tau": 1, "gamma": 0.8, "delta": 0.3, "x0": 0.5}')
assert cli.main(["solve", "--config", str(config)]) == 0
assert loaded() == ["json"], loaded()
assert cli.main(["simulate", "--config", "configs/table1_log.cfg", "--paths", "2000"]) == 0
assert loaded() == list(LAZY), loaded()
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
