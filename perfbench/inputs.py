"""Seeded input generator for the three benchmark workloads.

The program under test only ever sees the config and sweep files written
here. Config text is produced directly from plain Python floats; the
package's own ``format_problem_config`` is deliberately not used, because
under numpy 2 it writes numpy-scalar fields as ``np.float64(...)``, which the
parser then rejects.

Each workload is a fixed list of ops for a given seed. An op is one
``periodic_portfolio.cli.main(argv)`` call plus the parameters the
correctness gate needs to recompute its expected outputs independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.optimize import nnls

# Market and evaluation of configs/table2_power.cfg and configs/table1_log.cfg.
TABLE_MU = (0.1, 0.15)
TABLE_SIGMA = ((0.2, 0.0), (0.0, 0.25))
TABLE_R = 0.12
TABLE_DELTA = 0.3
TABLE_X0 = 0.5
TABLE_GAMMA = 0.8
TABLE_ALPHA = 0.5
TOL = 1e-10
QUAD_ORDER = 64

# mc_verify: fewer than the shipped 100k paths, so that at least three passes
# over the op list fit in one run. At 30k paths the power fixed point is
# 12-19% of one power op, and under 10% of a pass.
MC_PATHS = 30_000
# Monte Carlo seeds for mc_verify. The CLI's verdict is a 3-sigma test, which
# a correct estimator misses on 0.27% of draws, so with dozens of ops drawing
# seeds at random about one mc_verify run in ten would fail. The pool holds the
# first 64 seeds that pass on all four mc_verify configs at MC_PATHS paths;
# perfbench/vet_mc_seeds.py re-derives it (seed 28 is the one miss). A biased
# estimator still fails on these seeds.
MC_SEED_POOL = tuple(s for s in range(1, 66) if s != 28)


@dataclass
class Op:
    """One CLI call: ``argv`` for ``main`` plus what the gate checks."""

    kind: str
    argv: list[str]
    params: dict = field(default_factory=dict)
    out_file: str | None = None


@dataclass
class Workload:
    ops: list[Op]
    warmup: int  # leading ops run once, untimed, before the timed phase

    @property
    def tail_percentile(self) -> int:
        """Highest whole percentile with at least ten ops of one pass beyond it."""
        return max(0, math.floor(100.0 * (1.0 - 10.0 / len(self.ops))))


def _num(v: float) -> str:
    return repr(float(v))


def config_text(p: dict) -> str:
    """Config file for the problem in ``p``; keys the config has no field for are ignored."""
    sigma = np.asarray(p["sigma"], dtype=float)
    lines = [
        f"utility = {p['utility']}",
        f"n = {len(p['mu'])}",
        "mu = " + " ".join(_num(v) for v in p["mu"]),
        "sigma = " + " ".join(_num(v) for v in sigma.ravel()),
    ]
    lines += [f"{key} = {_num(p[key])}" for key in ("r", "tau", "gamma", "delta", "x0")]
    if p.get("alpha") is not None:
        lines.append(f"alpha = {_num(p['alpha'])}")
    lines += [
        "",
        "[solver]",
        f"tol_root = {_num(TOL)}",
        f"tol_fixed_point = {_num(TOL)}",
        f"quad_order = {QUAD_ORDER}",
        "",
        "[mc]",
        "n_paths = 100000",
        "n_periods = auto",
        "seed = 42",
        "",
    ]
    return "\n".join(lines)


def sweep_text(parameter: str, grid, outputs) -> str:
    return (
        "[sweep]\n"
        f"parameter = {parameter}\n"
        "grid = " + " ".join(_num(v) for v in grid) + "\n"
        "outputs = " + " ".join(outputs) + "\n"
    )


def random_market(rng: np.random.Generator, n: int):
    """Random well-posed market: lower-triangular sigma with a solid diagonal.

    Same recipe as ``random_market`` in the test suite's conftest.
    """
    diag = rng.uniform(0.15, 0.5, size=n)
    lower = rng.uniform(-0.1, 0.1, size=(n, n))
    sigma = np.tril(lower, k=-1) + np.diag(diag)
    mu = rng.uniform(-0.05, 0.35, size=n)
    r = rng.uniform(0.0, 0.2)
    return [float(v) for v in mu], sigma, float(r)


def projected_sharpe(mu, sigma, r: float):
    """(xi, pi, |xi_tilde|^2) from scipy's NNLS, independent of the package."""
    sigma = np.asarray(sigma, dtype=float)
    sigma_inv = np.linalg.inv(sigma)
    xi = np.linalg.solve(sigma, np.asarray(mu, dtype=float) - r)
    pi, _ = nnls(sigma_inv, -xi)
    xi_tilde = xi + sigma_inv @ pi
    return xi, pi, float(xi_tilde @ xi_tilde)


class Writer:
    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.count = 0

    def write(self, suffix: str, text: str) -> str:
        self.count += 1
        path = self.workdir / f"in{self.count:04d}{suffix}"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def out(self, suffix: str) -> str:
        self.count += 1
        return str(self.workdir / f"out{self.count:04d}{suffix}")


# ---------------------------------------------------------------------------
# power_grid

# Grid nodes are jittered within a narrow cell: a solve costs about 1/tau, so a
# wide tau cell would make the median and tail latency follow the seed rather
# than the code.
_TAU_JITTER = 0.04  # log-tau half-width of a cell
# Solves get dearer like 1/tau. The lower end keeps each solve under about
# half a second, so that a pass is short and every op gets a dozen samples per
# run; at tau = 0.2 a solve still takes ~420 Picard iterations, against 18 at
# tau = 4.
_TAU_RANGE = (0.2, 4.0)
_GAMMA_JITTER = 0.02
POWER_SWEEP_OUTPUTS = ("a_star", "y_star", "lower_bound", "upper_bound", "iterations")


def power_grid(seed: int, workdir: Path) -> Workload:
    """21 solves on a tau x gamma grid and three sweeps.

    Each (gamma, tau) cell gets one alpha, alternating over the grid like a
    checkerboard, so that every gamma row and every tau column sees both
    alphas and a pass costs the same whatever the seed.
    """
    rng = np.random.default_rng([seed, 1])
    w = Writer(workdir)
    base = dict(mu=TABLE_MU, sigma=TABLE_SIGMA, r=TABLE_R, delta=TABLE_DELTA, x0=TABLE_X0)
    nodes = np.geomspace(_TAU_RANGE[0] * math.exp(_TAU_JITTER), _TAU_RANGE[1] * math.exp(-_TAU_JITTER), 7)
    # Ops of one tau node cost about the same and set the order statistics
    # together. The host's speed swings over seconds, so those ops are spread
    # over the pass rather than run back to back: the inner loop walks the
    # nodes, from the cheap long periods down.
    rows = []
    for g, gamma_node in enumerate((0.55, 0.75, 1.0)):
        row = []
        for t, node in enumerate(nodes[::-1]):
            alpha = 0.5 if (g + t) % 2 == 0 else -1.0
            tau = float(node * math.exp(_TAU_JITTER * rng.uniform(-1.0, 1.0)))
            gamma = gamma_node
            if gamma_node < 1.0:  # gamma = 1 is kept exact: closed-form branch
                gamma = float(gamma_node + _GAMMA_JITTER * rng.uniform(-1.0, 1.0))
            params = dict(base, utility="power", tau=tau, gamma=gamma, alpha=alpha)
            path = w.write(".cfg", config_text(params))
            row.append(Op("power_solve", ["solve", "--config", path], params))
        rows.append(row)

    tau_grid = np.array([0.5, 1.0, 2.0]) * np.exp(_TAU_JITTER * rng.uniform(-1.0, 1.0, 3))
    sweeps = [
        ("tau", tau_grid, dict(gamma=0.75, alpha=0.5)),
        ("gamma", 0.6 + 0.15 * np.arange(3) + _GAMMA_JITTER * rng.uniform(-1.0, 1.0, 3), dict(alpha=-1.0)),
        ("alpha", np.array([-1.5, -0.75, 0.45]) + 0.02 * rng.uniform(-1.0, 1.0, 3), dict(gamma=0.7)),
    ]
    ops = []
    for row, (parameter, values, fixed) in zip(rows, sweeps):
        ops += row  # one sweep after every gamma row
        params = dict(base, utility="power", tau=1.0, gamma=0.75, alpha=0.5)
        params.update(fixed)
        cfg = w.write(".cfg", config_text(params))
        spec = w.write(".sweep", sweep_text(parameter, values, POWER_SWEEP_OUTPUTS))
        out = w.out(".csv")
        params.update(parameter=parameter, grid=[float(v) for v in values])
        ops.append(
            Op("power_sweep", ["sweep", "--config", cfg, "--sweep", spec, "--out", out], params, out)
        )
    return Workload(ops, warmup=2)


# ---------------------------------------------------------------------------
# mc_verify

# One round of (utility, tau) configs: eight log tau=1, four log tau=0.5 and
# one power tau=1. A pass is two rounds with the single power tau=0.5 op in
# between, about 5 s, so that a run makes about six passes. The median then
# falls among the log tau=1 ops and the tail percentile among the log tau=0.5
# ops, not on the edge between two kinds, where a single noisy op would move
# them. The three power ops take about 45% of a pass.
MC_ROUND = (
    ("log", 1.0), ("log", 1.0), ("log", 0.5), ("log", 1.0), ("power", 1.0),
    ("log", 1.0), ("log", 0.5), ("log", 1.0), ("log", 1.0), ("log", 0.5),
    ("log", 1.0), ("log", 1.0), ("log", 0.5),
)


def mc_configs(w: Writer) -> dict[tuple[str, float], tuple[str, dict]]:
    """Table 1 (log) and table 2 (power) configs at tau = 1 and tau = 0.5."""
    configs = {}
    for utility, alpha in (("log", None), ("power", TABLE_ALPHA)):
        for tau in (1.0, 0.5):
            params = dict(
                utility=utility, mu=TABLE_MU, sigma=TABLE_SIGMA, r=TABLE_R, tau=tau,
                gamma=TABLE_GAMMA, delta=TABLE_DELTA, x0=TABLE_X0, alpha=alpha,
            )
            configs[utility, tau] = (w.write(".cfg", config_text(params)), params)
    return configs


def simulate_op(path: str, params: dict, mc_seed: int) -> Op:
    argv = ["simulate", "--config", path, "--paths", str(MC_PATHS), "--seed", str(mc_seed)]
    return Op("simulate", argv, dict(params, mc_seed=mc_seed))


def mc_verify(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 2])
    configs = mc_configs(Writer(workdir))
    kinds = [*MC_ROUND, ("power", 0.5), *MC_ROUND]
    ops = [simulate_op(*configs[kind], int(rng.choice(MC_SEED_POOL))) for kind in kinds]
    return Workload(ops, warmup=1)


# ---------------------------------------------------------------------------
# closed_form

CLOSED_FORM_SIZES = (2, 10, 50)
CLOSED_FORM_MARKETS = 32  # per size
LOG_SWEEP_OUTPUTS = ("a_star", "c_star", "v_x0", "xi_tilde_sq", "constraint_cost")


def closed_form(seed: int, workdir: Path) -> Workload:
    """Random markets; every op is closed form, cone projection or a 1-d search.

    Branch choices that change an op's cost (whether a tau gate holds) are
    fixed by construction, half each way, and r is stratified, so that the
    seed moves an op list's cost as little as possible.
    """
    rng = np.random.default_rng([seed, 3])
    w = Writer(workdir)
    ops = []
    for k in range(CLOSED_FORM_MARKETS):
        holds = k % 2 == 0
        for n in CLOSED_FORM_SIZES:
            mu, sigma, _ = random_market(rng, n)
            # r is stratified over the markets of one size: it sets how many
            # excess returns are negative, hence the cone projection's work
            r = 0.2 * (k + float(rng.uniform())) / CLOSED_FORM_MARKETS
            _, _, q = projected_sharpe(mu, sigma, r)
            market = dict(mu=mu, sigma=sigma, r=r)
            delta = float(rng.uniform(0.1, 0.5))
            tau = float(math.exp(rng.uniform(math.log(0.25), math.log(4.0))))
            gamma = float(rng.uniform(0.5, 0.95))
            x0 = float(rng.uniform(0.2, 2.0))

            p = dict(market, utility="log", tau=tau, gamma=gamma, delta=delta, x0=x0)
            ops.append(Op("log_solve", ["solve", "--config", w.write(".cfg", config_text(p))], p))

            p = dict(market, utility="log", tau=tau, gamma=1.0, delta=delta, x0=x0)
            path = w.write(".cfg", config_text(p))
            ops.append(Op("log_tau_scaled", ["opt-tau", "--config", path, "--objective", "scaled"], p))

            # the value gate (r + q/2)/delta + log x0 < 0 holds on half the markets
            growth = (r + 0.5 * q) / delta
            margin = float(rng.uniform(0.2, 1.0))
            x0_gate = math.exp(-growth - margin if holds else -growth + margin)
            cap = 4.0 / delta
            p = dict(market, utility="log", tau=tau, gamma=gamma, delta=delta, x0=x0_gate, cap=cap)
            path = w.write(".cfg", config_text(p))
            argv = ["opt-tau", "--config", path, "--objective", "value", "--tau-cap", _num(cap)]
            ops.append(Op("log_tau_value", argv, p))

            grid = np.sort(rng.uniform([0.25, 0.5, 1.0, 2.0, 3.0], [0.5, 1.0, 2.0, 3.0, 4.0]))
            p = dict(market, utility="log", tau=tau, gamma=gamma, delta=delta, x0=x0)
            cfg = w.write(".cfg", config_text(p))
            spec = w.write(".sweep", sweep_text("tau", grid, LOG_SWEEP_OUTPUTS))
            out = w.out(".csv")
            p.update(parameter="tau", grid=[float(v) for v in grid])
            ops.append(
                Op("log_sweep", ["sweep", "--config", cfg, "--sweep", spec, "--out", out], p, out)
            )

            # power, gamma = 1: delta/2 < zeta(alpha) < delta holds on half the markets
            alpha = float(rng.uniform(0.2, 0.8))
            zeta_a = r * alpha + alpha * q / (2.0 * (1.0 - alpha))
            delta_p = zeta_a * float(rng.uniform(1.1, 1.9) if holds else rng.uniform(2.2, 4.0))
            cap = 4.0 / delta_p
            p = dict(market, utility="power", tau=tau, gamma=1.0, delta=delta_p, x0=x0,
                     alpha=alpha, cap=cap)
            path = w.write(".cfg", config_text(p))
            argv = ["opt-tau", "--config", path, "--objective", "scaled", "--tau-cap", _num(cap)]
            ops.append(Op("power_tau_scaled", argv, p))
    return Workload(ops, warmup=5)


WORKLOADS = {"power_grid": power_grid, "mc_verify": mc_verify, "closed_form": closed_form}


def build(name: str, seed: int, workdir: Path) -> Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, workdir)
