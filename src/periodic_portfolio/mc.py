"""Independent Monte Carlo verification of the analytic solutions.

Simulates i.i.d. per-period deflator ratios, rolls the optimal wealth
recursion forward, and estimates the discounted periodic-evaluation objective
together with the closed-form tail it truncates. For log utility that tail is
a discounted arithmetic-geometric sum. For power utility it is V(x0)
Psi'(A*)^n after n periods, where Psi'(A*) = exp(-delta tau) H'(A*) is the
ratio of the geometric series of expected period rewards that V(x0) is
(envelope theorem); the solver's last evaluation holds it
(``PowerSolution.psi_slope``), so the Monte Carlo evaluates the policy with
one kernel, ``power._log_marginal_inverse``, and integrates nothing itself.
A cell's u = log I(y* R) depends only on its draw G, and every draw has
|G| <= _NORMAL_BOUND, so each estimate solves u once on a table of G
(``_start_table``) and starts each cell's Newton from the table's cubic
Hermite interpolant; on ``configs/table2_power.cfg`` that Newton stops
after one step, which still passes its step test.

Draws come from a counter-based Philox stream through the normal inverse CDF,
numbered row-major over the (paths, n_periods) matrix. The estimators never
build that matrix: they split its rows into blocks of max(1, _CHUNK_ELEMENTS
// n_periods) consecutive rows, _CHUNK_ELEMENTS = 2**15. Philox is
counter-based (Salmon et al. 2011, "Parallel random numbers: as easy as 1, 2,
3"), so each block is drawn on its own from its element offset in the
stream, and every cell gets the value it has in the whole matrix. The blocks
run on a pool of one thread per available CPU (numpy's generator, ``ndtri``
and the block kernels release the GIL); with one CPU, or one block, they run
in the calling thread and no thread is started. Each block writes only its
own rows of the per-path values, and every row is computed the same way
whatever the block's row count (the marginal inverse's Newton stops each
cell on its own step test), so every estimate is bit-identical for any
worker count and any block size. ``ndtri`` is the only scipy function the
package uses. It, numpy's ``Generator`` and ``Philox``, and the pool's
``concurrent.futures`` are imported on the first draw, in the calling thread,
so importing the package and running the other subcommands load none of
scipy, ``numpy.random`` and ``concurrent.futures``. A pass holds O(workers *
block + n_paths) floats. With antithetic sampling a block of the n_paths/2
rows is evaluated at G and at -G, as paths i and n_paths/2 + i.
Within a block the work runs in log space: the log objective is affine in
the log growth, and the power objective sums exp(alpha u_i + beta S_{i-1} -
i delta tau) with u = log I(y* R) from the log-space Newton kernel of
``power``. A given (seed, path, period) cell is reproducible for a fixed
matrix shape, but it moves when n_periods (or, with antithetic pairs,
n_paths) changes.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cache
from types import SimpleNamespace
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError, NonConvergence, NonFinite, ParameterOutOfRange
from .logutil import LogSolution
from .market import EvaluationSpec, MarketModel
from .power import _POINT_MASS_S, _SOFTPLUS_LINEAR, PowerProblem, PowerSolution, _log_marginal_inverse
from .quadrature import DeflatorLaw

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

TAIL_EPS = 1e-8
# ``compare`` accepts an estimate within K_SIGMA standard errors (plus the truncation bound)
K_SIGMA = 3.0
# ... and _ROUNDING_ULPS ulps of the larger of the estimate and the analytic value: a
# power estimate sums terms exp(E) whose exponents E, of order delta tau, are rounded
# to an absolute ulp, so each term carries a relative error of about |E| ulps
_ROUNDING_ULPS = 64
_N_PERIODS_CAP = 200_000
# the estimators keep one float64 per path, so this caps that vector at 800 MB
_N_PATHS_CAP = 10**8
_MIN_UNIFORM = 2.0**-53
# |ndtri| at _MIN_UNIFORM and at 1 - 2**-53, the largest uniform: every draw G has |G| <= this
_NORMAL_BOUND = 8.209536151601387
# intervals of the power estimator's table of u = log I over [-_NORMAL_BOUND, _NORMAL_BOUND] in G
_TABLE_INTERVALS = 512
# draws per streamed block; it does not depend on the worker count, so neither do the estimates
_CHUNK_ELEMENTS = 2**15
# blocks run at once; the pool starts a thread per submitted block up to this many
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_pool: tuple[int, ThreadPoolExecutor] | None = None  # (workers, pool), made on first use


@dataclass(frozen=True)
class SimulationConfig:
    n_paths: int
    n_periods: int | None = None  # None selects the smallest tail-safe horizon
    seed: int = 0
    antithetic: bool = False

    def __post_init__(self):
        if self.n_paths < 1:
            raise ParameterOutOfRange("n_paths must be >= 1")
        if self.n_paths > _N_PATHS_CAP:
            raise ParameterOutOfRange(f"n_paths must be <= {_N_PATHS_CAP}")
        if not 0 <= self.seed < 2**128:  # a Philox key is 128-bit
            raise ParameterOutOfRange("seed must lie in [0, 2**128)")
        if self.antithetic and self.n_paths % 2 != 0:
            raise ParameterOutOfRange("antithetic sampling needs an even n_paths")
        if self.n_periods is not None and self.n_periods < 1:
            raise ParameterOutOfRange("n_periods must be >= 1 when given")
        if self.n_periods is not None and self.n_periods > _N_PERIODS_CAP:
            raise ParameterOutOfRange(f"n_periods must be <= {_N_PERIODS_CAP}")


@dataclass(frozen=True)
class ObjectiveEstimate:
    mean: float
    std_error: float
    n_effective: int
    truncation_bound: float


@cache
def _draw_imports() -> SimpleNamespace:
    """What the Monte Carlo needs beyond numpy's core, imported on the first draw.

    Only the Monte Carlo uses scipy's ``ndtri``, numpy's Philox generator and
    the thread pool, so no other subcommand pays for their imports.
    ``_per_path`` calls this in the calling thread before any block goes to
    the pool, so no pool worker is the first to import them.
    """
    from concurrent.futures import ThreadPoolExecutor, wait
    from numpy.random import Generator, Philox
    from scipy.special import ndtri

    return SimpleNamespace(
        Generator=Generator,
        Philox=Philox,
        ndtri=ndtri,
        ThreadPoolExecutor=ThreadPoolExecutor,
        wait=wait,
    )


def _normals(seed: int, start: int, rows: int, n_periods: int) -> np.ndarray:
    """Rows ``start`` to ``start + rows`` of the (paths, n_periods) standard normals of ``seed``.

    The uniforms are the row-major stream of ``Generator(Philox(key=seed))``.
    Philox emits four doubles per counter step, so the block's first element,
    k = start * n_periods, is reached by starting at counter k // 4 and
    discarding k % 4 doubles: any block is drawn on its own, bit for bit.
    """
    lib = _draw_imports()
    k = start * n_periods
    gen = lib.Generator(lib.Philox(key=seed, counter=k // 4))
    if k % 4:
        gen.random(k % 4)
    u = gen.random((rows, n_periods))
    np.maximum(u, _MIN_UNIFORM, out=u)  # keep the inverse CDF finite at u == 0
    return lib.ndtri(u, out=u)


def _executor(workers: int) -> ThreadPoolExecutor:
    global _pool
    if _pool is None or _pool[0] != workers:
        if _pool is not None:
            _pool[1].shutdown()
        _pool = (workers, _draw_imports().ThreadPoolExecutor(workers, thread_name_prefix="mc-block"))
    return _pool[1]


def _forget_pool() -> None:
    # a forked child has none of the parent's threads, so it must not reuse their pool
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _run_blocks(run_block, starts: range) -> None:
    """Call ``run_block(start)`` for every start: in this thread, or on the pool.

    On the pool, the first failure in ``starts`` order is re-raised, which is
    the error a serial run raises; blocks that have not started are cancelled,
    and the running ones finish before it is raised.
    """
    if _WORKERS <= 1 or len(starts) <= 1:
        for start in starts:
            run_block(start)
        return
    futures = [_executor(_WORKERS).submit(run_block, start) for start in starts]
    for i, future in enumerate(futures):
        try:
            future.result()
        except BaseException:
            for later in futures[i + 1 :]:
                later.cancel()
            _draw_imports().wait(futures)
            raise


def _per_path(cfg: SimulationConfig, n_periods: int, path_values) -> np.ndarray:
    """Per-path values, streamed: ``path_values`` maps a block of normals to one value per row."""
    per_path = np.empty(cfg.n_paths)
    rows = cfg.n_paths // 2 if cfg.antithetic else cfg.n_paths
    step = max(1, _CHUNK_ELEMENTS // n_periods)
    _draw_imports()  # import here, never first in a pool worker

    def run_block(start: int) -> None:
        g = _normals(cfg.seed, start, min(step, rows - start), n_periods)
        stop = start + g.shape[0]
        per_path[start:stop] = path_values(g)
        if cfg.antithetic:
            per_path[rows + start : rows + stop] = path_values(-g)

    _run_blocks(run_block, range(0, rows, step))
    return per_path


def _reduce(per_path: np.ndarray, cfg: SimulationConfig, truncation: float) -> ObjectiveEstimate:
    """Mean and standard error of the per-path values, or of their antithetic pair means.

    Both are computed from the values times 2**-e, with 2**e just above the
    largest |value|, so no sum or square overflows, and then scaled back. A
    power of two scales exactly, so wherever the unscaled sums and squares
    are in range, the bits are theirs. A value that is not finite raises
    NonFinite, unless it is the only sample.
    """
    peak = float(np.abs(per_path).max())
    e = math.frexp(peak)[1]  # 0 for a peak that is 0 or not finite
    samples = np.ldexp(per_path, -e)
    if cfg.antithetic:
        half = cfg.n_paths // 2
        samples = 0.5 * (samples[:half] + samples[half:])
    n = samples.size
    if n > 1 and not math.isfinite(peak):
        raise NonFinite("a Monte Carlo sample is not finite")
    mean = math.ldexp(float(samples.mean()), e)
    std_error = math.ldexp(float(samples.std(ddof=1) / math.sqrt(n)), e) if n > 1 else float("inf")
    return ObjectiveEstimate(
        mean=mean, std_error=std_error, n_effective=n, truncation_bound=truncation
    )


def _log_tail(n: int, rho: float, gamma: float, log_x0: float, mu_g: float) -> float:
    # exact discounted tail sum_{i>n} rho^i * [(1-gamma) log x0 + mu_g (1 + (1-gamma)(i-1))]
    s0 = rho ** (n + 1) / (1.0 - rho)
    s1 = rho ** (n + 1) * ((n + 1) - n * rho) / (1.0 - rho) ** 2
    return (1.0 - gamma) * log_x0 * s0 + mu_g * (s0 + (1.0 - gamma) * (s1 - s0))


def _auto_periods(tail_at) -> int:
    for n in range(1, _N_PERIODS_CAP + 1):
        if abs(tail_at(n)) < TAIL_EPS:
            return n
    raise NonConvergence("could not find a horizon with tail below TAIL_EPS")


def estimate_log_objective(
    s: LogSolution,
    m: MarketModel,
    e: EvaluationSpec,
    x0: float,
    cfg: SimulationConfig,
) -> ObjectiveEstimate:
    """Estimate the discounted log objective under the optimal policy.

    The optimal per-period gross growth is the reciprocal of the deflator
    ratio, so each period contributes log growth -log R plus the relative
    penalty (1-gamma) times the running log wealth.
    """
    if x0 <= 0:
        raise DomainError("x0 must be positive")
    rho = math.exp(-e.delta * e.tau)
    mu_g = (m.r + 0.5 * s.xi_tilde_norm_sq) * e.tau
    log_x0 = math.log(x0)

    def tail(n: int) -> float:
        return _log_tail(n, rho, e.gamma, log_x0, mu_g)

    periods = cfg.n_periods if cfg.n_periods is not None else _auto_periods(tail)
    law = DeflatorLaw.for_horizon(s.xi_tilde_norm_sq, m.r, e.tau)
    # sum_i rho^i prev_i = sum_j growth_j (rho^(j+1) - rho^(P+1)) / (1 - rho), so the
    # objective is growth @ w plus a constant, with growth = -(drift + s G)
    discounts = rho ** np.arange(1, periods + 2)
    w = discounts[:-1] + (1.0 - e.gamma) * (discounts[1:] - discounts[-1]) / (1.0 - rho)
    base = (1.0 - e.gamma) * log_x0 * discounts[:-1].sum() - law.drift * w.sum()
    # einsum, unlike a BLAS gemv, rounds each row the same whatever the block's row count
    per_path = _per_path(cfg, periods, lambda g: base - law.s * np.einsum("ij,j->i", g, w))
    return _reduce(per_path, cfg, abs(tail(periods)))


def _start_table(a: float, alpha: float, gamma: float, centre: float, s: float, tol: float):
    """Newton starts for u = log I(exp(centre + s G)) at draws |G| <= _NORMAL_BOUND.

    u depends on a cell only through its one draw G, so it is solved once,
    to ``tol``, at _TABLE_INTERVALS + 1 equally spaced G, with its exact slope
    du/dG = s / L'(u), L'(u) = alpha - 1 - alpha gamma expit(log c - alpha
    gamma u), c = a(1-gamma) > 0, the expit taken as in the kernel. Returns
    ``start(g)``: the cubic Hermite interpolant of that table at each g, a new
    array. Each cell's Newton (``power._log_marginal_inverse``) starts there
    and still ends on its step test.
    """
    m = _TABLE_INTERVALS
    width = 2.0 * _NORMAL_BOUND / m
    nodes = np.linspace(-_NORMAL_BOUND, _NORMAL_BOUND, m + 1)
    u = _log_marginal_inverse(a, alpha, gamma, centre + s * nodes, tol)
    beta = -alpha * gamma
    e = np.exp(np.minimum(math.log(a * (1.0 - gamma)) + beta * u, _SOFTPLUS_LINEAR))
    slope = (width * s) / (alpha - 1.0 + beta * e / (1.0 + e))  # du over one interval
    rise = np.diff(u)
    # u on interval i at theta in [0, 1] is c0 + theta (c1 + theta (c2 + theta c3))
    c0, c1 = u[:-1], slope[:-1]
    c2 = 3.0 * rise - 2.0 * slope[:-1] - slope[1:]
    c3 = slope[:-1] + slope[1:] - 2.0 * rise

    def start(g):
        theta = g * (1.0 / width)
        theta += 0.5 * m  # >= 0, so the cast floors it
        i = theta.astype(np.intp)
        np.minimum(i, m - 1, out=i)
        theta -= i
        u0 = c3.take(i)
        u0 *= theta
        u0 += c2.take(i)
        u0 *= theta
        u0 += c1.take(i)
        u0 *= theta
        u0 += c0.take(i)
        return u0

    return start


def estimate_power_objective(
    sol: PowerSolution,
    p: PowerProblem,
    x0: float,
    cfg: SimulationConfig,
) -> ObjectiveEstimate:
    """Estimate the discounted power objective under the optimal policy I(y* R).

    V(x0) = (A*/alpha) x0^beta, beta = alpha(1-gamma), is the geometric series
    of the expected period rewards, whose ratio is Psi'(A*) = exp(-delta tau)
    E[I(y* R)^beta] (``PowerSolution.psi_slope``). The reward left after n
    periods is therefore exactly V(x0) Psi'(A*)^n, and the truncation bound is
    its absolute value. A ratio that is not below 1 raises NonConvergence.
    """
    if x0 <= 0:
        raise DomainError("x0 must be positive")
    alpha, gamma = p.alpha, p.evaluation.gamma
    beta = alpha * (1.0 - gamma)
    delta_tau = p.evaluation.delta * p.evaluation.tau

    ratio = sol.psi_slope
    if not ratio < 1.0:
        raise NonConvergence("discounted per-period growth is not a contraction")
    value = abs(sol.a_star / alpha * x0**beta)

    def tail(n: int) -> float:
        return value * ratio**n

    periods = cfg.n_periods if cfg.n_periods is not None else _auto_periods(tail)
    # term i = exp(alpha u_i + beta S_{i-1} - i delta tau) x0^beta / alpha with
    # u = log I(y* R) and S the running sum of u; the exponent is taken as
    # beta S_i + (alpha - beta) u_i
    log_y = math.log(sol.y_star) + p.law.drift
    decay = delta_tau * np.arange(1, periods + 1)
    tabulate = sol.a_star * (1.0 - gamma) != 0.0 and p.law.s >= _POINT_MASS_S
    start = _start_table(sol.a_star, alpha, gamma, log_y, p.law.s, p.tol_root) if tabulate else None

    def path_values(g):
        log_y_block = p.law.s * g
        log_y_block += log_y
        u0 = None if start is None else start(g)
        u = _log_marginal_inverse(sol.a_star, alpha, gamma, log_y_block, p.tol_root, u0)
        exponent = np.cumsum(u, axis=1)
        exponent *= beta
        u *= alpha - beta
        exponent += u
        exponent -= decay
        return np.exp(exponent, out=exponent).sum(axis=1)

    per_path = _per_path(cfg, periods, path_values)
    per_path *= x0**beta / alpha
    return _reduce(per_path, cfg, tail(periods))


def compare(estimate: ObjectiveEstimate, analytic: float) -> bool:
    """True when |mean - analytic| <= K_SIGMA * SE + truncation bound + rounding.

    The rounding term is _ROUNDING_ULPS ulps of max(|mean|, |analytic|): both
    are rounded, so a standard error below their spacing cannot separate
    them. It is 0 when either is not finite.
    """
    scale = max(abs(estimate.mean), abs(analytic))
    rounding = _ROUNDING_ULPS * math.ulp(scale) if math.isfinite(scale) else 0.0
    return abs(estimate.mean - analytic) <= (
        K_SIGMA * estimate.std_error + estimate.truncation_bound + rounding
    )
