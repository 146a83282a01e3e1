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
// n_periods) consecutive rows, _CHUNK_ELEMENTS = 2**15, and split the blocks,
at block boundaries, into min(_WORKERS, blocks) contiguous ranges. Philox is
counter-based (Salmon et al. 2011, "Parallel random numbers: as easy as 1, 2,
3"), so each range positions one generator at its first cell's offset in the
stream and draws its blocks in order from it, into one buffer: every cell
gets the value it has in the whole matrix. The calling thread runs the first
range and starts one thread for each of the others (_WORKERS is the number
of CPUs available at import; numpy's generator, ``ndtri`` and the block
kernels release the GIL), then joins them: no thread outlives the estimate,
and the Monte Carlo keeps no pool or other state in the process. With one
CPU, or one block, no thread is started. Each range makes its own kernel,
which keeps its scratch arrays from block to block, and writes only its own
rows of the per-path values. Every row is computed
the same way whatever the block's row count (the marginal inverse's Newton
stops each cell on its own step test), so every estimate is bit-identical
for any worker count and any block size. ``ndtri`` is the only scipy
function the package uses. It and numpy's ``Generator`` and ``Philox`` are
imported on the first draw, in the calling thread, so importing the package
and running the other subcommands load neither scipy nor ``numpy.random``. A
pass holds O(workers * block + n_paths) floats: per range one block of
draws and its kernel's scratch, and the per-path values.

Within a block the work runs in log space: the log objective is affine in
the log growth, and the power objective sums exp(alpha u_i + beta S_{i-1} -
i delta tau) with u = log I(y* R) from the log-space Newton kernel of
``power``. A (seed, path, period) cell's draw depends on n_periods, which
sets its place in the stream, but not on n_paths: more paths only append
rows, and the first paths keep their draws.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cache
from threading import Thread
from types import SimpleNamespace

import numpy as np

from .errors import DomainError, NonConvergence, NonFinite, ParameterOutOfRange
from .cone import ConstrainedSharpe
from .market import EvaluationSpec, MarketModel
from .power import _POINT_MASS_S, _SOFTPLUS_LINEAR, PowerProblem, PowerSolution, _log_marginal_inverse, value_function
from .quadrature import DeflatorLaw

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
# ranges of blocks run at once: the calling thread runs one, a thread per range the others
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@dataclass(frozen=True)
class SimulationConfig:
    n_paths: int
    n_periods: int | None = None  # None selects the smallest tail-safe horizon
    seed: int = 0

    def __post_init__(self):
        if self.n_paths < 2:
            raise ParameterOutOfRange("n_paths must be >= 2: a standard error needs two paths")
        if self.n_paths > _N_PATHS_CAP:
            raise ParameterOutOfRange(f"n_paths must be <= {_N_PATHS_CAP}")
        if not 0 <= self.seed < 2**128:  # a Philox key is 128-bit
            raise ParameterOutOfRange("seed must lie in [0, 2**128)")
        if self.n_periods is not None and self.n_periods < 1:
            raise ParameterOutOfRange("n_periods must be >= 1 when given")
        if self.n_periods is not None and self.n_periods > _N_PERIODS_CAP:
            raise ParameterOutOfRange(f"n_periods must be <= {_N_PERIODS_CAP}")


@dataclass(frozen=True)
class ObjectiveEstimate:
    mean: float
    std_error: float
    truncation_bound: float


@cache
def _draw_imports() -> SimpleNamespace:
    """What the Monte Carlo needs beyond numpy's core, imported on the first draw.

    Only the Monte Carlo uses scipy's ``ndtri`` and numpy's Philox generator,
    so no other subcommand pays for their imports. ``_per_path`` calls this
    in the calling thread before it starts any range thread, so no range
    thread is the first to import them.
    """
    from numpy.random import Generator, Philox
    from scipy.special import ndtri

    return SimpleNamespace(Generator=Generator, Philox=Philox, ndtri=ndtri)


def _stream(seed: int, start: int, n_periods: int):
    """``Generator(Philox(key=seed))`` positioned at row ``start`` of the (paths, n_periods) stream.

    The uniforms are the row-major stream of ``Generator(Philox(key=seed))``.
    Philox emits four doubles per counter step, so the row's first element,
    k = start * n_periods, is reached by starting at counter k // 4 and
    discarding k % 4 doubles: any range of rows is drawn on its own, bit for
    bit.
    """
    lib = _draw_imports()
    k = start * n_periods
    gen = lib.Generator(lib.Philox(key=seed, counter=k // 4))
    if k % 4:
        gen.random(k % 4)
    return gen


def _normals(gen, out: np.ndarray) -> np.ndarray:
    """The next ``out.size`` standard normals of ``gen``, row-major, written into ``out``."""
    gen.random(out=out)
    np.maximum(out, _MIN_UNIFORM, out=out)  # keep the inverse CDF finite at u == 0
    return _draw_imports().ndtri(out, out=out)


def _per_path(cfg: SimulationConfig, n_periods: int, make_kernel) -> np.ndarray:
    """Per-path values, streamed: ``make_kernel()`` returns a map from a block of normals to one value per row.

    Each range of blocks calls ``make_kernel`` once, so its kernel may keep
    scratch arrays from block to block. A range that fails stops the ranges
    after it at their next block, while the ranges before it run on; once
    every range has stopped, the lowest failing range's error is raised,
    which is the error a serial run raises.
    """
    n_paths = cfg.n_paths
    per_path = np.empty(n_paths)
    step = max(1, _CHUNK_ELEMENTS // n_periods)
    n_blocks = -(-n_paths // step)
    n_ranges = min(_WORKERS, n_blocks)
    edges = [min(n_paths, step * (n_blocks * r // n_ranges)) for r in range(n_ranges + 1)]
    errors = [None] * n_ranges
    _draw_imports()  # import here, never first in a range thread

    def run_range(r: int) -> None:
        first, stop = edges[r], edges[r + 1]
        try:
            gen = _stream(cfg.seed, first, n_periods)
            buf = np.empty((min(step, stop - first), n_periods))
            kernel = make_kernel()
            for start in range(first, stop, step):
                if any(error is not None for error in errors[:r]):
                    return  # an earlier range's error is raised
                g = _normals(gen, buf[: min(step, stop - start)])
                per_path[start : start + g.shape[0]] = kernel(g)
        except BaseException as error:
            errors[r] = error

    threads = [Thread(target=run_range, args=(r,), name=f"mc-range-{r}") for r in range(1, n_ranges)]
    for thread in threads:
        thread.start()
    run_range(0)
    for thread in threads:
        thread.join()
    for error in errors:
        if error is not None:
            raise error
    return per_path


def _reduce(per_path: np.ndarray, truncation: float) -> ObjectiveEstimate:
    """Mean and standard error of the per-path values, at least two of them.

    Both are computed from the values times 2**-e, with 2**e just above the
    largest |value|, so no sum or square overflows, and then scaled back. A
    power of two scales exactly, so wherever the unscaled sums and squares
    are in range, the bits are theirs. A value that is not finite raises
    NonFinite.
    """
    peak = float(np.abs(per_path).max())
    if not math.isfinite(peak):
        raise NonFinite("a Monte Carlo sample is not finite")
    e = math.frexp(peak)[1]  # 0 for a peak of 0
    samples = np.ldexp(per_path, -e)
    mean = math.ldexp(float(samples.mean()), e)
    std_error = math.ldexp(float(samples.std(ddof=1) / math.sqrt(samples.size)), e)
    return ObjectiveEstimate(mean=mean, std_error=std_error, truncation_bound=truncation)


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
    m: MarketModel,
    e: EvaluationSpec,
    cs: ConstrainedSharpe,
    x0: float,
    cfg: SimulationConfig,
) -> ObjectiveEstimate:
    """Estimate the discounted log objective under the optimal policy.

    The optimal per-period gross growth is the reciprocal of the deflator
    ratio, so each period contributes log growth -log R plus the relative
    penalty (1-gamma) times the running log wealth. The arguments are those
    of ``solve_log``: the policy needs only |xi_tilde|^2, ``cs.objective``,
    and none of the closed-form coefficients.
    """
    if x0 <= 0:
        raise DomainError("x0 must be positive")
    rho = math.exp(-e.delta * e.tau)
    mu_g = (m.r + 0.5 * cs.objective) * e.tau
    log_x0 = math.log(x0)

    def tail(n: int) -> float:
        return _log_tail(n, rho, e.gamma, log_x0, mu_g)

    periods = cfg.n_periods if cfg.n_periods is not None else _auto_periods(tail)
    law = DeflatorLaw.for_horizon(cs.objective, m.r, e.tau)
    # sum_i rho^i prev_i = sum_j growth_j (rho^(j+1) - rho^(P+1)) / (1 - rho), so the
    # objective is growth @ w plus a constant, with growth = -(drift + s G)
    discounts = rho ** np.arange(1, periods + 2)
    w = discounts[:-1] + (1.0 - e.gamma) * (discounts[1:] - discounts[-1]) / (1.0 - rho)
    base = (1.0 - e.gamma) * log_x0 * discounts[:-1].sum() - law.drift * w.sum()
    # einsum, unlike a BLAS gemv, rounds each row the same whatever the block's row count
    def kernel(g):
        return base - law.s * np.einsum("ij,j->i", g, w)

    per_path = _per_path(cfg, periods, lambda: kernel)
    return _reduce(per_path, abs(tail(periods)))


def _start_table(a: float, alpha: float, gamma: float, centre: float, s: float):
    """Newton starts for u = log I(exp(centre + s G)) at draws |G| <= _NORMAL_BOUND.

    u depends on a cell only through its one draw G, so it is solved once,
    to the kernel's tolerance, at _TABLE_INTERVALS + 1 equally spaced G,
    with its exact slope du/dG = s / L'(u), L'(u) = alpha - 1 - alpha gamma
    expit(log c - alpha gamma u), c = a(1-gamma) > 0, the expit taken as in
    the kernel. Returns ``start(g, out, theta, index, term)``, which writes
    the cubic Hermite interpolant of that table at each g into ``out`` and
    returns it; ``theta`` and ``term`` (float) and ``index`` (intp) are
    scratch of g's shape, which a Monte Carlo range reuses from block to block.
    Each cell's Newton (``power._log_marginal_inverse``) starts there and
    still ends on its step test.
    """
    m = _TABLE_INTERVALS
    width = 2.0 * _NORMAL_BOUND / m
    nodes = np.linspace(-_NORMAL_BOUND, _NORMAL_BOUND, m + 1)
    u = _log_marginal_inverse(a, alpha, gamma, centre + s * nodes)
    beta = -alpha * gamma
    e = np.exp(np.minimum(math.log(a * (1.0 - gamma)) + beta * u, _SOFTPLUS_LINEAR))
    slope = (width * s) / (alpha - 1.0 + beta * e / (1.0 + e))  # du over one interval
    rise = np.diff(u)
    # u on interval i at theta in [0, 1] is c0 + theta (c1 + theta (c2 + theta c3))
    c0, c1 = u[:-1], slope[:-1]
    c2 = 3.0 * rise - 2.0 * slope[:-1] - slope[1:]
    c3 = slope[:-1] + slope[1:] - 2.0 * rise

    def start(g, out, theta, index, term):
        np.multiply(g, 1.0 / width, out=theta)
        theta += 0.5 * m  # >= 0, so the cast floors it
        np.copyto(index, theta, casting="unsafe")
        np.minimum(index, m - 1, out=index)
        theta -= index
        # every index lies in [0, m - 1], so "clip" clips nothing; unlike "raise" it takes into out unbuffered
        c3.take(index, out=out, mode="clip")
        out *= theta
        out += c2.take(index, out=term, mode="clip")
        out *= theta
        out += c1.take(index, out=term, mode="clip")
        out *= theta
        out += c0.take(index, out=term, mode="clip")
        return out

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
    V(x0) comes from ``value_function``, and so do its DomainError for
    x0 <= 0 and its NonFinite where it leaves float64. Each path's sum of
    exp(alpha u_i + beta S_{i-1} - i delta tau) is scaled by 1/A* and then by
    that V(x0), so ``value_function`` alone decides how V(x0) is formed. The
    two steps stay apart: their product V(x0)/A* = x0^beta / alpha can
    overflow where V(x0) does not (5.9e327 for a steep alpha = -20 market at
    x0 = 1e-180, whose V(x0) is -2.6e278).
    """
    alpha, gamma = p.alpha, p.evaluation.gamma
    beta = alpha * (1.0 - gamma)
    delta_tau = p.evaluation.delta * p.evaluation.tau

    ratio = sol.psi_slope
    if not ratio < 1.0:
        raise NonConvergence("discounted per-period growth is not a contraction")
    v_x0 = value_function(sol, x0, alpha, gamma)
    value = abs(v_x0)

    def tail(n: int) -> float:
        return value * ratio**n

    periods = cfg.n_periods if cfg.n_periods is not None else _auto_periods(tail)
    # term i = exp(alpha u_i + beta S_{i-1} - i delta tau) x0^beta / alpha with
    # u = log I(y* R) and S the running sum of u; the exponent is taken as
    # beta S_i + (alpha - beta) u_i
    log_y = math.log(sol.y_star) + p.law.drift
    decay = delta_tau * np.arange(1, periods + 1)
    tabulate = sol.a_star * (1.0 - gamma) != 0.0 and p.law.s >= _POINT_MASS_S
    start = _start_table(sol.a_star, alpha, gamma, log_y, p.law.s) if tabulate else None

    def make_kernel():
        scratch = []  # made on the range's first block, its largest, and cut to each block's rows

        def kernel(g):
            if not scratch:
                scratch.extend(np.empty((5, *g.shape)))
                scratch.append(np.empty(g.shape, dtype=np.intp))
            log_y_block, u0, t, e, term, index = (a[: g.shape[0]] for a in scratch)
            np.multiply(g, p.law.s, out=log_y_block)
            log_y_block += log_y
            u0 = None if start is None else start(g, u0, t, index, term)
            u = _log_marginal_inverse(sol.a_star, alpha, gamma, log_y_block, u0, (t, e, term))
            exponent = np.cumsum(u, axis=1, out=t)
            exponent *= beta
            u *= alpha - beta
            exponent += u
            exponent -= decay
            return np.exp(exponent, out=exponent).sum(axis=1)

        return kernel

    per_path = _per_path(cfg, periods, make_kernel)
    per_path /= sol.a_star
    per_path *= v_x0
    return _reduce(per_path, tail(periods))


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
