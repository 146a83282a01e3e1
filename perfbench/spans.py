"""Traced run: timing wrappers around every public function of each layer.

A layer is one module of ``periodic_portfolio``. ``Tracer.install`` replaces
each public function with a wrapper in every module of the package that holds
a reference to it, because callers look functions up in their own module
globals (``marginal_inverse`` is called from both ``power`` and ``mc``).

Each call becomes one span: function, start, end, parent span, op id, a
work count taken from its arguments or result, and whether an exception
escaped. Spans stay in memory (compact arrays) and are written out at the end.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from array import array

import numpy as np

PACKAGE = "periodic_portfolio"
LAYERS = ("cli", "config", "market", "cone", "logutil", "periodicity", "power", "quadrature", "mc")
PEAK_TRACKED = ("mc.estimate_log_objective", "mc.estimate_power_objective")


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# Work counted per call, from the call's arguments or its result.
WORK = {
    "quadrature.expect_deflator": lambda a, k, r: _arg(a, k, 2, "rule").order,
    "power.marginal_inverse": lambda a, k, r: np.size(_arg(a, k, 3, "y")),
    "cone.solve_cone": lambda a, k, r: np.size(_arg(a, k, 0, "xi")),
    "mc.simulate_deflator_ratios": lambda a, k, r: r.size,
    "power.fixed_point": lambda a, k, r: r.iterations,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # function id -> "layer.function"
        self.fid = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("i")
        self.work = array("d")
        self.error = array("b")
        self.peak_bytes: list[int] = []
        self.current_op = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == PACKAGE or name.startswith(PACKAGE + ".")]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and callable(fn)
                    and not isinstance(fn, type)
                    and getattr(fn, "__module__", None) == mod.__name__
                ):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        work_of = WORK.get(name)
        track_peak = name in PEAK_TRACKED
        fids, starts, ends, parents = self.fid, self.start, self.end, self.parent
        ops, works, errors, stack = self.op, self.work, self.error, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            ops.append(self.current_op)
            works.append(0.0)
            errors.append(0)
            ends.append(0)
            stack.append(i)
            if track_peak:
                tracemalloc.start()
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[i] = 1
                raise
            finally:
                ends[i] = clock()
                stack.pop()
                if track_peak:
                    self.peak_bytes.append(tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if work_of is not None:
                works[i] = work_of(args, kwargs, result)
            return result

        return wrapper

    # -- output ------------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return dict(
            fid=np.frombuffer(self.fid, dtype=np.int32).copy(),
            start=np.frombuffer(self.start, dtype=np.int64).copy(),
            end=np.frombuffer(self.end, dtype=np.int64).copy(),
            parent=np.frombuffer(self.parent, dtype=np.int64).copy(),
            op=np.frombuffer(self.op, dtype=np.int32).copy(),
            work=np.frombuffer(self.work, dtype=np.float64).copy(),
            error=np.frombuffer(self.error, dtype=np.int8).copy(),
        )

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


# ---------------------------------------------------------------------------
# per-layer metrics

# Per-layer metric -> the end-to-end metric it should move, on which workload.
# Names, units and direction are in BENCHMARK.json.
SHOULD_MOVE = {
    "cli.self_ms_per_op": "op_ms.p50 on closed_form; nothing on power_grid",
    "config.parse_us_per_call": "op_ms.p50 on closed_form",
    "market.validate.us_per_call": "op_ms.tail on closed_form (n=50)",
    "cone.calls": "op_ms.tail on closed_form",
    "cone.us_per_call.n2": "op_ms.tail on closed_form",
    "cone.us_per_call.n10": "op_ms.tail on closed_form",
    "cone.us_per_call.n50": "op_ms.tail on closed_form",
    "logutil.solve_log.calls": "ops_per_s on closed_form",
    "logutil.solve_log.us_per_call": "ops_per_s on closed_form",
    "periodicity.search.ms_per_call": "op_ms.tail on closed_form",
    "periodicity.evals_per_search": "op_ms.tail on closed_form",
    "power.fixed_point.calls": "ops_per_s and op_ms.tail on power_grid",
    "power.fixed_point.ms_per_call": "ops_per_s and op_ms.tail on power_grid",
    "power.picard_iters_per_solve": "ops_per_s and op_ms.tail on power_grid",
    "power.y_star.calls": "op_ms.p50 on power_grid",
    "power.y_star.budget_evals_per_root": "op_ms.p50 on power_grid",
    "power.y_star.share_of_fixed_point": "op_ms.p50 on power_grid",
    "power.marginal_inverse.calls": "op_ms.p50 on power_grid; ops_per_s on mc_verify",
    "power.marginal_inverse.elements_per_call": "op_ms.p50 on power_grid; ops_per_s on mc_verify",
    "power.marginal_inverse.ns_per_element": "op_ms.p50 on power_grid; ops_per_s on mc_verify",
    "quadrature.adaptive.calls": "op_ms.p50 on power_grid",
    "quadrature.nodes_per_call": "op_ms.p50 on power_grid",
    "quadrature.useful_frac": "op_ms.p50 on power_grid",
    "quadrature.self_ms": "op_ms.p50 on power_grid",
    "mc.path_periods": "ops_per_s and peak_rss_mb on mc_verify",
    "mc.ns_per_path_period": "ops_per_s, op_ms.p50 and op_ms.tail on mc_verify",
    "mc.draws_ms": "ops_per_s, op_ms.p50 and op_ms.tail on mc_verify",
    "mc.estimate.self_ms": "ops_per_s, op_ms.p50 and op_ms.tail on mc_verify",
    "mc.traced_peak_mb": "peak_rss_mb on mc_verify",
    "trace.overhead_frac": "none; checks the trace itself",
    "trace.coverage_frac": "none; checks the trace itself",
}
for _layer in LAYERS:
    SHOULD_MOVE[f"{_layer}.errors"] = "fail_frac on every workload"


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(tracer: Tracer, n_ops: int, untraced_ns: float, traced_ns: float) -> dict:
    """Per-layer metrics from the spans of one traced pass over the op list.

    ``untraced_ns`` and ``traced_ns`` are the summed op latencies of an
    untraced and a traced pass over the same ops, the untraced one scaled to
    the host speed of the traced pass.
    """
    a = tracer.arrays()
    fid = a["fid"]
    dur = (a["end"] - a["start"]).astype(float)
    has_parent = a["parent"] >= 0
    child_ns = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
    self_ns = dur - child_ns[: dur.size]
    layer_of_fid = np.array([LAYERS.index(n.split(".", 1)[0]) for n in tracer.names] or [0])
    layer = layer_of_fid[fid] if fid.size else fid

    def sel(*functions):
        return np.isin(fid, [i for i, n in enumerate(tracer.names) if n in functions])

    def in_layer(name):
        return layer == LAYERS.index(name)

    def inside(inner: np.ndarray, outer: np.ndarray) -> np.ndarray:
        """Mask of ``inner`` spans that lie within some ``outer`` span."""
        o_start, o_end = a["start"][outer], a["end"][outer]
        idx = np.searchsorted(o_start, a["start"][inner], side="right") - 1
        ok = idx >= 0
        ok[ok] = a["end"][inner][ok] <= o_end[idx[ok]]
        return ok

    m = {}
    m["cli.self_ms_per_op"] = _ratio(self_ns[in_layer("cli")].sum() / 1e6, n_ops)
    parse = sel("config.parse_problem_config", "config.parse_sweep_spec")
    m["config.parse_us_per_call"] = _ratio(dur[parse].sum() / 1e3, parse.sum())
    validate = sel("market.validate_market")
    m["market.validate.us_per_call"] = _ratio(dur[validate].sum() / 1e3, validate.sum())
    cone = sel("cone.solve_cone")
    m["cone.calls"] = int(cone.sum())
    for n in (2, 10, 50):
        mask = cone & (a["work"] == n)
        m[f"cone.us_per_call.n{n}"] = _ratio(dur[mask].sum() / 1e3, mask.sum())
    solve_log = sel("logutil.solve_log")
    m["logutil.solve_log.calls"] = int(solve_log.sum())
    m["logutil.solve_log.us_per_call"] = _ratio(dur[solve_log].sum() / 1e3, solve_log.sum())
    search = np.flatnonzero(sel("periodicity.tau_power_scaled", "periodicity.tau_log_value", "periodicity.tau_log_scaled"))
    m["periodicity.search.ms_per_call"] = _ratio(dur[search].sum() / 1e6, search.size)
    solve_log_idx = np.flatnonzero(solve_log)
    m["periodicity.evals_per_search"] = _ratio(inside(solve_log_idx, search).sum(), search.size)

    fixed = np.flatnonzero(sel("power.fixed_point"))
    m["power.fixed_point.calls"] = int(fixed.size)
    m["power.fixed_point.ms_per_call"] = _ratio(dur[fixed].sum() / 1e6, fixed.size)
    m["power.picard_iters_per_solve"] = _ratio(a["work"][fixed].sum(), fixed.size)
    y_star = np.flatnonzero(sel("power.solve_y_star"))
    budget = np.flatnonzero(sel("power.budget_function"))
    m["power.y_star.calls"] = int(y_star.size)
    m["power.y_star.budget_evals_per_root"] = _ratio(inside(budget, y_star).sum(), y_star.size)
    y_in_fixed = y_star[inside(y_star, fixed)]
    m["power.y_star.share_of_fixed_point"] = _ratio(dur[y_in_fixed].sum(), dur[fixed].sum())
    inv = sel("power.marginal_inverse")
    m["power.marginal_inverse.calls"] = int(inv.sum())
    m["power.marginal_inverse.elements_per_call"] = _ratio(a["work"][inv].sum(), inv.sum())
    m["power.marginal_inverse.ns_per_element"] = _ratio(dur[inv].sum(), a["work"][inv].sum())

    adaptive = np.flatnonzero(sel("quadrature.expect_deflator_adaptive"))
    sums = np.flatnonzero(sel("quadrature.expect_deflator"))
    m["quadrature.adaptive.calls"] = int(adaptive.size)
    # each adaptive call owns the expect_deflator spans whose parent it is;
    # the last of them holds the accepted order
    owner = a["parent"][sums]
    owned = np.isin(owner, adaptive)
    nodes = a["work"][sums][owned]
    m["quadrature.nodes_per_call"] = _ratio(nodes.sum(), adaptive.size)
    owners, last = np.unique(owner[owned][::-1], return_index=True)
    accepted = nodes[::-1][last]
    failed = a["error"][owners].astype(bool)  # raised: no order was accepted
    m["quadrature.useful_frac"] = _ratio(accepted[~failed].sum(), nodes.sum())
    m["quadrature.self_ms"] = _ratio(self_ns[in_layer("quadrature")].sum() / 1e6, n_ops)

    draws = sel("mc.simulate_deflator_ratios")
    estimate = np.flatnonzero(sel(*PEAK_TRACKED))
    path_periods = a["work"][draws].sum()
    m["mc.path_periods"] = _ratio(path_periods, draws.sum())
    m["mc.ns_per_path_period"] = _ratio(dur[estimate].sum(), path_periods)
    m["mc.draws_ms"] = _ratio(dur[draws].sum() / 1e6, draws.sum())
    m["mc.estimate.self_ms"] = _ratio(self_ns[estimate].sum() / 1e6, estimate.size)
    m["mc.traced_peak_mb"] = max(tracer.peak_bytes, default=0) / 2**20

    m["trace.overhead_frac"] = traced_ns / untraced_ns - 1.0
    top = ~has_parent
    m["trace.coverage_frac"] = _ratio(dur[top].sum(), traced_ns)
    errs = a["error"].astype(bool)
    for name in LAYERS:
        m[f"{name}.errors"] = int((errs & in_layer(name)).sum())
    return m
