"""One workload in its own process: set-up, timed phase, gate, traced run.

Started by run.py with a hermetic environment; writes one JSON record to the
path given by ``--out``. Not meant to be started by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
from scipy.special import betainc

import inputs
from gate import Gate
from probe import REF_MS, reference_unit_ns, set_up
from spans import Tracer, layer_metrics


@dataclass
class OpResult:
    index: int
    latency_ns: int
    output: tuple[int, str, str, str | None]  # exit code, stdout, stderr, output file


def run_op(cli, op: inputs.Op, index: int) -> OpResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter_ns()
        try:
            rc = cli.main(op.argv)
        except SystemExit as exc:  # argparse rejects argv
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an escaped exception is a failed op, not a crash
            rc = -1
            err.write(f"{type(exc).__name__}: {exc}\n")
        t1 = time.perf_counter_ns()
    file_text = None
    if op.out_file is not None and rc == 0:
        file_text = Path(op.out_file).read_text(encoding="utf-8")
    return OpResult(index, t1 - t0, (rc, out.getvalue(), err.getvalue(), file_text))


MIN_PASSES = 3  # each op's latency is the mean over at least this many passes
REF_SHARE = 0.02  # share of the timed phase spent on reference units, between ops


def run_passes(
    cli, ops, passes: int | None, seconds: float, ref_ns: list[int], tracer: Tracer | None = None
) -> tuple[list[OpResult], int]:
    """Whole passes over ``ops``: exactly ``passes``, or while time allows.

    Without a fixed count, MIN_PASSES passes always run, and a further pass
    starts only if the mean pass so far would end within ``seconds``.
    Reference units run between ops, REF_SHARE of the elapsed time, and
    their times are appended to ``ref_ns``: they sample the host's speed
    evenly over the phase.
    """
    results = []
    seen = {}  # one copy of each distinct output, so memory does not grow with passes
    done = 0
    ref_total = 0
    t0 = time.perf_counter_ns()
    while True:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.current_op = i
            res = run_op(cli, op, i)
            res.output = seen.setdefault(res.output, res.output)
            results.append(res)
            while ref_total < REF_SHARE * (time.perf_counter_ns() - t0):
                ref_ns.append(reference_unit_ns())
                ref_total += ref_ns[-1]
        done += 1
        elapsed = (time.perf_counter_ns() - t0) / 1e9
        if passes is not None:
            if done >= passes:
                break
        elif done >= MIN_PASSES and elapsed + elapsed / done > seconds:
            break
    return results, done


def mean_latencies_ms(results: list[OpResult], n_ops: int) -> np.ndarray:
    """Each op's mean latency over the passes, in ms.

    The host's speed swings: its CPU runs about 1.6 times faster in moments
    of a few ms that come and go with the load of its other tenants. An op of
    tens of ms never runs wholly in such a moment; its time follows the share
    of them it overlaps. The mean over passes, like the mean time of the
    reference units run between ops, weighs every moment of the phase alike,
    so the ratio of the two is steady; a per-op minimum or median is not.
    """
    total = np.zeros(n_ops)
    count = np.zeros(n_ops)
    for r in results:
        total[r.index] += r.latency_ns / 1e6
        count[r.index] += 1
    return total / count


def harrell_davis(sorted_values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of the
    order statistics. Unlike a single order statistic, it moves smoothly when
    two ops of nearly equal cost swap rank, which keeps it steady on op lists
    whose costs are spread over orders of magnitude.
    """
    x = np.asarray(sorted_values, dtype=float)
    n = x.size
    if n == 1 or q <= 0.0:
        return float(x[0])
    edges = betainc((n + 1) * q, (n + 1) * (1.0 - q), np.arange(n + 1) / n)
    return float(np.diff(edges) @ x)


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path, ops_limit: int | None = None) -> dict:
    cli = set_up()
    workload = inputs.build(name, seed, workdir)
    if ops_limit is not None:
        workload.ops = workload.ops[:ops_limit]
    for i, op in enumerate(workload.ops[: workload.warmup]):
        run_op(cli, op, i)

    if not trace:
        ref_ns = []
        results, passes = run_passes(cli, workload.ops, None, seconds, ref_ns)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures, bad = _gate(workload, results)
        bad = sum(bad)
        per_op = mean_latencies_ms(results, len(workload.ops))
        lat_ms = sorted(per_op)
        pct = workload.tail_percentile
        raw = {
            "ops_per_s": len(per_op) / (per_op.sum() / 1e3),
            "op_ms.p50": harrell_davis(lat_ms, 0.5),
            "op_ms.tail": harrell_davis(lat_ms, pct / 100.0),
        }
        ref_ms = float(np.mean(ref_ns)) / 1e6
        scale = REF_MS / ref_ms  # measured time -> time at the reference speed
        metrics = {
            "ops_per_s": raw["ops_per_s"] / scale,
            "op_ms.p50": raw["op_ms.p50"] * scale,
            "op_ms.tail": raw["op_ms.tail"] * scale,
            "peak_rss_mb": peak_rss_mb,
            "fail_frac": bad / len(results),
        }
        extra = {
            "tail_percentile": pct,
            "ops": len(workload.ops),
            "passes": passes,
            "raw_metrics": raw,
            "ref_ms": ref_ms,
            "ref_units": len(ref_ns),
            "latency_ms": [r.latency_ns / 1e6 for r in results],
            "ref_unit_ms": [t / 1e6 for t in ref_ns],
        }
    else:
        ref_untraced, ref_traced = [], []
        untraced, _ = run_passes(cli, workload.ops, 1, 0.0, ref_untraced)
        tracer = Tracer()
        tracer.install()
        try:
            traced, _ = run_passes(cli, workload.ops, 1, 0.0, ref_traced, tracer)
        finally:
            tracer.uninstall()
        results = untraced + traced
        failures, bad = _gate(workload, results)
        for k, (u, t) in enumerate(zip(untraced, traced)):
            if u.output != t.output:
                failures.append(f"op {u.index}: traced output differs from untraced output")
                bad[len(untraced) + k] = True
        bad = sum(bad)
        # the untraced pass's time at the host speed of the traced pass
        host_ratio = float(np.mean(ref_traced) / np.mean(ref_untraced))
        untraced_ns = sum(r.latency_ns for r in untraced) * host_ratio
        traced_ns = sum(r.latency_ns for r in traced)
        metrics = layer_metrics(tracer, len(traced), untraced_ns, traced_ns)
        tracer.save(workdir / "spans.npz")
        extra = {"spans": len(tracer.fid), "spans_file": str(workdir / "spans.npz")}

    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "attempted": len(results),
        "failed": bad,
        "failures": failures[:20],
        "metrics": metrics,
        **extra,
    }


def _gate(workload: inputs.Workload, results: list[OpResult]) -> tuple[list[str], list[bool]]:
    """Failure messages, and per result whether it failed the gate.

    Identical outputs of one op are checked once.
    """
    gate = Gate()
    verdicts: dict[tuple, list[str]] = {}
    failures, bad = [], []
    for res in results:
        key = (res.index, res.output)
        if key not in verdicts:
            rc, stdout, _, file_text = res.output
            verdicts[key] = gate.check(workload.ops[res.index], rc, stdout, file_text)
        bad.append(bool(verdicts[key]))
        kind = workload.ops[res.index].kind
        failures += [f"op {res.index} ({kind}): {msg}" for msg in verdicts[key]]
    return failures, bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--ops-limit", type=int, default=None)
    args = parser.parse_args(argv)
    record = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), Path(args.workdir), args.ops_limit
    )
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
