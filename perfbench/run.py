"""Benchmark of the periodic_portfolio CLI: seeded workloads, end-to-end and
per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py                       # every workload, untraced then traced
    python3 perfbench/run.py --workload power_grid --seed 3 --seconds 30 --trace 0

Each workload runs in its own process with one BLAS thread and without
``PP_QUAD_ORDER``. An op is one in-process ``periodic_portfolio.cli.main(argv)``
call on generated config files; every op's output is checked after the timed
phase. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced pass; their names, units and the default run
length come from ``BENCHMARK.json``. The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Records, generated inputs and spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import WORKLOADS
from probe import REF_MS
from spans import SHOULD_MOVE

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 4  # fresh interpreters timed before the workload, and as many after it
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def hermetic_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PP_QUAD_ORDER"}
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
    )
    return env


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or "unknown"


def setup_samples(env: dict[str, str], warm: bool) -> list[tuple[float, float]]:
    """(seconds from process start to the end of the program's set-up, mean
    reference unit in ms right after it) per fresh interpreter.

    Without ``warm``, one untimed start comes first: it also writes the
    bytecode caches.
    """
    samples = []
    for _ in range(SETUP_RUNS + (not warm)):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py")],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        done, ref_ms = (float(v) for v in proc.stdout.split()[-2:])
        samples.append((done - t0, ref_ms))
    return samples if warm else samples[1:]


def run_worker(env, workload: str, seed: int, seconds: float, trace: int, ops_limit) -> dict:
    tag = f"{workload}-seed{seed}-trace{trace}"
    workdir = ROOT / ".bench_out" / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    out = workdir / "worker.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--workdir", str(workdir), "--out", str(out),
    ]
    if ops_limit is not None:
        cmd += ["--ops-limit", str(ops_limit)]
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{tag}: worker did not finish within {WORKER_TIMEOUT_S} s") from None
    (workdir / "worker.stdout").write_text(proc.stdout, encoding="utf-8")
    (workdir / "worker.stderr").write_text(proc.stderr, encoding="utf-8")
    if proc.returncode != 0:
        raise BenchError(f"{tag}: worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(out.read_text(encoding="utf-8"))


def run_one(spec: dict, env, sha: str, workload: str, seed: int, seconds: float, trace: int, ops_limit) -> dict:
    # Set-up is timed before and after the workload, so that one slow spell
    # of the host does not cover every sample.
    samples = [] if trace else setup_samples(env, warm=False)
    record = run_worker(env, workload, seed, seconds, trace, ops_limit)
    values = record["metrics"]
    if not trace:
        samples += setup_samples(env, warm=True)
        record["setup_samples"] = samples
        record["raw_metrics"]["setup_s"] = statistics.median(t for t, _ in samples)
        values["setup_s"] = statistics.median(t * REF_MS / ref_ms for t, ref_ms in samples)
    record.update(sha=sha, nproc=os.cpu_count(), seconds=seconds)
    path = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    declared = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"{workload}: worker did not report {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    print(
        f"== {workload} seed={seed} trace={trace} sha={sha[:12]} python={record['python']} "
        f"numpy={record['numpy']} scipy={record['scipy']} nproc={record['nproc']}"
    )
    if trace:
        print(f"   {record['attempted']} ops (one untraced and one traced pass), {record['spans']} spans")
        notes = SHOULD_MOVE
    else:
        ops, passes, raw = record["ops"], record["passes"], record["raw_metrics"]
        notes = {
            "setup_s": f"median of {len(record['setup_samples'])} fresh interpreters",
            "ops_per_s": f"{ops} ops / sum of their mean latencies over {passes} passes",
            "op_ms.p50": f"of {ops} per-op means over {passes} passes",
            "op_ms.tail": f"p{record['tail_percentile']} of {ops} per-op means over {passes} passes",
        }
        for name, value in raw.items():
            notes[name] += f"; {value:.6g} as measured"
        print(
            f"   times at the reference speed: x {REF_MS} ms / {record['ref_ms']:.6g} ms, the mean of "
            f"{record['ref_units']} reference units run between ops (probe.py)"
        )
    for name, m in metrics.items():
        print(f"   {name:42s} {m['value']:>14.6g} {m['unit']:6s} {notes.get(name, '')}")
    if not trace:
        print(
            f"   {'fail_frac':42s} {values['fail_frac']:>14.6g} {'ratio':6s} "
            f"{record['failed']} of {record['attempted']} ops failed"
        )
    for msg in record["failures"]:
        print(f"   FAILED {msg}")

    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="length of the timed phase (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None, help="default: both")
    parser.add_argument("--ops-limit", type=int, default=None, help="truncate each op list (smoke runs)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "periodic_portfolio" / "cli.py").is_file():
        sys.stderr.write(f"run.py: no periodic_portfolio sources under {ROOT / 'src'}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    env = hermetic_env()
    sha = git_sha()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (0, 1) if args.trace is None else (args.trace,)
    try:
        for workload in workloads:
            for trace in traces:
                run_one(spec, env, sha, workload, args.seed, seconds, trace, args.ops_limit)
    except BenchError as exc:
        sys.stderr.write(f"run.py: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
