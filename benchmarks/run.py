"""ghzcert benchmark: closed-loop CLI workloads, end to end and per layer.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload scan|experiment|reference \
        --seed N --seconds S --trace 0|1

With ``--trace 0`` it starts SETUP_WORKERS fresh interpreters that each
import ghzcert and run one warm-up pass, then one more that also runs the
workload for ``--seconds``, and reports the end-to-end metrics.  With
``--trace 1`` it starts one interpreter that alternates untraced and traced
passes and reports the per-layer metrics.  See benchmarks/README.md.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
provenance.  A full report, and the spans of a traced run, are written
under ``.bench_out/`` in the checkout.  Exits 2 without a result when the
checkout holds no ghzcert sources, and 1 when a worker fails.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_WORKERS = 4
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _run_worker(args, mode: str, seconds: float, deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode, "--seconds", str(seconds),
           "--out-dir", str(OUT_DIR)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker passed the deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _source_digest() -> str:
    """SHA-256 over the package sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ghzcert").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _provenance(worker: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": worker["versions"]["python"],
        "numpy": worker["versions"]["numpy"],
        "ghzcert": worker["versions"]["ghzcert"],
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "threads": worker["threads"],
    }


def _end_to_end(workers: list, ok_ratio: float) -> tuple:
    """Metrics of an untraced run; the last worker ran the timed loop."""
    timed = workers[-1]
    latencies = timed["latencies"]
    p90 = statistics.quantiles(latencies, n=10)[8]
    above = sum(1 for x in latencies if x > p90)
    if above < 10:
        raise BenchError(f"only {above} latencies above the 90th percentile")
    setups = [w["setup_s"] for w in workers]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(latencies) / timed["elapsed_s"], "1/s"),
        "op_ms_p50": (1000 * statistics.median(latencies), "ms"),
        "op_ms_p90": (1000 * p90, "ms"),
        "ok_ratio": (ok_ratio, "ratio"),
        "peak_rss_mb": (timed["peak_rss_mb"], "MB"),
    }
    detail = {"samples": len(latencies), "above_p90": above,
              "cycles": timed["cycles"], "setup_samples_s": setups}
    return metrics, detail


def _per_layer(traced: dict) -> tuple:
    """Metrics of a traced run."""
    metrics = {name: (value, _unit(name))
               for name, value in sorted(traced["metrics"].items())}
    detail = {"cycles": traced["cycles"], "spans": traced["spans"],
              "spans_path": traced["spans_path"]}
    return metrics, detail


def _unit(name: str) -> str:
    if name.endswith((".self_s", ".total_s")):
        return "s/cycle"
    if name.endswith(".calls"):
        return "calls/cycle"
    if name.endswith(".errors"):
        return "count"
    if name.endswith("_block_evals"):
        return "evals/cycle"
    if name.endswith("_per_s"):
        return "1/s"
    return "ratio"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    args.seed %= 2 ** 32

    if not (ROOT / "src" / "ghzcert" / "__init__.py").is_file():
        print(f"error: no ghzcert sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            workers = [_run_worker(args, "traced", args.seconds, deadline)]
        else:
            workers = [_run_worker(args, "setup", 0.0, deadline)
                       for _ in range(SETUP_WORKERS)]
            workers.append(_run_worker(args, "timed", args.seconds, deadline))
        attempted = sum(w["attempted"] for w in workers)
        failed = sum(w["failed"] for w in workers)
        if args.trace:
            metrics, detail = _per_layer(workers[0])
        else:
            metrics, detail = _end_to_end(workers, 1.0 - failed / attempted)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failures = [f for w in workers for f in w["failures"]]
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "provenance": _provenance(workers[-1]), "detail": detail,
              "failures": failures, "result": result, "workers": workers}
    report_path = (OUT_DIR /
                   f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    print(json.dumps({"provenance": report["provenance"], "detail": detail,
                      "report": str(report_path.relative_to(ROOT))}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
