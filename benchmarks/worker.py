"""One benchmark worker: a fresh interpreter that runs one workload.

Every worker imports ghzcert from the checkout's ``src`` and runs one
warm-up pass over the workload's distinct ops; those two steps are its
set-up time.  Then, by ``--mode``:

* ``setup``   stops there;
* ``timed``   runs cycles of ops in a closed loop (one client, each op issued
  after the previous one returns) for ``--seconds``, untraced;
* ``traced``  alternates untraced and traced passes over the same cycles for
  ``--seconds`` and derives per-layer numbers from the traced spans.

Each op is ``ghzcert.cli.main(argv)`` in-process with stdout captured and
checked.  The worker prints one JSON object as its last stdout line.
"""
import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import workloads
from tracing import ROOT_SPAN, Tracer, layer_totals

# The run continues past --seconds until it has this many samples, so that
# at least ten latencies lie above the 90th percentile.
MIN_SAMPLES = 110
# Native thread pools are pinned to one thread before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _import_ghzcert(root: Path):
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import ghzcert
    import ghzcert.cli  # noqa: F401
    if Path(ghzcert.__file__).resolve().parent != src / "ghzcert":
        raise SystemExit(f"imported ghzcert from {ghzcert.__file__}, "
                         f"not from {src}")
    return ghzcert


class Runner:
    """Issues ops through the CLI entry point and checks their output."""

    def __init__(self, package, checker: workloads.Checker) -> None:
        self._cli = package.cli
        self._checker = checker
        self.attempted = 0
        self.failures = []

    def run(self, op: workloads.Op):
        """Run one op; return (latency in s, whether a verify op refined)."""
        self._checker.before(op)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = self._cli.main(list(op.argv))
        except Exception as exc:  # a traceback escaping main is a failure
            code = f"raised {type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        self.attempted += 1
        if isinstance(code, str):
            failure, refined = f"{' '.join(op.argv)}: {code}", False
        else:
            failure, refined = self._checker.check(op, code, out.getvalue())
        if failure is not None:
            self.failures.append(failure)
        return latency, refined


def _timed(runner, args, records_path):
    latencies, labels = [], []
    cycle = 0
    start = time.perf_counter()
    while True:
        for op in workloads.cycle_ops(args.workload, args.seed, cycle,
                                      records_path):
            latency, _ = runner.run(op)
            latencies.append(latency)
            labels.append(op.label)
        cycle += 1
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds and len(latencies) >= MIN_SAMPLES:
            break
    return {"elapsed_s": elapsed, "cycles": cycle, "latencies": latencies,
            "labels": labels}


def _traced(package, runner, args, records_path, out_dir: Path):
    tracer = Tracer(package)
    depth = package.GridSpec(points_per_axis=2).refinement_depth
    wall = {False: 0.0, True: 0.0}
    grid_evals = refine_evals = useful = 0
    op_table = []
    cycle = 0
    start = time.perf_counter()
    while True:
        ops = workloads.cycle_ops(args.workload, args.seed, cycle,
                                  records_path)
        # Alternate which pass goes first, so drift favours neither.
        for traced in ((False, True) if cycle % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            for op in ops:
                tracer.op_id = len(op_table)
                op_table.append([cycle, traced, op.label])
                _, refined = runner.run(op)
                if traced and op.kind == "verify":
                    grid_evals += op.grid_block_evals()
                    if refined:
                        refine_evals += op.refine_block_evals(depth)
                if traced and op.kind == "simulate":
                    useful += workloads.useful_settings(op.family, op.n)
            wall[traced] += time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        cycle += 1
        if time.perf_counter() - start >= args.seconds:
            break
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"fields": ["name", "start", "end", "parent", "op",
                              "raised"],
                   "ops": op_table, "spans": tracer.spans}, handle)

    totals = layer_totals(tracer.spans)
    metrics = {}
    for name, entry in totals.items():
        metrics[f"{name}.calls"] = entry["calls"] / cycle
        metrics[f"{name}.self_s"] = entry["self_s"] / cycle
        metrics[f"{name}.errors"] = entry["errors"]
    root_total = totals[ROOT_SPAN]["total_s"]
    metrics[f"{ROOT_SPAN}.total_s"] = root_total / cycle
    metrics["trace.accounted_share"] = (
        sum(entry["self_s"] for entry in totals.values()) / root_total)
    metrics["trace.overhead_ratio"] = wall[True] / wall[False]
    metrics["verifier.grid_block_evals"] = grid_evals / cycle
    metrics["verifier.refine_block_evals"] = refine_evals / cycle
    scan_s = totals["verifier.min_eig_over_grid"]["total_s"]
    metrics["verifier.block_evals_per_s"] = (
        (grid_evals + refine_evals) / scan_s if scan_s else 0.0)
    born_calls = totals["simulate.born_probabilities"]["calls"]
    metrics["simulate.useful_setting_ratio"] = (
        useful / born_calls if born_calls else 0.0)
    return {"cycles": cycle, "spans": len(tracer.spans),
            "spans_path": str(spans_path), "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "timed", "traced"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--out-dir", required=True, type=Path)
    args = parser.parse_args()

    work_dir = args.out_dir / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    records_path = str(work_dir / "records.jsonl")
    checker = workloads.Checker(records_path)
    try:
        start = time.perf_counter()
        package = _import_ghzcert(args.root)
        import_s = time.perf_counter() - start
        runner = Runner(package, checker)
        warmup_s = sum(runner.run(op)[0] for op in workloads.cycle_ops(
            args.workload, args.seed, 0, records_path))
        result = {"import_s": import_s, "setup_s": import_s + warmup_s}
        if args.mode == "timed":
            result.update(_timed(runner, args, records_path))
        elif args.mode == "traced":
            result.update(_traced(package, runner, args, records_path,
                                  args.out_dir))
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(records_path)
        work_dir.rmdir()
    import numpy
    result.update({
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures[:20],
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024),
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__,
                     "ghzcert": package.__version__},
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
