"""Workloads of the ghzcert benchmark: the CLI ops of each cycle and the
checks on their outputs.

A cycle is one pass over a workload's distinct ops, in an order shuffled by
the workload seed and the cycle number.  The program sees only the argv
built here.  Every expected value below is written out independently of
the package, so a check never asks the code under test what it should have
printed.

This module imports neither numpy nor ghzcert, so a worker can time those
imports as part of set-up.
"""
from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

WORKLOADS = ("scan", "experiment", "reference")
FAMILIES = ("svetlichny", "mabk")
SCAN_PARTIES = (3, 4, 5)
BOUNDS_PARTIES = (3, 4, 5, 6)
# (visibility, shots per setting) of each simulated run.  Shots vary so that
# any cost proportional to shots shows.
EXPERIMENT_RUNS = ((1.0, 10_000), (0.9, 100_000), (0.8, 10_000))
# Simulation seeds repeat every SEED_PERIOD cycles, so each record is also
# checked against an earlier run with the same inputs.
SEED_PERIOD = 3
# Latencies fall into clusters by op kind and n.  Each mix is chosen so that
# the median and the 90th percentile land inside a cluster rather than on
# the gap between two, where they would jump between the clusters' edges.
# experiment emits each curve in both formats, so its median falls among
# the n=3 simulations.  These crosscheck sample counts make the n=3
# crosscheck about as slow as the n=5 bounds, where reference's median
# falls, and the n=4 crosscheck about as slow as the n=6 bounds, where its
# 90th percentile falls.
CROSSCHECK_SAMPLES = {3: 20, 4: 200}
NEGATIVE_SLOPE_FACTOR = 1.1
PSD_TOL = 1e-8            # the CLI's default --tol
NEGATIVE_MARGIN = 1e-6    # a negative control must fail by at least this
CURVE_POINTS = 50         # the CLI's default --resolution
Z_LIMIT = 5.0             # estimates must lie within this many standard errors
REFINE_STENCIL = 5        # points per axis in one refinement round

SQRT2 = math.sqrt(2.0)

# Catalog certificate constants (s, mu), each a + b*sqrt(2).
CATALOG: Dict[Tuple[str, int], Tuple[float, float]] = {
    ("svetlichny", 3): (3 / 16 + 3 / 16 * SQRT2, -1 / 2 - 3 / 4 * SQRT2),
    ("svetlichny", 4): (1 / 16 + 1 / 16 * SQRT2, -SQRT2 / 2),
    ("svetlichny", 5): (1 / 32 + 1 / 32 * SQRT2, -SQRT2 / 2),
    ("mabk", 3): (1 / 4 + 1 / 8 * SQRT2, -SQRT2 / 2),
    ("mabk", 4): (1 / 8 + 1 / 16 * SQRT2, -SQRT2 / 2),
    ("mabk", 5): (1 / 16 + 1 / 32 * SQRT2, -SQRT2 / 2),
}

# Local bounds that `bounds` computes by enumeration.  For Svetlichny at
# n >= 4 they differ from the catalog's 2^(n-1) (the README's "Known
# discrepancy"), so those ops are expected to print MISMATCH and exit 1.
COMPUTED_LOCAL: Dict[Tuple[str, int], float] = {
    ("svetlichny", 3): 4.0, ("svetlichny", 4): 4.0,
    ("svetlichny", 5): 8.0, ("svetlichny", 6): 8.0,
    ("mabk", 3): 2.0, ("mabk", 4): 2 * SQRT2,
    ("mabk", 5): 4.0, ("mabk", 6): 4 * SQRT2,
}


def beta_local(family: str, n: int) -> float:
    """Catalog local bound beta_L."""
    if family == "svetlichny":
        return 2.0 ** (n - 1)
    if n % 2 == 1:
        return 2.0 ** ((n - 1) // 2)
    return SQRT2 * 2.0 ** ((n - 2) // 2)


def beta_quantum(family: str, n: int) -> float:
    """Catalog quantum bound beta_Q."""
    if family == "svetlichny":
        return SQRT2 * 2.0 ** (n - 1)
    return 2.0 ** (n - 1)


def useful_settings(family: str, n: int) -> int:
    """Setting strings whose Bell coefficient is nonzero.

    MABK at odd n has coefficient zero on every odd-weight string.
    """
    if family == "mabk" and n % 2 == 1:
        return 2 ** (n - 1)
    return 2 ** n


def default_grid(n: int) -> int:
    """Points per axis the CLI scans when --grid is not given."""
    return 11 if n == 5 else 21


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its output must show."""

    kind: str
    family: str
    n: int
    argv: Tuple[str, ...]
    grid: int = 0              # verify: points per axis
    passes: bool = True        # verify: expected pass flag
    visibility: float = 0.0    # simulate
    shots: int = 0             # simulate
    seed: int = 0              # simulate

    @property
    def label(self) -> str:
        """The argv without the per-worker record path."""
        argv = self.argv[:-2] if self.kind == "simulate" else self.argv
        return " ".join(argv)

    def grid_block_evals(self) -> int:
        """2x2 block evaluations of the grid pass of a verify op."""
        return self.grid ** self.n * 2 ** (self.n - 1)

    def refine_block_evals(self, depth: int) -> int:
        """2x2 block evaluations of a verify op's refinement, if it refines."""
        return depth * REFINE_STENCIL ** self.n * 2 ** (self.n - 1)


def _scan_ops(seed: int, cycle: int, records_path: str) -> List[Op]:
    ops = []
    for family in FAMILIES:
        for n in SCAN_PARTIES:
            base = ("verify", "--family", family, "-n", str(n),
                    "--format", "json")
            s, _ = CATALOG[family, n]
            ops.append(Op("verify", family, n, base, grid=default_grid(n)))
            ops.append(Op("verify", family, n,
                          base + ("--s", repr(NEGATIVE_SLOPE_FACTOR * s)),
                          grid=default_grid(n), passes=False))
    ops.append(Op("verify", "svetlichny", 4,
                  ("verify", "-n", "4", "--grid", "31", "--format", "json"),
                  grid=31))
    return ops


def _experiment_ops(seed: int, cycle: int, records_path: str) -> List[Op]:
    sim_seed = seed + cycle % SEED_PERIOD
    ops = []
    for family in FAMILIES:
        for n in SCAN_PARTIES:
            for visibility, shots in EXPERIMENT_RUNS:
                argv = ("simulate", "--family", family, "-n", str(n),
                        "--visibility", repr(visibility), "--shots",
                        str(shots), "--seed", str(sim_seed),
                        "--out", records_path)
                ops.append(Op("simulate", family, n, argv,
                              visibility=visibility, shots=shots,
                              seed=sim_seed))
            ops += [Op("curve", family, n,
                       ("curve", "--family", family, "-n", str(n),
                        "--format", fmt)) for fmt in ("csv", "json")]
    return ops


def _reference_ops(seed: int, cycle: int, records_path: str) -> List[Op]:
    ops = [Op("crosscheck", "svetlichny", n,
              ("crosscheck", "--family", "svetlichny", "-n", str(n),
               "--samples", str(samples), "--seed", str(seed)))
           for n, samples in CROSSCHECK_SAMPLES.items()]
    ops += [Op("bounds", family, n, ("bounds", "--family", family,
                                     "-n", str(n)))
            for family in FAMILIES for n in BOUNDS_PARTIES]
    return ops


_BUILDERS = {
    "scan": _scan_ops,
    "experiment": _experiment_ops,
    "reference": _reference_ops,
}


def cycle_ops(workload: str, seed: int, cycle: int,
              records_path: str) -> List[Op]:
    """The ops of one cycle, shuffled by the workload seed and cycle number."""
    ops = _BUILDERS[workload](seed, cycle, records_path)
    random.Random(seed * 1_000_003 + cycle).shuffle(ops)
    return ops


class CheckFailed(Exception):
    """An op's exit code or output differs from what it must show."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


class Checker:
    """Checks each op's output; keeps simulate records to check repeats."""

    def __init__(self, records_path: str) -> None:
        self.records_path = records_path
        self._records: Dict[Tuple, dict] = {}

    def before(self, op: Op) -> None:
        """Clear the record file so a simulate op leaves exactly one line."""
        if op.kind == "simulate" and os.path.exists(self.records_path):
            os.remove(self.records_path)

    def check(self, op: Op, code: Optional[int],
              out: str) -> Tuple[Optional[str], bool]:
        """Return (failure message or None, whether a verify op refined)."""
        try:
            refined = getattr(self, "_check_" + op.kind)(op, code, out)
        except CheckFailed as exc:
            return f"{' '.join(op.argv)}: {exc}", False
        except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
            return (f"{' '.join(op.argv)}: unreadable output "
                    f"({type(exc).__name__}: {exc})"), False
        return None, bool(refined)

    def _check_verify(self, op: Op, code: Optional[int], out: str) -> bool:
        report = json.loads(out)
        want_code = 0 if op.passes else 1
        _expect(code == want_code, f"exit {code}, expected {want_code}")
        _expect(report["family"] == op.family and report["n"] == op.n,
                "report names another scenario")
        _expect(report["grid_points_per_axis"] == op.grid,
                f"grid {report['grid_points_per_axis']}, expected {op.grid}")
        _expect(report["passed"] is op.passes,
                f"passed={report['passed']}, expected {op.passes}")
        low = report["min_eigenvalue"]
        if op.passes:
            _expect(low >= -PSD_TOL, f"min_eigenvalue {low} below -{PSD_TOL}")
        else:
            _expect(low < -NEGATIVE_MARGIN,
                    f"negative control min_eigenvalue {low} not below "
                    f"-{NEGATIVE_MARGIN}")
        return bool(report["refined"])

    def _check_simulate(self, op: Op, code: Optional[int], out: str) -> bool:
        _expect(code == 0, f"exit {code}, expected 0")
        printed = dict(token.split("=", 1) for token in out.split()
                       if "=" in token)
        _expect(printed.get("persisted") == "true", "record not persisted")
        with open(self.records_path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        _expect(len(lines) == 1, f"{len(lines)} records appended, expected 1")
        record = json.loads(lines[0])
        _expect((record["family"], record["n"], record["visibility"],
                 record["shots_per_setting"], record["seed"])
                == (op.family, op.n, op.visibility, op.shots, op.seed),
                "record names other inputs")
        beta, std_error = record["estimated_beta"], record["std_error"]
        target = op.visibility * beta_quantum(op.family, op.n)
        _expect(abs(beta - target) <= Z_LIMIT * std_error + 1e-9,
                f"estimated_beta {beta} more than {Z_LIMIT} standard errors "
                f"({std_error}) from {target}")
        s, mu = CATALOG[op.family, op.n]
        clipped = min(max(beta, beta_local(op.family, op.n)),
                      beta_quantum(op.family, op.n))
        want = s * clipped + mu
        _expect(abs(record["fidelity_bound"] - want) <= 1e-12,
                f"fidelity_bound {record['fidelity_bound']}, expected {want}")
        _expect(_close(float(printed["fidelity_bound"]),
                       record["fidelity_bound"], 1e-11),
                "printed fidelity_bound differs from the record")
        del record["timestamp"]
        key = (op.family, op.n, op.visibility, op.shots, op.seed)
        first = self._records.setdefault(key, record)
        _expect(record == first,
                "record differs from an earlier run with the same inputs")
        return False

    def _check_curve(self, op: Op, code: Optional[int], out: str) -> bool:
        _expect(code == 0, f"exit {code}, expected 0")
        if op.argv[-1] == "json":
            curve = json.loads(out)
            _expect(curve["family"] == op.family and curve["n"] == op.n,
                    "curve names another scenario")
            bounds = [point["fidelity_bound"] for point in curve["points"]]
        else:
            header, *rows = out.splitlines()
            _expect(header == "beta_O,relative_violation,fidelity_bound",
                    f"csv header {header!r}")
            bounds = [float(row.split(",")[2]) for row in rows]
        _expect(len(bounds) == CURVE_POINTS,
                f"{len(bounds)} rows, expected {CURVE_POINTS}")
        _expect(abs(bounds[-1] - 1.0) <= 1e-12,
                f"last fidelity_bound {bounds[-1]}")
        return False

    def _check_crosscheck(self, op: Op, code: Optional[int], out: str) -> bool:
        _expect(code == 0, f"exit {code}, expected 0")
        lines = out.splitlines()
        _expect(f"samples={CROSSCHECK_SAMPLES[op.n]}" in lines[0].split(),
                "sample count not echoed")
        _expect("result=pass" in lines, "no result=pass line")
        return False

    def _check_bounds(self, op: Op, code: Optional[int], out: str) -> bool:
        lines = out.splitlines()
        _expect(lines[0] == f"family={op.family} n={op.n}",
                "header names another scenario")
        statuses = []
        for line, name, computed, catalog in (
                (lines[1], "local_bound", COMPUTED_LOCAL[op.family, op.n],
                 beta_local(op.family, op.n)),
                (lines[2], "quantum_bound", beta_quantum(op.family, op.n),
                 beta_quantum(op.family, op.n))):
            label, got, listed, status = line.split()
            _expect(label == name, f"expected a {name} line, got {line!r}")
            got_value = float(got.partition("=")[2])
            _expect(_close(got_value, computed, 1e-9),
                    f"{name} computed {got_value}, expected {computed}")
            _expect(_close(float(listed.partition("=")[2]), catalog, 1e-9),
                    f"{name} catalog {listed}, expected {catalog}")
            ok = abs(computed - catalog) <= 1e-8
            _expect(status == ("ok" if ok else "MISMATCH"),
                    f"{name} status {status}")
            statuses.append(ok)
        all_ok = all(statuses)
        _expect(lines[3] == f"status={'ok' if all_ok else 'mismatch'}",
                f"summary line {lines[3]!r}")
        _expect(code == (0 if all_ok else 1), f"exit {code}")
        return False
