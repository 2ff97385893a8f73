"""Command-line interface for bound tables, scans, curves, and simulations.

Subcommands
-----------
bounds      recompute the deterministic and quantum bounds and compare them
            with the catalog constants
verify      scan the certificate over a product grid and report the minimum
            block eigenvalue
curve       emit the fidelity-versus-violation tradeoff curve as CSV or JSON
simulate    run a finite-statistics experiment and certify the estimate
crosscheck  compare the hand-expanded closed forms with the matrix route

Exit codes: 0 success, 1 certification or bounds failure, 2 usage or input
error (including an ``--out`` path that cannot be written), 3 structural
violation in the block reduction.

Options may also come from a ``--config`` file of flat ``key=value`` lines
(``#`` starts a comment, unknown keys are ignored); explicit flags win over
config values, which win over defaults.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Callable, Dict, Optional, Sequence

from .bell import BellProtocol, local_bound, quantum_bound
from .simulate import NoiseModel, certify
from .tradeoff import curve_to_csv, curve_to_json, emit_curve, format_float
from .verifier import (CertificateConstants, GridSpec, StructureViolation,
                       catalog_constants, closed_form_crosscheck,
                       min_eig_over_grid)

_BOUNDS_TOL = 1e-8
_SCAN_PARTY_RANGE = (3, 4, 5)
_BOUNDS_PARTY_RANGE = (3, 4, 5, 6)

_DEFAULTS = {
    "family": "svetlichny",
    "n": 3,
    "tol": 1e-8,
    "format": "csv",
    "out": None,
    "full_domain": False,
    "s": None,
    "mu": None,
    "visibility": 1.0,
    "shots": 10000,
    "seed": 0,
    "resolution": 50,
    "samples": 500,
}

_CASTS: Dict[str, Callable[[str], object]] = {
    "family": str,
    "n": int,
    "grid": int,
    "tol": float,
    "format": str,
    "out": str,
    "full_domain": lambda v: v.strip().lower() in ("1", "true", "yes", "on"),
    "s": float,
    "mu": float,
    "visibility": float,
    "shots": int,
    "seed": int,
    "resolution": int,
    "samples": int,
}


def _load_config(path: str) -> Dict[str, str]:
    values: Dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {line!r}")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


class _Options:
    """Flag > config > default resolution for one parsed invocation."""

    def __init__(self, args: argparse.Namespace) -> None:
        self._args = args
        config_path = getattr(args, "config", None)
        self._config = _load_config(config_path) if config_path else {}

    def get(self, key: str, default: object = None) -> object:
        value = getattr(self._args, key, None)
        if value is not None:
            return value
        if key in self._config:
            return _CASTS[key](self._config[key])
        if default is not None:
            return default
        return _DEFAULTS.get(key)

    def grid(self, n: int) -> int:
        return int(self.get("grid", 11 if n == 5 else 21))


def _protocol(options: _Options, allowed: Sequence[int]) -> BellProtocol:
    family = str(options.get("family"))
    n = int(options.get("n"))
    if n not in allowed:
        raise ValueError(f"party count {n} not in {sorted(allowed)}")
    return BellProtocol(family, n)


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def cmd_bounds(options: _Options) -> int:
    protocol = _protocol(options, _BOUNDS_PARTY_RANGE)
    local = local_bound(protocol)
    quantum = quantum_bound(protocol)
    local_ok = abs(local - protocol.beta_L) <= _BOUNDS_TOL
    quantum_ok = abs(quantum - protocol.beta_Q) <= _BOUNDS_TOL
    print(f"family={protocol.family} n={protocol.n}")
    print(f"local_bound computed={format_float(local)} "
          f"catalog={format_float(protocol.beta_L)} "
          f"{'ok' if local_ok else 'MISMATCH'}")
    print(f"quantum_bound computed={format_float(quantum)} "
          f"catalog={format_float(protocol.beta_Q)} "
          f"{'ok' if quantum_ok else 'MISMATCH'}")
    ok = local_ok and quantum_ok
    print(f"status={'ok' if ok else 'mismatch'}")
    return 0 if ok else 1


def _constants_for(options: _Options,
                   protocol: BellProtocol) -> CertificateConstants:
    constants = catalog_constants(protocol)
    s_override = options.get("s")
    mu_override = options.get("mu")
    if s_override is None and mu_override is None:
        return constants
    s = float(s_override) if s_override is not None else constants.s
    mu = float(mu_override) if mu_override is not None else constants.mu
    if s <= 0.0:
        raise ValueError("slope s must be positive")
    return CertificateConstants(protocol=protocol, s=s, mu=mu,
                                beta_T=(0.5 - mu) / s)


def _render(value: object) -> str:
    """One csv or text field: lists joined by ';', lowercase bools."""
    if isinstance(value, list):
        return ";".join(format_float(item) for item in value)
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def cmd_verify(options: _Options) -> int:
    protocol = _protocol(options, _SCAN_PARTY_RANGE)
    constants = _constants_for(options, protocol)
    full_domain = bool(options.get("full_domain"))
    domain = (0.0, math.pi / 2) if full_domain else (0.0, math.pi / 4)
    spec = GridSpec(points_per_axis=options.grid(protocol.n), domain=domain)
    report = min_eig_over_grid(protocol, constants, spec,
                               psd_tol=float(options.get("tol")))
    fields = {
        "family": protocol.family,
        "n": protocol.n,
        "s": constants.s,
        "mu": constants.mu,
        "beta_T": constants.beta_T,
        "grid_points_per_axis": report.grid_points_per_axis,
        "min_eigenvalue": report.min_eigenvalue,
        "argmin_angles": list(report.argmin_angles),
        "refined": report.refined,
        "passed": report.passed,
        "binding_pair": report.binding_pair,
        "block_evaluations": report.block_evaluations,
    }
    fmt = str(options.get("format"))
    if fmt == "json":
        text = json.dumps(fields, indent=2) + "\n"
    elif fmt == "csv":
        text = (",".join(fields) + "\n"
                + ",".join(_render(value) for value in fields.values()) + "\n")
    else:
        text = "".join(f"{key}={_render(value)}\n"
                       for key, value in fields.items())
    _emit(text, options.get("out"))
    return 0 if report.passed else 1


def cmd_curve(options: _Options) -> int:
    protocol = _protocol(options, _SCAN_PARTY_RANGE)
    curve = emit_curve(protocol, resolution=int(options.get("resolution")))
    fmt = str(options.get("format"))
    if fmt == "json":
        text = curve_to_json(curve) + "\n"
    else:
        text = curve_to_csv(curve)
    _emit(text, options.get("out"))
    return 0


def cmd_simulate(options: _Options) -> int:
    protocol = _protocol(options, _SCAN_PARTY_RANGE)
    constants = catalog_constants(protocol)
    noise = NoiseModel("visibility", float(options.get("visibility")))
    record = certify(protocol, constants, noise,
                     shots_per_setting=int(options.get("shots")),
                     seed=int(options.get("seed")),
                     log_path=options.get("out"))
    print(f"family={record.family} n={record.n} "
          f"visibility={format_float(record.visibility)} "
          f"shots_per_setting={record.shots_per_setting} seed={record.seed}")
    print(f"estimated_beta={format_float(record.estimated_beta)}")
    print(f"std_error={format_float(record.std_error)}")
    print(f"fidelity_bound={format_float(record.fidelity_bound)}")
    print(f"clamped={str(record.clamped).lower()}")
    print(f"trivial={str(record.trivial).lower()}")
    out_path = options.get("out")
    if out_path:
        print(f"persisted={str(record.persisted).lower()}")
        if not record.persisted:
            print(f"error: could not append the record to {out_path}",
                  file=sys.stderr)
            return 2
    return 0


def cmd_crosscheck(options: _Options) -> int:
    protocol = _protocol(options, _SCAN_PARTY_RANGE)
    report = closed_form_crosscheck(protocol,
                                    samples=int(options.get("samples")),
                                    seed=int(options.get("seed")))
    print(f"family={report['family']} n={report['n']} "
          f"samples={report['samples']}")
    print(f"checks={','.join(report['checks'])}")
    print(f"failures={len(report['failures'])}")
    for failure in report["failures"]:
        print(f"  {failure}")
    print(f"result={'pass' if report['passed'] else 'fail'}")
    return 0 if report["passed"] else 1


_COMMANDS = {
    "bounds": cmd_bounds,
    "verify": cmd_verify,
    "curve": cmd_curve,
    "simulate": cmd_simulate,
    "crosscheck": cmd_crosscheck,
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", help="svetlichny or mabk")
    parser.add_argument("-n", type=int, dest="n", help="number of parties")
    parser.add_argument("--config", help="key=value options file")


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once; each parse returns a new Namespace."""
    parser = argparse.ArgumentParser(
        prog="ghzcert",
        description="Certify GHZ fidelity from multipartite Bell violations.")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("bounds", help="compare computed and catalog bounds")
    _add_common(p)

    p = sub.add_parser("verify", help="scan the certificate over a grid")
    _add_common(p)
    p.add_argument("--grid", type=int, help="points per angle axis")
    p.add_argument("--tol", type=float, help="PSD tolerance")
    p.add_argument("--s", type=float, help="override slope s")
    p.add_argument("--mu", type=float, help="override offset mu")
    p.add_argument("--full-domain", action="store_true", default=None,
                   dest="full_domain", help="scan [0, pi/2] instead of [0, pi/4]")
    p.add_argument("--format", choices=("text", "csv", "json"),
                   help="report format")
    p.add_argument("--out", help="write the report to this path")

    p = sub.add_parser("curve", help="emit the fidelity tradeoff curve")
    _add_common(p)
    p.add_argument("--resolution", type=int, help="number of curve points")
    p.add_argument("--format", choices=("csv", "json"), help="output format")
    p.add_argument("--out", help="write the curve to this path")

    p = sub.add_parser("simulate", help="simulate a finite-statistics run")
    _add_common(p)
    p.add_argument("--visibility", type=float, help="target state visibility")
    p.add_argument("--shots", type=int, help="shots per setting")
    p.add_argument("--seed", type=int, help="base RNG seed")
    p.add_argument("--out", help="append a JSONL record to this path")

    p = sub.add_parser("crosscheck", help="check closed forms against matrices")
    _add_common(p)
    p.add_argument("--samples", type=int, help="random angle samples")
    p.add_argument("--seed", type=int, help="RNG seed")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        options = _Options(args)
        return _COMMANDS[args.command](options)
    except StructureViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
