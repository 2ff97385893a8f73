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

Exit codes: 0 success, 1 certification or bounds failure (including a
failed quantum-bound cross-check, reported on one ``error:`` line), 2 usage
or input error (including an ``--out`` path that cannot be written), 3
structural violation in the block reduction.

Options may also come from a ``--config`` file of flat ``key=value`` lines
(``#`` starts a comment).  Each line whose key names an option of the
subcommand becomes that flag, placed before the command-line flags and
checked like them; other keys are ignored.  So explicit flags win over
config values, which win over defaults.  ``full_domain`` takes 1/true/yes/on
or 0/false/no/off.

An argv is parsed once, by the parser of the subcommand it names first; the
top-level parser answers only a missing or unknown subcommand and ``-h``.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from .bell import (_MAX_PARTIES, _MIN_PARTIES, FAMILIES, SVETLICHNY,
                   BellProtocol, check_real, local_bound, quantum_bound)
from .simulate import NoiseModel, certify
from .tradeoff import curve_to_csv, curve_to_json, emit_curve, format_float
from .verifier import (CATALOG_PARTIES, PSD_TOLERANCE, CertificateConstants,
                       GridSpec, StructureViolation, catalog_constants,
                       closed_form_crosscheck, min_eig_over_grid)

_BOUNDS_TOL = 1e-8
_BOUNDS_PARTY_RANGE = tuple(range(_MIN_PARTIES, _MAX_PARTIES + 1))
# A negative number as argparse should read it after a flag, exponent form
# included ("-7e-1"); before Python 3.14 argparse takes only "-7" and "-0.7"
# and reads anything else as an option.  No option string here starts with
# a digit, so none of them matches.
_NEGATIVE_NUMBER = re.compile(r"^-(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?$")
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _boolean(text: str) -> bool:
    try:
        return _BOOLEANS[text.strip().lower()]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"expected 1/true/yes/on or 0/false/no/off, got {text!r}") from None


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


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def cmd_bounds(args: argparse.Namespace) -> int:
    protocol = BellProtocol(args.family, args.n)
    local = local_bound(protocol)
    try:
        quantum = quantum_bound(protocol)
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
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


def _constants_for(args: argparse.Namespace,
                   protocol: BellProtocol) -> CertificateConstants:
    constants = catalog_constants(protocol)
    if args.s is None and args.mu is None:
        return constants
    s = args.s if args.s is not None else constants.s
    mu = args.mu if args.mu is not None else constants.mu
    if s <= 0.0:
        raise ValueError("slope s must be positive")
    beta_t = check_real((0.5 - mu) / s,
                        f"s={s} and mu={mu} give a threshold beta_T that")
    return CertificateConstants(protocol=protocol, s=s, mu=mu, beta_T=beta_t)


def _render(value: object) -> str:
    """One csv or text field: tuples joined by ';', lowercase bools."""
    if isinstance(value, tuple):
        return ";".join(format_float(item) for item in value)
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def cmd_verify(args: argparse.Namespace) -> int:
    protocol = BellProtocol(args.family, args.n)
    constants = _constants_for(args, protocol)
    domain = (0.0, math.pi / 2) if args.full_domain else (0.0, math.pi / 4)
    grid = args.grid if args.grid is not None else (
        11 if protocol.n == 5 else 21)
    spec = GridSpec(points_per_axis=grid, domain=domain)
    report = min_eig_over_grid(constants, spec, psd_tol=args.tol)
    # The constants, then the report's own fields in declaration order.
    fields = {"family": protocol.family, "n": protocol.n, "s": constants.s,
              "mu": constants.mu, "beta_T": constants.beta_T}
    fields.update((field.name, getattr(report, field.name))
                  for field in dataclasses.fields(report)
                  if field.name != "constants")
    if args.format == "json":
        text = json.dumps(fields, indent=2) + "\n"
    elif args.format == "csv":
        text = (",".join(fields) + "\n"
                + ",".join(_render(value) for value in fields.values()) + "\n")
    else:
        text = "".join(f"{key}={_render(value)}\n"
                       for key, value in fields.items())
    _emit(text, args.out)
    return 0 if report.passed else 1


def cmd_curve(args: argparse.Namespace) -> int:
    protocol = BellProtocol(args.family, args.n)
    curve = emit_curve(protocol, resolution=args.resolution)
    if args.format == "json":
        text = curve_to_json(curve) + "\n"
    else:
        text = curve_to_csv(curve)
    _emit(text, args.out)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    constants = catalog_constants(BellProtocol(args.family, args.n))
    noise = NoiseModel("visibility", args.visibility)
    record = certify(constants, noise, shots_per_setting=args.shots,
                     seed=args.seed, log_path=args.out)
    print(f"family={record.family} n={record.n} "
          f"visibility={format_float(record.visibility)} "
          f"shots_per_setting={record.shots_per_setting} seed={record.seed}")
    print(f"estimated_beta={format_float(record.estimated_beta)}")
    print(f"std_error={format_float(record.std_error)}")
    print(f"fidelity_bound={format_float(record.fidelity_bound)}")
    print(f"clamped={str(record.clamped).lower()}")
    print(f"trivial={str(record.trivial).lower()}")
    if args.out:
        print(f"persisted={str(record.persisted).lower()}")
        if not record.persisted:
            print(f"error: could not append the record to {args.out}",
                  file=sys.stderr)
            return 2
    return 0


def cmd_crosscheck(args: argparse.Namespace) -> int:
    protocol = BellProtocol(args.family, args.n)
    report = closed_form_crosscheck(protocol, samples=args.samples,
                                    seed=args.seed)
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


def _add_common(parser: argparse.ArgumentParser,
                parties: Sequence[int]) -> None:
    parser.add_argument("--family", choices=FAMILIES, default=SVETLICHNY,
                        help="operator family")
    parser.add_argument("-n", type=int, choices=parties, default=3,
                        help="number of parties")
    parser.add_argument("--config", help="key=value options file")


@functools.lru_cache(maxsize=None)
def _build_parser() -> Tuple[argparse.ArgumentParser,
                             Dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's parser by name, built once;
    each parse returns a new Namespace."""
    parser = argparse.ArgumentParser(
        prog="ghzcert",
        description="Certify GHZ fidelity from multipartite Bell violations.")
    sub = parser.add_subparsers(dest="command")
    commands: Dict[str, argparse.ArgumentParser] = {}

    def add(name: str, summary: str,
            parties: Sequence[int]) -> argparse.ArgumentParser:
        p = commands[name] = sub.add_parser(name, help=summary)
        _add_common(p, parties)
        return p

    add("bounds", "compare computed and catalog bounds", _BOUNDS_PARTY_RANGE)

    p = add("verify", "scan the certificate over a grid", CATALOG_PARTIES)
    p.add_argument("--grid", type=int,
                   help="points per angle axis (default 21, 11 when n = 5)")
    p.add_argument("--tol", type=float, default=PSD_TOLERANCE,
                   help="PSD tolerance")
    p.add_argument("--s", type=float, help="override slope s")
    p.add_argument("--mu", type=float, help="override offset mu")
    p.add_argument("--full-domain", type=_boolean, nargs="?", const=True,
                   default=False, dest="full_domain", metavar="BOOL",
                   help="scan [0, pi/2] instead of [0, pi/4]")
    p.add_argument("--format", choices=("text", "csv", "json"), default="csv",
                   help="report format")
    p.add_argument("--out", help="write the report to this path")

    p = add("curve", "emit the fidelity tradeoff curve", CATALOG_PARTIES)
    p.add_argument("--resolution", type=int, default=50,
                   help="number of curve points")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format")
    p.add_argument("--out", help="write the curve to this path")

    p = add("simulate", "simulate a finite-statistics run", CATALOG_PARTIES)
    p.add_argument("--visibility", type=float, default=1.0,
                   help="target state visibility")
    p.add_argument("--shots", type=int, default=10000, help="shots per setting")
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p.add_argument("--out", help="append a JSONL record to this path")

    p = add("crosscheck", "check closed forms against matrices",
            CATALOG_PARTIES)
    p.add_argument("--samples", type=int, default=500,
                   help="random angle samples")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")

    for each in (parser, *commands.values()):
        each._negative_number_matcher = _NEGATIVE_NUMBER
    return parser, commands


def _parse(argv: List[str]) -> argparse.Namespace:
    """Parse ``argv`` once, with the parser of the subcommand it names first.

    The top-level parser answers only an ``argv`` that names no subcommand
    first: none, an unknown one, or ``-h``.  Arguments the subcommand leaves
    over go to the top-level parser's error, as a full parse would send
    them.  ``--config`` lines whose keys name an option of the subcommand
    become ``--key=value`` flags placed before its command-line flags, so
    those win; the other keys are dropped.
    """
    parser, commands = _build_parser()
    command = argv[0] if argv else None
    if command not in commands:
        return parser.parse_args(argv)
    sub, rest = commands[command], argv[1:]
    args = _parse_command(parser, sub, rest)
    if args.config is not None:
        flags = [("-n=" if key == "n" else f"--{key.replace('_', '-')}=")
                 + value
                 for key, value in _load_config(args.config).items()
                 if key in vars(args) and key != "config"]
        args = _parse_command(parser, sub, flags + rest)
    args.command = command
    return args


def _parse_command(parser: argparse.ArgumentParser,
                   sub: argparse.ArgumentParser,
                   argv: List[str]) -> argparse.Namespace:
    """``argv`` parsed by ``sub``; leftovers exit through ``parser``."""
    args, extras = sub.parse_known_args(argv)
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse(list(sys.argv[1:] if argv is None else argv))
        if args.command is None:
            _build_parser()[0].print_usage(sys.stderr)
            return 2
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    except StructureViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
