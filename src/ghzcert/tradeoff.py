"""Conversion of Bell values into certified GHZ fidelity statements.

The certified lower bound is the affine map F(beta) = s beta + mu from the
scan constants.  This module also provides the matching model-level upper
bound, the violation threshold beta_T where the lower bound reaches 1/2,
relative violation rescaling, tightness checks, and serialized tradeoff
curves sampled between beta_T and the quantum bound.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List

from .bell import SQRT2, SVETLICHNY, BellProtocol
from .verifier import CertificateConstants, catalog_constants

_BETA_SLACK = 1e-9
# Most points emit_curve builds, at about 75 us and 360 bytes each.
MAX_CURVE_POINTS = 100_000


@dataclass(frozen=True)
class CurvePoint:
    """One sampled point of a tradeoff curve."""

    beta_O: float
    relative_violation: float
    fidelity_bound: float


@dataclass(frozen=True)
class TradeoffCurve:
    """Sampled fidelity-versus-violation curve for one scenario."""

    protocol: BellProtocol
    points: List[CurvePoint]


def format_float(x: float) -> str:
    """Render a float with 12 significant digits, trimming trailing zeros."""
    return f"{x:.12g}"


def threshold(constants: CertificateConstants) -> float:
    """Observed value beta_T at which the certified bound reaches 1/2."""
    if constants.s <= 0.0:
        raise ValueError("threshold requires a positive slope s")
    return (0.5 - constants.mu) / constants.s


def fidelity_lower_bound(constants: CertificateConstants,
                         beta_O: float) -> float:
    """Certified GHZ fidelity lower bound s beta_O + mu."""
    protocol = constants.protocol
    if not (protocol.beta_L - _BETA_SLACK
            <= beta_O <= protocol.beta_Q + _BETA_SLACK):
        raise ValueError(
            f"observed value {beta_O} outside [{protocol.beta_L}, "
            f"{protocol.beta_Q}]")
    return constants.s * beta_O + constants.mu


def is_trivial_bound(value: float) -> bool:
    """A fidelity bound below 1/2 carries no GHZ certification content."""
    return value < 0.5


def upper_bound_reference(protocol: BellProtocol) -> float:
    """Largest Bell value compatible with fidelity exactly 1/2.

    For the Svetlichny family this is the deterministic threshold constant;
    for MABK it is 2^(n-2) sqrt(2).
    """
    if protocol.family == SVETLICHNY:
        return protocol.beta_L
    return 2 ** (protocol.n - 2) * SQRT2


def tradeoff_upper_bound(protocol: BellProtocol, beta_O: float,
                         reference: float) -> float:
    """Model upper bound 1/2 + (beta_O - ref) / (2 (beta_Q - ref))."""
    if beta_O < reference - _BETA_SLACK:
        raise ValueError(
            f"observed value {beta_O} below reference {reference}")
    if beta_O > protocol.beta_Q + _BETA_SLACK:
        raise ValueError(
            f"observed value {beta_O} above quantum bound {protocol.beta_Q}")
    return 0.5 + 0.5 * (beta_O - reference) / (protocol.beta_Q - reference)


def tightness_check(protocol: BellProtocol, tol: float = 1e-12) -> bool:
    """Whether the certified lower bound meets the model upper bound."""
    constants = catalog_constants(protocol)
    reference = upper_bound_reference(protocol)
    slope = 0.5 / (protocol.beta_Q - reference)
    return bool(abs(constants.s - slope) <= tol)


def relative_violation(protocol: BellProtocol, beta_O: float) -> float:
    """Rescale beta_O so the local bound maps to 0 and the quantum to 1."""
    return (beta_O - protocol.beta_L) / (protocol.beta_Q - protocol.beta_L)


def emit_curve(protocol: BellProtocol, resolution: int = 50) -> TradeoffCurve:
    """Sample the curve on 2..``MAX_CURVE_POINTS`` points in [beta_T, beta_Q]."""
    if not 2 <= resolution <= MAX_CURVE_POINTS:
        raise ValueError(f"curve resolution must be at least 2 and at most "
                         f"{MAX_CURVE_POINTS}, got {resolution}")
    constants = catalog_constants(protocol)
    start = constants.beta_T
    stop = protocol.beta_Q
    step = (stop - start) / (resolution - 1)
    points = []
    for i in range(resolution):
        beta = stop if i == resolution - 1 else start + i * step
        points.append(CurvePoint(
            beta_O=beta,
            relative_violation=relative_violation(protocol, beta),
            fidelity_bound=fidelity_lower_bound(constants, beta)))
    return TradeoffCurve(protocol=protocol, points=points)


def curve_to_csv(curve: TradeoffCurve) -> str:
    """Serialize a curve as CSV with a fixed three-column header."""
    lines = ["beta_O,relative_violation,fidelity_bound"]
    for point in curve.points:
        lines.append(",".join(format_float(v) for v in (
            point.beta_O, point.relative_violation, point.fidelity_bound)))
    return "\n".join(lines) + "\n"


def curve_to_json(curve: TradeoffCurve) -> str:
    """Serialize a curve as a JSON document with raw float values."""
    payload = {
        "family": curve.protocol.family,
        "n": curve.protocol.n,
        "points": [
            {"beta_O": p.beta_O,
             "relative_violation": p.relative_violation,
             "fidelity_bound": p.fidelity_bound}
            for p in curve.points
        ],
    }
    return json.dumps(payload, indent=2)
