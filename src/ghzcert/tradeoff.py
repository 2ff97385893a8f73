"""Conversion of Bell values into certified GHZ fidelity statements.

The certified lower bound is the affine map F(beta) = s beta + mu from the
scan constants.  This module also provides the reference value of the
matching model-level upper bound, relative violation rescaling, tightness
checks, and serialized tradeoff curves sampled between the violation
threshold beta_T (``catalog_constants``), where the lower bound reaches
1/2, and the quantum bound.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import List

from .bell import BellProtocol, check_integer, check_real
from .root2 import SQRT2
from .verifier import _CATALOG, CertificateConstants, catalog_constants

_BETA_SLACK = 1e-9
# Most points emit_curve builds, at about 2 us and 180 bytes each.
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


def fidelity_lower_bound(constants: CertificateConstants,
                         beta_O: float) -> float:
    """Certified GHZ fidelity bound s beta_O + mu; ValueError unless finite."""
    protocol = constants.protocol
    check_real(beta_O, "observed value", protocol.beta_L - _BETA_SLACK,
               protocol.beta_Q + _BETA_SLACK)
    bound = constants.s * beta_O + constants.mu
    # beta_O is finite and positive, so a non-finite s or mu makes it so too.
    if not math.isfinite(bound):
        raise ValueError(f"non-finite fidelity bound {bound} from "
                         f"s={constants.s}, mu={constants.mu}")
    return bound


def is_trivial_bound(value: float) -> bool:
    """A fidelity bound below 1/2 carries no GHZ certification content."""
    return value < 0.5


def upper_bound_reference(protocol: BellProtocol) -> float:
    """Largest Bell value compatible with fidelity exactly 1/2, beta_Q/sqrt(2)
    exactly: 2^(n-1) for Svetlichny, 2^(n-2) sqrt(2) for MABK."""
    return float(protocol.beta_Q_exact / SQRT2)


def tightness_check(protocol: BellProtocol) -> bool:
    """Whether the certified lower bound meets the model upper bound, decided
    exactly in Q[sqrt(2)]: 2 s (beta_Q - beta_Q/sqrt(2)) == 1, s the slope."""
    catalog_constants(protocol)  # refuses a scenario outside the catalog
    s = _CATALOG[(protocol.family, protocol.n)]
    beta_q = protocol.beta_Q_exact
    return bool(2 * s * (beta_q - beta_q / SQRT2) == 1)


def relative_violation(protocol: BellProtocol, beta_O: float) -> float:
    """Rescale beta_O so the local bound maps to 0 and the quantum to 1."""
    beta_O = check_real(beta_O, "observed value")
    return (beta_O - protocol.beta_L) / (protocol.beta_Q - protocol.beta_L)


def emit_curve(protocol: BellProtocol, resolution: int = 50) -> TradeoffCurve:
    """Sample the curve on 2..``MAX_CURVE_POINTS`` points in [beta_T, beta_Q].

    ``resolution`` must be an integer in that range; ValueError otherwise.
    """
    resolution = check_integer(resolution, "curve resolution", 2,
                               MAX_CURVE_POINTS)
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
