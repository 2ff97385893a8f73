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

import numpy as np

from .bell import BellProtocol, check_integer, check_real
from .root2 import SQRT2
from .verifier import _CATALOG, CertificateConstants, catalog_constants

_BETA_SLACK = 1e-9
# Most points emit_curve builds, at about 0.9 us and 176 retained bytes
# each; building the largest curve peaks at about 22.5 MB (tracemalloc),
# its float64 columns held beside the points.
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


# One float field of csv and text output: 12 significant digits, trailing
# zeros trimmed.  format_float and curve_to_csv's rows both read it.
_FLOAT_FIELD = "{:.12g}"
_CSV_HEADER = "beta_O,relative_violation,fidelity_bound\n"
_CSV_ROW = ",".join([_FLOAT_FIELD] * 3) + "\n"
# json.dumps(payload, indent=2) of a curve, around and per point.
_JSON_HEAD = '{\n  "family": %s,\n  "n": %s,\n  "points": ['
_JSON_POINT = ('\n    {\n      "beta_O": %s,\n      "relative_violation": %s,'
               '\n      "fidelity_bound": %s\n    }')


def format_float(x: float) -> str:
    """Render a float with 12 significant digits, trimming trailing zeros."""
    return _FLOAT_FIELD.format(x)


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
    Point i is at beta_T + i * step, the last at beta_Q, and each column is
    one float64 array formed by the operations of ``relative_violation`` and
    ``fidelity_lower_bound``, so the values equal theirs bit for bit.  A
    point outside their checks raises their ValueError for the first one.
    """
    resolution = check_integer(resolution, "curve resolution", 2,
                               MAX_CURVE_POINTS)
    constants = catalog_constants(protocol)
    start = constants.beta_T
    stop = protocol.beta_Q
    step = (stop - start) / (resolution - 1)
    # Constants that overflow or are not finite fail the check below, as
    # they fail the scalar checks, and warn of nothing on the way.
    with np.errstate(all="ignore"):
        beta = start + np.arange(resolution, dtype=float) * step
        beta[-1] = stop
        relative = ((beta - protocol.beta_L)
                    / (protocol.beta_Q - protocol.beta_L))
        bound = constants.s * beta + constants.mu
    ok = ((beta >= protocol.beta_L - _BETA_SLACK)
          & (beta <= protocol.beta_Q + _BETA_SLACK) & np.isfinite(bound))
    if not ok.all():
        fidelity_lower_bound(constants, float(beta[np.argmin(ok)]))
    return TradeoffCurve(protocol=protocol, points=list(map(
        CurvePoint, beta.tolist(), relative.tolist(), bound.tolist())))


def curve_to_csv(curve: TradeoffCurve) -> str:
    """Serialize a curve as CSV with a fixed three-column header."""
    return _CSV_HEADER + "".join([_CSV_ROW.format(
        p.beta_O, p.relative_violation, p.fidelity_bound)
        for p in curve.points])


def curve_to_json(curve: TradeoffCurve) -> str:
    """Serialize a curve as a JSON document with raw float values.

    The text is ``json.dumps`` of ``{"family", "n", "points": [{"beta_O",
    "relative_violation", "fidelity_bound"}, ...]}`` with ``indent=2``, byte
    for byte: the layout is written out here, and every value is spelled by
    json's own encoder (``NaN`` and ``Infinity`` included).
    """
    points = curve.points
    head = _JSON_HEAD % (json.dumps(curve.protocol.family),
                         json.dumps(curve.protocol.n))
    if not points:
        return head + "]\n}"
    values = json.dumps([v for p in points for v in (
        p.beta_O, p.relative_violation, p.fidelity_bound)])[1:-1]
    return (head + ",".join([_JSON_POINT] * len(points))
            % tuple(values.split(", ")) + "\n  ]\n}")
