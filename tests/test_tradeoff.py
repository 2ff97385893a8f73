"""Fidelity bounds, thresholds, tightness checks, and tradeoff curves."""
from __future__ import annotations

import dataclasses
import json
import math
import operator
import re
from fractions import Fraction

import numpy as np
import pytest

import ghzcert.tradeoff
import ghzcert.verifier
from ghzcert.bell import MABK, SVETLICHNY, BellProtocol
from ghzcert.root2 import Root2
from ghzcert.tradeoff import (MAX_CURVE_POINTS, CurvePoint, TradeoffCurve,
                              curve_to_csv, curve_to_json, emit_curve,
                              fidelity_lower_bound, format_float,
                              is_trivial_bound, relative_violation,
                              tightness_check, upper_bound_reference)
from ghzcert.simulate import NoiseModel, certify
from ghzcert.verifier import CertificateConstants, catalog_constants
from oracles import (PastValidation, curve_to_csv_by_field,
                     emit_curve_by_point, per_family_upper_bound_reference,
                     stop_past_validation)

SQ2 = math.sqrt(2.0)

INTERCEPTS = {
    (SVETLICHNY, 3): 1 / 3,
    (SVETLICHNY, 4): 0.0,
    (SVETLICHNY, 5): 0.0,
    (MABK, 3): SQ2 - 1,
    (MABK, 4): (1 + 2 * SQ2) / 7,
    (MABK, 5): (2 * SQ2 - 1) / 3,
}


def constants_for(family: str, n: int):
    return catalog_constants(BellProtocol(family, n))


def test_threshold_examples():
    assert abs(constants_for(SVETLICHNY, 3).beta_T
               - 4 * (2 + SQ2) / 3) <= 1e-12
    assert abs(constants_for(MABK, 5).beta_T - 8 * SQ2) <= 1e-12
    assert abs(constants_for(MABK, 3).beta_T - 2 * SQ2) <= 1e-12


def test_fidelity_lower_bound_examples():
    sv4 = constants_for(SVETLICHNY, 4)
    assert abs(fidelity_lower_bound(sv4, 8.0) - 0.5) <= 1e-12
    assert abs(fidelity_lower_bound(sv4, 8 * SQ2) - 1.0) <= 1e-12
    m4 = constants_for(MABK, 4)
    assert abs(fidelity_lower_bound(m4, 4 * SQ2) - 0.5) <= 1e-12
    sv3 = constants_for(SVETLICHNY, 3)
    expected = sv3.s * 4.8 + sv3.mu
    assert abs(fidelity_lower_bound(sv3, 4.8) - expected) <= 1e-12


def test_fidelity_lower_bound_domain():
    sv4 = constants_for(SVETLICHNY, 4)
    protocol = BellProtocol(SVETLICHNY, 4)
    with pytest.raises(ValueError):
        fidelity_lower_bound(sv4, protocol.beta_L - 0.1)
    with pytest.raises(ValueError):
        fidelity_lower_bound(sv4, protocol.beta_Q + 0.1)
    assert fidelity_lower_bound(sv4, protocol.beta_Q + 5e-13) <= 1.0 + 1e-9


def test_fidelity_lower_bound_rejects_non_finite_constants():
    # A NaN or infinite s or mu, or an s * beta that overflows, has no
    # certification content; certify records none of them.
    protocol = BellProtocol(SVETLICHNY, 3)
    noise = NoiseModel("visibility", 0.9)
    for s, mu in ((math.nan, 0.0), (0.1, math.nan), (math.inf, 0.0),
                  (0.1, -math.inf), (1e308, 0.0), (-1e308, 0.0)):
        constants = CertificateConstants(protocol, s, mu, 0.0)
        with pytest.raises(ValueError, match="non-finite"):
            fidelity_lower_bound(constants, protocol.beta_Q)
        with pytest.raises(ValueError, match="non-finite"):
            certify(constants, noise, shots_per_setting=10, seed=1)


def test_trivial_regime_flagging():
    m3 = constants_for(MABK, 3)
    assert is_trivial_bound(fidelity_lower_bound(m3, 2.5))
    assert not is_trivial_bound(fidelity_lower_bound(m3, 3.5))
    value = fidelity_lower_bound(m3, 2.5)
    assert value < 0.5


def test_upper_bound_reference_values():
    expected = {
        (SVETLICHNY, 3): 4.0,
        (SVETLICHNY, 4): 8.0,
        (SVETLICHNY, 5): 16.0,
        (MABK, 3): 2 * SQ2,
        (MABK, 4): 4 * SQ2,
        (MABK, 5): 8 * SQ2,
    }
    for (family, n), value in expected.items():
        assert abs(upper_bound_reference(BellProtocol(family, n)) - value) <= 1e-12


def test_upper_bound_reference_matches_per_family_oracle_bit_for_bit():
    for family in (SVETLICHNY, MABK):
        for n in range(3, 9):
            protocol = BellProtocol(family, n)
            assert (upper_bound_reference(protocol).hex()
                    == per_family_upper_bound_reference(protocol).hex())


def test_tightness_catalog():
    expected = {
        (SVETLICHNY, 3): False,
        (SVETLICHNY, 4): True,
        (SVETLICHNY, 5): True,
        (MABK, 3): True,
        (MABK, 4): True,
        (MABK, 5): True,
    }
    for (family, n), value in expected.items():
        assert tightness_check(BellProtocol(family, n)) is value


def test_tightness_is_exact_for_a_near_tight_slope(monkeypatch):
    # A slope 1e-15 off the tight line is within any float tolerance of it,
    # yet the line it gives is not the best possible.
    key = (SVETLICHNY, 4)
    catalog_constants.cache_clear()
    monkeypatch.setitem(ghzcert.verifier._CATALOG, key,
                        ghzcert.verifier._CATALOG[key]
                        * Root2(Fraction(10 ** 15 + 1, 10 ** 15)))
    try:
        assert tightness_check(BellProtocol(*key)) is False
    finally:
        catalog_constants.cache_clear()


def _root2(x):
    return x if isinstance(x, Root2) else Root2(x)


@pytest.mark.parametrize("name, op", [
    ("+", operator.add), ("-", operator.sub), ("*", operator.mul),
    ("/", operator.truediv)])
def test_root2_operands_follow_one_rule(name, op):
    # Tightness rests on this arithmetic: a Root2, int or Fraction operand
    # acts as its Root2, in either order, and any other raises TypeError.
    x = Root2(Fraction(3, 16), Fraction(-1, 8))
    for other in (Root2(2, 1), 3, Fraction(-5, 7), True):
        for left, right in ((x, other), (other, x)):
            assert op(left, right) == op(_root2(left), _root2(right)), name
    for other in (0.5, "2", None):
        for left, right in ((x, other), (other, x)):
            with pytest.raises(TypeError):
                op(left, right)


def test_root2_equality_follows_the_same_rule():
    assert Root2(3) == 3 and 3 == Root2(3)
    assert Root2(Fraction(1, 2)) == Fraction(1, 2)
    assert Root2(2, 1) == Root2(Fraction(4, 2), 1)
    assert Root2(3, 1) != 3 and Root2(2) != Fraction(1, 2)
    for other in (3.0, "3", None):
        assert (Root2(3) == other) is False and (other == Root2(3)) is False


def test_tight_protocols_match_upper_bound_slope():
    for family, n in ((SVETLICHNY, 4), (SVETLICHNY, 5),
                      (MABK, 3), (MABK, 4), (MABK, 5)):
        protocol = BellProtocol(family, n)
        constants = constants_for(family, n)
        ref = upper_bound_reference(protocol)
        slope = 0.5 / (protocol.beta_Q - ref)
        assert abs(constants.s - slope) <= 1e-12


def test_relative_violation():
    sv3 = BellProtocol(SVETLICHNY, 3)
    beta_t = constants_for(SVETLICHNY, 3).beta_T
    assert abs(relative_violation(sv3, beta_t) - 1 / 3) <= 1e-12
    assert abs(relative_violation(sv3, sv3.beta_L)) <= 1e-12
    assert abs(relative_violation(sv3, sv3.beta_Q) - 1.0) <= 1e-12


def test_emit_curve_endpoints_and_intercepts():
    for (family, n), intercept in INTERCEPTS.items():
        protocol = BellProtocol(family, n)
        curve = emit_curve(protocol, resolution=5)
        assert len(curve.points) == 5
        first, last = curve.points[0], curve.points[-1]
        constants = constants_for(family, n)
        assert abs(first.beta_O - constants.beta_T) <= 1e-12
        assert abs(last.beta_O - protocol.beta_Q) <= 1e-12
        assert abs(first.fidelity_bound - 0.5) <= 1e-12
        assert abs(last.fidelity_bound - 1.0) <= 1e-12
        assert abs(first.relative_violation - intercept) <= 1e-5
        betas = [p.beta_O for p in curve.points]
        assert betas == sorted(betas)
        for point in curve.points:
            assert 0.0 <= point.relative_violation <= 1.0 + 1e-12
            assert 0.5 - 1e-12 <= point.fidelity_bound <= 1.0 + 1e-12


def test_emit_curve_validates_resolution():
    protocol = BellProtocol(SVETLICHNY, 3)
    with pytest.raises(ValueError):
        emit_curve(protocol, resolution=1)
    for resolution in (5.0, 2.5, "5"):
        with pytest.raises(ValueError, match=re.escape(
                f"curve resolution must be an integer, got {resolution!r}")):
            emit_curve(protocol, resolution=resolution)
    assert (emit_curve(protocol, resolution=np.int64(5))
            == emit_curve(protocol, resolution=5))


def test_emit_curve_resolution_limit(monkeypatch):
    # Building the largest curve takes seconds; stopping at the first step
    # after validation shows the limit itself is accepted.
    protocol = BellProtocol(SVETLICHNY, 3)
    monkeypatch.setattr(ghzcert.tradeoff, "catalog_constants",
                        stop_past_validation)
    with pytest.raises(PastValidation):
        emit_curve(protocol, resolution=MAX_CURVE_POINTS)
    with pytest.raises(ValueError, match="at most 100000, got 100001"):
        emit_curve(protocol, resolution=MAX_CURVE_POINTS + 1)


ORACLE_RESOLUTIONS = (2, 3, 50, 997)


def _bits(curve):
    return [(p.beta_O.hex(), p.relative_violation.hex(),
             p.fidelity_bound.hex()) for p in curve.points]


def _oracle_curves():
    for family, n in INTERCEPTS:
        for resolution in ORACLE_RESOLUTIONS:
            yield emit_curve(BellProtocol(family, n), resolution=resolution)


def _odd_curves():
    """Hand-built curves json and csv must spell as they spell any float."""
    values = [math.nan, math.inf, -math.inf, -0.0, 1e-300, 1e22, 0.0, 5e-324,
              1.7976931348623157e308, 0.1, 1.0, 2.0 / 3.0, -1e16, 123456789.0]
    odd = TradeoffCurve(protocol=BellProtocol(MABK, 5), points=[
        CurvePoint(a, b, c) for a, b, c in zip(
            values, values[1:] + values[:1], values[2:] + values[:2])])
    one = TradeoffCurve(protocol=BellProtocol(SVETLICHNY, 3),
                        points=[CurvePoint(math.nan, -0.0, math.inf)])
    empty = TradeoffCurve(protocol=BellProtocol(SVETLICHNY, 4), points=[])
    return [odd, one, empty]


def test_emit_curve_matches_per_point_oracle_bit_for_bit():
    for family, n in INTERCEPTS:
        protocol = BellProtocol(family, n)
        for resolution in ORACLE_RESOLUTIONS:
            curve = emit_curve(protocol, resolution=resolution)
            expected = emit_curve_by_point(protocol, resolution=resolution)
            assert curve.protocol == expected.protocol
            assert all(type(value) is float for point in curve.points
                       for value in dataclasses.astuple(point))
            assert _bits(curve) == _bits(expected), (family, n, resolution)


@pytest.mark.parametrize("resolution", [
    1, 0, -3, MAX_CURVE_POINTS + 1, 2.5, 5.0, "5", None, 1j])
def test_emit_curve_refuses_the_resolutions_the_oracle_refuses(resolution):
    protocol = BellProtocol(MABK, 3)
    with pytest.raises(ValueError) as expected:
        emit_curve_by_point(protocol, resolution=resolution)
    with pytest.raises(ValueError, match=re.escape(str(expected.value))):
        emit_curve(protocol, resolution=resolution)


@pytest.mark.parametrize("s, mu, beta_t", [
    (math.nan, 0.0, 2.9),
    (0.3, math.inf, 2.9),
    (math.inf, -math.inf, 2.9),
    # Only points above beta = 3.5 overflow.
    (1.7976931348623157e308 / 3.5, 0.0, 2.9),
    (0.3, 0.0, 1.5),
    (0.3, 0.0, math.nan),
    (0.3, 0.0, -math.inf),
])
def test_emit_curve_raises_the_scalar_checks_error_first(monkeypatch, s, mu,
                                                        beta_t):
    # MABK n = 3 spans beta_L = 2 to beta_Q = 4.
    protocol = BellProtocol(MABK, 3)
    monkeypatch.setattr(
        ghzcert.tradeoff, "catalog_constants",
        lambda p: CertificateConstants(protocol=p, s=s, mu=mu, beta_T=beta_t))
    monkeypatch.setattr("oracles.catalog_constants",
                        ghzcert.tradeoff.catalog_constants)
    with pytest.raises(ValueError) as expected:
        emit_curve_by_point(protocol, resolution=9)
    with pytest.raises(ValueError, match=re.escape(str(expected.value))):
        emit_curve(protocol, resolution=9)


def test_emit_curve_ends_at_beta_q_where_the_steps_round_off_it(monkeypatch):
    # Every catalog row's steps land on beta_Q exactly; this threshold's
    # 35 steps do not, so the last point must be set to beta_Q.
    protocol, beta_t, resolution = BellProtocol(MABK, 4), 3.024428539838434, 36
    step = (protocol.beta_Q - beta_t) / (resolution - 1)
    assert beta_t + (resolution - 1) * step != protocol.beta_Q
    monkeypatch.setattr(
        ghzcert.tradeoff, "catalog_constants",
        lambda p: CertificateConstants(protocol=p, s=0.2, mu=-0.1,
                                       beta_T=beta_t))
    monkeypatch.setattr("oracles.catalog_constants",
                        ghzcert.tradeoff.catalog_constants)
    curve = emit_curve(protocol, resolution=resolution)
    assert curve.points[-1].beta_O == protocol.beta_Q
    assert _bits(curve) == _bits(emit_curve_by_point(protocol, resolution))


def test_curve_to_json_is_json_dumps_byte_for_byte():
    for curve in [*_oracle_curves(), *_odd_curves()]:
        payload = {
            "family": curve.protocol.family,
            "n": curve.protocol.n,
            "points": [dataclasses.asdict(p) for p in curve.points],
        }
        assert curve_to_json(curve) == json.dumps(payload, indent=2)


def test_curve_to_csv_matches_format_float_join():
    for curve in [*_oracle_curves(), *_odd_curves()]:
        assert curve_to_csv(curve) == curve_to_csv_by_field(curve)


def test_curve_serialization():
    curve = emit_curve(BellProtocol(MABK, 4), resolution=3)
    csv_text = curve_to_csv(curve)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "beta_O,relative_violation,fidelity_bound"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert abs(float(first[0]) - 4 * SQ2) <= 1e-9
    assert abs(float(first[2]) - 0.5) <= 1e-9
    payload = json.loads(curve_to_json(curve))
    assert payload["family"] == MABK and payload["n"] == 4
    assert len(payload["points"]) == 3
    assert set(payload["points"][0]) == {"beta_O", "relative_violation",
                                         "fidelity_bound"}


def test_format_float():
    assert format_float(0.5) == "0.5"
    assert format_float(4 * SQ2) == "5.65685424949"
    assert format_float(1.0) == "1"
