"""Fidelity bounds, thresholds, tightness checks, and tradeoff curves."""
from __future__ import annotations

import json
import math

import pytest

import ghzcert.tradeoff
from ghzcert.bell import MABK, SVETLICHNY, BellProtocol
from ghzcert.tradeoff import (MAX_CURVE_POINTS, curve_to_csv, curve_to_json,
                              emit_curve, fidelity_lower_bound, format_float,
                              is_trivial_bound, relative_violation, threshold,
                              tightness_check, tradeoff_upper_bound,
                              upper_bound_reference)
from ghzcert.verifier import catalog_constants
from oracles import PastValidation, stop_past_validation

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
    assert abs(threshold(constants_for(SVETLICHNY, 3))
               - 4 * (2 + SQ2) / 3) <= 1e-12
    assert abs(threshold(constants_for(MABK, 5)) - 8 * SQ2) <= 1e-12
    assert abs(threshold(constants_for(MABK, 3)) - 2 * SQ2) <= 1e-12


def test_threshold_rejects_nonpositive_slope():
    constants = constants_for(SVETLICHNY, 3)
    bad = type(constants)(protocol=constants.protocol, s=0.0,
                          mu=constants.mu, beta_T=constants.beta_T)
    with pytest.raises(ValueError):
        threshold(bad)


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


def test_tradeoff_upper_bound_examples():
    sv5 = BellProtocol(SVETLICHNY, 5)
    assert abs(tradeoff_upper_bound(sv5, 16.0, 16.0) - 0.5) <= 1e-12
    m4 = BellProtocol(MABK, 4)
    assert abs(tradeoff_upper_bound(m4, 8.0, 4 * SQ2) - 1.0) <= 1e-12
    sv3 = BellProtocol(SVETLICHNY, 3)
    assert abs(tradeoff_upper_bound(sv3, 4 * SQ2, 4.0) - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        tradeoff_upper_bound(m4, 2.0, 4 * SQ2)


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
    with pytest.raises(ValueError):
        emit_curve(BellProtocol(SVETLICHNY, 3), resolution=1)


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
