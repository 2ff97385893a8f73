"""The shared scalar checks and the malformed input every entry point refuses.

``bell.check_integer`` and ``bell.check_real`` are the one check of a count
or label and of a real number; ``bell.check_angles`` is the one check of
angles.  Every entry point must answer a malformed scalar with a ValueError
that names the input, never a TypeError, an IndexError or a silent pass.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from ghzcert import cli
from ghzcert.bell import (MABK, SVETLICHNY, BellProtocol, build_operator,
                          check_integer, check_real, local_bound, observable,
                          validate_state)
from ghzcert.linalg import hermitian_eigenvalues
from ghzcert.simulate import (NoiseModel, born_probabilities, certify,
                              estimate_violation, outcome_products,
                              sample_outcomes)
from ghzcert.states import apply_channel, ghz_state
from ghzcert.tradeoff import (emit_curve, fidelity_lower_bound,
                              relative_violation)
from ghzcert.verifier import (GridSpec, block_decompose, catalog_constants,
                              closed_form_crosscheck, min_eig_over_grid,
                              parity_projector, projector_lambda,
                              sv3_block_functions)

SV3 = BellProtocol(SVETLICHNY, 3)
C3 = catalog_constants(SV3)
SPEC = GridSpec(5)
QUARTER3 = (math.pi / 4,) * 3
HALF = np.array([0.5, 0.5])
WHITE = NoiseModel("visibility", 1.0)


def test_check_integer_takes_an_inclusive_range():
    value = check_integer(np.int64(3), "count", 3, 3)
    assert value == 3 and type(value) is int
    assert check_integer(2 ** 63 - 1, "count", 1, 2 ** 63 - 1) == 2 ** 63 - 1
    for bad in (2, 6):
        with pytest.raises(ValueError, match=re.escape(
                f"count must be at least 3 and at most 5, got {bad}")):
            check_integer(bad, "count", 3, 5)
    for bad in (3.0, "3", None):
        with pytest.raises(ValueError, match=re.escape(
                f"count must be an integer, got {bad!r}")):
            check_integer(bad, "count", 3, 5)


def test_check_real_passes_finite_reals_as_given():
    for value in (0.5, np.float64(0.5), np.float32(0.5), 1, np.int64(1),
                  Fraction(1, 2), 0.0, 1.0):
        assert check_real(value, "x", 0.0, 1.0) is value
    assert check_real(-1e308, "x") == -1e308
    for bad in (0.5 + 0j, np.complex128(0.5), "0.5", b"0.5", None,
                math.nan, math.inf, -math.inf, np.float64(math.nan)):
        with pytest.raises(ValueError, match=re.escape(
                f"x must be a finite real number, got {bad!r}")):
            check_real(bad, "x")
    for bad in (-0.1, 1.5):
        with pytest.raises(ValueError, match=re.escape(
                f"x must be at least 0.0 and at most 1.0, got {bad}")):
            check_real(bad, "x", 0.0, 1.0)


# Entry point and bad value, and the message that must name the input.
# Those marked * raised TypeError or IndexError, or were accepted, before
# every scalar went through the shared checks.
MALFORMED = {
    "observable complex angle *": (
        lambda: observable(0, 0.3 + 0j), "angles must be real"),
    "observable string angle *": (
        lambda: observable(0, "0.3"), "angles must be real"),
    "observable float setting *": (
        lambda: observable(1.0, 0.3), "setting must be an integer, got 1.0"),
    "observable setting 2": (
        lambda: observable(2, 0.3),
        "setting must be at least 0 and at most 1, got 2"),
    "protocol with 2 parties": (
        lambda: BellProtocol(SVETLICHNY, 2),
        "party count must be at least 3 and at most inf, got 2"),
    "enumeration of 7 parties": (
        lambda: local_bound(BellProtocol(SVETLICHNY, 7)),
        "party count must be at least 3 and at most 6, got 7"),
    "grid of 1 point": (
        lambda: GridSpec(1), "grid points per axis must be at least 2"),
    "grid domain complex *": (
        lambda: GridSpec(5, domain=(0, 1j)), "angles must be real"),
    "grid domain strings *": (
        lambda: GridSpec(5, domain=("0", "0.5")), "angles must be real"),
    "grid domain None *": (
        lambda: GridSpec(5, domain=(0.0, None)), "angles must be real"),
    "grid domain reversed": (
        lambda: GridSpec(5, domain=(0.5, 0.1)), "invalid scan domain"),
    "grid domain of two pairs *": (
        lambda: GridSpec(5, domain=((0.0, 0.1), (0.2, 0.3))),
        "invalid scan domain"),
    "grid domain past pi/2": (
        lambda: GridSpec(5, domain=(0.0, 2.0)), r"angle 2\.0 outside"),
    "visibility complex *": (
        lambda: NoiseModel("visibility", 0.5 + 0j),
        "visibility must be a finite real number"),
    "visibility string *": (
        lambda: NoiseModel("visibility", "0.5"),
        "visibility must be a finite real number"),
    "visibility NaN": (
        lambda: NoiseModel("visibility", math.nan),
        "visibility must be a finite real number, got nan"),
    "visibility 2": (
        lambda: NoiseModel("visibility", 2),
        "visibility must be at least 0.0 and at most 1.0, got 2"),
    "visibility noise with sigma *": (
        lambda: NoiseModel("visibility", 0.5, sigma=np.eye(8) / 8),
        "visibility noise takes no sigma state"),
    "PSD tolerance complex *": (
        lambda: min_eig_over_grid(C3, SPEC, psd_tol=1e-8 + 0j),
        "PSD tolerance must be a finite real number"),
    "PSD tolerance string *": (
        lambda: min_eig_over_grid(C3, SPEC, psd_tol="1e-8"),
        "PSD tolerance must be a finite real number"),
    "PSD tolerance negative": (
        lambda: min_eig_over_grid(C3, SPEC, psd_tol=-1.0),
        "PSD tolerance must be at least 0.0"),
    "slope complex *": (
        lambda: min_eig_over_grid(dataclasses.replace(C3, s=0.1j), SPEC),
        "s must be a finite real number"),
    "offset NaN": (
        lambda: min_eig_over_grid(dataclasses.replace(C3, mu=math.nan),
                                  SPEC),
        "mu must be a finite real number, got nan"),
    "observed value complex *": (
        lambda: fidelity_lower_bound(C3, 5.0 + 0j),
        "observed value must be a finite real number"),
    "observed value string *": (
        lambda: fidelity_lower_bound(C3, "5.0"),
        "observed value must be a finite real number"),
    "observed value below beta_L": (
        lambda: fidelity_lower_bound(C3, 3.0),
        "observed value must be at least .* got 3.0"),
    "derived threshold": (
        lambda: cli._constants_for(argparse.Namespace(s=1e-320, mu=0.4),
                                   SV3),
        "s=1e-320 and mu=0.4 give a threshold beta_T that must be a finite "
        "real number, got inf"),
    "crosscheck float seed *": (
        lambda: closed_form_crosscheck(SV3, samples=5, seed=1.5),
        "seed must be an integer, got 1.5"),
    "crosscheck string seed *": (
        lambda: closed_form_crosscheck(SV3, samples=5, seed="1"),
        "seed must be an integer, got '1'"),
    "crosscheck negative seed": (
        lambda: closed_form_crosscheck(SV3, samples=5, seed=-1),
        "seed must be at least 0 and at most inf, got -1"),
    "crosscheck of no sample": (
        lambda: closed_form_crosscheck(SV3, samples=0),
        "sample count must be at least 1 and at most 100000, got 0"),
    "sampling with seed None *": (
        lambda: sample_outcomes(HALF, 10, None),
        "seed must be an integer, got None"),
    "sampling with a negative seed": (
        lambda: sample_outcomes(HALF, 10, -1),
        "seed must be at least 0 and at most inf, got -1"),
    "sampling no shot": (
        lambda: sample_outcomes(HALF, 0, 1),
        "shot count must be at least 1 and at most 9223372036854775807, "
        "got 0"),
    "estimate with a negative seed": (
        lambda: estimate_violation(SV3, ghz_state(SV3), QUARTER3, 10, -1),
        "seed must be at least 0"),
    "certify with a negative seed": (
        lambda: certify(C3, WHITE, 10, -1), "seed must be at least 0"),
    "curve of one point": (
        lambda: emit_curve(SV3, 1),
        "curve resolution must be at least 2 and at most 100000, got 1"),
    "parity projector float label *": (
        lambda: parity_projector(1.0, 0),
        "parity label x1 must be an integer, got 1.0"),
    "parity projector label 2": (
        lambda: parity_projector(0, 2),
        "parity label x2 must be at least 0 and at most 1, got 2"),
    "projector lambda float label *": (
        lambda: projector_lambda((0.1, 0.2, 0.3), C3.s, 0, 1.0),
        "parity label x2 must be an integer, got 1.0"),
    "operator string angles *": (
        lambda: build_operator(SV3, ("0.1", "0.2", "0.3")),
        "angles must be real, got dtype <U3"),
    "operator None angle": (
        lambda: build_operator(SV3, (0.1, None, 0.2)),
        "angles must be real, got dtype object"),
    "channel bytes angles *": (
        lambda: apply_channel(ghz_state(SV3), (b"0.1",) * 3),
        r"angles must be real, got dtype \|S3"),
    "Born string angles *": (
        lambda: born_probabilities(ghz_state(SV3), (0, 1, 0),
                                   ("0.1", "0.2", "0.3")),
        "angles must be real, got dtype <U3"),
    "Born scalar settings *": (
        lambda: born_probabilities(ghz_state(SV3), 0, QUARTER3),
        "expected 3 settings, got 1"),
    "closed form string angles *": (
        lambda: sv3_block_functions(("0.1", "0.2", "0.3"), C3.s),
        "angles must be real, got dtype <U3"),
    "state check of None parties *": (
        lambda: validate_state(ghz_state(SV3), None),
        "party count must be an integer, got None"),
    "state check of 3.0 parties *": (
        lambda: validate_state(ghz_state(SV3), 3.0),
        "party count must be an integer, got 3.0"),
    "state check of -1 parties": (
        lambda: validate_state(ghz_state(SV3), -1),
        "party count must be at least 1 and at most 6, got -1"),
    "state check of 20000 parties": (
        lambda: validate_state(np.eye(2) / 2, 20000),
        "party count must be at least 1 and at most 6, got 20000"),
    "block decomposition of 20000 parties": (
        lambda: block_decompose(np.eye(2), 20000),
        "party count must be at least 1 and at most 6, got 20000"),
    "channel of 20000 parties": (
        lambda: apply_channel(np.eye(2), np.zeros(20000)),
        "party count must be at least 1 and at most 6, got 20000"),
    "operator of 7 parties *": (
        lambda: build_operator(BellProtocol(SVETLICHNY, 7), (0.5,) * 7),
        "party count must be at least 3 and at most 6, got 7"),
    "operator of 20 parties *": (
        lambda: build_operator(BellProtocol(SVETLICHNY, 20), (0.5,) * 20),
        "party count must be at least 3 and at most 6, got 20"),
    "GHZ state of 7 parties *": (
        lambda: ghz_state(BellProtocol(MABK, 7)),
        "party count must be at least 3 and at most 6, got 7"),
    "GHZ state of 20 parties *": (
        lambda: ghz_state(BellProtocol(MABK, 20)),
        "party count must be at least 3 and at most 6, got 20"),
    "spectrum of an overflowing difference": (
        lambda: hermitian_eigenvalues([[0, 1e308], [-1e308, 0]]),
        "matrix is not Hermitian"),
    "outcome products of 1.5 parties *": (
        lambda: outcome_products(1.5),
        "party count must be an integer, got 1.5"),
    "outcome products of 0 parties *": (
        lambda: outcome_products(0),
        "party count must be at least 1 and at most 6, got 0"),
    "relative violation complex *": (
        lambda: relative_violation(SV3, 1j),
        "observed value must be a finite real number, got 1j"),
    "relative violation string *": (
        lambda: relative_violation(SV3, "5"),
        "observed value must be a finite real number, got '5'"),
    "block decomposition of '3' parties *": (
        lambda: block_decompose(ghz_state(SV3), "3"),
        "party count must be an integer, got '3'"),
    "Born scalar angle *": (
        lambda: born_probabilities(ghz_state(SV3), (0, 1, 0), 0.3),
        r"angles must be one tuple, got shape \(\)"),
    "estimate scalar angle *": (
        lambda: estimate_violation(SV3, ghz_state(SV3), 0.3, 10, 1),
        r"expected 3 angles per tuple, got shape \(\)"),
    "estimate with two angles": (
        lambda: estimate_violation(SV3, ghz_state(SV3), QUARTER3[:2], 10, 1),
        r"expected 3 angles per tuple, got shape \(2,\)"),
    "Born angle batch of one": (
        lambda: born_probabilities(ghz_state(SV3), (0, 1, 0),
                                   np.full((1, 3), math.pi / 4)),
        r"angles must be one tuple, got shape \(1, 3\)"),
    "estimate angle batch of one": (
        lambda: estimate_violation(SV3, ghz_state(SV3),
                                   np.full((1, 3), math.pi / 4), 10, 1),
        r"angles must be one tuple, got shape \(1, 3\)"),
    "estimate angle batch of one tuple per setting": (
        lambda: estimate_violation(SV3, ghz_state(SV3),
                                   np.full((8, 3), math.pi / 4), 10, 1),
        r"angles must be one tuple, got shape \(8, 3\)"),
}


@pytest.mark.parametrize("call, message", MALFORMED.values(), ids=MALFORMED)
def test_malformed_input_is_refused_by_name(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("visibility", [np.float32(0.5), Fraction(1, 2)])
def test_record_with_a_non_float_visibility_persists(tmp_path, visibility):
    log = tmp_path / "runs.jsonl"
    record = certify(C3, NoiseModel("visibility", visibility), 100, 1,
                     log_path=str(log))
    assert record.persisted
    assert json.loads(log.read_text())["visibility"] == 0.5
    assert '"visibility": 0.5,' in log.read_text()
