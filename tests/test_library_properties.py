"""Property tests over ``validate_state``, ``validate_x_blocks``,
``closed_form_crosscheck``, ``certify`` and ``emit_curve``.

``validate_state`` must answer every finite input by returning the state or
raising ValueError, with no other exception and no warning, and must never
accept an X state whose least 2 x 2-block eigenvalue is below the
positivity tolerance; ``validate_x_blocks`` must answer an X state's blocks
as ``validate_state`` answers the state.  ``closed_form_crosscheck`` must
pass on every seed and sample count, since every closed form is exact.
``certify`` must return a record or raise ValueError for any constants,
never record a non-finite fidelity bound as a certification, and under
visibility noise record what the public dense entries give; ``emit_curve``
must return only finite points ending at fidelity 1, or raise ValueError.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ghzcert.bell import (FAMILIES, SVETLICHNY, BellProtocol, validate_state,
                          validate_x_blocks)
from ghzcert.linalg import x_blocks
from ghzcert.simulate import (RNG_ALGORITHM, ExperimentRecord, NoiseModel,
                              certify, estimate_violation, noisy_state)
from ghzcert.tradeoff import (MAX_CURVE_POINTS, emit_curve,
                              fidelity_lower_bound, is_trivial_bound)
from ghzcert.verifier import (CertificateConstants, catalog_constants,
                              closed_form_crosscheck)

FINITE = st.floats(min_value=-1e308, max_value=1e308, allow_nan=False)
UNIT = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def finite_states(draw):
    """A finite complex matrix of the right or a wrong order, made positive
    semidefinite (from entries in [-1, 1]), X-shaped, Hermitian or
    trace-normalised on request; the first two keep a state valid."""
    n = draw(st.integers(1, 4))
    dim = 2 ** n + draw(st.sampled_from([0, 0, 0, -1, 1]))
    bounded = draw(st.booleans())
    elements = st.floats(-1.0, 1.0) if bounded else FINITE
    parts = [draw(arrays(float, (dim, dim), elements=elements))
             for _ in range(2)]
    rho = parts[0] + 1j * parts[1]
    if bounded and draw(st.booleans()):
        rho = rho @ rho.conj().T
    if draw(st.booleans()):
        # Each 2 x 2 block of a positive semidefinite X part is a
        # principal submatrix, so it stays positive semidefinite.
        lines = np.eye(dim, dtype=bool)
        rho = np.where(lines | lines[::-1], rho, 0.0)
    if draw(st.booleans()):
        with np.errstate(over="ignore", invalid="ignore"):
            rho = (rho + rho.conj().T) / 2
            trace = np.trace(rho).real
            if draw(st.booleans()) and np.isfinite(trace) and trace != 0.0:
                rho = rho / trace
    return rho, n


@settings(max_examples=300, deadline=None)
@example(case=(np.full((8, 8), 1e308 + 0j), 3))
@example(case=(np.eye(8, dtype=complex) * 1e308, 3))
@example(case=(np.diag([1e308, -1e308, 1.0, 0.0, 0.0, 1e308, -1e308, 0.0])
               + 0j, 3))
@given(case=finite_states())
def test_validate_state_returns_or_raises_value_error(case):
    rho, n = case
    try:
        out = validate_state(rho, n)
    except ValueError:
        return
    assert out.shape == (2 ** n, 2 ** n)
    assert np.array_equal(out, rho)
    assert np.linalg.eigvalsh(rho)[0] >= -1e-8 - 1e-12


@settings(max_examples=300, deadline=None)
@given(case=finite_states())
def test_x_blocks_validate_as_their_dense_state(case):
    rho, n = case
    assume(rho.shape == (2 ** n, 2 ** n) and x_blocks(rho)[1] == 0.0)
    blocks = x_blocks(rho)[0]
    try:
        validate_state(rho, n)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            validate_x_blocks(blocks)
        return
    assert validate_x_blocks(blocks).tobytes() == np.trace(rho).tobytes()


@st.composite
def negative_x_states(draw):
    """An X state of unit trace with one block's least eigenvalue -delta,
    delta above the positivity tolerance; the other blocks are drawn
    freely."""
    n = draw(st.integers(1, 5))
    half = 2 ** (n - 1)
    weights = np.array(draw(st.lists(UNIT, min_size=2 * half,
                                     max_size=2 * half)))
    assume(weights.sum() > 0.0)
    diagonal = weights / weights.sum()
    delta = 10.0 ** draw(st.floats(min_value=-7.99, max_value=0.0))
    bad = draw(st.integers(0, half - 1))
    rho = np.diag(diagonal).astype(complex)
    for b in range(half):
        a, c = diagonal[b], diagonal[-1 - b]
        if b == bad:
            # (a + c)/2 - hypot((a - c)/2, |z|) = -delta.
            size = math.sqrt(a * c + delta * (a + c) + delta ** 2)
        else:
            size = math.sqrt(a * c) * 2 * draw(UNIT)
        z = size * np.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
        rho[-1 - b, b], rho[b, -1 - b] = z, np.conj(z)
    return rho, n, delta


@settings(max_examples=300, deadline=None)
@given(case=negative_x_states())
def test_x_state_below_tolerance_never_validates(case):
    rho, n, delta = case
    assert np.linalg.eigvalsh(rho)[0] <= -delta + 1e-13
    with pytest.raises(ValueError, match="negative eigenvalue"):
        validate_state(rho, n)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        validate_x_blocks(x_blocks(rho)[0])


@settings(max_examples=30, deadline=None)
@example(n=4, samples=300, seed=0)
@given(n=st.sampled_from([3, 4]), samples=st.integers(1, 300),
       seed=st.integers(min_value=0, max_value=2 ** 64))
def test_closed_form_crosscheck_passes_on_every_seed(n, samples, seed):
    result = closed_form_crosscheck(BellProtocol(SVETLICHNY, n), samples,
                                    seed)
    assert result["failures"] == []
    assert result["passed"] is True
    assert result["samples"] == samples


@st.composite
def certify_inputs(draw):
    """Catalog or arbitrary (NaN and infinities included) constants for a
    catalog scenario, a noise model and a small run."""
    protocol = BellProtocol(draw(st.sampled_from(FAMILIES)),
                            draw(st.integers(3, 5)))
    constants = catalog_constants(protocol)
    if draw(st.booleans()):
        constants = CertificateConstants(protocol, draw(st.floats()),
                                         draw(st.floats()), constants.beta_T)
    if draw(st.booleans()):
        noise = NoiseModel("visibility", draw(UNIT))
    else:
        sigma = np.eye(protocol.dim, dtype=complex) / protocol.dim
        noise = NoiseModel("separable_mixture", draw(UNIT), sigma)
    return constants, noise


@settings(max_examples=150, deadline=None)
@example(case=(CertificateConstants(BellProtocol(SVETLICHNY, 3), math.nan,
                                    0.0, 0.0),
               NoiseModel("visibility", 1.0)), shots=100, seed=0)
@example(case=(CertificateConstants(BellProtocol(SVETLICHNY, 3), 1e308,
                                    0.0, 0.0),
               NoiseModel("visibility", 1.0)), shots=100, seed=0)
@given(case=certify_inputs(), shots=st.integers(0, 2000),
       seed=st.integers(min_value=0, max_value=2 ** 64))
def test_certify_returns_or_raises_value_error(case, shots, seed):
    constants, noise = case
    try:
        record = certify(constants, noise, shots, seed)
    except ValueError:
        return
    assert math.isfinite(record.fidelity_bound) or record.trivial
    assert record.trivial == (record.fidelity_bound < 0.5)


@settings(max_examples=100, deadline=None)
@example(family="mabk", n=5, v=0.9, shots=1, seed=7)
@example(family="svetlichny", n=4, v=Fraction(1, 3), shots=100, seed=2)
@example(family="mabk", n=3, v=np.float32(0.7), shots=100, seed=2)
@given(family=st.sampled_from(FAMILIES), n=st.integers(3, 5), v=UNIT,
       shots=st.integers(1, 10 ** 7),
       seed=st.integers(min_value=0, max_value=2 ** 130))
def test_certify_record_is_the_dense_route_record(family, n, v, shots, seed):
    # certify runs visibility noise on pair blocks and a cached table; the
    # public dense entries must give the same record, timestamp aside.
    constants = catalog_constants(BellProtocol(family, n))
    protocol = constants.protocol
    noise = NoiseModel("visibility", v)
    beta, error = estimate_violation(protocol, noisy_state(protocol, noise),
                                     (math.pi / 4,) * n, shots, seed)
    clipped = min(max(beta, protocol.beta_L), protocol.beta_Q)
    bound = fidelity_lower_bound(constants, clipped)
    want = ExperimentRecord(family, n, "visibility", float(v), shots, seed,
                            beta, error, bound, clipped != beta,
                            is_trivial_bound(bound), RNG_ALGORITHM, "")
    got = certify(constants, noise, shots, seed)
    got.timestamp = ""
    assert got.to_json_line() == want.to_json_line()


@settings(max_examples=60, deadline=None)
@example(family=SVETLICHNY, n=3, resolution=MAX_CURVE_POINTS)
@example(family=SVETLICHNY, n=3, resolution=MAX_CURVE_POINTS + 1)
@given(family=st.sampled_from(FAMILIES), n=st.integers(3, 5),
       resolution=st.integers(-3, 3000))
def test_emit_curve_points_are_finite_and_end_at_one(family, n, resolution):
    try:
        curve = emit_curve(BellProtocol(family, n), resolution)
    except ValueError:
        assert not 2 <= resolution <= MAX_CURVE_POINTS
        return
    assert len(curve.points) == resolution
    assert all(math.isfinite(value) for point in curve.points
               for value in (point.beta_O, point.relative_violation,
                             point.fidelity_bound))
    assert abs(curve.points[-1].fidelity_bound - 1.0) <= 1e-12
