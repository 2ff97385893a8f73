"""Property tests over ``validate_state`` and ``closed_form_crosscheck``.

``validate_state`` must answer every finite input by returning the state or
raising ValueError, with no other exception and no warning, and must never
accept an X state whose least 2 x 2-block eigenvalue is below the
positivity tolerance.  ``closed_form_crosscheck`` must pass on every seed
and sample count, since every closed form is exact.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ghzcert.bell import SVETLICHNY, BellProtocol, validate_state
from ghzcert.verifier import closed_form_crosscheck

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
