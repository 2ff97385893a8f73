"""The batch axis of the dense reference route.

``build_operator``, ``apply_channel`` and ``build_T`` take one angle tuple,
shape (n,), or a batch of k, shape (k, n); a batch must equal the stack of
its single-tuple calls bit for bit, and one bad row must refuse the whole
batch.  ``block_decompose`` splits a batch of matrices into one array of
blocks, one row per matrix.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from ghzcert.bell import MABK, SVETLICHNY, BellProtocol, build_operator
from ghzcert.states import apply_channel, ghz_state
from ghzcert.verifier import (StructureViolation, block_decompose, build_T,
                              catalog_constants)

PROTOCOLS = [BellProtocol(f, n) for f in (SVETLICHNY, MABK)
             for n in (3, 4, 5, 6)]
BAD_ANGLES = (math.nan, math.inf, -math.inf, -0.1, math.pi / 2 + 0.1)


def angle_batches(rng: np.random.Generator, n: int):
    """Batches of 1 and 7 tuples on [0, pi/4]^n and on [0, pi/2]^n."""
    for hi in (math.pi / 4, math.pi / 2):
        for k in (1, 7):
            yield rng.uniform(0.0, hi, size=(k, n))


def certificate(protocol: BellProtocol, angles) -> np.ndarray:
    """``build_T`` at the catalog constants (made-up ones at n = 6)."""
    if protocol.n == 6:
        return build_T(protocol, angles, 0.05, 0.3)
    constants = catalog_constants(protocol)
    return build_T(protocol, angles, constants.s, constants.mu)


def channel_image(protocol: BellProtocol, angles) -> np.ndarray:
    return apply_channel(ghz_state(protocol), angles)


DENSE_ROUTES = (build_operator, channel_image, certificate)


@pytest.mark.parametrize("route", DENSE_ROUTES)
def test_batch_equals_stacked_single_calls(route):
    rng = np.random.default_rng(1301)
    for protocol in PROTOCOLS:
        dim = protocol.dim
        for batch in angle_batches(rng, protocol.n):
            out = route(protocol, batch)
            assert out.shape == (len(batch), dim, dim)
            singles = [route(protocol, tuple(row)) for row in batch]
            for single in singles:
                assert single.shape == (dim, dim)
            assert np.array_equal(out, np.stack(singles))


def test_batched_channel_on_a_general_matrix():
    rng = np.random.default_rng(1302)
    for n in (3, 4, 5, 6):
        dim = 2 ** n
        mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        for batch in angle_batches(rng, n):
            out = apply_channel(mat, batch)
            assert out.shape == (len(batch), dim, dim)
            assert np.array_equal(out, np.stack([
                apply_channel(mat, tuple(row)) for row in batch]))


@pytest.mark.parametrize("route", DENSE_ROUTES)
def test_one_bad_row_refuses_the_batch(route):
    protocol = BellProtocol(SVETLICHNY, 3)
    for bad in BAD_ANGLES:
        for row in range(3):
            batch = np.full((3, 3), 0.3)
            batch[row, 1] = bad
            with pytest.raises(ValueError, match="outside"):
                route(protocol, batch)


@pytest.mark.parametrize("route", DENSE_ROUTES)
def test_wrong_angle_shape_is_refused(route):
    protocol = BellProtocol(MABK, 4)
    for shape in ((3,), (5,), (2, 3), (2, 5), (2, 2, 4), ()):
        with pytest.raises(ValueError):
            route(protocol, np.full(shape, 0.3))
    with pytest.raises(ValueError, match=r"nonempty .* shape \(0, 4\)"):
        route(protocol, np.empty((0, 4)))
    for angles in (np.full((2, 4), 0.3 + 0j), [0.3, 0.3, 0.3, 1j]):
        with pytest.raises(ValueError, match="real, got dtype complex128"):
            route(protocol, angles)
    # numpy would parse strings and bytes, and read None as NaN.
    for angles, dtype in ((("0.1", "0.2", "0.3", "0.4"), "<U3"),
                          (np.full((2, 4), b"0.3"), "|S3"),
                          ((0.1, None, 0.2, 0.3), "object")):
        with pytest.raises(ValueError, match=f"real, got dtype {dtype}$"):
            route(protocol, angles)


def test_channel_refuses_empty_and_ragged_angles():
    mat = np.eye(8, dtype=complex)
    for angles in ((), ((),), np.empty((0, 3))):
        with pytest.raises(ValueError, match="nonempty"):
            apply_channel(mat, angles)
    with pytest.raises(ValueError):
        apply_channel(mat, ((0.1, 0.2), (0.3,)))


def test_batched_block_decompose_equals_single_calls():
    rng = np.random.default_rng(1303)
    for protocol in PROTOCOLS:
        ts = certificate(protocol, rng.uniform(0.0, math.pi / 2,
                                               size=(7, protocol.n)))
        batched = block_decompose(ts, protocol.n)
        assert len(batched) == 7
        for t, blocks in zip(ts, batched):
            single = block_decompose(t, protocol.n)
            assert len(blocks) == len(single) == 2 ** (protocol.n - 1)
            for got, want in zip(blocks, single):
                assert np.array_equal(got, want)


def test_batched_block_decompose_refuses_non_finite_input():
    for bad in (math.nan, math.inf, -math.inf, complex(0.0, math.nan)):
        for index in range(3):
            ts = np.stack([np.eye(8, dtype=complex)] * 3)
            ts[index, 2, 5] = bad
            with pytest.raises(ValueError, match="non-finite"):
                block_decompose(ts, 3)


def test_batched_block_decompose_names_the_unstructured_matrix():
    for index in range(4):
        ts = np.stack([np.eye(16, dtype=complex)] * 4)
        ts[index, 1, 2] = 1e-9
        with pytest.raises(StructureViolation, match=f"of matrix {index} "):
            block_decompose(ts, 4)
    for shape in ((8,), (2, 2, 8, 8), (3, 8, 4)):
        with pytest.raises(ValueError, match="expected 8 x 8"):
            block_decompose(np.zeros(shape), 3)
