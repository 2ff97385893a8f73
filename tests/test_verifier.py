"""Certificate operator assembly, block reduction, grid scans, and crosschecks."""
from __future__ import annotations

import itertools
import math
import re
import struct
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from ghzcert.bell import (MABK, SVETLICHNY, BellProtocol, build_operator,
                          quantum_bound)
from ghzcert.linalg import (CANONICAL_LAYOUT_CACHE, _canonical_layout,
                            hermitian_eigenvalues, x_blocks)
from ghzcert.root2 import Root2
from ghzcert.states import apply_channel, ghz_state
import ghzcert.verifier
from ghzcert.verifier import (CROSSCHECK_BATCH_SAMPLES, CROSSCHECK_CHUNK_ENTRIES,
                              MAX_CROSSCHECK_SAMPLES,
                              CertificateConstants,
                              GridSpec, StructureViolation,
                              _min_block_over_products,
                              block_decompose, build_T,
                              catalog_constants, catalog_slope,
                              closed_form_crosscheck,
                              min_eig_over_grid, parity_projector,
                              projector_lambda, sv3_block_functions,
                              sv4_block_functions, sv4_determinant)
from oracles import (PastValidation, block_unitary,
                     complex_min_block_over_axes, eig2x2_hermitian,
                     full_grid_min_block, is_persymmetric, padded_grid,
                     pauli_string, random_x_matrix, real_min_block_over_axes,
                     stop_past_validation, trace_bound_slope)

SQ2 = math.sqrt(2.0)
ALL_PROTOCOLS = [BellProtocol(f, n) for f in (SVETLICHNY, MABK) for n in (3, 4, 5)]

F3_AT_REFERENCE_POINT = [
    1.9320649205289264, 1.8226260428976395, 1.5697508062997194,
    0.5114067780257658, 1.5887770306127078, 0.7049911742733271,
    1.652047929677932, 1.1051996555424903,
]
LAMBDA_AT_REFERENCE_POINT = {
    (0, 0): 0.8218183297794741,
    (0, 1): 4.405161402535849,
    (1, 0): 4.054399794398496,
    (1, 1): 3.015592166683801,
}


def min_eig(m: np.ndarray) -> float:
    return float(np.min(np.linalg.eigvalsh(m)))


def test_catalog_constants_values():
    expected = {
        (SVETLICHNY, 3): (3 * (1 + SQ2) / 16, -(2 + 3 * SQ2) / 4, 4 * (2 + SQ2) / 3),
        (SVETLICHNY, 4): ((1 + SQ2) / 16, -1 / SQ2, 8.0),
        (SVETLICHNY, 5): ((1 + SQ2) / 32, -1 / SQ2, 16.0),
        (MABK, 3): ((2 + SQ2) / 8, -1 / SQ2, 2 * SQ2),
        (MABK, 4): ((2 + SQ2) / 16, -1 / SQ2, 4 * SQ2),
        (MABK, 5): ((2 + SQ2) / 32, -1 / SQ2, 8 * SQ2),
    }
    for (family, n), (s, mu, beta_t) in expected.items():
        protocol = BellProtocol(family, n)
        constants = catalog_constants(protocol)
        assert abs(constants.s - s) <= 1e-14
        assert abs(constants.mu - mu) <= 1e-14
        assert abs(constants.beta_T - beta_t) <= 1e-12
        assert abs(constants.s * protocol.beta_Q + constants.mu - 1.0) <= 1e-12
        assert abs(constants.beta_T - (0.5 - constants.mu) / constants.s) <= 1e-12


def test_catalog_constants_derive_mu_and_threshold_from_the_slope():
    """Each derived slope, and mu and beta_T derived exactly from it, equal
    the stored triples, and catalog_constants holds their floats bit for
    bit."""
    stored = {
        (SVETLICHNY, 3): (Root2(Fraction(3, 16), Fraction(3, 16)),
                          Root2(Fraction(-1, 2), Fraction(-3, 4)),
                          Root2(Fraction(8, 3), Fraction(4, 3))),
        (SVETLICHNY, 4): (Root2(Fraction(1, 16), Fraction(1, 16)),
                          Root2(0, Fraction(-1, 2)), Root2(8)),
        (SVETLICHNY, 5): (Root2(Fraction(1, 32), Fraction(1, 32)),
                          Root2(0, Fraction(-1, 2)), Root2(16)),
        (MABK, 3): (Root2(Fraction(1, 4), Fraction(1, 8)),
                    Root2(0, Fraction(-1, 2)), Root2(0, 2)),
        (MABK, 4): (Root2(Fraction(1, 8), Fraction(1, 16)),
                    Root2(0, Fraction(-1, 2)), Root2(0, 4)),
        (MABK, 5): (Root2(Fraction(1, 16), Fraction(1, 32)),
                    Root2(0, Fraction(-1, 2)), Root2(0, 8)),
    }
    for (family, n), exact in stored.items():
        protocol = BellProtocol(family, n)
        s = catalog_slope(protocol)
        mu = 1 - s * protocol.beta_Q_exact
        assert (s, mu, (Fraction(1, 2) - mu) / s) == exact
        constants = catalog_constants(protocol)
        floats = (constants.s, constants.mu, constants.beta_T)
        assert [struct.pack("<d", x) for x in floats] == \
            [struct.pack("<d", float(x)) for x in exact]


def test_catalog_slope_closed_forms_at_every_n():
    # One party at 0 and the rest at pi/4 binds from n = 4 on, and for MABK
    # n = 3; Svetlichny n = 3 binds with every party at 0.
    assert catalog_slope(BellProtocol(SVETLICHNY, 3)) == \
        3 * Root2(1, 1) / 16
    assert catalog_slope(BellProtocol(MABK, 3)) == Root2(2, 1) / 8
    for n in range(4, 13):
        assert catalog_slope(BellProtocol(SVETLICHNY, n)) == \
            Root2(1, 1) / 2 ** n
        assert catalog_slope(BellProtocol(MABK, n)) == Root2(2, 1) / 2 ** n


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS, ids=str)
def test_trace_bound_never_exceeds_the_catalog_slope(protocol):
    # The catalog slope is feasible, so the trace condition it stands for
    # asks no more at any angle tuple of the full domain.
    s = float(catalog_slope(protocol))
    rng = np.random.default_rng(4500 + protocol.n)
    angles = rng.uniform(0.0, math.pi / 2, (300, protocol.n))
    assert trace_bound_slope(protocol, angles).max() <= s * (1 + 1e-9)


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS, ids=str)
def test_trace_bound_lattice_maximum_is_the_catalog_slope(protocol):
    lattice = np.array(list(itertools.product(
        (0.0, math.pi / 4, math.pi / 2), repeat=protocol.n)))
    s = float(catalog_slope(protocol))
    assert trace_bound_slope(protocol, lattice).max() == \
        pytest.approx(s, rel=1e-12, abs=0)


def test_build_T_examples():
    protocol = BellProtocol(SVETLICHNY, 3)
    constants = catalog_constants(protocol)
    quarter = (math.pi / 4,) * 3
    t = build_T(protocol, quarter, constants.s, constants.mu)
    assert abs(min_eig(t)) <= 1e-9
    t0 = build_T(protocol, (0.0,) * 3, constants.s, constants.mu)
    assert abs(min_eig(t0)) <= 1e-9
    positive = build_T(protocol, (0.2, 0.6, 0.1), 0.0, -1.0)
    assert min_eig(positive) >= 1.0 - 1e-9


def test_build_T_structure():
    rng = np.random.default_rng(41)
    for protocol in ALL_PROTOCOLS:
        constants = catalog_constants(protocol)
        angles = tuple(rng.uniform(0.0, math.pi / 4, size=protocol.n))
        t = build_T(protocol, angles, constants.s, constants.mu)
        dim = 2 ** protocol.n
        assert np.max(np.abs(t - t.conj().T)) <= 1e-12
        assert is_persymmetric(t)
        mask = np.ones((dim, dim), dtype=bool)
        idx = np.arange(dim)
        mask[idx, idx] = False
        mask[idx, dim - 1 - idx] = False
        assert np.max(np.abs(t[mask])) <= 1e-12


def test_build_T_in_place_matches_out_of_place_assembly_bit_for_bit():
    rng = np.random.default_rng(43)
    for protocol in ALL_PROTOCOLS:
        constants = catalog_constants(protocol)
        rho = ghz_state(protocol)
        before = rho.copy()
        batch = rng.uniform(0.0, math.pi / 2, size=(5, protocol.n))
        for angles in (batch, batch[0]):
            lam = apply_channel(rho, angles)
            w = build_operator(protocol, angles)
            expected = (lam - constants.s * w
                        - constants.mu * np.eye(protocol.dim))
            assert np.array_equal(
                build_T(protocol, angles, constants.s, constants.mu),
                expected)
        assert ghz_state(protocol) is rho
        assert not rho.flags.writeable
        assert np.array_equal(rho, before)


def test_kernel_condition_at_optimal_angles():
    for protocol in ALL_PROTOCOLS:
        constants = catalog_constants(protocol)
        quarter = (math.pi / 4,) * protocol.n
        t = build_T(protocol, quarter, constants.s, constants.mu)
        rho = ghz_state(protocol)
        values, vectors = np.linalg.eigh(rho)
        ghz_vector = vectors[:, -1]
        assert abs(values[-1] - 1.0) <= 1e-9
        assert np.linalg.norm(t @ ghz_vector) <= 1e-9


def test_block_unitary():
    u = block_unitary(3)
    positions = [0, 2, 4, 6, 7, 5, 3, 1]
    expected = np.zeros((8, 8))
    for k, pos in enumerate(positions):
        expected[pos, k] = 1.0
    assert np.array_equal(u, expected)
    for n in (1, 2, 3, 4, 5):
        u = block_unitary(n)
        dim = 2 ** n
        assert np.array_equal(u @ u.conj().T, np.eye(dim))
        assert set(np.unique(u)) <= {0.0, 1.0}
        assert np.array_equal(u.sum(axis=0), np.ones(dim))
        assert np.array_equal(u.sum(axis=1), np.ones(dim))


def test_block_decompose_identity():
    blocks = block_decompose(np.eye(8, dtype=complex), 3)
    assert len(blocks) == 4
    for block in blocks:
        assert np.allclose(block, np.eye(2), atol=1e-15)


def test_block_decompose_rejects_unstructured_input():
    dense = np.arange(64, dtype=float).reshape(8, 8)
    dense = (dense + dense.T) / 2
    with pytest.raises(StructureViolation):
        block_decompose(dense.astype(complex), 3)


def test_block_decompose_matches_block_unitary_conjugation():
    rng = np.random.default_rng(44)
    matrices = []
    for protocol in ALL_PROTOCOLS:
        constants = catalog_constants(protocol)
        angles = tuple(rng.uniform(0.0, math.pi / 2, size=protocol.n))
        matrices.append((build_T(protocol, angles, constants.s, constants.mu),
                         protocol.n))
    for n in (1, 2, 6):
        dim = 2 ** n
        general = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        structure = np.eye(dim, dtype=bool) | np.eye(dim, dtype=bool)[::-1]
        matrices.append((np.where(structure, general, 0.0), n))
    for t, n in matrices:
        u = block_unitary(n)
        conjugated = u @ t @ u.conj().T
        blocks = block_decompose(t, n)
        assert len(blocks) == 2 ** (n - 1)
        for i, block in enumerate(blocks):
            assert np.array_equal(block, conjugated[2 * i:2 * i + 2,
                                                    2 * i:2 * i + 2])


def test_block_decompose_equals_x_blocks():
    rng = np.random.default_rng(48)
    for n in (1, 2, 3, 4, 5, 6):
        ts = np.stack([random_x_matrix(rng, n) for _ in range(3)])
        blocks, off_lines = x_blocks(ts)
        assert np.array_equal(off_lines, np.zeros(3))
        assert np.array(block_decompose(ts, n)).tobytes() == blocks.tobytes()
        assert (np.array(block_decompose(ts[1], n)).tobytes()
                == blocks[1].tobytes())


def test_block_decompose_refuses_non_finite_input():
    for bad in (math.nan, math.inf, -math.inf, complex(0.0, math.nan)):
        for row, col in ((0, 0), (0, 7), (2, 5), (0, 1)):
            t = np.eye(8, dtype=complex)
            t[row, col] = bad
            with pytest.raises(ValueError, match="non-finite"):
                block_decompose(t, 3)


def test_block_eigenvalues_match_full_spectrum():
    rng = np.random.default_rng(42)
    for protocol in ALL_PROTOCOLS:
        constants = catalog_constants(protocol)
        for _ in range(10):
            angles = tuple(rng.uniform(0.0, math.pi / 2, size=protocol.n))
            s = constants.s * rng.uniform(0.5, 1.5)
            mu = constants.mu * rng.uniform(0.5, 1.5)
            t = build_T(protocol, angles, s, mu)
            blocks = block_decompose(t, protocol.n)
            assert len(blocks) == 2 ** (protocol.n - 1)
            pairs = []
            for block in blocks:
                pairs.extend(eig2x2_hermitian(block[0, 0].real, block[0, 1]))
            assert np.max(np.abs(np.sort(pairs)
                                 - hermitian_eigenvalues(t))) <= 1e-9


def test_three_party_block_functions():
    protocol = BellProtocol(SVETLICHNY, 3)
    constants = catalog_constants(protocol)
    angles = (0.3, 0.5, 0.7)
    f = sv3_block_functions(angles, constants.s)
    assert np.max(np.abs(np.array(f) - F3_AT_REFERENCE_POINT)) <= 1e-12
    t = build_T(protocol, angles, constants.s, constants.mu)
    blocks = block_decompose(t, 3)
    for i, block in enumerate(blocks):
        assert abs(block[0, 0].real - f[2 * i]) <= 1e-10
        assert abs(block[1, 1].real - f[2 * i]) <= 1e-10
        assert abs(block[0, 1] - f[2 * i + 1]) <= 1e-10


def test_three_party_block_eigen_values_at_corners():
    protocol = BellProtocol(SVETLICHNY, 3)
    constants = catalog_constants(protocol)
    quarter = (math.pi / 4,) * 3
    blocks = block_decompose(
        build_T(protocol, quarter, constants.s, constants.mu), 3)
    _, upper = eig2x2_hermitian(blocks[1][0, 0].real, blocks[1][0, 1])
    assert abs(upper - (2 + 3 * SQ2) / 4) <= 1e-10
    blocks0 = block_decompose(
        build_T(protocol, (0.0,) * 3, constants.s, constants.mu), 3)
    _, upper0 = eig2x2_hermitian(blocks0[1][0, 0].real, blocks0[1][0, 1])
    assert abs(upper0 - (5 + 6 * SQ2) / 4) <= 1e-10


def test_four_party_block_functions():
    protocol = BellProtocol(SVETLICHNY, 4)
    constants = catalog_constants(protocol)
    angles = (0.3, 0.5, 0.7, 0.2)
    f1, f2 = sv4_block_functions(angles, constants.s)
    assert abs(f1 - 0.9729226896293867) <= 1e-12
    assert abs(f2 - (0.6703009393792483 - 0.6553728074383367j)) <= 1e-12
    deter = sv4_determinant(angles, constants.s)
    assert abs(deter - 0.06776169393337012) <= 1e-12
    assert abs(deter - (f1 ** 2 - abs(f2) ** 2)) <= 1e-9
    t = build_T(protocol, angles, constants.s, constants.mu)
    block = block_decompose(t, 4)[0]
    assert abs(block[0, 0].real - f1) <= 1e-10
    assert abs(block[1, 0] - f2) <= 1e-10
    quarter = (math.pi / 4,) * 4
    assert abs(sv4_determinant(quarter, constants.s)) <= 1e-9


def test_min_eig_over_grid_catalog_pass():
    report = min_eig_over_grid(catalog_constants(BellProtocol(SVETLICHNY, 4)),
                               GridSpec(points_per_axis=21))
    assert report.passed and report.min_eigenvalue >= -1e-8
    assert report.grid_points_per_axis == 21
    assert len(report.argmin_angles) == 4
    report = min_eig_over_grid(catalog_constants(BellProtocol(MABK, 5)),
                               GridSpec(points_per_axis=11))
    assert report.passed and report.min_eigenvalue >= -1e-8


def test_min_eig_over_grid_rejects_bad_constants():
    protocol = BellProtocol(SVETLICHNY, 3)
    constants = catalog_constants(protocol)
    doubled = type(constants)(protocol=protocol, s=2 * constants.s,
                              mu=constants.mu, beta_T=constants.beta_T)
    report = min_eig_over_grid(doubled, GridSpec(points_per_axis=21))
    assert not report.passed
    assert report.min_eigenvalue < -1e-6


def test_min_eig_over_grid_deterministic_and_monotone():
    protocol = BellProtocol(SVETLICHNY, 3)
    constants = catalog_constants(protocol)
    coarse = min_eig_over_grid(constants, GridSpec(points_per_axis=11))
    fine = min_eig_over_grid(constants, GridSpec(points_per_axis=21))
    assert fine.min_eigenvalue <= coarse.min_eigenvalue + 1e-8
    again = min_eig_over_grid(constants, GridSpec(points_per_axis=21))
    assert again.min_eigenvalue == fine.min_eigenvalue
    assert again.argmin_angles == fine.argmin_angles


def test_min_eig_over_grid_corner_refinement():
    protocol = BellProtocol(SVETLICHNY, 3)
    constants = catalog_constants(protocol)
    report = min_eig_over_grid(constants, GridSpec(points_per_axis=2))
    assert report.passed
    assert report.refined
    for angle in report.argmin_angles:
        assert 0.0 <= angle <= math.pi / 4 + 1e-12


def test_min_eig_over_grid_full_domain():
    protocol = BellProtocol(SVETLICHNY, 4)
    constants = catalog_constants(protocol)
    spec = GridSpec(points_per_axis=9, domain=(0.0, math.pi / 2))
    report = min_eig_over_grid(constants, spec)
    assert report.passed and report.min_eigenvalue >= -1e-8


def _assert_matches_oracle(protocol, s, mu, axes):
    (value, point, pair, evaluations), = _min_block_over_products(
        protocol, s, mu, *padded_grid(axes))
    assert abs(value - full_grid_min_block(protocol, s, mu, axes)[0]) <= 1e-15
    # The reported tuple and pair attain the minimum on their own.
    at_point = full_grid_min_block(protocol, s, mu,
                                   [np.array([x]) for x in point])
    assert at_point[0] <= value + 1e-15
    assert 0 <= pair < 2 ** (protocol.n - 1)
    assert evaluations < np.prod([len(a) for a in axes]) * 2 ** (protocol.n - 1)


def test_reduced_scan_matches_full_grid_oracle():
    for protocol in ALL_PROTOCOLS:
        constants = catalog_constants(protocol)
        default = np.linspace(0.0, math.pi / 4, 11 if protocol.n == 5 else 21)
        full = np.linspace(0.0, math.pi / 2, 7)
        for s in (constants.s, 1.1 * constants.s):
            for axis in (default, full):
                _assert_matches_oracle(protocol, s, constants.mu,
                                       [axis] * protocol.n)


def test_reduced_scan_matches_full_grid_oracle_on_stencils():
    h = 0.05
    for protocol in ALL_PROTOCOLS:
        n = protocol.n
        constants = catalog_constants(protocol)
        centres = [(0.3,) + (math.pi / 4,) * (n - 1),
                   (0.2, 0.9, 0.2, 0.9, 0.2)[:n],
                   (0.0,) * (n - 1) + (math.pi / 2,)]
        for s in (constants.s, 1.1 * constants.s):
            for centre in centres:
                hi = math.pi / 2 if max(centre) > math.pi / 4 else math.pi / 4
                axes = [np.clip(np.linspace(c - h, c + h, 5), 0.0, hi)
                        for c in centre]
                _assert_matches_oracle(protocol, s, constants.mu, axes)


def _assert_matches_both_routes(protocol, s, mu, axes):
    # The kernel is the real route bit for bit: minimum, point, pair and
    # count.  The complex route rounds differently, so only its minimum is
    # compared, to 1e-15.
    got = _min_block_over_products(protocol, s, mu, *padded_grid(axes))
    assert got == [real_min_block_over_axes(protocol, s, mu, axes)]
    assert abs(got[0][0] - complex_min_block_over_axes(protocol, s, mu,
                                                       axes)[0]) <= 1e-15


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS,
                         ids=lambda p: f"{p.family}-{p.n}")
def test_scan_kernel_matches_complex_route_bit_for_bit(protocol):
    # Bit for bit against the real route, and to 1e-15 against the complex
    # route (``_assert_matches_both_routes``).  Grid 31 at n = 5 takes
    # seconds and about 0.5 GB in the oracles; grid 16 keeps the n = 5 case
    # small.
    n = protocol.n
    constants = catalog_constants(protocol)
    grids = [np.linspace(0.0, math.pi / 4, 11 if n == 5 else 21),
             np.linspace(0.0, math.pi / 2, 7),
             np.linspace(0.0, math.pi / 4, 16 if n == 5 else 31)]
    for s in (constants.s, 1.1 * constants.s, 0.7 * constants.s):
        for axis in grids:
            _assert_matches_both_routes(protocol, s, constants.mu,
                                        [axis] * n)
    rng = np.random.default_rng(n)
    for _ in range(20):
        hi = rng.choice([math.pi / 4, math.pi / 2])
        h = rng.uniform(1e-4, 0.2)
        axes = [np.unique(np.clip(np.linspace(c - h, c + h, 5), 0.0, hi))
                for c in rng.uniform(0.0, hi, size=n)]
        _assert_matches_both_routes(protocol,
                                    constants.s * rng.uniform(0.5, 1.5),
                                    constants.mu, axes)


@pytest.mark.parametrize("points", [1, 3])
@pytest.mark.parametrize("protocol", ALL_PROTOCOLS,
                         ids=lambda p: f"{p.family}-{p.n}")
def test_scan_chunks_match_complex_route_bit_for_bit(monkeypatch, protocol,
                                                     points):
    # Chunks of one and of three canonical points put chunk boundaries
    # between neighbouring points all over the grid; the routes are
    # compared as in the test above.
    n = protocol.n
    monkeypatch.setattr(ghzcert.verifier, "SCAN_CHUNK_EVALUATIONS",
                        points * 2 ** (n - 1))
    constants = catalog_constants(protocol)
    cases = [([np.linspace(0.0, math.pi / 4, 11 if n == 5 else 21)] * n,
              constants.s),
             ([np.linspace(0.0, math.pi / 2, 7)] * n, constants.s),
             ([np.linspace(0.0, math.pi / 2, 7)] * n, 1.1 * constants.s)]
    rng = np.random.default_rng(100 + n)
    for _ in range(20):
        # Every axis of the stencil straddles pi/4; three points per axis
        # keep the n = 5 stencils at 3^5 points.
        h = rng.uniform(1e-4, 0.2)
        centres = rng.uniform(math.pi / 4 - h, math.pi / 4 + h, size=n)
        cases.append(([np.linspace(c - h, c + h, 3) for c in centres],
                      constants.s * rng.uniform(0.5, 1.5)))
    for axes, s in cases:
        _assert_matches_both_routes(protocol, s, constants.mu, axes)


@pytest.mark.parametrize("x, s, pairs, binding", [
    # The later point binds at the smaller pair and wins.
    (0.29, 0.117, (2, 1), (0.0, 0.29, 0.29)),
    # Both bind at pair 0, so the earlier point wins.
    (1.28, -1.108, (0, 0), (1.28, 1.28, 0.0)),
])
def test_scan_chunks_keep_first_pair_then_first_point(monkeypatch, x, s,
                                                      pairs, binding):
    # The grid {x, 0} x {x} x {0, x} holds (x, x, 0) first and (0, x, x)
    # last.  Every factor at angle 0 is exactly 1, so the two points form
    # the same products of the same factors and tie bit for bit; with one
    # point (four pairs) per chunk the tie lies across chunk boundaries.
    protocol = BellProtocol(SVETLICHNY, 3)
    mu = catalog_constants(protocol).mu
    monkeypatch.setattr(ghzcert.verifier, "SCAN_CHUNK_EVALUATIONS", 4)
    ends = []
    for point in ((x, x, 0.0), (0.0, x, x)):
        axes = [np.array([a]) for a in point]
        ends += _min_block_over_products(protocol, s, mu, *padded_grid(axes))
    assert ends[0][0] == ends[1][0]
    assert (ends[0][2], ends[1][2]) == pairs
    axes = [np.array([x, 0.0]), np.array([x]), np.array([0.0, x])]
    result, = _min_block_over_products(protocol, s, mu, *padded_grid(axes))
    assert result == (ends[0][0], binding, min(pairs), 4 * 4)
    assert result == real_min_block_over_axes(protocol, s, mu, axes)


def test_min_eig_over_grid_reports_scan_size():
    protocol = BellProtocol(SVETLICHNY, 4)
    constants = catalog_constants(protocol)
    grid_evals = math.comb(21 + 3, 4) * 8
    broken = CertificateConstants(protocol=protocol, s=1.1 * constants.s,
                                  mu=constants.mu, beta_T=constants.beta_T)
    report = min_eig_over_grid(broken, GridSpec(points_per_axis=21))
    assert not report.refined
    assert report.block_evaluations == grid_evals
    report = min_eig_over_grid(constants, GridSpec(points_per_axis=21))
    assert report.refined
    assert report.block_evaluations > grid_evals
    assert report.block_evaluations < grid_evals + 6 * 5 ** 4 * 8
    assert 0 <= report.binding_pair < 8


def test_refinement_stencil_drops_repeated_edge_points():
    # The n=5 catalog certificates bind at (t, pi/4, pi/4, pi/4, pi/4).  The
    # clipped stencil holds 3 distinct points on each pi/4 axis, so a round
    # evaluates 5 * C(3 + 4 - 1, 4) = 75 canonical points, not 5 * C(8, 4).
    grid_evals = math.comb(11 + 4, 5) * 16
    for family in (SVETLICHNY, MABK):
        protocol = BellProtocol(family, 5)
        report = min_eig_over_grid(catalog_constants(protocol),
                                   GridSpec(points_per_axis=11))
        assert report.refined and report.passed
        assert report.block_evaluations == grid_evals + 6 * 75 * 16 == 55_248


def test_min_eig_over_grid_rejects_non_finite_input():
    protocol = BellProtocol(SVETLICHNY, 3)
    constants = catalog_constants(protocol)
    spec = GridSpec(points_per_axis=5)
    for bad in (math.nan, math.inf, -math.inf):
        for s, mu in ((bad, constants.mu), (constants.s, bad)):
            odd = CertificateConstants(protocol=protocol, s=s, mu=mu,
                                       beta_T=constants.beta_T)
            with pytest.raises(ValueError):
                min_eig_over_grid(odd, spec)
        with pytest.raises(ValueError):
            min_eig_over_grid(constants, spec, psd_tol=bad)
    with pytest.raises(ValueError):
        min_eig_over_grid(constants, spec, psd_tol=-1.0)


def test_min_eig_over_grid_rejects_overflowing_constants():
    protocol = BellProtocol(SVETLICHNY, 3)
    constants = catalog_constants(protocol)
    spec = GridSpec(points_per_axis=5)
    for s, mu in ((1e308, constants.mu), (1e308, -1e308), (1e308, 1e308)):
        odd = CertificateConstants(protocol=protocol, s=s, mu=mu,
                                   beta_T=constants.beta_T)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="s=.* and mu=.* overflow"):
                min_eig_over_grid(odd, spec)
    # Large but representable constants still give a finite verdict.
    for s, mu, passed in ((1e300, constants.mu, False),
                          (constants.s, 1e308, False),
                          (constants.s, -1e308, True)):
        odd = CertificateConstants(protocol=protocol, s=s, mu=mu,
                                   beta_T=constants.beta_T)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = min_eig_over_grid(odd, spec)
        assert math.isfinite(report.min_eigenvalue)
        assert report.passed is passed


def test_min_eig_over_grid_raises_when_the_corner_ratio_overflows():
    # The kernel scales the Bell corner's table by s |z_c| / scale, which
    # is 2^(n+1) s |z_c|: at n = 3, s = +-1e307 overflows that constant
    # and 2e306 the scaled table.  Both raise ValueError, so an overflow
    # never reaches the report as a non-finite minimum; 1e306 still gives
    # a finite verdict.
    protocol = BellProtocol(SVETLICHNY, 3)
    constants = catalog_constants(protocol)
    spec = GridSpec(points_per_axis=5)
    for s in (1e307, -1e307, 2e306):
        odd = CertificateConstants(protocol=protocol, s=s, mu=constants.mu,
                                   beta_T=constants.beta_T)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="s=.* and mu=.* overflow"):
                min_eig_over_grid(odd, spec)
    odd = CertificateConstants(protocol=protocol, s=1e306, mu=constants.mu,
                               beta_T=constants.beta_T)
    report = min_eig_over_grid(odd, spec)
    assert math.isfinite(report.min_eigenvalue) and not report.passed


def test_min_eig_over_grid_never_passes_a_non_finite_minimum(monkeypatch):
    protocol = BellProtocol(SVETLICHNY, 3)
    constants = catalog_constants(protocol)
    for value in (math.nan, math.inf):
        monkeypatch.setattr(
            ghzcert.verifier, "_min_block_over_products",
            lambda *args, value=value: [(value, (0.0, 0.0, 0.0), 0, 1)])
        report = min_eig_over_grid(constants, GridSpec(points_per_axis=5))
        assert not report.passed


def test_min_eig_over_grid_size_limit(monkeypatch):
    protocol = BellProtocol(MABK, 3)
    constants = catalog_constants(protocol)
    grid_evals = math.comb(21 + 2, 3) * 4
    monkeypatch.setattr(ghzcert.verifier, "MAX_BLOCK_EVALUATIONS", grid_evals)
    assert min_eig_over_grid(constants, GridSpec(points_per_axis=21)).passed
    with pytest.raises(ValueError, match="limit"):
        min_eig_over_grid(constants, GridSpec(points_per_axis=22))


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(points_per_axis=1)
    # numpy's integers are stored as int, so the report holds a plain int;
    # anything else is refused by name, where 5.0 once reached math.comb
    # and raised TypeError there.
    spec = GridSpec(points_per_axis=np.int64(5))
    assert type(spec.points_per_axis) is int and spec == GridSpec(5)
    report = min_eig_over_grid(
        catalog_constants(BellProtocol(SVETLICHNY, 3)), spec)
    assert type(report.grid_points_per_axis) is int
    for bad in (5.0, 5.5, "5", None):
        with pytest.raises(ValueError, match=re.escape(
                f"grid points per axis must be an integer, got {bad!r}")):
            GridSpec(points_per_axis=bad)
    # An array or list domain is stored as a tuple of floats, so the frozen
    # spec compares and hashes, where it once raised on either.
    tuple_spec = GridSpec(5, domain=(0.0, 0.5))
    for domain in (np.array([0.0, 0.5]), [0.0, 0.5],
                   (np.float64(0.0), np.float64(0.5))):
        spec = GridSpec(5, domain=domain)
        assert spec == tuple_spec and hash(spec) == hash(tuple_spec)
        assert type(spec.domain) is tuple
        assert all(type(end) is float for end in spec.domain)


def test_parity_projector_holds_one_index_pair():
    # Sector (x1, x2) is the pair b = 2 x1 + x2 and its complement 7 - b,
    # the mapping by which the crosscheck reads P T P off block b.
    for x1 in (0, 1):
        for x2 in (0, 1):
            b = 2 * x1 + x2
            diagonal = np.diag(parity_projector(x1, x2))
            assert np.flatnonzero(diagonal).tolist() == [b, 7 - b]
            assert np.array_equal(diagonal[[b, 7 - b]], [1.0, 1.0])


def test_parity_projector():
    for x1 in (0, 1):
        for x2 in (0, 1):
            p = parity_projector(x1, x2)
            assert np.max(np.abs(p @ p - p)) <= 1e-12
            assert abs(np.trace(p).real - 2.0) <= 1e-12
    expected = (pauli_string("III") + pauli_string("ZZI")
                + pauli_string("ZIZ") + pauli_string("IZZ")) / 4
    assert np.max(np.abs(parity_projector(0, 0) - expected)) <= 1e-12


def test_projector_lambda_reference_values():
    s = catalog_constants(BellProtocol(SVETLICHNY, 3)).s
    angles = (0.3, 0.5, 0.7)
    for (x1, x2), expected in LAMBDA_AT_REFERENCE_POINT.items():
        assert abs(projector_lambda(angles, s, x1, x2) - expected) <= 1e-10
    quarter = (math.pi / 4,) * 3
    assert abs(projector_lambda(quarter, s, 0, 0)) <= 1e-10
    value = (11 + 6 * SQ2) / 4
    assert abs(projector_lambda(quarter, s, 0, 1) - value) <= 1e-10
    origin = (0.0,) * 3
    for x1 in (0, 1):
        for x2 in (0, 1):
            assert abs(projector_lambda(origin, s, x1, x2)) <= 1e-10


def test_projector_lambda_matches_direct_computation():
    rng = np.random.default_rng(43)
    protocol = BellProtocol(SVETLICHNY, 3)
    constants = catalog_constants(protocol)
    for _ in range(50):
        angles = tuple(rng.uniform(0.0, math.pi / 4, size=3))
        t = build_T(protocol, angles, constants.s, constants.mu)
        for x1 in (0, 1):
            for x2 in (0, 1):
                p = parity_projector(x1, x2)
                m = p @ t @ p
                direct = np.trace(m).real ** 2 - np.trace(m @ m).real
                got = projector_lambda(angles, constants.s, x1, x2)
                assert abs(got - direct) <= 1e-10


def test_projector_lambda_nonnegative_on_grid():
    s = catalog_constants(BellProtocol(SVETLICHNY, 3)).s
    axis = np.linspace(0.0, math.pi / 4, 21)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"),
                    axis=-1).reshape(-1, 3)
    for x1 in (0, 1):
        for x2 in (0, 1):
            values = projector_lambda(grid, s, x1, x2)
            assert values.shape == (21 ** 3,)
            assert np.all(values >= -1e-9)


def test_projector_lambda_validates_domain():
    s = catalog_constants(BellProtocol(SVETLICHNY, 3)).s
    with pytest.raises(ValueError):
        projector_lambda((0.9, 0.1, 0.1), s, 0, 0)
    with pytest.raises(ValueError, match="pi/4"):
        sv3_block_functions((0.1, 0.9, 0.1), s)
    for closed_form in (sv4_block_functions, sv4_determinant):
        with pytest.raises(ValueError, match="pi/4"):
            closed_form((0.1, 0.1, 0.1, 0.9), s)


@pytest.mark.parametrize("n", [3, 4])
def test_batched_closed_forms_equal_their_one_tuple_calls(n):
    s = catalog_constants(BellProtocol(SVETLICHNY, n)).s
    rng = np.random.default_rng(40 + n)
    batch = rng.uniform(0.0, math.pi / 4, size=(120, n))
    # Rows on both boundary faces, and the two extreme corners.
    batch[::6, 0] = 0.0
    batch[1::6, -1] = math.pi / 4
    batch[2::6, 1:] = math.pi / 4
    batch[3::6, :-1] = 0.0
    batch[4] = 0.0
    batch[5] = math.pi / 4

    def bits(values) -> bytes:
        return np.asarray(values).tobytes()

    if n == 3:
        f = sv3_block_functions(batch, s)
        assert f.shape == (len(batch), 8)
        for row, angles in zip(f, batch):
            assert bits(row) == bits(sv3_block_functions(angles, s))
        for x1 in (0, 1):
            for x2 in (0, 1):
                lam = projector_lambda(batch, s, x1, x2)
                for value, angles in zip(lam, batch):
                    assert bits(value) == bits(
                        projector_lambda(angles, s, x1, x2))
    else:
        f1, f2 = sv4_block_functions(batch, s)
        deter = sv4_determinant(batch, s)
        for a, b, d, angles in zip(f1, f2, deter, batch):
            one_a, one_b = sv4_block_functions(angles, s)
            assert type(one_a) is float and type(one_b) is complex
            assert bits([a, b]) == bits([one_a, one_b])
            assert bits(d) == bits(sv4_determinant(angles, s))


def test_batched_closed_forms_refuse_any_bad_angle():
    forms = {3: (sv3_block_functions,
                 lambda angles, s: projector_lambda(angles, s, 1, 0)),
             4: (sv4_block_functions, sv4_determinant)}
    for n, pair in forms.items():
        s = catalog_constants(BellProtocol(SVETLICHNY, n)).s
        for form in pair:
            for bad in (math.nan, math.inf, -0.1, math.pi / 4 + 1e-9):
                for row, col in ((0, 0), (3, 1), (5, n - 1)):
                    batch = np.full((6, n), 0.3)
                    batch[row, col] = bad
                    with pytest.raises(ValueError, match="pi/4"):
                        form(batch, s)
            # The first bad angle, in row order, is the one named.
            batch = np.full((6, n), 0.3)
            batch[2, 1], batch[4, 0] = -0.25, 0.9
            with pytest.raises(ValueError, match=r"^angle -0\.25 outside"):
                form(batch, s)
            for shape in ((6, n - 1), (6, n + 1), (n + 1,), (2, 3, n)):
                with pytest.raises(ValueError, match="angles per tuple"):
                    form(np.full(shape, 0.3), s)
            with pytest.raises(ValueError,
                               match=rf"nonempty .* shape \(0, {n}\)"):
                form(np.empty((0, n)), s)
            with pytest.raises(ValueError, match="real, got dtype complex"):
                form(np.full((6, n), 0.3 + 0j), s)


def test_closed_form_crosscheck():
    for n in (3, 4):
        report = closed_form_crosscheck(BellProtocol(SVETLICHNY, n),
                                        samples=200, seed=7)
        assert report["passed"]
        assert report["samples"] == 200
        assert report["failures"] == []
    with pytest.raises(ValueError):
        closed_form_crosscheck(BellProtocol(MABK, 3), samples=10, seed=7)


def test_closed_form_crosscheck_takes_only_integer_sample_counts():
    protocol = BellProtocol(SVETLICHNY, 3)
    for samples in (5.0, 2.5, "5"):
        with pytest.raises(ValueError, match=re.escape(
                f"sample count must be an integer, got {samples!r}")):
            closed_form_crosscheck(protocol, samples=samples)
    report = closed_form_crosscheck(protocol, samples=np.int64(5))
    assert type(report["samples"]) is int
    assert report == closed_form_crosscheck(protocol, samples=5)


def test_closed_form_crosscheck_rejects_empty_sample():
    for n in (3, 4):
        for samples in (0, -5):
            with pytest.raises(ValueError, match=re.escape(
                    f"sample count must be at least 1 and at most 100000, "
                    f"got {samples}")):
                closed_form_crosscheck(BellProtocol(SVETLICHNY, n),
                                       samples=samples)


def test_closed_form_crosscheck_sample_limit(monkeypatch):
    # The largest run takes about 1.4 s in process on a 2-core machine;
    # stopping at the first chunk of certificates shows the limit itself
    # is accepted.
    protocol = BellProtocol(SVETLICHNY, 4)
    monkeypatch.setattr(ghzcert.verifier, "build_T", stop_past_validation)
    with pytest.raises(PastValidation):
        closed_form_crosscheck(protocol, samples=MAX_CROSSCHECK_SAMPLES)
    with pytest.raises(ValueError, match="at most 100000, got 100001"):
        closed_form_crosscheck(protocol, samples=MAX_CROSSCHECK_SAMPLES + 1)


def test_closed_form_crosscheck_checks_each_draw_once_across_chunks(
        monkeypatch):
    # One (k, n) draw per batch is the same stream as one draw of n per
    # sample.  Each closed form (at n = 3 the four parity sectors'
    # invariants together) is called once per batch of
    # CROSSCHECK_BATCH_SAMPLES, and
    # block_decompose once per matrix chunk of CROSSCHECK_CHUNK_ENTRIES
    # inside it; each side's calls hold every drawn tuple once, in draw
    # order.
    forms = {3: ("sv3_block_functions", "_sector_invariants"),
             4: ("sv4_block_functions", "sv4_determinant")}
    originals = {name: getattr(ghzcert.verifier, name)
                 for names in forms.values()
                 for name in names + ("build_T", "block_decompose")}
    batch = CROSSCHECK_BATCH_SAMPLES
    for n, names in forms.items():
        chunk = CROSSCHECK_CHUNK_ENTRIES // 4 ** n
        for samples in (chunk - 1, chunk, chunk + 1, batch - 1, batch,
                        batch + 1, 2 * batch + chunk + 1):
            seen, assembled, decomposed = {}, [], []
            for name in names:

                def recording(angles, s, *labels, name=name):
                    seen.setdefault((name,) + labels, []).append(
                        np.array(angles))
                    return originals[name](angles, s, *labels)

                monkeypatch.setattr(ghzcert.verifier, name, recording)

            def assembling(protocol, angles, s, mu):
                assembled.append(np.array(angles))
                return originals["build_T"](protocol, angles, s, mu)

            def decomposing(t, n):
                decomposed.append(len(t))
                return originals["block_decompose"](t, n)

            monkeypatch.setattr(ghzcert.verifier, "build_T", assembling)
            monkeypatch.setattr(ghzcert.verifier, "block_decompose",
                                decomposing)
            report = closed_form_crosscheck(BellProtocol(SVETLICHNY, n),
                                            samples=samples, seed=11)
            assert report["passed"] and report["samples"] == samples
            rng = np.random.default_rng(11)
            draws = np.array([rng.uniform(0.0, math.pi / 4, size=n)
                              for _ in range(samples)])
            assert len(seen) == 2
            sizes = [min(batch, samples - start)
                     for start in range(0, samples, batch)]
            for batches in seen.values():
                assert [len(b) for b in batches] == sizes
                assert np.array_equal(np.concatenate(batches), draws)
            assert decomposed == [min(chunk, size - begin) for size in sizes
                                  for begin in range(0, size, chunk)]
            assert np.array_equal(np.concatenate(assembled), draws)


def test_closed_form_crosscheck_reads_blocks_through_block_decompose(
        monkeypatch):
    # 33 samples at n = 4 are a chunk of 32 and a tail of one; each chunk's
    # blocks are read by the public function, the one a tracer can wrap.
    calls = []
    original = ghzcert.verifier.block_decompose

    def counting(t, n):
        calls.append(len(t))
        return original(t, n)

    monkeypatch.setattr(ghzcert.verifier, "block_decompose", counting)
    report = closed_form_crosscheck(BellProtocol(SVETLICHNY, 4), samples=33)
    assert report["passed"]
    assert calls == [32, 1]


def test_closed_form_crosscheck_failure_names_its_global_sample(monkeypatch):
    # A target past the first matrix chunk, and one that opens the second
    # batch of closed-form calls.
    protocol = BellProtocol(SVETLICHNY, 4)
    chunk = CROSSCHECK_CHUNK_ENTRIES // protocol.dim ** 2
    original = ghzcert.verifier.sv4_block_functions
    for samples, target in ((3 * chunk, chunk + 3),
                            (CROSSCHECK_BATCH_SAMPLES + 1,
                             CROSSCHECK_BATCH_SAMPLES)):
        drawn = [0]

        def perturbed(angles, s, target=target, drawn=drawn):
            # -f2 keeps |f2|, so only the block entry check sees the change.
            f1, f2 = original(angles, s)
            offset = target - drawn[0]
            drawn[0] += len(f2)
            if 0 <= offset < len(f2):
                f2 = f2.copy()
                f2[offset] = -f2[offset]
            return f1, f2

        monkeypatch.setattr(ghzcert.verifier, "sv4_block_functions",
                            perturbed)
        report = closed_form_crosscheck(protocol, samples=samples, seed=5)
        assert drawn[0] == samples
        assert report["failures"] == [
            f"sample {target}: outer block mismatch"]
        assert not report["passed"]


def test_closed_form_crosscheck_sector_failure_names_its_global_sample(
        monkeypatch):
    protocol = BellProtocol(SVETLICHNY, 3)
    chunk = CROSSCHECK_CHUNK_ENTRIES // protocol.dim ** 2
    original = ghzcert.verifier._sector_invariants
    for samples, target in ((3 * chunk, chunk + 5),
                            (CROSSCHECK_BATCH_SAMPLES + 1,
                             CROSSCHECK_BATCH_SAMPLES)):
        drawn = [0]

        def perturbed(angles, s, target=target, drawn=drawn):
            # Column 2 is sector (1, 0).
            lam = original(angles, s)
            offset = target - drawn[0]
            drawn[0] += len(lam)
            if 0 <= offset < len(lam):
                lam[offset, 2] += 1e-9
            return lam

        monkeypatch.setattr(ghzcert.verifier, "_sector_invariants", perturbed)
        report = closed_form_crosscheck(protocol, samples=samples, seed=5)
        assert drawn[0] == samples
        assert report["failures"] == [
            f"sample {target}: sector (1,0) mismatch"]
        assert not report["passed"]


def test_closed_form_crosscheck_builds_no_parity_projector(monkeypatch):
    # The sector invariant is read off the 2 x 2 blocks; the dense
    # projectors stay the tests' reference for P T P.
    def refuse(x1, x2):
        raise AssertionError("parity_projector called")

    monkeypatch.setattr(ghzcert.verifier, "parity_projector", refuse)
    report = closed_form_crosscheck(BellProtocol(SVETLICHNY, 3),
                                    samples=300, seed=3)
    assert report["passed"] and report["failures"] == []


def test_closed_form_crosscheck_structure_violation_names_its_global_sample(
        monkeypatch):
    protocol = BellProtocol(SVETLICHNY, 3)
    chunk = CROSSCHECK_CHUNK_ENTRIES // protocol.dim ** 2
    original = ghzcert.verifier.build_T
    for samples, target in ((3 * chunk, chunk + 3),
                            (CROSSCHECK_BATCH_SAMPLES + chunk + 1,
                             CROSSCHECK_BATCH_SAMPLES + chunk)):
        assembled = [0]

        def unstructured(protocol, angles, s, mu, target=target,
                         assembled=assembled):
            # Adds off-block weight to the target sample's certificate only.
            ts = original(protocol, angles, s, mu)
            offset = target - assembled[0]
            if 0 <= offset < len(ts):
                ts[offset, 0, 1] = 1e-9
            assembled[0] += len(ts)
            return ts

        monkeypatch.setattr(ghzcert.verifier, "build_T", unstructured)
        with pytest.raises(StructureViolation,
                           match=f"^sample {target}: ") as caught:
            closed_form_crosscheck(protocol, samples=samples)
        assert caught.value.index == target


def test_closed_form_crosscheck_memory_does_not_grow_with_samples():
    # Bounded by one batch of blocks and closed-form values plus one chunk
    # of matrices: about 1.0 MB at n = 3 and 1.2 MB at n = 4.
    for n in (3, 4):
        protocol = BellProtocol(SVETLICHNY, n)
        closed_form_crosscheck(protocol, samples=1)
        tracemalloc.start()
        try:
            report = closed_form_crosscheck(protocol, samples=5000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report["passed"]
        assert peak < 2_000_000


@pytest.mark.parametrize("n, grid, bound", [(4, 31, 8_000_000),
                                            (5, 33, 100_000_000),
                                            (3, 227, 80_000_000)])
def test_min_eig_over_grid_memory_is_bounded(n, grid, bound):
    # The chunked kernel works in one workspace of a few tables of about
    # 2^15 block evaluations each; the canonical layout is what still grows
    # with the grid, n one-byte indices per point, and building it is the
    # peak.  Grid 227 is the largest pass admitted at n = 3.
    constants = catalog_constants(BellProtocol(SVETLICHNY, n))
    min_eig_over_grid(constants, GridSpec(points_per_axis=3))
    tracemalloc.start()
    try:
        report = min_eig_over_grid(constants, GridSpec(points_per_axis=grid))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < bound


@pytest.mark.parametrize("family, n, grid", [(SVETLICHNY, 4, 31),
                                             (MABK, 5, 11),
                                             (SVETLICHNY, 3, 21)])
def test_repeated_scan_allocates_no_chunk_buffers(family, n, grid):
    # After one warm call the workspace and the canonical layouts of the
    # grid and of every refinement stencil exist; a repeated call allocates
    # only its per-call setup, well below one table of 2^15 evaluations.
    constants = catalog_constants(BellProtocol(family, n))
    spec = GridSpec(points_per_axis=grid)
    warm = min_eig_over_grid(constants, spec)
    tracemalloc.start()
    try:
        report = min_eig_over_grid(constants, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report == warm and report.refined
    assert peak < 256_000


def test_canonical_layout_cache_stays_bounded():
    # More distinct n = 3 grids than the cache holds, the largest first:
    # an unbounded cache would keep more than the cap's worth of the
    # largest layout (3 one-byte indices per point, under 6 MB).
    protocol = BellProtocol(SVETLICHNY, 3)
    constants = catalog_constants(protocol)
    grids = range(227, 227 - CANONICAL_LAYOUT_CACHE - 1, -1)
    sizes = [3 * math.comb(points + 2, 3) for points in grids]
    largest = sizes[0]
    assert largest <= 6_000_000
    assert sum(sizes) > CANONICAL_LAYOUT_CACHE * largest
    tracemalloc.start()
    try:
        for points in grids:
            report = min_eig_over_grid(constants,
                                       GridSpec(points_per_axis=points))
            assert report.passed
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert _canonical_layout.cache_info().currsize == CANONICAL_LAYOUT_CACHE
    assert current <= CANONICAL_LAYOUT_CACHE * largest


def test_concurrent_scans_match_sequential_reports():
    # Four threads scan their own scenarios at once, each in its own
    # workspace, switching often, with a quantum bound between scans; the
    # reports and bounds equal the sequential ones exactly.
    cases = []
    for protocol in ALL_PROTOCOLS:
        constants = catalog_constants(protocol)
        for s in (constants.s, 1.1 * constants.s):
            for hi in (math.pi / 4, math.pi / 2):
                cases.append((CertificateConstants(
                    protocol=protocol, s=s, mu=constants.mu,
                    beta_T=constants.beta_T),
                    GridSpec(points_per_axis=11 if protocol.n == 5 else 15,
                             domain=(0.0, hi))))

    def scan_and_bound(case):
        return min_eig_over_grid(*case), quantum_bound(case[0].protocol)

    expected = [scan_and_bound(case) for case in cases]
    shares = [cases[i::4] for i in range(4)]
    results = [[] for _ in shares]
    start = threading.Barrier(len(shares))

    def scan(share, out):
        start.wait()
        for _ in range(3):
            out.append([scan_and_bound(case) for case in share])

    threads = [threading.Thread(target=scan, args=pair)
               for pair in zip(shares, results)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for i, rounds in enumerate(results):
        assert rounds == [expected[i::4]] * 3


def test_scan_workspace_buffers_start_on_page_boundaries():
    # On a fresh thread and as the workspace grows, every buffer of the
    # scan starts on a page, wherever the allocator put the allocation.
    starts = []

    def scan():
        for n, m in ((3, 1), (5, 7), (4, 4096), (3, 8192), (5, 2048)):
            buffers = ghzcert.verifier._workspace(n, m)
            assert [b.shape[-1] for b in buffers] == [m] * 6
            starts.append([b.ctypes.data % 4096 for b in buffers])

    thread = threading.Thread(target=scan)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert starts == [[0] * 6] * 5
