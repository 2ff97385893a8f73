"""Certificate operator assembly, block reduction, grid scans, and crosschecks."""
from __future__ import annotations

import math
import struct
import warnings
from fractions import Fraction

import numpy as np
import pytest

from ghzcert.bell import MABK, SVETLICHNY, BellProtocol
from ghzcert.linalg import hermitian_eigenvalues, is_persymmetric
from ghzcert.root2 import Root2
from ghzcert.states import ghz_state
import ghzcert.verifier
from ghzcert.verifier import (MAX_CROSSCHECK_SAMPLES, CertificateConstants,
                              GridSpec, StructureViolation,
                              _min_block_over_axes,
                              block_decompose, block_unitary, build_T,
                              catalog_constants, closed_form_crosscheck,
                              min_eig_over_grid, parity_projector,
                              projector_lambda, sv3_block_functions,
                              sv4_block_functions, sv4_determinant)
from oracles import (PastValidation, complex_min_block_over_axes,
                     eig2x2_hermitian, full_grid_min_block, pauli_string,
                     stop_past_validation)

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
    """mu and beta_T derived from s equal the triples once stored, exactly."""
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
        constants = catalog_constants(BellProtocol(family, n))
        got = (constants.s_exact, constants.mu_exact, constants.beta_T_exact)
        assert got == exact
        floats = (constants.s, constants.mu, constants.beta_T)
        assert [struct.pack("<d", x) for x in floats] == \
            [struct.pack("<d", float(x)) for x in exact]


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
        assert is_persymmetric(t, tol=1e-10)
        mask = np.ones((dim, dim), dtype=bool)
        idx = np.arange(dim)
        mask[idx, idx] = False
        mask[idx, dim - 1 - idx] = False
        assert np.max(np.abs(t[mask])) <= 1e-12


def test_kernel_condition_at_optimal_angles():
    for protocol in ALL_PROTOCOLS:
        constants = catalog_constants(protocol)
        quarter = (math.pi / 4,) * protocol.n
        t = build_T(protocol, quarter, constants.s, constants.mu)
        rho = ghz_state(protocol).rho
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


def test_block_decompose_refuses_non_finite_input():
    for bad in (math.nan, math.inf, -math.inf, complex(0.0, math.nan)):
        for row, col in ((0, 0), (0, 7), (2, 5), (0, 1)):
            t = np.eye(8, dtype=complex)
            t[row, col] = bad
            with pytest.raises(ValueError, match="non-finite"):
                block_decompose(t, 3)
    with pytest.raises(StructureViolation):
        block_decompose(np.eye(8, dtype=complex), 3, residue_tol=math.nan)


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
    report = min_eig_over_grid(BellProtocol(SVETLICHNY, 4),
                               catalog_constants(BellProtocol(SVETLICHNY, 4)),
                               GridSpec(points_per_axis=21))
    assert report.passed and report.min_eigenvalue >= -1e-8
    assert report.grid_points_per_axis == 21
    assert len(report.argmin_angles) == 4
    report = min_eig_over_grid(BellProtocol(MABK, 5),
                               catalog_constants(BellProtocol(MABK, 5)),
                               GridSpec(points_per_axis=11))
    assert report.passed and report.min_eigenvalue >= -1e-8


def test_min_eig_over_grid_rejects_bad_constants():
    protocol = BellProtocol(SVETLICHNY, 3)
    constants = catalog_constants(protocol)
    doubled = type(constants)(protocol=protocol, s=2 * constants.s,
                              mu=constants.mu, beta_T=constants.beta_T)
    report = min_eig_over_grid(protocol, doubled, GridSpec(points_per_axis=21))
    assert not report.passed
    assert report.min_eigenvalue < -1e-6


def test_min_eig_over_grid_deterministic_and_monotone():
    protocol = BellProtocol(SVETLICHNY, 3)
    constants = catalog_constants(protocol)
    coarse = min_eig_over_grid(protocol, constants, GridSpec(points_per_axis=11))
    fine = min_eig_over_grid(protocol, constants, GridSpec(points_per_axis=21))
    assert fine.min_eigenvalue <= coarse.min_eigenvalue + 1e-8
    again = min_eig_over_grid(protocol, constants, GridSpec(points_per_axis=21))
    assert again.min_eigenvalue == fine.min_eigenvalue
    assert again.argmin_angles == fine.argmin_angles


def test_min_eig_over_grid_corner_refinement():
    protocol = BellProtocol(SVETLICHNY, 3)
    constants = catalog_constants(protocol)
    report = min_eig_over_grid(protocol, constants, GridSpec(points_per_axis=2))
    assert report.passed
    assert report.refined
    for angle in report.argmin_angles:
        assert 0.0 <= angle <= math.pi / 4 + 1e-12


def test_min_eig_over_grid_full_domain():
    protocol = BellProtocol(SVETLICHNY, 4)
    constants = catalog_constants(protocol)
    spec = GridSpec(points_per_axis=9, domain=(0.0, math.pi / 2))
    report = min_eig_over_grid(protocol, constants, spec)
    assert report.passed and report.min_eigenvalue >= -1e-8


def _assert_matches_oracle(protocol, s, mu, axes):
    value, point, pair, evaluations = _min_block_over_axes(protocol, s, mu,
                                                           axes)
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


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS,
                         ids=lambda p: f"{p.family}-{p.n}")
def test_scan_kernel_matches_complex_route_bit_for_bit(protocol):
    # Grid 31 at n = 5 takes seconds and about 0.5 GB in the complex route;
    # grid 16 keeps the n = 5 case small.
    n = protocol.n
    constants = catalog_constants(protocol)
    grids = [np.linspace(0.0, math.pi / 4, 11 if n == 5 else 21),
             np.linspace(0.0, math.pi / 2, 7),
             np.linspace(0.0, math.pi / 4, 16 if n == 5 else 31)]
    for s in (constants.s, 1.1 * constants.s, 0.7 * constants.s):
        for axis in grids:
            axes = [axis] * n
            assert (_min_block_over_axes(protocol, s, constants.mu, axes)
                    == complex_min_block_over_axes(protocol, s,
                                                   constants.mu, axes))
    rng = np.random.default_rng(n)
    for _ in range(20):
        hi = rng.choice([math.pi / 4, math.pi / 2])
        h = rng.uniform(1e-4, 0.2)
        axes = [np.unique(np.clip(np.linspace(c - h, c + h, 5), 0.0, hi))
                for c in rng.uniform(0.0, hi, size=n)]
        s = constants.s * rng.uniform(0.5, 1.5)
        assert (_min_block_over_axes(protocol, s, constants.mu, axes)
                == complex_min_block_over_axes(protocol, s, constants.mu,
                                               axes))


def test_min_eig_over_grid_reports_scan_size():
    protocol = BellProtocol(SVETLICHNY, 4)
    constants = catalog_constants(protocol)
    grid_evals = math.comb(21 + 3, 4) * 8
    broken = CertificateConstants(protocol=protocol, s=1.1 * constants.s,
                                  mu=constants.mu, beta_T=constants.beta_T)
    report = min_eig_over_grid(protocol, broken, GridSpec(points_per_axis=21))
    assert not report.refined
    assert report.block_evaluations == grid_evals
    report = min_eig_over_grid(protocol, constants, GridSpec(points_per_axis=21))
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
        report = min_eig_over_grid(protocol, catalog_constants(protocol),
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
                min_eig_over_grid(protocol, odd, spec)
        with pytest.raises(ValueError):
            min_eig_over_grid(protocol, constants, spec, psd_tol=bad)
    with pytest.raises(ValueError):
        min_eig_over_grid(protocol, constants, spec, psd_tol=-1.0)


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
                min_eig_over_grid(protocol, odd, spec)
    # Large but representable constants still give a finite verdict.
    for s, mu, passed in ((1e300, constants.mu, False),
                          (constants.s, 1e308, False),
                          (constants.s, -1e308, True)):
        odd = CertificateConstants(protocol=protocol, s=s, mu=mu,
                                   beta_T=constants.beta_T)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = min_eig_over_grid(protocol, odd, spec)
        assert math.isfinite(report.min_eigenvalue)
        assert report.passed is passed


def test_min_eig_over_grid_never_passes_a_non_finite_minimum(monkeypatch):
    protocol = BellProtocol(SVETLICHNY, 3)
    constants = catalog_constants(protocol)
    for value in (math.nan, math.inf):
        monkeypatch.setattr(
            ghzcert.verifier, "_min_block_over_axes",
            lambda *args, value=value: (value, (0.0, 0.0, 0.0), 0, 1))
        report = min_eig_over_grid(protocol, constants,
                                   GridSpec(points_per_axis=5))
        assert not report.passed


def test_min_eig_over_grid_size_limit(monkeypatch):
    protocol = BellProtocol(MABK, 3)
    constants = catalog_constants(protocol)
    grid_evals = math.comb(21 + 2, 3) * 4
    monkeypatch.setattr(ghzcert.verifier, "MAX_BLOCK_EVALUATIONS", grid_evals)
    assert min_eig_over_grid(protocol, constants,
                             GridSpec(points_per_axis=21)).passed
    with pytest.raises(ValueError, match="limit"):
        min_eig_over_grid(protocol, constants, GridSpec(points_per_axis=22))


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(points_per_axis=1)


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
    for a1 in axis:
        for a2 in axis:
            for a3 in axis:
                for x1 in (0, 1):
                    for x2 in (0, 1):
                        assert projector_lambda(
                            (a1, a2, a3), s, x1, x2) >= -1e-9


def test_projector_lambda_validates_domain():
    s = catalog_constants(BellProtocol(SVETLICHNY, 3)).s
    with pytest.raises(ValueError):
        projector_lambda((0.9, 0.1, 0.1), s, 0, 0)
    with pytest.raises(ValueError, match="pi/4"):
        sv3_block_functions((0.1, 0.9, 0.1), s)
    for closed_form in (sv4_block_functions, sv4_determinant):
        with pytest.raises(ValueError, match="pi/4"):
            closed_form((0.1, 0.1, 0.1, 0.9), s)


def test_closed_form_crosscheck():
    for n in (3, 4):
        report = closed_form_crosscheck(BellProtocol(SVETLICHNY, n),
                                        samples=200, seed=7)
        assert report["passed"]
        assert report["samples"] == 200
        assert report["failures"] == []
    with pytest.raises(ValueError):
        closed_form_crosscheck(BellProtocol(MABK, 3), samples=10, seed=7)


def test_closed_form_crosscheck_rejects_empty_sample():
    for n in (3, 4):
        for samples in (0, -5):
            with pytest.raises(ValueError, match="at least one sample"):
                closed_form_crosscheck(BellProtocol(SVETLICHNY, n),
                                       samples=samples)


def test_closed_form_crosscheck_sample_limit(monkeypatch):
    # The largest run takes about half a minute; stopping at the first
    # certificate shows the limit itself is accepted.
    protocol = BellProtocol(SVETLICHNY, 4)
    monkeypatch.setattr(ghzcert.verifier, "build_T", stop_past_validation)
    with pytest.raises(PastValidation):
        closed_form_crosscheck(protocol, samples=MAX_CROSSCHECK_SAMPLES)
    with pytest.raises(ValueError, match="at most 100000, got 100001"):
        closed_form_crosscheck(protocol, samples=MAX_CROSSCHECK_SAMPLES + 1)
