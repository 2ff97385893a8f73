"""Bell operator construction, coefficient tables, and classical/quantum bounds."""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

import ghzcert.linalg
from ghzcert.bell import (MABK, SVETLICHNY, BellProtocol, _coefficient_tensor,
                          _corner_magnitude_max, build_operator, check_angle,
                          corner_entries, hybrid_bound, local_bound,
                          observable, quantum_bound, validate_state)
from ghzcert.linalg import canonical_indices, hermitian_eigenvalues
from oracles import (coefficient_table, complex_corner_entries, evaluate,
                     full_grid_corner_max, kron_chain,
                     kron_sum_operator, pair_sign_matrix, pair_signs,
                     pauli_coefficient, pauli_string, reference_svetlichny_3,
                     reference_svetlichny_4)

SQ2 = math.sqrt(2.0)
SV3 = BellProtocol(SVETLICHNY, 3)
SV4 = BellProtocol(SVETLICHNY, 4)
MABK3 = BellProtocol(MABK, 3)


def random_angles(rng: np.random.Generator, n: int, hi: float = math.pi / 2):
    return tuple(rng.uniform(0.0, hi, size=n))


def spectral_norm(m: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvalsh(m))))


def reference_mabk_3(angles) -> np.ndarray:
    c = [math.cos(a) for a in angles]
    s = [math.sin(a) for a in angles]
    total = np.zeros((8, 8), dtype=complex)
    for ys in itertools.product((0, 1), repeat=3):
        sign = (-1.0, 1.0, 1.0, -1.0)[sum(ys)]
        weight = 1.0
        for j, y in enumerate(ys):
            weight *= s[j] if y else c[j]
        label = "".join("Y" if y else "X" for y in ys)
        total += 2.0 * sign * weight * pauli_string(label)
    return total


def test_observable_examples():
    assert np.allclose(observable(0, 0.0), pauli_string("X"), atol=1e-15)
    assert np.allclose(observable(1, math.pi / 2), -pauli_string("Y"), atol=1e-12)
    assert np.allclose(observable(0, math.pi / 4),
                       (pauli_string("X") + pauli_string("Y")) / SQ2, atol=1e-15)


def test_observable_structure():
    rng = np.random.default_rng(21)
    for _ in range(50):
        r = int(rng.integers(2))
        alpha = rng.uniform(0.0, math.pi / 2)
        a = observable(r, alpha)
        assert np.allclose(a, a.conj().T, atol=1e-15)
        assert np.allclose(a @ a, np.eye(2), atol=1e-14)
        assert a[0, 0] == 0 and a[1, 1] == 0
        assert abs(a[0, 1] - np.exp(-1j * (-1) ** r * alpha)) <= 1e-14


def test_observable_rejects_bad_inputs():
    with pytest.raises(ValueError):
        observable(0, -0.1)
    with pytest.raises(ValueError):
        observable(0, math.pi / 2 + 0.1)
    with pytest.raises(ValueError):
        observable(2, 0.3)


def test_check_angle_bounds():
    value = check_angle(np.float64(0.3))
    assert value == 0.3 and type(value) is float
    assert check_angle(-1e-13) == -1e-13
    for upper, label in ((math.pi / 2, "pi/2"), (math.pi / 4, "pi/4")):
        assert check_angle(upper + 1e-13, upper) == upper + 1e-13
        for bad in (-0.1, upper + 1e-9, math.nan):
            with pytest.raises(ValueError, match=label):
                check_angle(bad, upper)


def test_coefficient_table_small_cases():
    rows = coefficient_table(2)
    assert [(row.bits, row.nu) for row in rows] == [("0", 1), ("1", -1)]
    rows = coefficient_table(3)
    assert [row.mu for row in rows] == [1, 2, 3, 4]
    assert [row.bits for row in rows] == ["00", "01", "10", "11"]
    assert [row.nu for row in rows] == [1, -1, -1, -1]


def test_coefficient_table_structure():
    for n in (2, 3, 4, 5):
        rows = coefficient_table(n)
        assert len(rows) == 2 ** (n - 1)
        assert rows[0].bits == "0" * (n - 1) and rows[0].nu == 1
        for row in rows:
            m = row.bits.count("1")
            assert row.nu == (-1) ** (m * (m + 1) // 2)
    assert coefficient_table(4)[7].bits == "111"
    assert coefficient_table(4)[7].nu == 1


def test_protocol_catalog_bounds():
    expected = {
        (SVETLICHNY, 3): (4.0, 4 * SQ2),
        (SVETLICHNY, 4): (8.0, 8 * SQ2),
        (SVETLICHNY, 5): (16.0, 16 * SQ2),
        (MABK, 3): (2.0, 4.0),
        (MABK, 4): (2 * SQ2, 8.0),
        (MABK, 5): (4.0, 16.0),
    }
    for (family, n), (beta_l, beta_q) in expected.items():
        protocol = BellProtocol(family, n)
        assert abs(protocol.beta_L - beta_l) <= 1e-12
        assert abs(protocol.beta_Q - beta_q) <= 1e-12
        assert protocol.beta_Q > protocol.beta_L


def test_protocol_rejects_bad_inputs():
    with pytest.raises(ValueError):
        BellProtocol("chsh", 3)
    with pytest.raises(ValueError):
        BellProtocol(SVETLICHNY, 2)


def test_build_svetlichny_matches_reference_expansion():
    rng = np.random.default_rng(22)
    for _ in range(5):
        angles3 = random_angles(rng, 3)
        assert np.max(np.abs(build_operator(SV3, angles3)
                             - reference_svetlichny_3(*angles3))) <= 1e-10
        angles4 = random_angles(rng, 4)
        assert np.max(np.abs(build_operator(SV4, angles4)
                             - reference_svetlichny_4(list(angles4)))) <= 1e-10


def test_build_mabk_matches_reference_expansion():
    rng = np.random.default_rng(23)
    for _ in range(5):
        angles = random_angles(rng, 3)
        assert np.max(np.abs(build_operator(MABK3, angles)
                             - reference_mabk_3(angles))) <= 1e-10


def test_svetlichny_known_coefficients():
    quarter = (math.pi / 4,) * 3
    w = build_operator(SV3, quarter)
    assert abs(pauli_coefficient(w, "XYY") - SQ2) <= 1e-12
    assert spectral_norm(w) <= 4 * SQ2 + 1e-12
    assert abs(spectral_norm(w) - 4 * SQ2) <= 1e-10
    w0 = build_operator(SV3, (0.0,) * 3)
    assert np.max(np.abs(w0 + 4 * pauli_string("XXX"))) <= 1e-12
    w0 = build_operator(SV4, (0.0,) * 4)
    assert abs(pauli_coefficient(w0, "XXXX") + 4.0) <= 1e-12
    assert np.max(np.abs(w0 + 4 * pauli_string("XXXX"))) <= 1e-12


def test_mabk_known_values():
    w0 = build_operator(MABK3, (0.0,) * 3)
    assert np.max(np.abs(w0 + 2 * pauli_string("XXX"))) <= 1e-12
    assert abs(spectral_norm(build_operator(MABK3, (math.pi / 4,) * 3))
               - 4) <= 1e-10
    assert abs(spectral_norm(build_operator(BellProtocol(MABK, 5),
                                            (math.pi / 4,) * 5)) - 16) <= 1e-10


def test_four_party_svetlichny_is_scaled_mabk():
    rng = np.random.default_rng(24)
    for _ in range(5):
        angles = random_angles(rng, 4)
        assert np.max(np.abs(build_operator(SV4, angles)
                             - SQ2 * build_operator(BellProtocol(MABK, 4),
                                                    angles))) <= 1e-10


def test_build_operator_matches_kron_sum_oracle():
    rng = np.random.default_rng(28)
    for family in (SVETLICHNY, MABK):
        for n in (3, 4, 5, 6):
            protocol = BellProtocol(family, n)
            points = [random_angles(rng, n) for _ in range(5)]
            points.append((math.pi / 4,) * n)
            for angles in points:
                assert np.max(np.abs(build_operator(protocol, angles)
                                     - kron_sum_operator(protocol, angles))) <= 1e-13


def test_builders_reject_bad_inputs():
    with pytest.raises(ValueError):
        build_operator(BellProtocol(SVETLICHNY, 2), (0.1, 0.2))
    with pytest.raises(ValueError):
        build_operator(MABK3, (0.1, 0.2))
    with pytest.raises(ValueError):
        build_operator(SV3, (0.1, 0.2, 2.0))


def test_operators_antidiagonal_hermitian_persymmetric():
    rng = np.random.default_rng(25)
    for family in (SVETLICHNY, MABK):
        for n in (3, 4, 5):
            w = build_operator(BellProtocol(family, n), random_angles(rng, n))
            dim = 2 ** n
            mask = np.ones((dim, dim), dtype=bool)
            mask[np.arange(dim), dim - 1 - np.arange(dim)] = False
            assert np.max(np.abs(w[mask])) <= 1e-12
            assert np.max(np.abs(w - w.conj().T)) <= 1e-12
            assert np.max(np.abs(w - w[::-1, ::-1].T)) <= 1e-12


def test_norm_capped_on_coarse_grid():
    points = np.linspace(0.0, math.pi / 2, 5)
    for family in (SVETLICHNY, MABK):
        for n in (3, 4):
            protocol = BellProtocol(family, n)
            dim = 2 ** n
            idx = np.arange(dim)
            for angles in itertools.product(points, repeat=n):
                w = build_operator(protocol, angles)
                norm = float(np.max(np.abs(w[idx, dim - 1 - idx])))
                assert norm <= protocol.beta_Q + 1e-8


def test_norm_via_antidiagonal_entries():
    rng = np.random.default_rng(26)
    for family in (SVETLICHNY, MABK):
        for n in (3, 4, 5, 6):
            protocol = BellProtocol(family, n)
            dim = 2 ** n
            idx = np.arange(dim)
            for _ in range(10):
                angles = random_angles(rng, n)
                w = build_operator(protocol, angles)
                corners = w[idx, dim - 1 - idx]
                assert abs(spectral_norm(w)
                           - np.max(np.abs(corners))) <= 1e-10
                column = np.array(angles).reshape(n, 1)
                closed = corner_entries(protocol, np.cos(column),
                                        np.sin(column))
                assert closed.shape == (dim // 2, 1)
                assert np.max(np.abs(closed[:, 0]
                                     - corners[:dim // 2])) <= 1e-12


def test_norm_reflection_symmetry_even_parties():
    rng = np.random.default_rng(27)
    for family in (SVETLICHNY, MABK):
        protocol = BellProtocol(family, 4)
        for _ in range(50):
            angles = np.array(random_angles(rng, 4))
            direct = spectral_norm(build_operator(protocol, tuple(angles)))
            mirror = spectral_norm(
                build_operator(protocol, tuple(math.pi / 2 - angles)))
            assert abs(direct - mirror) <= 1e-9


def enumerate_local_max(n: int, coefficient) -> float:
    best = -math.inf
    values = []
    for outcomes in itertools.product((-1, 1), repeat=2 * n):
        value = 0.0
        for x in itertools.product((0, 1), repeat=n):
            product = 1
            for j, bit in enumerate(x):
                product *= outcomes[2 * j + bit]
            value += coefficient(sum(x)) * product
        values.append(value)
        best = max(best, value)
    assert abs(best + min(values)) <= 1e-12
    return best


def test_local_bound_enumeration_values():
    expected = {
        (SVETLICHNY, 3): 4.0,
        (SVETLICHNY, 4): 4.0,
        (SVETLICHNY, 5): 8.0,
        (MABK, 3): 2.0,
        (MABK, 4): 2 * SQ2,
        (MABK, 5): 4.0,
    }
    for (family, n), value in expected.items():
        assert abs(local_bound(BellProtocol(family, n)) - value) <= 1e-9


def test_local_bound_independent_enumeration():
    for n in (3, 4, 5, 6):
        if n % 2:
            sv = enumerate_local_max(n, lambda w: (-1.0) ** (w * (w + 1) // 2))
            mabk = enumerate_local_max(
                n, lambda w: (1.0, 0.0, -1.0, 0.0)[w % 4])
        else:
            sv = enumerate_local_max(n, lambda w: (-1.0) ** (w * (w - 1) // 2))
            mabk = enumerate_local_max(
                n, lambda w: (1.0, 1.0, -1.0, -1.0)[w % 4] / SQ2)
        assert abs(local_bound(BellProtocol(SVETLICHNY, n)) - sv) <= 1e-12
        assert abs(local_bound(BellProtocol(MABK, n)) - mabk) <= 1e-12


def enumerate_hybrid_max(n: int, coefficient) -> float:
    """Hybrid-model maximum with both group functions enumerated outright."""
    inputs = list(itertools.product((0, 1), repeat=n))
    best = -math.inf
    for group in itertools.chain.from_iterable(
            itertools.combinations(range(n), k) for k in range(1, n)):
        rest = tuple(j for j in range(n) if j not in group)
        g_inputs = list(itertools.product((0, 1), repeat=len(group)))
        r_inputs = list(itertools.product((0, 1), repeat=len(rest)))
        for g_out in itertools.product((-1, 1), repeat=len(g_inputs)):
            f_g = dict(zip(g_inputs, g_out))
            for r_out in itertools.product((-1, 1), repeat=len(r_inputs)):
                f_r = dict(zip(r_inputs, r_out))
                value = 0.0
                for x in inputs:
                    value += (coefficient(sum(x))
                              * f_g[tuple(x[j] for j in group)]
                              * f_r[tuple(x[j] for j in rest)])
                best = max(best, value)
    return best


def test_hybrid_bound_independent_enumeration():
    sv3 = enumerate_hybrid_max(3, lambda w: (-1.0) ** (w * (w + 1) // 2))
    assert hybrid_bound(BellProtocol(SVETLICHNY, 3)) == sv3 == 4.0
    sv4 = enumerate_hybrid_max(4, lambda w: (-1.0) ** (w * (w - 1) // 2))
    assert hybrid_bound(BellProtocol(SVETLICHNY, 4)) == sv4 == 8.0
    mabk3 = enumerate_hybrid_max(3, lambda w: (1.0, 0.0, -1.0, 0.0)[w % 4])
    assert abs(hybrid_bound(BellProtocol(MABK, 3)) - mabk3) <= 1e-12
    mabk4 = enumerate_hybrid_max(
        4, lambda w: (1.0, 1.0, -1.0, -1.0)[w % 4] / SQ2)
    assert abs(hybrid_bound(BellProtocol(MABK, 4)) - mabk4) <= 1e-12


def test_hybrid_bound_matches_svetlichny_catalog():
    for n in (3, 4, 5, 6):
        protocol = BellProtocol(SVETLICHNY, n)
        assert hybrid_bound(protocol) == protocol.beta_L == 2.0 ** (n - 1)


def test_svetlichny_fully_local_closed_form():
    for n in (3, 4, 5, 6):
        assert local_bound(BellProtocol(SVETLICHNY, n)) == 2.0 ** ((n + 1) // 2)


def test_hybrid_bound_dominates_local_bound():
    for family in (SVETLICHNY, MABK):
        for n in (3, 4, 5, 6):
            protocol = BellProtocol(family, n)
            assert hybrid_bound(protocol) >= local_bound(protocol) - 1e-12


def test_hybrid_bound_rejects_too_many_parties():
    with pytest.raises(ValueError):
        hybrid_bound(BellProtocol(SVETLICHNY, 7))


def test_quantum_bound_matches_catalog():
    for family in (SVETLICHNY, MABK):
        for n in (3, 4, 5, 6):
            protocol = BellProtocol(family, n)
            value = quantum_bound(protocol)
            assert abs(value - protocol.beta_Q) <= 1e-8
            w = build_operator(protocol, (math.pi / 4,) * n)
            jacobi = np.max(np.abs(hermitian_eigenvalues(w)))
            assert abs(value - jacobi) <= 1e-12


def test_corner_magnitude_max_matches_full_grid_oracle():
    grid = np.linspace(0.0, math.pi / 2, 9)
    for family in (SVETLICHNY, MABK):
        for n in (3, 4, 5, 6):
            protocol = BellProtocol(family, n)
            reduced = _corner_magnitude_max(protocol, grid)
            assert abs(reduced - full_grid_corner_max(protocol, grid)) <= 1e-15
            assert abs(reduced - protocol.beta_Q) <= 1e-8


@pytest.mark.parametrize("points", [1, 7])
def test_corner_magnitude_max_chunks_match_full_grid_oracle(monkeypatch,
                                                           points):
    # Chunks of one and of seven canonical points put chunk boundaries
    # everywhere; the maximum over the chunks is the full grid's, bit for bit.
    grid = np.linspace(0.0, math.pi / 2, 9)
    for family in (SVETLICHNY, MABK):
        for n in (3, 4, 5, 6):
            protocol = BellProtocol(family, n)
            monkeypatch.setattr(ghzcert.linalg, "SCAN_CHUNK_EVALUATIONS",
                                points * 2 ** (n - 1))
            assert (_corner_magnitude_max(protocol, grid)
                    == full_grid_corner_max(protocol, grid))


def test_coefficient_tensor_is_built_once_and_read_only():
    tensor = _coefficient_tensor(SV3)
    assert _coefficient_tensor(BellProtocol(SVETLICHNY, 3)) is tensor
    assert not tensor.flags.writeable
    with pytest.raises(ValueError):
        tensor[0, 0, 0] = 2.0


def test_pair_sign_matrix_rows():
    for n in (3, 4):
        table = pair_sign_matrix(n)
        assert table.shape == (2 ** (n - 1), n)
        for b, row in enumerate(table):
            assert tuple(row) == pair_signs(n, b)


def test_corner_entries_match_complex_route_bit_for_bit():
    grid = np.linspace(0.0, math.pi / 2, 9)
    for family in (SVETLICHNY, MABK):
        for n in (3, 4, 5, 6):
            protocol = BellProtocol(family, n)
            idx = canonical_indices([grid] * n)
            cs, sn = np.cos(grid)[idx], np.sin(grid)[idx]
            got = corner_entries(protocol, cs, sn)
            want = complex_corner_entries(protocol, cs, sn)
            assert got.shape == want.shape == (2 ** (n - 1), idx.shape[1])
            assert got.tobytes() == want.tobytes()


def top_eigen_projector(m: np.ndarray) -> np.ndarray:
    _, vectors = np.linalg.eigh(m)
    v = vectors[:, -1]
    return np.outer(v, v.conj())


def test_evaluate_examples():
    quarter3 = (math.pi / 4,) * 3
    rho = top_eigen_projector(build_operator(SV3, quarter3))
    protocol = BellProtocol(SVETLICHNY, 3)
    assert abs(evaluate(protocol, rho, quarter3) - 4 * SQ2) <= 1e-9
    assert abs(evaluate(protocol, np.eye(8) / 8, (0.2, 0.9, 0.4))) <= 1e-12
    quarter4 = (math.pi / 4,) * 4
    rho4 = top_eigen_projector(build_operator(BellProtocol(MABK, 4), quarter4))
    mixed = 0.5 * rho4 + 0.5 * np.eye(16) / 16
    assert abs(evaluate(BellProtocol(MABK, 4), mixed, quarter4) - 4.0) <= 1e-9


def test_evaluate_rejects_invalid_states():
    protocol = BellProtocol(SVETLICHNY, 3)
    angles = (0.1, 0.2, 0.3)
    with pytest.raises(ValueError):
        evaluate(protocol, np.eye(8) / 4, angles)
    bad = np.diag([1.5, -0.5, 0, 0, 0, 0, 0, 0]).astype(complex)
    with pytest.raises(ValueError):
        evaluate(protocol, bad, angles)
    skew = np.eye(8, dtype=complex) / 8
    skew[0, 1] = 0.3
    with pytest.raises(ValueError):
        evaluate(protocol, skew, angles)


def test_validate_state_rejects_non_finite_states():
    for bad in (math.nan, math.inf):
        rho = np.eye(8, dtype=complex) / 8
        rho[3, 3] = bad
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError):
                validate_state(rho, 3)


def test_validate_state_non_finite_fails_the_hermiticity_check(monkeypatch):
    def no_solver(*args):
        raise AssertionError("the eigen solver was reached")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_solver)
    placements = (((0, 1), (1, 0)),   # off the diagonal and antidiagonal
                  ((3, 3), (3, 3)),   # on the diagonal
                  ((0, 7), (7, 0)))   # on the antidiagonal
    for bad in (math.nan, math.inf):
        for (i, j), (k, l) in placements:
            rho = np.eye(8, dtype=complex) / 8
            rho[i, j] = rho[k, l] = bad
            with np.errstate(invalid="ignore"):
                with pytest.raises(ValueError, match="state is not Hermitian"):
                    validate_state(rho, 3)
    with pytest.raises(ValueError, match="state is not Hermitian"):
        validate_state(np.full((8, 8), math.nan), 3)


def test_validate_state_reads_x_blocks_without_the_eigen_solver(monkeypatch):
    def no_solver(*args):
        raise AssertionError("the eigen solver was reached")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_solver)
    rho = np.diag([0.25, 0.1, 0.1, 0.05, 0.05, 0.1, 0.1, 0.25]).astype(complex)
    rho[0, 7] = rho[7, 0] = 0.25
    assert validate_state(rho, 3) is not None
    # Block (0, 7) is [[1/4, z], [z, 1/4]] with z = 1/4 + 1e-6: eigenvalue
    # -1e-6, below the -1e-8 tolerance.
    rho[0, 7] = rho[7, 0] = 0.25 + 1e-6
    with pytest.raises(ValueError, match="negative eigenvalue"):
        validate_state(rho, 3)
