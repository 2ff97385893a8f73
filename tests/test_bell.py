"""Bell operator construction, coefficient tables, and classical/quantum bounds."""
from __future__ import annotations

import itertools
import math
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ghzcert.bell
import ghzcert.linalg
import ghzcert.verifier
from ghzcert.bell import (FAMILIES, MABK, SVETLICHNY, BellProtocol,
                          _coefficient_tensor, _float_bounds,
                          _pair_zero_magnitudes,
                          build_operator, check_angles, corner_coefficient,
                          corner_turn, ghz_phase, hybrid_bound, local_bound,
                          observable, quantum_bound, validate_state)
from ghzcert.linalg import (canonical_layouts, hermitian_eigenvalues,
                            pair_magnitudes, sign_products)
from ghzcert.verifier import SCAN_CHUNK_EVALUATIONS
from oracles import (coefficient_table, complex_corner_entries, evaluate,
                     full_grid_corner_max, functional_coefficients,
                     kron_sum_operator, pair_sign_matrix,
                     pair_signs, pauli_coefficient, pauli_string,
                     per_family_beta_Q_exact, per_family_corner_coefficient,
                     real_corner_magnitudes, reference_svetlichny_3,
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
    value = check_angles((np.float64(0.3),), 1)
    assert value[0] == 0.3 and value.dtype == float
    assert check_angles((-1e-13,), 1)[0] == -1e-13
    for upper, label in ((math.pi / 2, "pi/2"), (math.pi / 4, "pi/4")):
        assert check_angles((upper + 1e-13,), 1, upper)[0] == upper + 1e-13
        for bad in (-0.1, upper + 1e-9, math.nan):
            with pytest.raises(ValueError, match=label):
                check_angles((bad,), 1, upper)


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


def test_float_bounds_are_derived_once_per_scenario():
    for family in (SVETLICHNY, MABK):
        for n in range(3, 13):
            protocol = BellProtocol(family, n)
            want = (float(protocol.beta_L_exact), float(protocol.beta_Q_exact))
            assert (protocol.beta_L, protocol.beta_Q) == want
            # A fresh instance of the scenario reads both from the cache.
            hits = _float_bounds.cache_info().hits
            fresh = BellProtocol(family, n)
            assert (fresh.beta_L, fresh.beta_Q) == want
            assert _float_bounds.cache_info().hits == hits + 2


def test_protocol_rejects_bad_inputs():
    with pytest.raises(ValueError):
        BellProtocol("chsh", 3)
    with pytest.raises(ValueError):
        BellProtocol(SVETLICHNY, 2)


def test_protocol_stores_the_party_count_as_an_int():
    # Any integer is accepted and stored as an int, so equal scenarios are
    # one cache key; a float or a string is refused by name.
    for n in (3, np.int64(3), np.uint8(3)):
        protocol = BellProtocol(SVETLICHNY, n)
        assert type(protocol.n) is int and protocol == SV3
        assert hash(protocol) == hash(SV3)
    for bad in (3.0, 3.5, "3", None):
        with pytest.raises(ValueError, match=repr(bad)):
            BellProtocol(SVETLICHNY, bad)


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
                closed = complex_corner_entries(protocol, np.cos(column),
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


def test_quantum_bound_refuses_the_parties_the_enumerations_refuse():
    # Its 9^n check grid grows like the enumerations; past n = 6, beta_Q is
    # exact from the family table instead.
    for family in (SVETLICHNY, MABK):
        protocol = BellProtocol(family, 7)
        for bound in (local_bound, hybrid_bound, quantum_bound):
            with pytest.raises(ValueError, match=re.escape(
                    "party count must be at least 3 and at most 6, got 7")):
                bound(protocol)


def test_quantum_bound_matches_catalog():
    for family in (SVETLICHNY, MABK):
        for n in (3, 4, 5, 6):
            protocol = BellProtocol(family, n)
            value = quantum_bound(protocol)
            assert abs(value - protocol.beta_Q) <= 1e-8
            w = build_operator(protocol, (math.pi / 4,) * n)
            jacobi = np.max(np.abs(hermitian_eigenvalues(w)))
            assert abs(value - jacobi) <= 1e-12



def test_quantum_bound_reads_pair_zero_without_the_scan_walk(monkeypatch):
    # The bound reads its grid's cached layout in one pass, never the scan
    # kernel or its workspace.  Its grid maximum is the all-pairs oracle's
    # and its value pair 0's magnitude at pi/4, both bit for bit through the
    # shared phase and to 1e-15 of beta_Q through the complex route.
    def refuse(*args):
        raise AssertionError("quantum_bound ran the certificate scan")

    grid = np.linspace(0.0, math.pi / 2, 9)
    for family in (SVETLICHNY, MABK):
        for n in (3, 4, 5, 6):
            protocol = BellProtocol(family, n)
            want = quantum_bound(protocol)
            with monkeypatch.context() as patch:
                patch.setattr(ghzcert.verifier, "_min_block_over_products",
                              refuse)
                patch.setattr(ghzcert.verifier, "_workspace", refuse)
                assert quantum_bound(protocol) == want
            value, grid_max = _pair_zero_magnitudes(protocol)
            assert grid_max == full_grid_corner_max(protocol, grid, real=True)
            assert abs(grid_max - full_grid_corner_max(protocol, grid)) \
                <= 1e-15 * protocol.beta_Q
            cs, sn = np.cos(math.pi / 4), np.sin(math.pi / 4)
            quarter = (np.full((n, 1), cs), np.full((n, 1), sn))
            assert value == want == real_corner_magnitudes(
                protocol, *quarter)[0, 0]
            assert abs(value - abs(complex_corner_entries(
                protocol, *quarter)[0, 0])) <= 1e-15 * protocol.beta_Q


def test_corner_magnitude_max_matches_full_grid_oracle():
    grid = np.linspace(0.0, math.pi / 2, 9)
    for family in (SVETLICHNY, MABK):
        for n in (3, 4, 5, 6):
            protocol = BellProtocol(family, n)
            reduced = _pair_zero_magnitudes(protocol)[1]
            assert reduced == full_grid_corner_max(protocol, grid, real=True)
            assert abs(reduced - full_grid_corner_max(protocol, grid)) \
                <= 1e-15 * protocol.beta_Q
            assert abs(reduced - protocol.beta_Q) <= 1e-8


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
    # Over chunks of one point, of seven and of the scan's default size, the
    # sign table of every chunk's site factors, each pair's rows combined
    # at the corner turn, gives the shared-phase route's magnitudes at its
    # points bit for bit, and the complex route's to 1e-15 of beta_Q; their
    # largest is the quantum bound's grid maximum.
    grid = np.linspace(0.0, math.pi / 2, 9)
    for family in (SVETLICHNY, MABK):
        for n in (3, 4, 5, 6):
            protocol = BellProtocol(family, n)
            rows = np.stack([grid] * n)[None]
            values = rows.ravel()
            cs, sn = np.cos(values), np.sin(values)
            trig = np.stack([cs + sn, cs - sn])
            zc, turn = abs(corner_coefficient(protocol)), corner_turn(protocol)
            # Each site's column into the raveled rows at every canonical
            # point.
            points = (canonical_layouts(rows, np.full((1, n), len(grid)))[0]
                      + len(grid) * np.arange(n)[:, None])
            for step in (1, 7, SCAN_CHUNK_EVALUATIONS // 2 ** (n - 1)):
                best = 0.0
                for start in range(0, points.shape[1], step):
                    cols = points[:, start:start + step]
                    table = sign_products(*np.take(trig, cols, axis=1))
                    half = (len(table) // 2, cols.shape[1])
                    got = zc * pair_magnitudes(table, turn, np.empty(half),
                                               np.empty(half, complex))
                    want = real_corner_magnitudes(protocol, cs[cols],
                                                  sn[cols])
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes()
                    assert np.abs(got - np.abs(complex_corner_entries(
                        protocol, cs[cols], sn[cols]))).max() \
                        <= 1e-15 * protocol.beta_Q
                    best = max(best, float(want.max()))
                assert _pair_zero_magnitudes(protocol)[1] == best


@st.composite
def family_and_angles(draw):
    """A family and an angle tuple in [0, pi/2]^n, n = 3..6."""
    n = draw(st.integers(3, 6))
    angles = draw(st.lists(st.floats(0.0, math.pi / 2), min_size=n,
                           max_size=n))
    return BellProtocol(draw(st.sampled_from(FAMILIES)), n), np.array(angles)


@settings(max_examples=300, deadline=None)
@example(case=(BellProtocol(SVETLICHNY, 5), np.zeros(5)))
@example(case=(BellProtocol(MABK, 6), np.full(6, math.pi / 4)))
@given(case=family_and_angles())
def test_pair_zero_binds_every_corner_on_the_angle_domain(case):
    # |W_b|^2 = |z|^2 [prod (1 + s_j sin 2a) + prod (1 - s_j sin 2a)]
    #         + 2 Re(z^2) prod cos 2a, largest at pair 0 on [0, pi/2]^n.
    protocol, alpha = case
    entries = complex_corner_entries(protocol, np.cos(alpha)[:, None],
                                     np.sin(alpha)[:, None])[:, 0]
    magnitudes = np.abs(entries)
    assert magnitudes.max() <= magnitudes[0] * (1 + 1e-14)
    z = per_family_corner_coefficient(protocol)
    signs = pair_sign_matrix(protocol.n)
    sines = np.sin(2 * alpha)
    bracket = (np.prod(1 + signs * sines, axis=1)
               + np.prod(1 - signs * sines, axis=1))
    cross = 2 * (z * z).real * np.prod(np.cos(2 * alpha))
    closed = abs(z) ** 2 * bracket + cross
    # Relative to pair 0's terms: cos a - sin a rounds to within an ulp of
    # the factors' size, not of its own, so a small pair's error is not small
    # against that pair alone.
    scale = abs(z) ** 2 * bracket[0] + abs(cross)
    assert np.all(np.abs(magnitudes ** 2 - closed) <= 1e-12 * scale)


def test_quantum_bound_reads_no_sign_table(monkeypatch):
    # The bound reads pair 0 alone, never the all-pairs table, through any
    # module's binding of the name: ``bell`` would bind one imported from
    # ``linalg`` at import, which patching ``linalg`` does not reach.
    def refuse(*args):
        raise AssertionError("quantum_bound read the all-pairs table")

    monkeypatch.setattr(ghzcert.linalg, "sign_products", refuse)
    monkeypatch.setattr(ghzcert.verifier, "sign_products", refuse)
    monkeypatch.setattr(ghzcert.bell, "sign_products", refuse,
                        raising=False)
    for family in (SVETLICHNY, MABK):
        for n in (3, 4, 5, 6):
            protocol = BellProtocol(family, n)
            assert quantum_bound(protocol) == pytest.approx(protocol.beta_Q,
                                                            abs=1e-8)


def test_quantum_bound_allocates_no_scan_workspace():
    # On a thread that never scanned, the bound allocates only its check
    # grid's small arrays, far below the scan kernel's workspace of 2^15
    # block evaluations (about 2.4 MB).
    for family in (SVETLICHNY, MABK):
        for n in (3, 4, 5, 6):
            protocol = BellProtocol(family, n)
            want = quantum_bound(protocol)
            got = []
            thread = threading.Thread(
                target=lambda: got.append(quantum_bound(protocol)))
            tracemalloc.start()
            try:
                thread.start()
                thread.join(timeout=60)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert not thread.is_alive() and got == [want]
            assert peak < 512_000


def test_corner_coefficient_is_its_magnitude_times_the_ghz_phase():
    # The scan's channel and Bell corners share the phase u = ghz_phase.
    for family in FAMILIES:
        for n in range(3, 7):
            protocol = BellProtocol(family, n)
            zc = corner_coefficient(protocol)
            assert abs(zc - abs(zc) * ghz_phase(protocol)) <= 1e-15 * abs(zc)


def test_corner_turn_is_the_conjugate_square_of_the_ghz_phase():
    # Read off the family octant, the turn v = conj(u)^2 is one of 1, -1, i
    # and -i exactly: Svetlichny at odd n, alone, has v = +-1.
    for family in FAMILIES:
        for n in range(3, 7):
            protocol = BellProtocol(family, n)
            v = corner_turn(protocol)
            assert v in (1, -1, 1j, -1j)
            assert abs(v - np.conj(ghz_phase(protocol)) ** 2) <= 1e-15
            assert (v.imag == 0) == (family == SVETLICHNY and n % 2 == 1)


def test_coefficient_tensor_matches_per_weight_oracle_bit_for_bit():
    for family in (SVETLICHNY, MABK):
        for n in range(3, 8):
            protocol = BellProtocol(family, n)
            coefficients = functional_coefficients(protocol)
            want = np.array([coefficients[x] for x in sorted(coefficients)])
            tensor = _coefficient_tensor(protocol)
            assert tensor.shape == (2,) * n
            assert tensor.dtype == np.float64
            assert tensor.tobytes() == want.tobytes()


def test_family_constants_match_per_family_oracles_bit_for_bit():
    for family in (SVETLICHNY, MABK):
        for n in range(3, 9):
            protocol = BellProtocol(family, n)
            assert (corner_coefficient(protocol).tobytes()
                    == per_family_corner_coefficient(protocol).tobytes())
            assert protocol.beta_Q_exact == per_family_beta_Q_exact(protocol)


@pytest.mark.parametrize("n", [4, 6])
def test_even_n_families_differ_only_in_amplitude(n):
    # At even n both families have phase octant -1, so Svetlichny is
    # sqrt(2) times MABK: coefficients and corner constant bit for bit.
    sv, mabk = BellProtocol(SVETLICHNY, n), BellProtocol(MABK, n)
    assert (_coefficient_tensor(sv).tobytes()
            == (SQ2 * _coefficient_tensor(mabk)).tobytes())
    assert corner_coefficient(sv) == SQ2 * corner_coefficient(mabk)
    angles = np.random.default_rng(n).uniform(0.0, math.pi / 2, size=(8, n))
    difference = build_operator(sv, angles) - SQ2 * build_operator(mabk,
                                                                   angles)
    assert np.max(np.abs(difference)) <= 1e-12


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
