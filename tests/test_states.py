"""GHZ target states, the dephasing extraction channel, and their invariants."""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

import ghzcert.states
from ghzcert.bell import (ANGLE_SLACK, MABK, SVETLICHNY, BellProtocol,
                          ghz_phase)
from ghzcert.linalg import x_blocks
from ghzcert.states import (apply_channel, g_values, ghz_blocks, ghz_state,
                            y_axis)
from oracles import (complex_corner_entries, dense_spectral_ghz_rho,
                     evaluate, is_persymmetric, kraus_loop_channel,
                     kraus_pair, pauli_string, random_hermitian,
                     reference_channel_output_3, reference_state_3,
                     reference_state_4)

SQ2 = math.sqrt(2.0)
ALL_PROTOCOLS = [BellProtocol(f, n) for f in (SVETLICHNY, MABK) for n in (3, 4, 5)]


def damping_factors(alpha: float) -> dict:
    """Independent per-site Pauli attenuation of the dephasing channel."""
    g = (1 + SQ2) * (math.sin(alpha) + math.cos(alpha) - 1)
    if alpha <= math.pi / 4:
        return {"I": 1.0, "X": 1.0, "Y": g, "Z": g}
    return {"I": 1.0, "X": g, "Y": 1.0, "Z": g}


def test_g_param_examples():
    assert abs(g_values(0.0)) <= 1e-15
    assert abs(g_values(math.pi / 4) - 1.0) <= 1e-14
    assert abs(g_values(math.pi / 8) - 0.740108467525855) <= 1e-12
    assert abs(g_values(0.3) - 0.6056216371809456) <= 1e-12
    assert abs(g_values(0.5) - 0.8618937980910616) <= 1e-12
    assert abs(g_values(0.7) - 0.9875578968940825) <= 1e-12


def test_g_param_symmetry_and_range():
    rng = np.random.default_rng(31)
    for alpha in rng.uniform(0.0, math.pi / 2, size=100):
        value = g_values(alpha)
        assert -1e-12 <= value <= 1.0 + 1e-12
        assert abs(value - g_values(math.pi / 2 - alpha)) <= 1e-12


def test_g_values_match_g_param_elementwise():
    angles = np.linspace(0.0, math.pi / 2, 1001)
    values = g_values(angles)
    assert values.shape == angles.shape
    assert values.tolist() == [float(g_values(a)) for a in angles]


# The oracle's Kraus pairs, which kraus_loop_channel sums over.
def test_kraus_pair_examples():
    k0, k1 = kraus_pair(math.pi / 4)
    assert np.max(np.abs(k0 - np.eye(2))) <= 1e-7
    assert np.max(np.abs(k1)) <= 1e-7
    k0, k1 = kraus_pair(0.0)
    assert np.allclose(k0, np.eye(2) / SQ2, atol=1e-12)
    assert np.allclose(k1, pauli_string("X") / SQ2, atol=1e-12)
    k0, k1 = kraus_pair(math.pi / 2)
    assert np.allclose(k0, np.eye(2) / SQ2, atol=1e-12)
    assert np.allclose(k1, pauli_string("Y") / SQ2, atol=1e-12)


def test_y_axis_flips_past_the_slack_and_at_nan():
    # The one statement of the flip, which the Kraus pairs and the scan
    # kernel read: X up to pi/4 + ANGLE_SLACK, Y beyond it and at NaN.
    quarter = math.pi / 4
    alpha = np.array([0.0, quarter, quarter + ANGLE_SLACK,
                      quarter + 2 * ANGLE_SLACK, math.pi / 2, math.nan])
    assert y_axis(alpha).tolist() == [False, False, False, True, True, True]


def test_kraus_pair_completeness_and_hermiticity():
    rng = np.random.default_rng(32)
    for alpha in rng.uniform(0.0, math.pi / 2, size=50):
        k0, k1 = kraus_pair(alpha)
        closure = k0.conj().T @ k0 + k1.conj().T @ k1
        assert np.max(np.abs(closure - np.eye(2))) <= 1e-12
        assert np.max(np.abs(k0 - k0.conj().T)) <= 1e-14
        assert np.max(np.abs(k1 - k1.conj().T)) <= 1e-14


def test_ghz_state_density_matrix_properties():
    for protocol in ALL_PROTOCOLS:
        rho = ghz_state(protocol)
        dim = 2 ** protocol.n
        assert rho.shape == (dim, dim)
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
        assert np.min(np.linalg.eigvalsh(rho)) >= -1e-10
        assert np.max(np.abs(rho @ rho - rho)) <= 1e-9
        assert np.max(np.abs(rho - rho[::-1, ::-1].T)) <= 1e-10
        quarter = (math.pi / 4,) * protocol.n
        assert abs(evaluate(protocol, rho, quarter) - protocol.beta_Q) <= 1e-9


def test_ghz_state_is_cached_and_read_only():
    for protocol in ALL_PROTOCOLS:
        for form in (ghz_state, ghz_blocks):
            first = form(protocol)
            second = form(BellProtocol(protocol.family, protocol.n))
            assert second is first
            assert not first.flags.writeable
            with pytest.raises(ValueError):
                first[0, 0] = 0.0
            with pytest.raises(ValueError):
                first += 1.0


def test_ghz_blocks_are_the_dense_target_s_pair_blocks():
    for family in (SVETLICHNY, MABK):
        for n in (3, 4, 5, 6):
            protocol = BellProtocol(family, n)
            blocks, off_lines = x_blocks(ghz_state(protocol))
            assert off_lines == 0.0
            assert ghz_blocks(protocol).tobytes() == blocks.tobytes()


def test_ghz_state_matches_printed_expansions():
    rho3 = ghz_state(BellProtocol(SVETLICHNY, 3))
    assert np.max(np.abs(rho3 - reference_state_3())) <= 1e-12
    rho4 = ghz_state(BellProtocol(SVETLICHNY, 4))
    assert np.max(np.abs(rho4 - reference_state_4())) <= 1e-12
    assert abs(rho4[0, 15] - np.exp(-3j * math.pi / 4) / 2) <= 1e-12


def test_ghz3_is_odd_parity_pair_state():
    rho = ghz_state(BellProtocol(SVETLICHNY, 3))
    expected = np.zeros((8, 8), dtype=complex)
    expected[0, 0] = expected[7, 7] = 0.5
    expected[0, 7] = expected[7, 0] = -0.5
    assert np.max(np.abs(rho - expected)) <= 1e-12


def test_served_state_is_the_ghz_phase_corner_pair():
    # The certificate scan takes psi = ghz_phase and never reads the served
    # state; this ties the two together.
    for family in (SVETLICHNY, MABK):
        for n in (3, 4, 5, 6):
            protocol = BellProtocol(family, n)
            rho = ghz_state(protocol)
            psi = ghz_phase(protocol)
            last = 2 ** n - 1
            outside = np.ones(rho.shape, dtype=bool)
            outside[np.ix_([0, last], [0, last])] = False
            assert not np.any(rho[outside])
            assert rho[0, 0] == rho[last, last] == 0.5
            assert rho[last, 0] == psi / 2
            assert rho[0, last] == np.conj(psi) / 2
            assert np.trace(rho) == 1.0
        # The dense state is refused where the dense route ends.
        with pytest.raises(ValueError, match="at most 6, got 7"):
            ghz_state(BellProtocol(family, 7))


def test_ghz_phase_pair_is_the_unique_maximal_corner():
    # The target is the maximal eigenvector of W at pi/4 only if the corner
    # pair (0, 2^n - 1) strictly dominates every other pair.
    for family in (SVETLICHNY, MABK):
        for n in (3, 4, 5, 6, 7):
            quarter = np.full((n, 1), math.pi / 4)
            magnitudes = np.abs(complex_corner_entries(
                BellProtocol(family, n), np.cos(quarter),
                np.sin(quarter))[:, 0])
            assert np.all(magnitudes[0] - magnitudes[1:] > 1e-6)


def test_served_state_matches_dense_eigenvector_oracle():
    for family in (SVETLICHNY, MABK):
        for n in (3, 4, 5, 6):
            protocol = BellProtocol(family, n)
            assert np.max(np.abs(ghz_state(protocol)
                                 - dense_spectral_ghz_rho(protocol))) <= 1e-15


def test_apply_channel_matches_kraus_loop_oracle():
    rng = np.random.default_rng(41)
    for n in (3, 4, 5, 6):
        dim = 2 ** n
        for _ in range(3):
            angles = tuple(rng.uniform(0.0, math.pi / 2, size=n))
            general = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            for mat in (random_hermitian(rng, dim), general):
                assert np.max(np.abs(apply_channel(mat, angles)
                                     - kraus_loop_channel(mat, angles))) <= 1e-14


def _recorded_superoperators(monkeypatch, mat, angles):
    """The operator stacks ``apply_channel(mat, angles)`` contracts."""
    seen = []
    original = ghzcert.states.contract_sites

    def recording(tensor, operators):
        seen.append(operators)
        return original(tensor, operators)

    monkeypatch.setattr(ghzcert.states, "contract_sites", recording)
    apply_channel(mat, angles)
    return seen


def test_apply_channel_contracts_real_superoperators(monkeypatch):
    # Real superoperators let contract_sites run on the matrix's two real
    # planes; a complex stack would take the slower complex route.
    rng = np.random.default_rng(42)
    for n in (1, 3, 6):
        rho = random_hermitian(rng, 2 ** n)
        for angles in (rng.uniform(0.0, math.pi / 2, size=n),
                       rng.uniform(0.0, math.pi / 2, size=(5, n))):
            seen = _recorded_superoperators(monkeypatch, rho, angles)
            assert [(ops.dtype, ops.shape) for ops in seen] == [
                (np.dtype(np.float64), (len(angles.reshape(-1, n)), n, 4, 4))]


def test_apply_channel_superoperators_match_kraus_einsum(monkeypatch):
    # Each site's superoperator sum_m K_m (.) conj(K_m), laid out (row
    # column in, row column out), from the oracle's Kraus pairs, on both
    # sides of pi/4 and at 0, pi/4 and pi/2.  The entries lie in [0, 1];
    # the Kraus route squares rounded square roots, one unit in the last
    # place of an entry in [1/2, 1) at most.
    rng = np.random.default_rng(43)
    n = 4
    angles = np.concatenate([rng.uniform(0.0, math.pi / 4, size=(20, n)),
                             rng.uniform(math.pi / 4, math.pi / 2,
                                         size=(20, n)),
                             [[0.0, math.pi / 4, math.pi / 2, math.pi / 4]]])
    angles[::3, 0] = rng.uniform(math.pi / 4, math.pi / 2, size=14)
    [got] = _recorded_superoperators(monkeypatch, np.eye(2 ** n), angles)
    kraus = np.array([[kraus_pair(alpha) for alpha in row]
                      for row in angles])
    expected = np.einsum("...kab,...kcd->...bdac", kraus,
                         kraus.conj()).reshape(len(angles), n, 4, 4)
    assert np.max(np.abs(expected.imag)) == 0.0
    assert np.max(np.abs(got - expected.real)) <= 2.0 ** -53


def test_apply_channel_identity_at_quarter_pi():
    rng = np.random.default_rng(33)
    rho = reference_state_3()
    quarter = (math.pi / 4,) * 3
    assert np.max(np.abs(apply_channel(rho, quarter) - rho)) <= 1e-12
    h = random_hermitian(rng, 8)
    assert np.max(np.abs(apply_channel(h, quarter) - h)) <= 1e-12


def test_apply_channel_single_qubit_full_dephasing():
    rho = (pauli_string("I") + 0.7 * pauli_string("Z") + 0.2 * pauli_string("X")) / 2
    out = apply_channel(rho, (0.0,))
    expected = (pauli_string("I") + 0.2 * pauli_string("X")) / 2
    assert np.max(np.abs(out - expected)) <= 1e-12


def test_apply_channel_matches_damping_factors():
    rng = np.random.default_rng(34)
    for _ in range(20):
        angles = tuple(rng.uniform(0.0, math.pi / 2, size=3))
        factors = [damping_factors(a) for a in angles]
        for labels in itertools.product("IXYZ", repeat=3):
            label = "".join(labels)
            string = pauli_string(label)
            rho = (pauli_string("III") + 0.4 * string) / 8
            damp = math.prod(factors[j][labels[j]] for j in range(3))
            expected = (pauli_string("III") + 0.4 * damp * string) / 8
            assert np.max(np.abs(apply_channel(rho, angles) - expected)) <= 1e-10


def test_apply_channel_matches_printed_three_party_form():
    rng = np.random.default_rng(35)
    rho = ghz_state(BellProtocol(SVETLICHNY, 3))
    for _ in range(5):
        angles = tuple(rng.uniform(0.0, math.pi / 4, size=3))
        out = apply_channel(rho, angles)
        assert np.max(np.abs(out - reference_channel_output_3(*angles))) <= 1e-10
    angles = (0.3, 0.5, 0.7)
    out = apply_channel(rho, angles)
    zzi = np.trace(out @ pauli_string("ZZI")).real / 8
    assert abs(zzi - g_values(0.3) * g_values(0.5) / 8) <= 1e-12


def test_channel_is_self_adjoint():
    rng = np.random.default_rng(36)
    for _ in range(200):
        angles = tuple(rng.uniform(0.0, math.pi / 2, size=2))
        a = random_hermitian(rng, 4)
        b = random_hermitian(rng, 4)
        lhs = np.trace(a @ apply_channel(b, angles))
        rhs = np.trace(apply_channel(a, angles) @ b)
        assert abs(lhs - rhs) <= 1e-10


def test_channel_is_unital():
    rng = np.random.default_rng(37)
    for n in (1, 2, 3):
        angles = tuple(rng.uniform(0.0, math.pi / 2, size=n))
        out = apply_channel(np.eye(2 ** n, dtype=complex), angles)
        assert np.max(np.abs(out - np.eye(2 ** n))) <= 1e-12


def test_channel_preserves_positivity_and_trace():
    rng = np.random.default_rng(38)
    rho = ghz_state(BellProtocol(MABK, 3))
    for _ in range(20):
        angles = tuple(rng.uniform(0.0, math.pi / 2, size=3))
        out = apply_channel(rho, angles)
        assert abs(np.trace(out) - 1.0) <= 1e-12
        assert np.min(np.linalg.eigvalsh(out)) >= -1e-10


def test_persymmetry_preserved():
    rng = np.random.default_rng(39)
    cases = [(BellProtocol(SVETLICHNY, 3),
              tuple(rng.uniform(0.0, math.pi / 2, size=3))),
             (BellProtocol(SVETLICHNY, 4), (0.0,) * 4),
             (BellProtocol(MABK, 5), tuple(rng.uniform(0.0, math.pi / 2,
                                                      size=5)))]
    for protocol, angles in cases:
        rho = ghz_state(protocol)
        assert is_persymmetric(rho)
        assert is_persymmetric(apply_channel(rho, angles))


def test_even_party_reflection_spectrum_invariance():
    rng = np.random.default_rng(40)
    for family in (SVETLICHNY, MABK):
        rho = ghz_state(BellProtocol(family, 4))
        for _ in range(50):
            angles = rng.uniform(0.0, math.pi / 2, size=4)
            direct = apply_channel(rho, tuple(angles))
            mirror = apply_channel(rho, tuple(math.pi / 2 - angles))
            assert np.max(np.abs(np.linalg.eigvalsh(direct)
                                 - np.linalg.eigvalsh(mirror))) <= 1e-12


def test_apply_channel_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_channel(np.eye(4, dtype=complex) / 4, (0.1, 0.2, 0.3))
