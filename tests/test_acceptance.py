"""Acceptance suite: one test per shipped guarantee.

Each test prints a single PASS/FAIL line carrying the measured numbers, so
the captured output doubles as an acceptance report.  Coverage: (1) bounds
table, (2) Svetlichny certification scans, (3) MABK certification scans,
(4) threshold identities, (5) tradeoff-curve thresholds, (6) closed-form
oracle equivalence, (7) channel and state properties, (8) negative control,
(9) simulation statistics.
"""
from __future__ import annotations

import math
import time
from typing import Tuple

import numpy as np

from ghzcert.bell import (MABK, SVETLICHNY, BellProtocol, hybrid_bound,
                          local_bound, quantum_bound)
from ghzcert.linalg import hermitian_eigenvalues
from ghzcert.simulate import NoiseModel, certify
from ghzcert.states import apply_channel, ghz_state
from ghzcert.tradeoff import emit_curve
from ghzcert.verifier import (CertificateConstants, GridSpec, block_decompose,
                              build_T, catalog_constants, min_eig_over_grid,
                              parity_projector, projector_lambda,
                              sv3_block_functions, sv4_block_functions,
                              sv4_determinant)
from oracles import (eig2x2_hermitian, evaluate, exchange_matrix,
                     is_persymmetric, random_hermitian)

SQ2 = math.sqrt(2.0)
ALL_PROTOCOLS = [BellProtocol(f, n) for f in (SVETLICHNY, MABK)
                 for n in (3, 4, 5)]
GRID_POINTS = {3: 21, 4: 21, 5: 11}


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def _block_min_at(protocol: BellProtocol, angles: Tuple[float, ...]) -> float:
    constants = catalog_constants(protocol)
    t = build_T(protocol, angles, constants.s, constants.mu)
    values = []
    for block in block_decompose(t, protocol.n):
        values.extend(eig2x2_hermitian(block[0, 0].real, block[0, 1]))
    return min(values)


def test_criterion_1_bounds_table():
    start = time.perf_counter()
    sv_hybrid = [hybrid_bound(BellProtocol(SVETLICHNY, n)) for n in (3, 4, 5)]
    sv_local = [local_bound(BellProtocol(SVETLICHNY, n)) for n in (3, 4, 5)]
    mabk_local = [local_bound(BellProtocol(MABK, n)) for n in (3, 4, 5)]
    sv_quantum = [quantum_bound(BellProtocol(SVETLICHNY, n)) for n in (3, 4, 5)]
    mabk_quantum = [quantum_bound(BellProtocol(MABK, n)) for n in (3, 4, 5)]
    elapsed = time.perf_counter() - start
    sv_expected = [4.0, 8.0, 16.0]
    sv_catalog = [BellProtocol(SVETLICHNY, n).beta_L for n in (3, 4, 5)]
    sv_local_expected = [4.0, 4.0, 8.0]
    mabk_expected = [2.0, 2 * SQ2, 4.0]
    sv_q_expected = [4 * SQ2, 8 * SQ2, 16 * SQ2]
    mabk_q_expected = [4.0, 8.0, 16.0]
    sv_ok = (sv_hybrid == sv_expected and sv_catalog == sv_expected
             and sv_local == sv_local_expected)
    mabk_ok = max(abs(g - w) for g, w in zip(mabk_local, mabk_expected)) <= 1e-9
    quantum_ok = (
        max(abs(g - w) for g, w in zip(sv_quantum, sv_q_expected)) <= 1e-8
        and max(abs(g - w) for g, w in zip(mabk_quantum, mabk_q_expected))
        <= 1e-8)
    ok = sv_ok and mabk_ok and quantum_ok and elapsed < 10.0
    _verdict(1, ok, f"svetlichny hybrid {sv_hybrid} vs {sv_expected}, "
                    f"fully local {sv_local}, "
                    f"mabk local ok={mabk_ok}, quantum ok={quantum_ok}, "
                    f"runtime {elapsed:.2f}s")
    assert elapsed < 10.0
    assert mabk_ok
    assert quantum_ok
    # The published Svetlichny row 2^(n-1) is the bound of the hybrid
    # (bipartite-group) model; the fully local bound is 2^floor((n+1)/2).
    assert sv_catalog == sv_expected
    assert sv_local == sv_local_expected
    assert sv_hybrid == sv_expected


def test_criterion_2_svetlichny_certification():
    results = []
    for n in (3, 4, 5):
        protocol = BellProtocol(SVETLICHNY, n)
        constants = catalog_constants(protocol)
        t0 = time.perf_counter()
        report = min_eig_over_grid(
            constants, GridSpec(points_per_axis=GRID_POINTS[n]))
        dt = time.perf_counter() - t0
        corners = [(math.pi / 4,) * n]
        if n == 3:
            corners.append((0.0,) * n)
        corner_dev = max(abs(_block_min_at(protocol, c)) for c in corners)
        results.append((n, report, corner_dev, dt))
    ok = all(r.passed and r.min_eigenvalue >= -1e-8 and dev <= 1e-8
             and (n != 5 or dt < 300.0) for n, r, dev, dt in results)
    detail = "; ".join(
        f"n={n} min={r.min_eigenvalue:.1e} corner_dev={dev:.1e} {dt:.1f}s"
        for n, r, dev, dt in results)
    _verdict(2, ok, detail)
    for n, report, corner_dev, dt in results:
        assert report.passed and report.min_eigenvalue >= -1e-8
        assert corner_dev <= 1e-8
        if n == 5:
            assert dt < 300.0


def test_criterion_3_mabk_certification():
    constants3 = catalog_constants(BellProtocol(MABK, 3))
    assert abs(constants3.s - (2 + SQ2) / 8) <= 1e-14
    assert abs(constants3.mu + 1 / SQ2) <= 1e-14
    results = []
    for n in (3, 4, 5):
        protocol = BellProtocol(MABK, n)
        report = min_eig_over_grid(catalog_constants(protocol),
                                   GridSpec(points_per_axis=GRID_POINTS[n]))
        results.append((n, report))
    ok = all(r.passed and r.min_eigenvalue >= -1e-8 for _, r in results)
    detail = "; ".join(f"n={n} min={r.min_eigenvalue:.1e}"
                       for n, r in results)
    _verdict(3, ok, detail)
    for _, report in results:
        assert report.passed and report.min_eigenvalue >= -1e-8


def test_criterion_4_threshold_identities():
    expected = {
        (SVETLICHNY, 3): 4 * (2 + SQ2) / 3,
        (SVETLICHNY, 4): 8.0,
        (SVETLICHNY, 5): 16.0,
        (MABK, 3): 2 * SQ2,
        (MABK, 4): 4 * SQ2,
        (MABK, 5): 8 * SQ2,
    }
    threshold_dev = 0.0
    normalisation_dev = 0.0
    for protocol in ALL_PROTOCOLS:
        constants = catalog_constants(protocol)
        want = expected[(protocol.family, protocol.n)]
        threshold_dev = max(threshold_dev,
                            abs((0.5 - constants.mu) / constants.s - want))
        normalisation_dev = max(
            normalisation_dev,
            abs(constants.s * protocol.beta_Q + constants.mu - 1.0))
    ok = threshold_dev <= 1e-12 and normalisation_dev <= 1e-12
    _verdict(4, ok, f"max threshold dev {threshold_dev:.1e}, "
                    f"max normalisation dev {normalisation_dev:.1e}")
    assert threshold_dev <= 1e-12
    assert normalisation_dev <= 1e-12


def test_criterion_5_tradeoff_curve_thresholds():
    expected = {
        (SVETLICHNY, 3): 1.0 / 3.0,
        (SVETLICHNY, 4): 0.0,
        (SVETLICHNY, 5): 0.0,
        (MABK, 3): SQ2 - 1.0,
        (MABK, 4): (1 + 2 * SQ2) / 7,
        (MABK, 5): (2 * SQ2 - 1) / 3,
    }
    worst = 0.0
    crossing = 0.0
    for protocol in ALL_PROTOCOLS:
        first = emit_curve(protocol, resolution=50).points[0]
        want = expected[(protocol.family, protocol.n)]
        worst = max(worst, abs(first.relative_violation - want))
        crossing = max(crossing, abs(first.fidelity_bound - 0.5))
    ok = worst <= 1e-5 and crossing <= 1e-12
    _verdict(5, ok, f"max threshold dev {worst:.1e}, "
                    f"max crossing dev {crossing:.1e}")
    assert worst <= 1e-5
    assert crossing <= 1e-12


def certificates(protocol, angles, constants, size=100):
    """(angle tuple, T) per row of ``angles``, from batched ``build_T`` calls
    of at most ``size`` rows."""
    for start in range(0, len(angles), size):
        rows = angles[start:start + size]
        yield from zip(rows, build_T(protocol, rows, constants.s,
                                     constants.mu))


def test_criterion_6_closed_form_oracle_equivalence():
    # One (1000, n) draw is the same stream as 1000 draws of n.
    rng = np.random.default_rng(20260823)
    sv3 = BellProtocol(SVETLICHNY, 3)
    c3 = catalog_constants(sv3)
    block_dev = 0.0
    for row, t in certificates(sv3, rng.uniform(0.0, math.pi / 4,
                                                 size=(1000, 3)), c3):
        f = sv3_block_functions(tuple(row), c3.s)
        for i, block in enumerate(block_decompose(t, 3)):
            block_dev = max(block_dev,
                            abs(block[0, 0].real - f[2 * i]),
                            abs(block[1, 1].real - f[2 * i]),
                            abs(block[0, 1] - f[2 * i + 1]))
    sv4 = BellProtocol(SVETLICHNY, 4)
    c4 = catalog_constants(sv4)
    deter_dev = 0.0
    for row in rng.uniform(0.0, math.pi / 4, size=(1000, 4)):
        angles = tuple(row)
        f1, f2 = sv4_block_functions(angles, c4.s)
        deter_dev = max(deter_dev, abs(sv4_determinant(angles, c4.s)
                                       - (f1 ** 2 - abs(f2) ** 2)))
    lambda_dev = 0.0
    for row, t in certificates(sv3, rng.uniform(0.0, math.pi / 4,
                                                 size=(1000, 3)), c3):
        for x1 in (0, 1):
            for x2 in (0, 1):
                p = parity_projector(x1, x2)
                m = p @ t @ p
                direct = np.trace(m).real ** 2 - np.trace(m @ m).real
                lambda_dev = max(lambda_dev,
                                 abs(projector_lambda(tuple(row), c3.s, x1,
                                                      x2) - direct))
    multiset_dev = 0.0
    for protocol in ALL_PROTOCOLS:
        constants = catalog_constants(protocol)
        for _, t in certificates(protocol, rng.uniform(
                0.0, math.pi / 2, size=(1000, protocol.n)), constants):
            pairs = []
            for block in block_decompose(t, protocol.n):
                pairs.extend(eig2x2_hermitian(block[0, 0].real, block[0, 1]))
            multiset_dev = max(multiset_dev, float(np.max(np.abs(
                np.sort(pairs) - hermitian_eigenvalues(t)))))
    ok = (block_dev <= 1e-10 and deter_dev <= 1e-9
          and lambda_dev <= 1e-10 and multiset_dev <= 1e-9)
    _verdict(6, ok, f"block entries {block_dev:.1e}, "
                    f"determinant {deter_dev:.1e}, "
                    f"sector traces {lambda_dev:.1e}, "
                    f"eigenvalue multisets {multiset_dev:.1e}")
    assert block_dev <= 1e-10
    assert deter_dev <= 1e-9
    assert lambda_dev <= 1e-10
    assert multiset_dev <= 1e-9


def test_criterion_7_channel_and_state_properties():
    rng = np.random.default_rng(7)
    trace_dev = 0.0
    unital_dev = 0.0
    adjoint_dev = 0.0
    persym_ok = True
    for i in range(200):
        protocol = ALL_PROTOCOLS[i % len(ALL_PROTOCOLS)]
        dim = protocol.dim
        channel = tuple(rng.uniform(0.0, math.pi / 2, size=protocol.n))
        a = random_hermitian(rng, dim)
        b = random_hermitian(rng, dim)
        out = apply_channel(a, channel)
        trace_dev = max(trace_dev, abs(np.trace(out) - np.trace(a)))
        identity = np.eye(dim, dtype=complex)
        unital_dev = max(unital_dev, float(np.max(np.abs(
            apply_channel(identity, channel) - identity))))
        adjoint_dev = max(adjoint_dev,
                          abs(np.trace(a @ apply_channel(b, channel))
                              - np.trace(apply_channel(a, channel) @ b)))
        j = exchange_matrix(dim)
        persymmetric = (a + j @ a.T @ j) / 2
        persym_ok = (persym_ok and is_persymmetric(persymmetric)
                     and is_persymmetric(apply_channel(persymmetric, channel)))
    state_dev = 0.0
    for protocol in ALL_PROTOCOLS:
        rho = ghz_state(protocol)
        quarter = (math.pi / 4,) * protocol.n
        state_dev = max(state_dev,
                        abs(np.trace(rho @ rho).real - 1.0),
                        abs(evaluate(protocol, rho, quarter)
                            - protocol.beta_Q))
    ok = (trace_dev <= 1e-10 and unital_dev <= 1e-10
          and adjoint_dev <= 1e-10 and persym_ok and state_dev <= 1e-9)
    _verdict(7, ok, f"trace {trace_dev:.1e}, unital {unital_dev:.1e}, "
                    f"self-adjoint {adjoint_dev:.1e}, "
                    f"persymmetry ok={persym_ok}, state dev {state_dev:.1e}")
    assert trace_dev <= 1e-10
    assert unital_dev <= 1e-10
    assert adjoint_dev <= 1e-10
    assert persym_ok
    assert state_dev <= 1e-9


def test_criterion_8_negative_control():
    results = []
    for protocol in ALL_PROTOCOLS:
        constants = catalog_constants(protocol)
        s = 1.1 * constants.s
        perturbed = CertificateConstants(protocol=protocol, s=s,
                                         mu=constants.mu,
                                         beta_T=(0.5 - constants.mu) / s)
        report = min_eig_over_grid(
            perturbed, GridSpec(points_per_axis=GRID_POINTS[protocol.n]))
        results.append((protocol, report))
    ok = all(not r.passed and r.min_eigenvalue < -1e-6 for _, r in results)
    detail = "; ".join(f"{p.family[:2]}{p.n} min={r.min_eigenvalue:.1e}"
                       for p, r in results)
    _verdict(8, ok, detail)
    for _, report in results:
        assert not report.passed
        assert report.min_eigenvalue < -1e-6


def test_criterion_9_simulation_statistics():
    protocol = BellProtocol(SVETLICHNY, 4)
    constants = catalog_constants(protocol)
    shots = 10 ** 6
    exact = certify(constants, NoiseModel("visibility", 1.0),
                    shots_per_setting=shots, seed=0)
    beta_dev = abs(exact.estimated_beta - protocol.beta_Q)
    noisy = certify(constants, NoiseModel("visibility", 0.9),
                    shots_per_setting=shots, seed=0)
    target = constants.s * (0.9 * protocol.beta_Q) + constants.mu
    bound_dev = abs(noisy.fidelity_bound - target)
    propagated = constants.s * noisy.std_error
    ok = beta_dev <= 4 * exact.std_error and bound_dev <= 4 * propagated
    _verdict(9, ok, f"beta_hat {exact.estimated_beta:.6f} within "
                    f"{beta_dev / exact.std_error:.2f} SE of beta_Q, "
                    f"bound {noisy.fidelity_bound:.6f} within "
                    f"{bound_dev / propagated:.2f} SE of {target:.6f}")
    assert beta_dev <= 4 * exact.std_error
    assert bound_dev <= 4 * propagated
