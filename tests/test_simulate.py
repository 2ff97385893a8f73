"""Finite-statistics Born sampling, violation estimation, and certification."""
from __future__ import annotations

import json
import math

import numpy as np
import pytest

from ghzcert.bell import (MABK, SVETLICHNY, BellProtocol, evaluate,
                          functional_coefficients)
from ghzcert.simulate import (RNG_ALGORITHM, ExperimentRecord, NoiseModel,
                              born_probabilities, certify, estimate_violation,
                              noisy_state, outcome_products, records_to_csv,
                              sample_outcomes)
from ghzcert.states import ghz_state
from ghzcert.verifier import catalog_constants
from oracles import dense_born_probabilities, random_hermitian

SQ2 = math.sqrt(2.0)
QUARTER3 = (math.pi / 4,) * 3
ALL_PROTOCOLS = [BellProtocol(family, n) for family in (SVETLICHNY, MABK)
                 for n in (3, 4, 5)]
ORACLE_TOL = 1e-15


def all_settings(n: int):
    return [tuple((k >> (n - 1 - j)) & 1 for j in range(n))
            for k in range(2 ** n)]


def product_state(rng: np.random.Generator, n: int) -> np.ndarray:
    """Product of random pure qubit states: separable, and not X-shaped."""
    out = np.array([[1.0 + 0j]])
    for _ in range(n):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        out = np.kron(out, np.outer(v, v.conj()))
    return out


def test_born_probabilities_ghz3():
    rho = ghz_state(BellProtocol(SVETLICHNY, 3)).rho
    dist = born_probabilities(rho, (0, 0, 0), QUARTER3)
    assert dist.shape == (8,)
    assert np.all(dist >= 0.0)
    assert abs(dist.sum() - 1.0) <= 1e-10
    expectation = float(dist @ outcome_products(3))
    assert abs(expectation - 1 / SQ2) <= 1e-10


def test_born_probabilities_maximally_mixed():
    dist = born_probabilities(np.eye(8, dtype=complex) / 8, (1, 0, 1),
                              (0.3, 0.8, 0.2))
    assert np.max(np.abs(dist - 1 / 8)) <= 1e-12


def test_born_probabilities_marginals():
    rho = ghz_state(BellProtocol(MABK, 3)).rho
    dist = born_probabilities(rho, (0, 1, 0), (0.2, 0.5, 0.9))
    first_party_plus = dist.reshape(2, 2, 2)[0].sum()
    assert 0.0 <= first_party_plus <= 1.0
    assert abs(dist.sum() - 1.0) <= 1e-10


def test_born_probabilities_rejects_invalid_state():
    with pytest.raises(ValueError):
        born_probabilities(np.eye(8, dtype=complex), (0, 0, 0), QUARTER3)


def test_born_probabilities_match_dense_oracle_on_scenarios():
    for protocol in ALL_PROTOCOLS:
        n = protocol.n
        quarter = (math.pi / 4,) * n
        for v in (1.0, 0.9, 0.0):
            state = noisy_state(protocol, NoiseModel("visibility", v))
            for settings in all_settings(n):
                got = born_probabilities(state, settings, quarter)
                want = dense_born_probabilities(state, settings, quarter)
                assert np.max(np.abs(got - want)) <= ORACLE_TOL


def test_born_probabilities_match_dense_oracle_on_random_states():
    rng = np.random.default_rng(41)
    for n in (3, 4, 5):
        for _ in range(4):
            h = random_hermitian(rng, 2 ** n)
            state = h @ h.conj().T + 0.1 * np.eye(2 ** n)
            state /= np.trace(state).real
            settings = tuple(int(r) for r in rng.integers(0, 2, size=n))
            angles = tuple(rng.uniform(0.0, math.pi / 2, size=n))
            got = born_probabilities(state, settings, angles)
            want = dense_born_probabilities(state, settings, angles)
            assert np.max(np.abs(got - want)) <= ORACLE_TOL


def test_born_probabilities_match_dense_oracle_on_separable_mixture():
    rng = np.random.default_rng(42)
    protocol = BellProtocol(MABK, 4)
    sigma = product_state(rng, 4)
    antidiagonal = np.eye(16, dtype=bool) | np.eye(16, dtype=bool)[::-1]
    assert np.max(np.abs(sigma[~antidiagonal])) > 1e-3
    state = noisy_state(protocol, NoiseModel("separable_mixture", 0.6, sigma))
    for settings in all_settings(4):
        angles = tuple(rng.uniform(0.0, math.pi / 2, size=4))
        got = born_probabilities(state, settings, angles)
        want = dense_born_probabilities(state, settings, angles)
        assert np.max(np.abs(got - want)) <= ORACLE_TOL


def test_born_probabilities_unvalidated_shape_check():
    for shape in ((4, 16), (16, 4), (8,), (4, 4)):
        with pytest.raises(ValueError):
            born_probabilities(np.ones(shape, dtype=complex) / 8, (0, 0, 0),
                               QUARTER3, validate=False)


def test_outcome_products():
    products = outcome_products(2)
    assert list(products) == [1, -1, -1, 1]


def test_sample_outcomes_determinism_and_totals():
    dist = np.array([0.5, 0.25, 0.125, 0.125])
    counts = sample_outcomes(dist, 1000, 42)
    again = sample_outcomes(dist, 1000, 42)
    assert np.array_equal(counts, again)
    assert counts.sum() == 1000
    point_mass = np.array([0.0, 1.0, 0.0, 0.0])
    counts = sample_outcomes(point_mass, 77, 1)
    assert counts[1] == 77 and counts.sum() == 77


def test_sample_outcomes_uniform_large_sample():
    dist = np.full(8, 1 / 8)
    counts = sample_outcomes(dist, 8_000_000, 3)
    sigma = math.sqrt(8_000_000 * (1 / 8) * (7 / 8))
    assert np.max(np.abs(counts - 1_000_000)) <= 5 * sigma


def test_noisy_state_visibility():
    protocol = BellProtocol(SVETLICHNY, 3)
    rho = ghz_state(protocol).rho
    state = noisy_state(protocol, NoiseModel("visibility", 0.7))
    assert np.max(np.abs(state - (0.7 * rho + 0.3 * np.eye(8) / 8))) <= 1e-12
    value = evaluate(protocol, state, QUARTER3)
    assert abs(value - 0.7 * 4 * SQ2) <= 1e-9


def test_noisy_state_separable_mixture():
    protocol = BellProtocol(SVETLICHNY, 3)
    sigma = np.zeros((8, 8), dtype=complex)
    sigma[0, 0] = 1.0
    state = noisy_state(protocol, NoiseModel("separable_mixture", 0.6, sigma))
    value = evaluate(protocol, state, QUARTER3)
    target = 0.6 * 4 * SQ2 + 0.4 * evaluate(protocol, sigma, QUARTER3)
    assert abs(value - target) <= 1e-9


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel("visibility", 1.2)
    with pytest.raises(ValueError):
        NoiseModel("bogus", 0.5)
    with pytest.raises(ValueError):
        NoiseModel("separable_mixture", 0.5)


def test_estimate_violation_converges():
    protocol = BellProtocol(SVETLICHNY, 3)
    state = noisy_state(protocol, NoiseModel("visibility", 1.0))
    beta_hat, std_error = estimate_violation(protocol, state, QUARTER3,
                                             shots_per_setting=1_000_000, seed=5)
    assert std_error > 0
    assert abs(beta_hat - 4 * SQ2) <= 4 * std_error


def test_estimate_violation_zero_visibility():
    protocol = BellProtocol(SVETLICHNY, 3)
    state = noisy_state(protocol, NoiseModel("visibility", 0.0))
    beta_hat, std_error = estimate_violation(protocol, state, QUARTER3,
                                             shots_per_setting=100_000, seed=6)
    assert abs(beta_hat) <= 4 * std_error


def test_estimate_violation_visibility_linearity():
    protocol = BellProtocol(SVETLICHNY, 3)
    for v in (0.25, 0.5, 0.75):
        state = noisy_state(protocol, NoiseModel("visibility", v))
        beta_hat, std_error = estimate_violation(
            protocol, state, QUARTER3, shots_per_setting=100_000, seed=8)
        assert abs(beta_hat - v * 4 * SQ2) <= 4 * std_error


def test_estimate_violation_deterministic():
    protocol = BellProtocol(MABK, 3)
    state = noisy_state(protocol, NoiseModel("visibility", 0.9))
    first = estimate_violation(protocol, state, QUARTER3, 5000, seed=3)
    second = estimate_violation(protocol, state, QUARTER3, 5000, seed=3)
    assert first == second


def _estimate_sampling_every_setting(protocol, state, angles, shots, seed):
    """Estimate that samples every setting, zero coefficients included."""
    coefficients = functional_coefficients(protocol)
    children = np.random.SeedSequence(seed).spawn(2 ** protocol.n)
    products = outcome_products(protocol.n)
    beta_hat = variance = 0.0
    for index, settings in enumerate(sorted(coefficients)):
        rng = np.random.Generator(np.random.PCG64(children[index]))
        dist = born_probabilities(state, settings, angles)
        counts = sample_outcomes(dist, shots, rng)
        correlator = float(counts @ products) / shots
        c = coefficients[settings]
        beta_hat += c * correlator
        variance += c ** 2 * (1.0 - correlator ** 2) / shots
    return beta_hat, math.sqrt(max(variance, 0.0))


def test_skipping_zero_coefficients_keeps_records():
    for protocol in ALL_PROTOCOLS:
        constants = catalog_constants(protocol)
        quarter = (math.pi / 4,) * protocol.n
        for v, seed in ((1.0, 0), (0.8, 3), (0.0, 5)):
            noise = NoiseModel("visibility", v)
            record = certify(protocol, constants, noise,
                             shots_per_setting=3000, seed=seed)
            want = _estimate_sampling_every_setting(
                protocol, noisy_state(protocol, noise), quarter, 3000, seed)
            assert (record.estimated_beta, record.std_error) == want


def test_certify_records_repeat_bit_identically():
    sigma = product_state(np.random.default_rng(43), 3)
    for protocol in ALL_PROTOCOLS:
        constants = catalog_constants(protocol)
        noises = [NoiseModel("visibility", 0.9)]
        if protocol.n == 3:
            noises.append(NoiseModel("separable_mixture", 0.7, sigma))
        for noise in noises:
            first, second = (json.loads(certify(
                protocol, constants, noise, shots_per_setting=2000,
                seed=17).to_json_line()) for _ in range(2))
            first.pop("timestamp")
            second.pop("timestamp")
            assert first == second


def test_estimate_violation_unbiased_over_seeds():
    protocol = BellProtocol(SVETLICHNY, 3)
    state = noisy_state(protocol, NoiseModel("visibility", 0.9))
    exact = evaluate(protocol, state, QUARTER3)
    estimates = []
    errors = []
    for seed in range(100, 150):
        beta_hat, std_error = estimate_violation(protocol, state, QUARTER3,
                                                 shots_per_setting=100_000,
                                                 seed=seed)
        estimates.append(beta_hat)
        errors.append(std_error)
    mean = float(np.mean(estimates))
    typical_error = float(np.mean(errors))
    assert abs(mean - exact) <= 3 * typical_error / math.sqrt(50)


def test_predicted_error_tracks_seed_scatter():
    protocol = BellProtocol(SVETLICHNY, 3)
    state = noisy_state(protocol, NoiseModel("visibility", 0.9))
    estimates = []
    errors = []
    for seed in range(30):
        beta_hat, std_error = estimate_violation(protocol, state, QUARTER3,
                                                 shots_per_setting=4000,
                                                 seed=seed)
        estimates.append(beta_hat)
        errors.append(std_error)
    scatter = float(np.std(estimates, ddof=1))
    predicted = float(np.mean(errors))
    assert 0.5 <= scatter / predicted <= 2.0


def test_certify_tracks_affine_bound():
    protocol = BellProtocol(SVETLICHNY, 4)
    constants = catalog_constants(protocol)
    record = certify(protocol, constants, NoiseModel("visibility", 0.9),
                     shots_per_setting=100_000, seed=11)
    target = constants.s * 0.9 * protocol.beta_Q + constants.mu
    assert abs(target - 0.8292893218813455) <= 1e-12
    assert abs(record.fidelity_bound - target) <= 4 * constants.s * record.std_error
    assert record.rng == RNG_ALGORITHM
    assert not record.clamped and not record.trivial


def test_certify_clamps_overshoot():
    protocol = BellProtocol(SVETLICHNY, 3)
    constants = catalog_constants(protocol)
    overshoots = []
    for seed in range(30):
        record = certify(protocol, constants, NoiseModel("visibility", 1.0),
                         shots_per_setting=50, seed=seed)
        assert record.fidelity_bound <= 1.0 + 1e-12
        if record.clamped and record.estimated_beta > protocol.beta_Q:
            overshoots.append(record)
    assert overshoots
    assert all(abs(r.fidelity_bound - 1.0) <= 1e-12 for r in overshoots)


def test_certify_flags_trivial_regime():
    protocol = BellProtocol(SVETLICHNY, 3)
    constants = catalog_constants(protocol)
    record = certify(protocol, constants, NoiseModel("visibility", 0.0),
                     shots_per_setting=5000, seed=2)
    assert record.clamped
    assert record.trivial
    assert record.fidelity_bound < 0.5


def test_certify_persists_jsonl(tmp_path):
    protocol = BellProtocol(MABK, 4)
    constants = catalog_constants(protocol)
    log = tmp_path / "runs.jsonl"
    first = certify(protocol, constants, NoiseModel("visibility", 0.95),
                    shots_per_setting=2000, seed=9, log_path=str(log))
    second = certify(protocol, constants, NoiseModel("visibility", 0.95),
                     shots_per_setting=2000, seed=9, log_path=str(log))
    assert first.persisted and second.persisted
    lines = log.read_text().strip().splitlines()
    assert len(lines) == 2
    records = [json.loads(line) for line in lines]
    for payload in records:
        assert payload["family"] == MABK and payload["n"] == 4
        assert payload["rng"] == RNG_ALGORITHM
        assert payload["shots_per_setting"] == 2000
    for payload in records:
        payload.pop("timestamp")
    assert records[0] == records[1]


def test_certify_survives_persistence_failure():
    protocol = BellProtocol(MABK, 3)
    constants = catalog_constants(protocol)
    record = certify(protocol, constants, NoiseModel("visibility", 0.9),
                     shots_per_setting=1000, seed=4,
                     log_path="/nonexistent-dir/never.jsonl")
    assert not record.persisted
    assert record.fidelity_bound > 0


def test_certify_rejects_shot_counts_outside_multinomial_range(tmp_path):
    protocol = BellProtocol(SVETLICHNY, 5)
    constants = catalog_constants(protocol)
    log = tmp_path / "runs.jsonl"
    for shots in (0, -1, 2 ** 63, 10 ** 19):
        with pytest.raises(ValueError, match="shot count"):
            certify(protocol, constants, NoiseModel("visibility", 1.0),
                    shots_per_setting=shots, seed=0, log_path=str(log))
        with pytest.raises(ValueError, match="shot count"):
            sample_outcomes(np.array([0.5, 0.5]), shots, 0)
    assert not log.exists()


def test_certify_accepts_the_largest_shot_count(tmp_path):
    protocol = BellProtocol(MABK, 3)
    constants = catalog_constants(protocol)
    log = tmp_path / "runs.jsonl"
    record = certify(protocol, constants, NoiseModel("visibility", 0.9),
                     shots_per_setting=2 ** 63 - 1, seed=3, log_path=str(log))
    assert record.persisted
    assert json.loads(log.read_text())["shots_per_setting"] == 2 ** 63 - 1
    assert abs(record.estimated_beta - 0.9 * protocol.beta_Q) <= 1e-6


def test_records_to_csv():
    protocol = BellProtocol(SVETLICHNY, 3)
    constants = catalog_constants(protocol)
    records = [certify(protocol, constants, NoiseModel("visibility", v),
                       shots_per_setting=2000, seed=13) for v in (0.8, 0.9)]
    text = records_to_csv(records)
    lines = text.strip().splitlines()
    assert lines[0] == "v,shots,beta_hat,std_error,fidelity_bound"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0.8" and first[1] == "2000"


def test_experiment_record_round_trip():
    protocol = BellProtocol(SVETLICHNY, 3)
    constants = catalog_constants(protocol)
    record = certify(protocol, constants, NoiseModel("visibility", 0.9),
                     shots_per_setting=500, seed=21)
    payload = json.loads(record.to_json_line())
    assert payload["seed"] == 21
    assert payload["visibility"] == 0.9
    assert isinstance(record, ExperimentRecord)


def test_experiment_record_json_line_fields():
    # The JSONL schema: every record field in declaration order, without
    # the in-memory ``persisted`` flag.
    protocol = BellProtocol(MABK, 3)
    record = certify(protocol, catalog_constants(protocol),
                     NoiseModel("visibility", 1.0), shots_per_setting=10,
                     seed=3)
    payload = json.loads(record.to_json_line())
    assert list(payload) == [
        "family", "n", "noise_kind", "visibility", "shots_per_setting",
        "seed", "estimated_beta", "std_error", "fidelity_bound", "clamped",
        "trivial", "rng", "timestamp"]
    assert payload["family"] == MABK and payload["rng"] == RNG_ALGORITHM
