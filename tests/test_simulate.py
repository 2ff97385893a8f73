"""Finite-statistics Born sampling, violation estimation, and certification."""
from __future__ import annotations

import itertools
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from ghzcert import simulate
from ghzcert.bell import (FAMILIES, MABK, SVETLICHNY, BellProtocol,
                          _coefficient_tensor, validate_state)
from ghzcert.linalg import x_blocks
from ghzcert.simulate import (RNG_ALGORITHM, ExperimentRecord, NoiseModel,
                              _born_table, _contracted_distribution,
                              born_probabilities, certify, estimate_violation,
                              noisy_state, outcome_products, records_to_csv,
                              sample_outcomes)
from ghzcert.states import ghz_state
from ghzcert.verifier import CATALOG_PARTIES, catalog_constants
from oracles import (dense_born_from_projectors, dense_born_probabilities,
                     dense_outcome_projectors, evaluate,
                     functional_coefficients, random_hermitian,
                     random_x_matrix)

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
    rho = ghz_state(BellProtocol(SVETLICHNY, 3))
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
    rho = ghz_state(BellProtocol(MABK, 3))
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
                               QUARTER3)


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
    rho = ghz_state(protocol)
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
        for v, seed in ((1.0, 0), (0.8, 3), (0.0, 5), (0.9, 2 ** 128),
                        (0.5, 2 ** 200 + 7)):
            noise = NoiseModel("visibility", v)
            record = certify(constants, noise, shots_per_setting=3000,
                             seed=seed)
            want = _estimate_sampling_every_setting(
                protocol, noisy_state(protocol, noise), quarter, 3000, seed)
            assert (record.estimated_beta, record.std_error) == want


def test_records_at_the_largest_shot_count_keep_their_bits():
    # Counts above 2^53 round as floats, so the correlator sums must run in
    # the per-setting oracle's order to keep every bit.
    for protocol in (BellProtocol(SVETLICHNY, 5), BellProtocol(MABK, 3)):
        state = noisy_state(protocol, NoiseModel("visibility", 0.9))
        quarter = (math.pi / 4,) * protocol.n
        for seed in (0, 2 ** 128):
            got = estimate_violation(protocol, state, quarter,
                                     simulate.MAX_SHOTS, seed)
            assert got == _estimate_sampling_every_setting(
                protocol, state, quarter, simulate.MAX_SHOTS, seed)


def test_batched_seeding_is_numpys_spawned_children():
    for seed in (0, 2001, 2 ** 32 - 1, 2 ** 32, 2 ** 128 - 1, 2 ** 128,
                 2 ** 200 + 7):
        children = np.random.SeedSequence(seed).spawn(2 ** 6)
        got = simulate._spawned_pcg64_states(np.random.SeedSequence(seed),
                                             np.arange(2 ** 6))
        for (state, inc), child in zip(got, children):
            want = np.random.PCG64(child).state["state"]
            assert (state, inc) == (want["state"], want["inc"])


def test_sampled_streams_are_the_spawned_children(monkeypatch):
    # Each sampled setting's generator starts where child ``index`` of
    # SeedSequence(seed).spawn(2 ** n) does, the others never built.
    streams = []
    sample = simulate.sample_outcomes

    def recording(dist, shots, rng):
        streams.append(rng.bit_generator.state)
        return sample(dist, shots, rng)

    monkeypatch.setattr(simulate, "sample_outcomes", recording)
    for protocol in itertools.starmap(
            BellProtocol, itertools.product(FAMILIES, CATALOG_PARTIES)):
        state = ghz_state(protocol)
        sampled = np.flatnonzero(_coefficient_tensor(protocol))
        for seed in (0, 2001, 2 ** 128, 2 ** 200 + 7):
            streams.clear()
            estimate_violation(protocol, state, (math.pi / 4,) * protocol.n,
                               10, seed)
            children = np.random.SeedSequence(seed).spawn(2 ** protocol.n)
            assert len(streams) == len(sampled)
            for index, state_dict in zip(sampled, streams):
                bits = np.random.PCG64()
                bits.state = state_dict
                got = np.random.Generator(bits).integers(2 ** 62, size=8)
                want = np.random.Generator(np.random.PCG64(
                    children[index])).integers(2 ** 62, size=8)
                assert got.tolist() == want.tolist()


def test_certify_records_repeat_bit_identically():
    sigma = product_state(np.random.default_rng(43), 3)
    for protocol in ALL_PROTOCOLS:
        constants = catalog_constants(protocol)
        noises = [NoiseModel("visibility", 0.9)]
        if protocol.n == 3:
            noises.append(NoiseModel("separable_mixture", 0.7, sigma))
        for noise in noises:
            first, second = (json.loads(certify(
                constants, noise, shots_per_setting=2000,
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
    record = certify(constants, NoiseModel("visibility", 0.9),
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
        record = certify(constants, NoiseModel("visibility", 1.0),
                         shots_per_setting=50, seed=seed)
        assert record.fidelity_bound <= 1.0 + 1e-12
        if record.clamped and record.estimated_beta > protocol.beta_Q:
            overshoots.append(record)
    assert overshoots
    assert all(abs(r.fidelity_bound - 1.0) <= 1e-12 for r in overshoots)


def test_certify_flags_trivial_regime():
    protocol = BellProtocol(SVETLICHNY, 3)
    constants = catalog_constants(protocol)
    record = certify(constants, NoiseModel("visibility", 0.0),
                     shots_per_setting=5000, seed=2)
    assert record.clamped
    assert record.trivial
    assert record.fidelity_bound < 0.5


def test_certify_persists_jsonl(tmp_path):
    protocol = BellProtocol(MABK, 4)
    constants = catalog_constants(protocol)
    log = tmp_path / "runs.jsonl"
    first = certify(constants, NoiseModel("visibility", 0.95),
                    shots_per_setting=2000, seed=9, log_path=str(log))
    second = certify(constants, NoiseModel("visibility", 0.95),
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
    record = certify(constants, NoiseModel("visibility", 0.9),
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
            certify(constants, NoiseModel("visibility", 1.0),
                    shots_per_setting=shots, seed=0, log_path=str(log))
        with pytest.raises(ValueError, match="shot count"):
            sample_outcomes(np.array([0.5, 0.5]), shots, 0)
    assert not log.exists()


def test_shot_counts_must_be_integers():
    # A fractional count was once drawn as its floor but divided as given:
    # 100.5 shots gave beta_hat = 5.9303 where the 100 drawn give 5.96.
    protocol = BellProtocol(SVETLICHNY, 3)
    constants = catalog_constants(protocol)
    noise = NoiseModel("visibility", 1.0)
    for shots in (100.5, 100.0, "100"):
        message = re.escape(f"shot count must be an integer, got {shots!r}")
        with pytest.raises(ValueError, match=message):
            certify(constants, noise, shots_per_setting=shots, seed=1)
        with pytest.raises(ValueError, match=message):
            estimate_violation(protocol, ghz_state(protocol), QUARTER3,
                               shots, 1)
        with pytest.raises(ValueError, match=message):
            sample_outcomes(np.array([0.5, 0.5]), shots, 0)
    # numpy's integers are counts like any other, and the record holds an
    # int that serialises.
    record = certify(constants, noise, shots_per_setting=np.int64(100),
                     seed=1)
    assert type(record.shots_per_setting) is int
    plain = certify(constants, noise, shots_per_setting=100, seed=1)
    assert record.estimated_beta == plain.estimated_beta == 5.96
    assert json.loads(record.to_json_line())["shots_per_setting"] == 100


def test_seeds_must_be_integers(tmp_path):
    # A numpy seed was once stored as given, and the JSON line failed after
    # the run, leaving the log created but empty.
    protocol = BellProtocol(MABK, 3)
    constants = catalog_constants(protocol)
    noise = NoiseModel("visibility", 0.9)
    log = tmp_path / "runs.jsonl"
    record = certify(constants, noise, shots_per_setting=500,
                     seed=np.int64(7), log_path=str(log))
    assert type(record.seed) is int and record.persisted
    payload = json.loads(log.read_text())
    plain = json.loads(certify(constants, noise, shots_per_setting=500,
                               seed=7).to_json_line())
    payload.pop("timestamp"), plain.pop("timestamp")
    assert payload == plain and payload["seed"] == 7
    for seed in (2.0, "2", None):
        message = re.escape(f"seed must be an integer, got {seed!r}")
        with pytest.raises(ValueError, match=message):
            certify(constants, noise, shots_per_setting=500, seed=seed,
                    log_path=str(tmp_path / "refused.jsonl"))
        with pytest.raises(ValueError, match=message):
            estimate_violation(protocol, ghz_state(protocol), QUARTER3,
                               500, seed)
    assert not (tmp_path / "refused.jsonl").exists()


def test_certify_accepts_the_largest_shot_count(tmp_path):
    protocol = BellProtocol(MABK, 3)
    constants = catalog_constants(protocol)
    log = tmp_path / "runs.jsonl"
    record = certify(constants, NoiseModel("visibility", 0.9),
                     shots_per_setting=2 ** 63 - 1, seed=3, log_path=str(log))
    assert record.persisted
    assert json.loads(log.read_text())["shots_per_setting"] == 2 ** 63 - 1
    assert abs(record.estimated_beta - 0.9 * protocol.beta_Q) <= 1e-6


def test_records_to_csv():
    protocol = BellProtocol(SVETLICHNY, 3)
    constants = catalog_constants(protocol)
    records = [certify(constants, NoiseModel("visibility", v),
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
    record = certify(constants, NoiseModel("visibility", 0.9),
                     shots_per_setting=500, seed=21)
    payload = json.loads(record.to_json_line())
    assert payload["seed"] == 21
    assert payload["visibility"] == 0.9
    assert isinstance(record, ExperimentRecord)


def test_experiment_record_json_line_fields():
    # The JSONL schema: every record field in declaration order, without
    # the in-memory ``persisted`` flag.
    protocol = BellProtocol(MABK, 3)
    record = certify(catalog_constants(protocol),
                     NoiseModel("visibility", 1.0), shots_per_setting=10,
                     seed=3)
    payload = json.loads(record.to_json_line())
    assert list(payload) == [
        "family", "n", "noise_kind", "visibility", "shots_per_setting",
        "seed", "estimated_beta", "std_error", "fidelity_bound", "clamped",
        "trivial", "rng", "timestamp"]
    assert payload["family"] == MABK and payload["rng"] == RNG_ALGORITHM


EIGHT_PROTOCOLS = [BellProtocol(family, n) for family in (SVETLICHNY, MABK)
                   for n in (3, 4, 5, 6)]


def test_closed_form_matches_dense_oracle_on_scenarios():
    # The dense projectors depend on the settings and angles only, so each
    # is built once for both families and three visibilities.  At pi/4 the
    # block route's table (certify's) has one row per sampled setting, each
    # with the bits of the dense route's row.
    rng = np.random.default_rng(44)
    for n in (3, 4, 5, 6):
        quarter = (math.pi / 4,) * n
        scenarios = [(BellProtocol(family, n), v)
                     for family in (SVETLICHNY, MABK) for v in (1.0, 0.7, 0.0)]
        states = [noisy_state(protocol, NoiseModel("visibility", v))
                  for protocol, v in scenarios]
        assert all(x_blocks(state)[1] == 0.0 for state in states)
        block_rows = [dict(zip(map(tuple, simulate._setting_table(
            protocol).settings.tolist()), simulate._visibility_born_table(
                protocol, v))) for protocol, v in scenarios]
        assert all(len(rows) > 0 for rows in block_rows)
        for angles in (quarter, tuple(rng.uniform(0.0, math.pi / 2, size=n))):
            for settings in all_settings(n):
                projectors = dense_outcome_projectors(settings, angles)
                for state, rows in zip(states, block_rows):
                    got = born_probabilities(state, settings, angles)
                    want = dense_born_from_projectors(state, projectors)
                    assert np.max(np.abs(got - want)) <= ORACLE_TOL
                    if angles == quarter and settings in rows:
                        row = rows.pop(settings)
                        assert row.tobytes() == got.tobytes()
                        assert np.max(np.abs(row - want)) <= ORACLE_TOL
        assert block_rows == [{}] * len(scenarios)


def test_closed_form_matches_dense_oracle_on_random_x_states(monkeypatch):
    def no_contraction(*args):
        raise AssertionError("an X state was contracted")

    monkeypatch.setattr(simulate, "_contracted_distribution", no_contraction)
    rng = np.random.default_rng(45)
    for n in (3, 4, 5):
        for _ in range(6):
            state = random_x_matrix(rng, n, density=True)
            assert x_blocks(state)[1] == 0.0
            settings = tuple(int(r) for r in rng.integers(0, 2, size=n))
            angles = tuple(rng.uniform(0.0, math.pi / 2, size=n))
            got = born_probabilities(state, settings, angles)
            want = dense_born_probabilities(state, settings, angles)
            assert np.max(np.abs(got - want)) <= ORACLE_TOL


def test_non_x_state_takes_the_contraction(monkeypatch):
    contracted = []

    def spy(*args):
        contracted.append(args[1].tolist())
        return _contracted_distribution(*args)

    monkeypatch.setattr(simulate, "_contracted_distribution", spy)
    rng = np.random.default_rng(46)
    # One entry of 1e-300 off the two lines is enough to leave the closed
    # form.
    tiny = noisy_state(BellProtocol(SVETLICHNY, 3),
                       NoiseModel("visibility", 0.7))
    tiny[1, 2] = tiny[2, 1] = 1e-300
    assert x_blocks(tiny)[1] == 1e-300
    for state in (product_state(rng, 3), tiny):
        assert x_blocks(state)[1] > 0.0
        angles = tuple(rng.uniform(0.0, math.pi / 2, size=3))
        contracted.clear()
        for settings in all_settings(3):
            got = born_probabilities(state, settings, angles)
            want = dense_born_probabilities(state, settings, angles)
            assert np.max(np.abs(got - want)) <= ORACLE_TOL
        assert contracted == [[list(row)] for row in all_settings(3)]
        # A table of every setting is one batched contraction, and each of
        # its rows has the bits of that setting's own call.
        contracted.clear()
        table = _born_table(state, np.array(all_settings(3)), angles)
        assert contracted == [[list(row) for row in all_settings(3)]]
        for settings, row in zip(all_settings(3), table):
            assert (row.tobytes()
                    == born_probabilities(state, settings, angles).tobytes())


def test_closed_form_rejects_bad_settings_and_angles():
    state = noisy_state(BellProtocol(SVETLICHNY, 3),
                        NoiseModel("visibility", 0.7))
    assert x_blocks(state)[1] == 0.0
    with pytest.raises(ValueError, match="0 or 1"):
        born_probabilities(state, (0, 2, 0), QUARTER3)
    for bad in (-0.1, 2.0, math.nan):
        with pytest.raises(ValueError, match="angle"):
            born_probabilities(state, (0, 1, 0), (0.3, bad, 0.2))
    with pytest.raises(ValueError, match="real, got dtype complex128"):
        born_probabilities(state, (0, 1, 0), (0.3, 0.1j, 0.2))
    for angles in ((math.pi / 4,), QUARTER3 + (0.1,)):
        with pytest.raises(ValueError, match="expected 3 angles per tuple"):
            estimate_violation(BellProtocol(SVETLICHNY, 3), state, angles,
                               shots_per_setting=10, seed=0)


def test_sampled_rows_equal_born_probabilities_bit_for_bit(monkeypatch):
    tables = []

    def spy(state, settings, angles):
        table = _born_table(state, settings, angles)
        tables.append((state, settings, angles, table))
        return table

    monkeypatch.setattr(simulate, "_born_table", spy)
    rng = np.random.default_rng(47)
    sigma = product_state(rng, 3)
    for protocol in EIGHT_PROTOCOLS:
        states = [noisy_state(protocol, NoiseModel("visibility", v))
                  for v in (1.0, 0.7, 0.0)]
        if protocol.n == 3:
            states.append(noisy_state(
                protocol, NoiseModel("separable_mixture", 0.6, sigma)))
        # The target state has one nonzero corner pair; a random X state
        # has all of them, so its sums depend on the summation order.
        states.append(random_x_matrix(rng, protocol.n, density=True))
        random_angles = tuple(rng.uniform(0.0, math.pi / 2, size=protocol.n))
        for angles, state in itertools.product(
                ((math.pi / 4,) * protocol.n, random_angles), states):
            tables.clear()
            estimate_violation(protocol, state, angles, shots_per_setting=10,
                               seed=1)
            [(_, settings, got_angles, table)] = tables
            coefficients = functional_coefficients(protocol)
            assert [tuple(row) for row in settings] == [
                x for x in sorted(coefficients) if coefficients[x] != 0.0]
            assert got_angles == angles
            for row, dist in zip(settings, table):
                assert np.array_equal(
                    dist, born_probabilities(state, tuple(row), angles))


def test_certify_never_forms_a_dense_state_under_visibility_noise(
        monkeypatch):
    def dense(*args):
        raise AssertionError("a 2^n x 2^n state was formed")

    # Both caches start empty, so every table is built under the patches.
    simulate._setting_table.cache_clear()
    simulate._visibility_born_table.cache_clear()
    for name in ("noisy_state", "validate_state", "x_blocks", "ghz_state"):
        monkeypatch.setattr(simulate, name, dense)
    for protocol in ALL_PROTOCOLS:
        for v in (1.0, 0.6, 0.0):
            record = certify(catalog_constants(protocol),
                             NoiseModel("visibility", v), 100, 3)
            assert record.shots_per_setting == 100
    assert simulate._setting_table.cache_info().misses == len(ALL_PROTOCOLS)
    assert (simulate._visibility_born_table.cache_info().misses
            == 3 * len(ALL_PROTOCOLS))


def test_visibility_blocks_are_checked_as_the_dense_state_is():
    # A visibility outside [0, 1] never reaches a NoiseModel; the block
    # route's checks refuse the mixture it would make.
    protocol = BellProtocol(SVETLICHNY, 3)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        simulate._visibility_born_table(protocol, 1.5)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        validate_state(simulate._mixture(1.5, ghz_state(protocol),
                                         np.eye(8) / 8), 3)


def test_setting_tables_are_cached_read_only_and_bounded():
    protocols = [BellProtocol(family, n) for family in (SVETLICHNY, MABK)
                 for n in range(3, 8)]
    assert len(protocols) > simulate.SETTING_TABLE_CACHE
    for protocol in protocols:
        table = simulate._setting_table(protocol)
        again = BellProtocol(protocol.family, protocol.n)
        assert simulate._setting_table(again) is table
        for array in (table.indices, table.settings, table.quarter_pairs):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0
        assert isinstance(table.coefficients, tuple)
        info = simulate._setting_table.cache_info()
        assert info.maxsize == simulate.SETTING_TABLE_CACHE
        assert info.currsize <= simulate.SETTING_TABLE_CACHE


def test_visibility_born_tables_are_cached_read_only_and_bounded():
    simulate._visibility_born_table.cache_clear()
    keys = [(protocol, v) for protocol in EIGHT_PROTOCOLS
            for v in (1.0, 0.75, 0.5, 0.25, 0.0)]
    assert len(keys) > simulate.VISIBILITY_TABLE_CACHE
    for protocol, v in keys:
        table = simulate._visibility_born_table(protocol, v)
        again = BellProtocol(protocol.family, protocol.n)
        assert simulate._visibility_born_table(again, v) is table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.0
        assert table.nbytes <= 32 * 1024
        info = simulate._visibility_born_table.cache_info()
        assert info.maxsize == simulate.VISIBILITY_TABLE_CACHE
        assert info.currsize <= simulate.VISIBILITY_TABLE_CACHE


def test_refused_visibility_never_enters_the_born_table_cache():
    simulate._visibility_born_table.cache_clear()
    protocol = BellProtocol(SVETLICHNY, 3)
    for _ in range(3):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            simulate._visibility_born_table(protocol, 1.5)
        assert simulate._visibility_born_table.cache_info().currsize == 0


def test_equal_visibility_keys_give_the_same_born_table_bits():
    # Equal keys share one cache entry, so whichever comes first must give
    # the other's bits.
    pairs = ((0.5, Fraction(1, 2)), (0.9, np.float64(0.9)), (1.0, 1),
             (1.0, True), (0.0, -0.0))
    for protocol in EIGHT_PROTOCOLS:
        for first, second in pairs:
            assert first == second and hash(first) == hash(second)
            tables = []
            for v in (first, second):
                simulate._visibility_born_table.cache_clear()
                tables.append(
                    simulate._visibility_born_table(protocol, v).tobytes())
            assert tables[0] == tables[1]


def test_certify_records_match_from_cold_and_warm_born_tables():
    for protocol in ALL_PROTOCOLS:
        constants = catalog_constants(protocol)
        for v in (1.0, 0.9, 0.8, 0.5, 0.0):
            noise = NoiseModel("visibility", v)
            for seed, shots in itertools.product((0, 7, 2001),
                                                 (1, 100, 10 ** 4)):
                simulate._visibility_born_table.cache_clear()
                cold = vars(certify(constants, noise, shots, seed))
                warm = vars(certify(constants, noise, shots, seed))
                info = simulate._visibility_born_table.cache_info()
                assert (info.misses, info.hits) == (1, 1)
                del cold["timestamp"], warm["timestamp"]
                assert repr(cold) == repr(warm)


def test_outcome_products_cached_and_read_only():
    products = outcome_products(4)
    assert outcome_products(4) is products
    assert not products.flags.writeable
    with pytest.raises(ValueError):
        products[0] = 2.0
