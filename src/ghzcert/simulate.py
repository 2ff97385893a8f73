"""Finite-statistics simulation of Bell experiments and certified records.

Simulated runs draw multinomial outcome counts from the Born distribution of
a noisy target state, one independent PCG64 stream per measurement setting,
estimate the Bell value with its standard error, and convert the estimate
into a certified fidelity bound.  Each run can be appended to a JSONL log.
Each setting's stream is numpy's spawned ``SeedSequence`` child, its PCG64
state derived for every sampled setting in one batched pass.

A run reads one Born table from ``_born_table``, one row per sampled
setting.  The target state and its ``visibility`` mixtures are diagonal
plus antidiagonal, and on such a state every distribution has a closed form
in the 2^(n-1) antidiagonal corners.  Any other state, such as a
``separable_mixture`` with an arbitrary background, is contracted site by
site, every row at once, through ``linalg.contract_sites``.
``born_probabilities`` is the one-row call of the same kernel.  Counts, seeds,
angles and the visibility, a float in records, pass ``bell``'s checks.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .bell import (_MAX_PARTIES, BellProtocol, _coefficient_tensor,
                   _observable_pairs, check_angles, check_integer, check_real,
                   validate_state)
from .linalg import contract_sites, sign_products, x_blocks
from .states import ghz_state
from .tradeoff import fidelity_lower_bound, format_float, is_trivial_bound
from .verifier import CertificateConstants

RNG_ALGORITHM = "PCG64"

# numpy's SeedSequence hash and PCG64 seeding step, both kept stable across
# numpy releases (NEP 19).
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED


def _hash_steps(start: int, multiplier: int, words: int) -> np.ndarray:
    """The hash constant before (row 0) and after (row 1) each hashed word."""
    return np.array([[start * multiplier ** (i + step) % 2 ** 32
                      for i in range(words)] for step in (0, 1)],
                    dtype=np.uint32)


# A spawn word is hashed once into each of the 4 pool words, from a start
# that depends on the seed's length.
_SPAWN_STEPS = _hash_steps(1, _HASH_MULT_A, 4)
_SPAWN_STEPS.setflags(write=False)
# generate_state(4, uint64) hashes the 4-word pool twice over.
_STATE_HASHES = _hash_steps(_HASH_INIT_B, _HASH_MULT_B, 8).reshape(2, 2, 4)
_STATE_HASHES.setflags(write=False)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = 2 ** 128 - 1

_NOISE_KINDS = ("visibility", "separable_mixture")
_PROB_FLOOR = -1e-12
_PROB_SUM_TOL = 1e-10
# The largest draw count numpy's multinomial accepts (an int64).
MAX_SHOTS = 2 ** 63 - 1


@dataclass(frozen=True)
class NoiseModel:
    """Noise applied to the target state before sampling."""

    kind: str
    visibility: float
    sigma: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.kind not in _NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        check_real(self.visibility, "visibility", 0.0, 1.0)
        if self.kind == "separable_mixture" and self.sigma is None:
            raise ValueError("separable_mixture requires a sigma state")
        if self.kind == "visibility" and self.sigma is not None:
            raise ValueError("visibility noise takes no sigma state")


def noisy_state(protocol: BellProtocol, noise: NoiseModel) -> np.ndarray:
    """Mix the target state with white noise or a supplied separable state."""
    rho = ghz_state(protocol)
    v = noise.visibility
    if noise.kind == "visibility":
        background = np.eye(protocol.dim, dtype=complex) / protocol.dim
    else:
        background = validate_state(noise.sigma, protocol.n)
    return v * rho + (1.0 - v) * background


@functools.lru_cache(maxsize=None)
def outcome_products(n: int) -> np.ndarray:
    """Product of the n outcome signs for each outcome index.

    Cached per n, a party count in [1, 6]; the returned array is read-only.
    """
    n = check_integer(n, "party count", 1, _MAX_PARTIES)
    products = sign_products(np.ones((n, 1)), -np.ones((n, 1)))[:, 0]
    products.setflags(write=False)
    return products


def born_probabilities(state: np.ndarray, settings: Sequence[int],
                       angles: Sequence[float]) -> np.ndarray:
    """Born outcome distribution of a state under one setting choice.

    Outcome index bit j (most significant first) is 0 for outcome +1 of
    party j and 1 for outcome -1.  This is the one-row call of the batched
    kernel ``estimate_violation`` samples from, so both give the same bits;
    see ``_born_table`` for the two routes.  One setting per angle.
    """
    shape = np.shape(angles)
    if len(shape) != 1:
        raise ValueError(f"angles must be one tuple, got shape {shape}")
    n = shape[0]
    settings = np.reshape(settings, (1, -1))
    if settings.shape[1] != n:
        raise ValueError(f"expected {n} settings, got {settings.shape[1]}")
    return _born_table(validate_state(state, n), settings, angles)[0]


def _born_table(state: np.ndarray, settings: np.ndarray,
                angles: Sequence[float]) -> np.ndarray:
    """Born distributions of a state under each row of a (k, n) settings array.

    A state that is exactly zero off its diagonal and antidiagonal (an X
    state, ``x_blocks``) takes the closed form.  Every correlator of
    equatorial observables over a nonempty proper subset of the parties
    vanishes on it, so

        p(o | x) = 2^-n (Tr rho + prod_j o_j E(x)),
        E(x) = sum_{b < 2^(n-1)} 2 Re(rho[b~, b] prod_j A_j^{x_j}[b_j, b~_j]),

    with the products read off one ``sign_products`` table of the factors
    A^r[0, 1] = cos(alpha) - i (-1)^r sin(alpha) and their conjugates, one
    column per setting string.  Any other state is contracted site by site,
    every row at once (``_contracted_distribution``).  The table is laid out as
    (settings, pairs) and every reduction runs along a contiguous last axis,
    so each row's bits do not depend on the other rows.  The settings rows
    give n, and the angles must be one tuple of n.
    """
    n = settings.shape[1]
    alphas = check_angles(angles, n)
    if alphas.ndim != 1:
        raise ValueError(f"angles must be one tuple, got shape {alphas.shape}")
    if not np.all((settings == 0) | (settings == 1)):
        raise ValueError(f"settings must be 0 or 1, got {settings.tolist()}")
    settings = settings.astype(int)
    blocks, off_lines = x_blocks(state)
    if off_lines != 0.0:
        dist = _contracted_distribution(state, settings, alphas)
    else:
        factors = (np.cos(alphas)
                   - 1j * (1 - 2 * settings) * np.sin(alphas)).T
        products = sign_products(factors, factors.conj())
        pairs = np.ascontiguousarray(products[:2 ** (n - 1)].T)
        correlators = 2.0 * (blocks[..., 1, 0] * pairs).real.sum(axis=-1)
        dist = (np.trace(state).real
                + correlators[:, None] * outcome_products(n)) * 2.0 ** -n
    least = np.min(dist, axis=-1)
    if not np.all(least >= _PROB_FLOOR):
        raise ValueError(f"negative Born probability {np.min(least)}")
    dist = np.clip(dist, 0.0, None)
    total = dist.sum(axis=-1, keepdims=True)
    if not np.all(np.abs(total - 1.0) <= _PROB_SUM_TOL):
        raise ValueError(f"Born probabilities sum to {total.ravel().tolist()}")
    return dist / total


def _contracted_distribution(state: np.ndarray, settings: np.ndarray,
                             angles: np.ndarray) -> np.ndarray:
    """Unnormalised Born distribution of each settings row, by contraction.

    ``linalg.contract_sites`` contracts each party's k projector pairs
    ((I + A)/2, (I - A)/2), transposed, into that party's row and column
    indices of the state, leaving one outcome index per party: O(k n 4^n)
    work and no 2^n x 2^n operator per outcome.  It assumes no structure of
    the state.
    """
    k, n = settings.shape
    a = _observable_pairs(angles)[np.arange(n), settings]
    pairs = np.stack([(np.eye(2) + a) / 2, (np.eye(2) - a) / 2], axis=-1)
    # Transposed, each pair maps a site's (row, column) to its outcome.
    operators = pairs.swapaxes(2, 3).reshape(k, n, 4, 2)
    return contract_sites(state, operators).real


def sample_outcomes(dist: np.ndarray, shots: int,
                    seed_or_rng: Union[int, np.random.Generator]) -> np.ndarray:
    """Multinomial outcome counts for ``shots`` draws from ``dist``.

    ``shots`` must be an integer in [1, ``MAX_SHOTS``] and an int seed one
    from 0; ValueError otherwise.
    """
    shots = check_integer(shots, "shot count", 1, MAX_SHOTS)
    if isinstance(seed_or_rng, np.random.Generator):
        rng = seed_or_rng
    else:
        rng = np.random.Generator(np.random.PCG64(
            check_integer(seed_or_rng, "seed")))
    return rng.multinomial(shots, dist)


def _xorshift(words: np.ndarray) -> np.ndarray:
    return words ^ (words >> 16)


def _spawned_pcg64_states(root: np.random.SeedSequence,
                          keys: np.ndarray) -> List[Tuple[int, int]]:
    """PCG64 ``(state, inc)`` of the child of ``root`` at each spawn key.

    For ``root = SeedSequence(seed)`` and each key i, this is the state of
    ``PCG64(SeedSequence(seed, spawn_key=(i,)))``, computed for every key in
    one pass.  numpy pads a child's short run entropy to the pool size with
    hashed zeros, as it does the root's, so the child's pool is the root's
    pool with the spawn word mixed into each of its four words; by then an
    L-word seed has advanced the hash constant 16 + 4 max(0, L - 4) times.
    ``generate_state(4, uint64)`` and PCG64's srandom step follow.  The
    uint32 arrays wrap silently; the 128-bit step runs on Python ints.
    """
    words = max(1, -(-root.entropy.bit_length() // 32))
    start = (_HASH_INIT_A * pow(_HASH_MULT_A, 16 + 4 * max(0, words - 4),
                                2 ** 32) % 2 ** 32)
    before, after = np.uint32(start) * _SPAWN_STEPS
    spawn = _xorshift((np.asarray(keys, dtype=np.uint32)[:, None] ^ before)
                      * after)
    pools = _xorshift(root.pool * _MIX_MULT_L - _MIX_MULT_R * spawn)
    before, after = _STATE_HASHES
    seeds = _xorshift((pools[:, None] ^ before) * after)
    states = []
    for s_high, s_low, q_high, q_low in (
            seeds.astype("<u4", copy=False).view("<u8").reshape(-1, 4)
            .tolist()):
        inc = (q_high << 65 | q_low << 1 | 1) & _MASK128
        states.append(((((s_high << 64 | s_low) + inc) * _PCG64_MULT + inc)
                       & _MASK128, inc))
    return states


def estimate_violation(protocol: BellProtocol, state: np.ndarray,
                       angles: Sequence[float], shots_per_setting: int,
                       seed: int) -> Tuple[float, float]:
    """Estimate the Bell value from simulated counts.

    Every setting string whose functional coefficient is nonzero is sampled
    with ``shots_per_setting`` shots from its own PCG64 stream, the one
    seeded by the child ``SeedSequence(seed).spawn(2 ** n)`` would give the
    setting's lexicographic index.  ``_spawned_pcg64_states`` derives the
    sampled children's PCG64 states in one pass, and one generator restarts
    at each; a setting's stream does not depend on which others are
    skipped.  The seed is checked like the shot count.  Returns the
    estimate and its propagated standard error.
    """
    n = protocol.n
    state = validate_state(state, n)
    # The count divides every correlator, so a fractional one is refused
    # here, not only where the shots are drawn.
    shots_per_setting = check_integer(shots_per_setting, "shot count", 1,
                                      MAX_SHOTS)
    seed = check_integer(seed, "seed")
    coefficients = _coefficient_tensor(protocol).ravel()
    products = outcome_products(n)
    sampled = np.flatnonzero(coefficients)
    # The setting bits of each sampled index, most significant (party 0) first.
    settings = (sampled[:, None] >> np.arange(n - 1, -1, -1)) & 1
    table = _born_table(state, settings, angles)
    root = np.random.SeedSequence(seed)
    bits = np.random.PCG64(root)
    rng = np.random.Generator(bits)
    beta_hat = variance = 0.0
    for (start, inc), c, dist in zip(_spawned_pcg64_states(root, sampled),
                                     coefficients[sampled].tolist(), table):
        bits.state = {"bit_generator": RNG_ALGORITHM,
                      "state": {"state": start, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        counts = sample_outcomes(dist, shots_per_setting, rng)
        # One dot product per row: a (k, 2^n) matrix product sums counts
        # above 2^53 in another order and can change the last bits.
        correlator = float(counts @ products) / shots_per_setting
        beta_hat += c * correlator
        variance += c ** 2 * (1.0 - correlator ** 2) / shots_per_setting
    return beta_hat, math.sqrt(max(variance, 0.0))


@dataclass
class ExperimentRecord:
    """One simulated certification run, ready for JSONL persistence."""

    family: str
    n: int
    noise_kind: str
    visibility: float
    shots_per_setting: int
    seed: int
    estimated_beta: float
    std_error: float
    fidelity_bound: float
    clamped: bool
    trivial: bool
    rng: str
    timestamp: str
    persisted: bool = field(default=False)

    def to_json_line(self) -> str:
        """Every field but ``persisted``, in declaration order."""
        payload = dict(vars(self))
        del payload["persisted"]
        return json.dumps(payload)


def certify(constants: CertificateConstants, noise: NoiseModel,
            shots_per_setting: int, seed: int,
            log_path: Optional[str] = None) -> ExperimentRecord:
    """Simulate one run and convert the estimate into a certified bound.

    The scenario simulated is ``constants.protocol``, the one whose
    certificate converts the estimate.  Every party measures at the
    optimal angle pi/4.  The raw estimate is stored unmodified; for the
    bound it is clamped into [beta_L, beta_Q] so statistical overshoot
    never certifies a fidelity above 1, and undershoot is flagged as
    trivial instead of extrapolated.  The record holds the seed as an int.
    """
    protocol = constants.protocol
    shots_per_setting = check_integer(shots_per_setting, "shot count", 1,
                                      MAX_SHOTS)
    seed = check_integer(seed, "seed")
    state = noisy_state(protocol, noise)
    beta_hat, std_error = estimate_violation(
        protocol, state, (math.pi / 4,) * protocol.n, shots_per_setting, seed)
    clipped = min(max(beta_hat, protocol.beta_L), protocol.beta_Q)
    bound = fidelity_lower_bound(constants, clipped)
    record = ExperimentRecord(
        family=protocol.family,
        n=protocol.n,
        noise_kind=noise.kind,
        visibility=float(noise.visibility),
        shots_per_setting=shots_per_setting,
        seed=seed,
        estimated_beta=beta_hat,
        std_error=std_error,
        fidelity_bound=bound,
        clamped=clipped != beta_hat,
        trivial=is_trivial_bound(bound),
        rng=RNG_ALGORITHM,
        timestamp=datetime.now(timezone.utc).isoformat(),
    )
    if log_path is not None:
        try:
            with open(log_path, "a", encoding="utf-8") as handle:
                handle.write(record.to_json_line() + "\n")
            record.persisted = True
        except OSError:
            record.persisted = False
    return record


def records_to_csv(records: List[ExperimentRecord]) -> str:
    """Serialize runs as CSV with a fixed five-column header."""
    lines = ["v,shots,beta_hat,std_error,fidelity_bound"]
    for r in records:
        lines.append(",".join([
            format_float(r.visibility),
            str(r.shots_per_setting),
            format_float(r.estimated_beta),
            format_float(r.std_error),
            format_float(r.fidelity_bound),
        ]))
    return "\n".join(lines) + "\n"
