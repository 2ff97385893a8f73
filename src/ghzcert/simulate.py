"""Finite-statistics simulation of Bell experiments and certified records.

Simulated runs draw multinomial outcome counts from the Born distribution of
a noisy target state, one independent PCG64 stream per measurement setting,
estimate the Bell value with its standard error, and convert the estimate
into a certified fidelity bound.  Each run can be appended to a JSONL log.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .bell import (BellProtocol, functional_coefficients, observable,
                   validate_state)
from .linalg import sign_products
from .states import ghz_state
from .tradeoff import fidelity_lower_bound, format_float, is_trivial_bound
from .verifier import CertificateConstants

RNG_ALGORITHM = "PCG64"

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
        if not (0.0 <= self.visibility <= 1.0):
            raise ValueError(f"visibility {self.visibility} outside [0, 1]")
        if self.kind == "separable_mixture" and self.sigma is None:
            raise ValueError("separable_mixture requires a sigma state")


def noisy_state(protocol: BellProtocol, noise: NoiseModel) -> np.ndarray:
    """Mix the target state with white noise or a supplied separable state."""
    rho = ghz_state(protocol).rho
    v = noise.visibility
    if noise.kind == "visibility":
        background = np.eye(protocol.dim, dtype=complex) / protocol.dim
    else:
        background = validate_state(np.asarray(noise.sigma, dtype=complex),
                                    protocol.n)
    return v * rho + (1.0 - v) * background


def outcome_products(n: int) -> np.ndarray:
    """Product of the n outcome signs for each outcome index."""
    return sign_products(np.ones((n, 1)), -np.ones((n, 1)))[:, 0]


def born_probabilities(state: np.ndarray, settings: Sequence[int],
                       angles: Sequence[float],
                       validate: bool = True) -> np.ndarray:
    """Born outcome distribution of a state under one setting choice.

    Outcome index bit j (most significant first) is 0 for outcome +1 of
    party j and 1 for outcome -1.  The state is reshaped to one row and one
    column index per party, and each party's stacked projector pair
    ((I + A)/2, (I - A)/2), transposed, is contracted into its two indices
    in turn, leaving one outcome index per party: O(n 4^n) work and no
    2^n x 2^n operator per outcome.
    """
    n = len(angles)
    if len(settings) != n:
        raise ValueError(f"expected {n} settings, got {len(settings)}")
    if validate:
        state = validate_state(state, n)
    else:
        state = np.asarray(state, dtype=complex)
        if state.shape != (2 ** n, 2 ** n):
            raise ValueError(
                f"expected a {2 ** n} x {2 ** n} state, got {state.shape}")
    tensor = state.reshape((2,) * (2 * n))
    for j, (r, alpha) in enumerate(zip(settings, angles)):
        a = observable(r, alpha)
        pair = np.stack([(np.eye(2) + a).T / 2, (np.eye(2) - a).T / 2])
        # Party j's row and column indices lead the row and column halves
        # of what is left; its outcome index is appended at the end.
        tensor = np.tensordot(tensor, pair, axes=([0, n - j], [1, 2]))
    dist = tensor.real.reshape(2 ** n)
    if np.min(dist) < _PROB_FLOOR:
        raise ValueError(f"negative Born probability {np.min(dist)}")
    dist = np.clip(dist, 0.0, None)
    total = dist.sum()
    if abs(total - 1.0) > _PROB_SUM_TOL:
        raise ValueError(f"Born probabilities sum to {total}")
    return dist / total


def sample_outcomes(dist: np.ndarray, shots: int,
                    seed_or_rng: Union[int, np.random.Generator]) -> np.ndarray:
    """Multinomial outcome counts for ``shots`` draws from ``dist``."""
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"shot count must be in [1, {MAX_SHOTS}], got {shots}")
    if isinstance(seed_or_rng, np.random.Generator):
        rng = seed_or_rng
    else:
        rng = np.random.Generator(np.random.PCG64(seed_or_rng))
    return rng.multinomial(shots, dist)


def estimate_violation(protocol: BellProtocol, state: np.ndarray,
                       angles: Sequence[float], shots_per_setting: int,
                       seed: int) -> Tuple[float, float]:
    """Estimate the Bell value from simulated counts.

    Every setting string whose functional coefficient is nonzero is sampled
    with ``shots_per_setting`` shots from its own PCG64 stream.  Streams are
    spawned from ``seed`` for all 2^n settings in lexicographic order, so a
    setting's stream does not depend on which others are skipped.  Returns
    the estimate and its propagated standard error.
    """
    state = validate_state(state, protocol.n)
    coefficients = functional_coefficients(protocol)
    children = np.random.SeedSequence(seed).spawn(2 ** protocol.n)
    products = outcome_products(protocol.n)
    beta_hat = 0.0
    variance = 0.0
    for index, settings in enumerate(sorted(coefficients)):
        c = coefficients[settings]
        if c == 0.0:
            continue
        rng = np.random.Generator(np.random.PCG64(children[index]))
        dist = born_probabilities(state, settings, angles, validate=False)
        counts = sample_outcomes(dist, shots_per_setting, rng)
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


def certify(protocol: BellProtocol, constants: CertificateConstants,
            noise: NoiseModel, shots_per_setting: int, seed: int,
            angles: Optional[Sequence[float]] = None,
            log_path: Optional[str] = None) -> ExperimentRecord:
    """Simulate one run and convert the estimate into a certified bound.

    The raw estimate is stored unmodified; for the bound it is clamped into
    [beta_L, beta_Q] so statistical overshoot never certifies a fidelity
    above 1, and undershoot is flagged as trivial instead of extrapolated.
    """
    if angles is None:
        angles = (math.pi / 4,) * protocol.n
    state = noisy_state(protocol, noise)
    beta_hat, std_error = estimate_violation(protocol, state, angles,
                                             shots_per_setting, seed)
    clipped = min(max(beta_hat, protocol.beta_L), protocol.beta_Q)
    bound = fidelity_lower_bound(constants, clipped)
    record = ExperimentRecord(
        family=protocol.family,
        n=protocol.n,
        noise_kind=noise.kind,
        visibility=noise.visibility,
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
