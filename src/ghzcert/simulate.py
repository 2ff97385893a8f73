"""Finite-statistics simulation of Bell experiments and certified records.

Simulated runs draw multinomial outcome counts from the Born distribution of
a noisy target state, one independent PCG64 stream per measurement setting,
estimate the Bell value with its standard error, and convert the estimate
into a certified fidelity bound.  Each run can be appended to a JSONL log.

A run reads one Born table from ``_born_table``, one row per sampled
setting.  The target state and its ``visibility`` mixtures are diagonal
plus antidiagonal, and on such a state every distribution has a closed form
in the 2^(n-1) antidiagonal corners.  Any other state, such as a
``separable_mixture`` with an arbitrary background, is contracted site by
site.  ``born_probabilities`` is the one-row call of the same kernel.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .bell import (BellProtocol, check_angles, functional_coefficients,
                   observable, validate_state)
from .linalg import sign_products, x_blocks
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
    rho = ghz_state(protocol)
    v = noise.visibility
    if noise.kind == "visibility":
        background = np.eye(protocol.dim, dtype=complex) / protocol.dim
    else:
        background = validate_state(np.asarray(noise.sigma, dtype=complex),
                                    protocol.n)
    return v * rho + (1.0 - v) * background


@functools.lru_cache(maxsize=None)
def outcome_products(n: int) -> np.ndarray:
    """Product of the n outcome signs for each outcome index.

    Cached per n; the returned array is read-only.
    """
    products = sign_products(np.ones((n, 1)), -np.ones((n, 1)))[:, 0]
    products.setflags(write=False)
    return products


def born_probabilities(state: np.ndarray, settings: Sequence[int],
                       angles: Sequence[float]) -> np.ndarray:
    """Born outcome distribution of a state under one setting choice.

    Outcome index bit j (most significant first) is 0 for outcome +1 of
    party j and 1 for outcome -1.  This is the one-row call of the batched
    kernel ``estimate_violation`` samples from, so both give the same bits;
    see ``_born_table`` for the two routes.
    """
    n = len(angles)
    if len(settings) != n:
        raise ValueError(f"expected {n} settings, got {len(settings)}")
    return _born_table(validate_state(state, n), np.array([settings]),
                       angles)[0]


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
    column per setting string.  Any other state is contracted setting by
    setting (``_contracted_distribution``).  The table is laid out as
    (settings, pairs) and every reduction runs along a contiguous last axis,
    so each row's bits do not depend on the other rows.
    """
    n = len(angles)
    if settings.shape[1] != n:
        raise ValueError(f"expected {n} settings, got {settings.shape[1]}")
    if not np.all((settings == 0) | (settings == 1)):
        raise ValueError(f"settings must be 0 or 1, got {settings.tolist()}")
    alphas = check_angles(angles, n)
    blocks = x_blocks(state)
    if blocks is None:
        dist = np.stack([_contracted_distribution(state, row, alphas)
                         for row in settings])
    else:
        factors = (np.cos(alphas)
                   - 1j * (1 - 2 * settings) * np.sin(alphas)).T
        products = sign_products(factors, factors.conj())
        pairs = np.ascontiguousarray(products[:2 ** (n - 1)].T)
        correlators = 2.0 * (blocks[2] * pairs).real.sum(axis=-1)
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
    """Unnormalised Born distribution by site-by-site contraction.

    The state is reshaped to one row and one column index per party, and
    each party's stacked projector pair ((I + A)/2, (I - A)/2), transposed,
    is contracted into its two indices in turn, leaving one outcome index per
    party: O(n 4^n) work and no 2^n x 2^n operator per outcome.  It assumes
    no structure of the state.
    """
    n = len(angles)
    tensor = state.reshape((2,) * (2 * n))
    for j, (r, alpha) in enumerate(zip(settings, angles)):
        a = observable(int(r), alpha)
        pair = np.stack([(np.eye(2) + a).T / 2, (np.eye(2) - a).T / 2])
        # Party j's row and column indices lead the row and column halves
        # of what is left; its outcome index is appended at the end.
        tensor = np.tensordot(tensor, pair, axes=([0, n - j], [1, 2]))
    return tensor.real.reshape(2 ** n)


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
    settings = sorted(coefficients)
    sampled = [index for index, x in enumerate(settings)
               if coefficients[x] != 0.0]
    table = _born_table(state, np.array(settings)[sampled], angles)
    beta_hat = 0.0
    variance = 0.0
    for index, dist in zip(sampled, table):
        c = coefficients[settings[index]]
        rng = np.random.Generator(np.random.PCG64(children[index]))
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


def certify(constants: CertificateConstants, noise: NoiseModel,
            shots_per_setting: int, seed: int,
            log_path: Optional[str] = None) -> ExperimentRecord:
    """Simulate one run and convert the estimate into a certified bound.

    The scenario simulated is ``constants.protocol``, the one whose
    certificate converts the estimate.  Every party measures at the
    optimal angle pi/4.  The raw estimate is stored unmodified; for the
    bound it is clamped into [beta_L, beta_Q] so statistical overshoot
    never certifies a fidelity above 1, and undershoot is flagged as
    trivial instead of extrapolated.
    """
    protocol = constants.protocol
    state = noisy_state(protocol, noise)
    beta_hat, std_error = estimate_violation(
        protocol, state, (math.pi / 4,) * protocol.n, shots_per_setting, seed)
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
