"""GHZ target states and the angle-dependent dephasing extraction channel.

Two independent routes produce the ideal target state:

* ``explicit_ghz_state`` sums a hard-coded Pauli expansion (available for the
  three- and four-party Svetlichny scenarios).
* ``spectral_ghz_state`` builds the maximal eigenvector of the Bell operator
  at the optimal angles from its closed-form antidiagonal entries
  (``bell.corner_entries``), using the fact that an antidiagonal operator
  has eigenvectors supported on index pairs (b, b~).  It never builds the
  dense operator, so the served state does not depend on the dense
  reference route.

``ghz_state`` runs both routes where both exist and insists they agree.  It
is the single cache of the target state: each scenario is built and
cross-checked once per process, and the returned matrix is read-only so no
caller can alter what the others read.

The extraction channel applies, at each site, the Kraus pair built from the
attenuation parameter g(alpha) = (1 + sqrt(2))(sin(alpha) + cos(alpha) - 1),
flipping the dephasing axis from X to Y at alpha = pi/4.  The channel is
unital, self-adjoint, trace preserving, and maps persymmetric matrices to
persymmetric matrices.  ``apply_channel`` is a dense reference route: it
contracts each site's Kraus superoperator into that site's row and column
indices and assumes no structure of its input.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .bell import (ANGLE_SLACK, SQRT2, SVETLICHNY, BellProtocol, check_angle,
                   corner_entries)
from .linalg import interleaved_to_matrix, is_persymmetric, kron_all, pauli

_DEGENERACY_GAP = 1e-6
_ROUTE_AGREEMENT = 1e-12
_MAX_PARTIES = 6

# Pauli expansions of the target states, as (coefficient, labels) pairs.
_EXPLICIT_TABLES = {
    (SVETLICHNY, 3): [(1 / 8, t) for t in ("III", "ZZI", "IZZ", "ZIZ")]
    + [(-1 / 8, "XXX")]
    + [(1 / 8, t) for t in ("XYY", "YXY", "YYX")],
    (SVETLICHNY, 4): [(1 / 16, t) for t in ("IIII", "ZZII", "ZIZI", "ZIIZ",
                                            "IZZI", "IZIZ", "IIZZ", "ZZZZ")]
    + [({0: -1, 1: 1, 2: 1, 3: -1, 4: -1}[w] / (16 * SQRT2),
        "".join("Y" if (bits >> (3 - j)) & 1 else "X" for j in range(4)))
       for bits in range(16)
       for w in [bin(bits).count("1")]],
}


def g_values(alpha: np.ndarray) -> np.ndarray:
    """Attenuation parameter g, clamped into [0, 1], of each angle given.

    The angles are not checked; callers check their domain first.
    """
    value = (1 + SQRT2) * (np.sin(alpha) + np.cos(alpha) - 1.0)
    return np.minimum(np.maximum(value, 0.0), 1.0)


def g_param(alpha: float) -> float:
    """Attenuation parameter g(alpha) of one angle in [0, pi/2]."""
    return float(g_values(check_angle(alpha)))


def kraus_pair(alpha: float) -> Tuple[np.ndarray, np.ndarray]:
    """Single-site Kraus pair (K0, K1) of the dephasing channel at alpha."""
    g = g_param(alpha)
    k0 = math.sqrt((1.0 + g) / 2.0) * pauli("I")
    gamma = pauli("X") if alpha <= math.pi / 4 + ANGLE_SLACK else pauli("Y")
    k1 = math.sqrt(max((1.0 - g) / 2.0, 0.0)) * gamma
    return k0, k1


@dataclass(frozen=True)
class DephasingChannel:
    """Product dephasing channel with one angle per site."""

    angles: Tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.angles:
            raise ValueError("channel needs at least one site")
        object.__setattr__(self, "angles",
                           tuple(check_angle(a) for a in self.angles))

    @property
    def n(self) -> int:
        return len(self.angles)

    def kraus_pairs(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        return [kraus_pair(a) for a in self.angles]


def apply_channel(mat: np.ndarray, channel: DephasingChannel) -> np.ndarray:
    """Apply the product channel to any matrix of matching dimension.

    The matrix is reshaped to one row and one column index per site, and
    each site's superoperator sum_k K_k (.) K_k^dagger is contracted into its
    two indices in turn: O(n 4^n) work and no 2^n x 2^n Kraus operator.
    """
    mat = np.asarray(mat, dtype=complex)
    n = channel.n
    dim = 2 ** n
    if mat.shape != (dim, dim):
        raise ValueError(f"expected a {dim} x {dim} matrix, got {mat.shape}")
    tensor = mat.reshape((2,) * (2 * n))
    for j, pair in enumerate(channel.kraus_pairs()):
        kraus = np.stack(pair)
        # Indexed (row in, column in, row out, column out).
        superoperator = np.einsum("kab,kcd->bdac", kraus, kraus.conj())
        # Site j's row and column indices lead the row and column halves of
        # what is left; its output pair is appended at the end.
        tensor = np.tensordot(tensor, superoperator, axes=([0, n - j], [0, 1]))
    return interleaved_to_matrix(tensor)


def persymmetry_preserved(rho: np.ndarray, channel: DephasingChannel) -> bool:
    """Check that both the input and its channel image are persymmetric."""
    return is_persymmetric(rho) and is_persymmetric(apply_channel(rho, channel))


def explicit_ghz_state(protocol: BellProtocol) -> np.ndarray:
    """Target state from its hard-coded Pauli expansion."""
    key = (protocol.family, protocol.n)
    if key not in _EXPLICIT_TABLES:
        raise ValueError(f"no explicit expansion for {protocol.family} n={protocol.n}")
    dim = protocol.dim
    rho = np.zeros((dim, dim), dtype=complex)
    for coefficient, labels in _EXPLICIT_TABLES[key]:
        rho += coefficient * kron_all([pauli(c) for c in labels])
    return rho


def _quarter_corners(protocol: BellProtocol) -> np.ndarray:
    """Antidiagonal entries W[b, b~] of every pair b < 2^(n-1) at all-pi/4."""
    angles = np.full((protocol.n, 1), math.pi / 4)
    return corner_entries(protocol, np.cos(angles), np.sin(angles))[:, 0]


def spectral_ghz_state(protocol: BellProtocol) -> np.ndarray:
    """Target state from the corner-pair eigenstructure of the operator.

    At the optimal angles the operator is antidiagonal, so each eigenvector
    lives on one index pair (b, 2^n - 1 - b); the corners are read from the
    closed form ``corner_entries``.  The maximal pair must be unique; a
    near-degenerate second pair raises ArithmeticError.
    """
    if protocol.n > _MAX_PARTIES:
        raise ValueError(f"spectral construction supports n <= {_MAX_PARTIES}")
    dim = protocol.dim
    corners = _quarter_corners(protocol)
    magnitudes = np.abs(corners)
    order = np.argsort(magnitudes)
    b_star = int(order[-1])
    if dim // 2 > 1 and magnitudes[order[-1]] - magnitudes[order[-2]] <= _DEGENERACY_GAP:
        raise ArithmeticError("maximal antidiagonal pair is degenerate")
    corner = corners[b_star]
    phase = np.conj(corner) / abs(corner)
    v = np.zeros(dim, dtype=complex)
    v[b_star] = 1.0 / SQRT2
    v[dim - 1 - b_star] = phase / SQRT2
    return np.outer(v, v.conj())


@functools.lru_cache(maxsize=None)
def ghz_state(protocol: BellProtocol) -> np.ndarray:
    """Target density matrix; cross-validates both routes where both exist.

    Cached per protocol; the returned matrix is read-only.
    """
    key = (protocol.family, protocol.n)
    if key in _EXPLICIT_TABLES:
        rho = explicit_ghz_state(protocol)
        if np.max(np.abs(rho - spectral_ghz_state(protocol))) > _ROUTE_AGREEMENT:
            raise ArithmeticError("explicit and spectral target states disagree")
    else:
        rho = spectral_ghz_state(protocol)
    rho.setflags(write=False)
    return rho

