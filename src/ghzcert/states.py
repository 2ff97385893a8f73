"""GHZ target states and the angle-dependent dephasing extraction channel.

``ghz_state`` is the one definition of the target state: the GHZ pair on
(0, 2^n - 1) with the relative phase ``bell.ghz_phase``, the same phase the
certificate scan reads, so the scan, ``build_T``, the noisy states and the
Born table share one target.  It is the single cache of that state, and
the returned matrix is read-only so no caller can alter what the others
read.  The tests check it against printed Pauli expansions and against the
maximal eigenvector of the dense operator (``tests/oracles.py``).

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

from .bell import ANGLE_SLACK, SQRT2, BellProtocol, check_angle, ghz_phase
from .linalg import interleaved_to_matrix, is_persymmetric, pauli


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


@functools.lru_cache(maxsize=None)
def ghz_state(protocol: BellProtocol) -> np.ndarray:
    """Target density matrix |v><v|, v = (|0...0> + psi |1...1>) / sqrt(2).

    psi is ``ghz_phase``, the phase the certificate scan reads; only the
    corner pair (0, 2^n - 1) is nonzero.  Cached per protocol; the returned
    matrix is read-only.
    """
    last = protocol.dim - 1
    psi = ghz_phase(protocol)
    rho = np.zeros((protocol.dim, protocol.dim), dtype=complex)
    rho[0, 0] = rho[last, last] = 0.5
    rho[last, 0] = psi / 2
    rho[0, last] = np.conj(psi) / 2
    rho.setflags(write=False)
    return rho
