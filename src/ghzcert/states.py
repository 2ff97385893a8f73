"""GHZ target states and the angle-dependent dephasing extraction channel.

``ghz_blocks`` is the one definition of the target state: the GHZ pair on
(0, 2^n - 1) with the relative phase ``bell.ghz_phase``, the same phase the
certificate scan reads, as 2^(n-1) pair blocks; ``ghz_state`` is its dense
matrix.  So the scan, ``build_T``, the noisy states and the Born table
share one target.  Each is the single cache of its form, and the returned
arrays are read-only so no caller can alter what the others read.  The
tests check it against printed Pauli expansions and against the maximal
eigenvector of the dense operator (``tests/oracles.py``).

The extraction channel is Kaniewski's dephasing map: at each site it
applies the Kraus pair built from the attenuation parameter
g(alpha) = (1 + sqrt(2))(sin(alpha) + cos(alpha) - 1) (``g_values``),
flipping the dephasing axis from X to Y at alpha = pi/4 (``y_axis``, which
the certificate scan reads too).  The channel is unital, self-adjoint,
trace preserving, and maps persymmetric matrices to persymmetric matrices.
``apply_channel`` is a dense reference route: it builds each site's real
superoperator (1 + g)/2 I (x) I + (1 - g)/2 Gamma (x) conj(Gamma) directly
and contracts it into that site's row and column indices through
``linalg.contract_sites``, on the real and imaginary planes of the input in
real arithmetic, for one angle tuple or a batch of them at once.  It
assumes no structure of its input.
"""
from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .bell import (ANGLE_SLACK, SQRT2, BellProtocol, check_angles,
                   check_dense_parties, check_matrix, ghz_phase)
from .linalg import contract_sites


def g_values(alpha: np.ndarray) -> np.ndarray:
    """Attenuation parameter g, clamped into [0, 1], of each angle given.

    The angles are not checked; callers check their domain first.
    """
    value = (1 + SQRT2) * (np.sin(alpha) + np.cos(alpha) - 1.0)
    return np.minimum(np.maximum(value, 0.0), 1.0)


def y_axis(alpha: np.ndarray) -> np.ndarray:
    """Whether each angle dephases along Y: past pi/4 + ANGLE_SLACK, or NaN."""
    return ~(alpha <= math.pi / 4 + ANGLE_SLACK)


def apply_channel(mat: np.ndarray,
                  angles: Sequence[float] | np.ndarray) -> np.ndarray:
    """Apply the product channel, one angle per site, to a 2^n x 2^n matrix.

    ``angles`` is one tuple of n angles in [0, pi/2], shape (n,), giving one
    2^n x 2^n matrix, or a batch of k tuples, shape (k, n), giving the k
    images of ``mat``, shape (k, 2^n, 2^n); ``check_angles`` and
    ``check_matrix`` refuse any other shape or angle, and n above 6.
    Each site's superoperator (1 + g)/2 I (x) I + (1 - g)/2 Gamma (x)
    conj(Gamma) is real, laid out (row column in, row column out):
    (1 + g)/2 on the identity, (1 - g)/2 at 00 <-> 11 and at 01 <-> 10,
    negated there where ``y_axis`` says Y.  ``linalg.contract_sites``
    contracts the k superoperators of each site into that site's row and
    column indices of the matrix, in real arithmetic on its two planes:
    O(k n 4^n) work and no 2^n x 2^n Kraus operator.
    """
    a = np.asarray(angles)
    n = a.shape[-1] if a.ndim else 0
    a = check_angles(a, n)
    mat = check_matrix(mat, n, "matrix")
    batch = a.reshape(-1, n)
    g = g_values(batch)
    keep, swap = (1.0 + g) / 2.0, (1.0 - g) / 2.0
    # Indexed (sample, site, row in column in, row out column out).
    superoperators = np.zeros(batch.shape + (4, 4))
    superoperators[..., range(4), range(4)] = keep[..., None]
    superoperators[..., [0, 3], [3, 0]] = swap[..., None]
    superoperators[..., [1, 2], [2, 1]] = np.where(
        y_axis(batch), -swap, swap)[..., None]
    out = contract_sites(mat, superoperators)
    return out if a.ndim == 2 else out[0]


@functools.lru_cache(maxsize=None)
def ghz_blocks(protocol: BellProtocol) -> np.ndarray:
    """The target's 2^(n-1) pair blocks, laid out as ``linalg.x_blocks``
    reads them from ``ghz_state``: block 0, on the corner pair, is
    [[1/2, conj(psi)/2], [psi/2, 1/2]] and every other block is 0.  Cached
    per protocol and read-only.  ValueError for n above 6.
    """
    check_dense_parties(protocol)
    psi = ghz_phase(protocol)
    blocks = np.zeros((protocol.dim // 2, 2, 2), dtype=complex)
    blocks[0] = [[0.5, np.conj(psi) / 2], [psi / 2, 0.5]]
    blocks.setflags(write=False)
    return blocks


@functools.lru_cache(maxsize=None)
def ghz_state(protocol: BellProtocol) -> np.ndarray:
    """Target density matrix |v><v|, v = (|0...0> + psi |1...1>) / sqrt(2).

    psi is ``ghz_phase``, the phase the certificate scan reads; only the
    corner pair (0, 2^n - 1), ``ghz_blocks``'s block 0, is nonzero.  Cached
    per protocol; the returned matrix is read-only.  ValueError for n above
    6.
    """
    corner = ghz_blocks(protocol)[0]
    rho = np.zeros((protocol.dim, protocol.dim), dtype=complex)
    rho[np.ix_((0, -1), (0, -1))] = corner
    rho.setflags(write=False)
    return rho
