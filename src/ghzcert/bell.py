"""Construction of multipartite Bell operators and their bounds.

This module builds the n-party Svetlichny and MABK Bell operators from
single-qubit equatorial observables, exposes their classical and quantum
bounds, and validates the density matrices Bell values are read from.

Two classical bounds are enumerated.  ``local_bound`` maximises over fully
local deterministic strategies; ``hybrid_bound`` over Svetlichny's hybrid
model, where the parties split into two groups that each answer with a
joint function of their inputs.  The catalog ``beta_L`` is the hybrid bound
2^(n-1) for Svetlichny and the fully local bound for MABK.  The fully local
Svetlichny bound is 2^floor((n+1)/2) (4, 4, 8, 8 for n = 3..6), so the two
Svetlichny bounds part from n = 4 on.

Conventions
-----------
Each party j measures A^r(alpha_j) = cos(alpha_j) X + (-1)^r sin(alpha_j) Y
for setting r in {0, 1}, with alpha_j restricted to [0, pi/2].  An operator
is a signed sum over all 2^n setting strings x:

    W = sum_x c(|x|) A^{x_1} otimes ... otimes A^{x_n}

where the coefficient depends only on the Hamming weight |x| and the family.
Every such W is exactly antidiagonal in the computational basis, Hermitian,
and persymmetric; its spectral norm equals the largest antidiagonal entry
magnitude.  ``corner_entries`` is the one closed form for those antidiagonal
entries, batched over angle tuples and read off one ``sign_products`` table;
the quantum bound and the certificate scan read it chunk by chunk of
``linalg.walk_canonical`` through one helper, ``chunk_corner_entries``.
Its pair (0, 2^n - 1) is the largest, and ``ghz_phase``, the phase of that
pair's eigenvector, defines the target state the scan and
``states.ghz_state`` share.
``build_operator`` is the dense reference route the tests compare against:
it contracts the coefficient tensor c(x) with each party's stacked pair
(A^0, A^1) in turn, for one angle tuple or a batch of them at once, and
assumes no structure of W.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from .linalg import (HERMITICITY_TOL, chunk_sign_products,
                     conjugate_pair_sum, contract_site, interleaved_to_matrix,
                     least_block_eigenvalue, sign_products, walk_canonical,
                     x_blocks)
from .root2 import Root2

SVETLICHNY = "svetlichny"
MABK = "mabk"
FAMILIES = (SVETLICHNY, MABK)

ANGLE_SLACK = 1e-12
_MIN_PARTIES = 3
_MAX_PARTIES = 6
SQRT2 = math.sqrt(2.0)
# A density matrix's trace may differ from 1, and its least eigenvalue fall
# below 0, by at most these.
_TRACE_TOL = 1e-10
_STATE_PSD_TOL = 1e-8
# Outcome pairs (a(0), a(1)) of one party's deterministic strategies.
_OUTCOME_PAIRS = np.array(list(itertools.product((1.0, -1.0), repeat=2)))


@dataclass(frozen=True)
class BellProtocol:
    """A Bell scenario: operator family and number of parties."""

    family: str
    n: int

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.n < _MIN_PARTIES:
            raise ValueError(f"need at least {_MIN_PARTIES} parties, got {self.n}")

    @property
    def dim(self) -> int:
        return 2 ** self.n

    @property
    def beta_L_exact(self) -> Root2:
        """Catalog deterministic threshold constant, exact in Q[sqrt(2)].

        Svetlichny: 2^(n-1), the hybrid bound (``hybrid_bound``).  MABK: the
        fully local bound (``local_bound``).
        """
        if self.family == SVETLICHNY:
            return Root2(2 ** (self.n - 1))
        if self.n % 2 == 1:
            return Root2(2 ** ((self.n - 1) // 2))
        return Root2(0, 2 ** ((self.n - 2) // 2))

    @property
    def beta_Q_exact(self) -> Root2:
        """Maximal quantum value, exact in Q[sqrt(2)]."""
        if self.family == SVETLICHNY:
            return Root2(0, 2 ** (self.n - 1))
        return Root2(2 ** (self.n - 1))

    # Cached in the instance: the tradeoff curve reads both once per point.
    @functools.cached_property
    def beta_L(self) -> float:
        return float(self.beta_L_exact)

    @functools.cached_property
    def beta_Q(self) -> float:
        return float(self.beta_Q_exact)


def check_angle(alpha: float, upper: float = math.pi / 2) -> float:
    """``alpha`` as a float; ValueError outside [0, upper] (pi/2 or pi/4)."""
    if not (-ANGLE_SLACK <= alpha <= upper + ANGLE_SLACK):
        raise ValueError(
            f"angle {alpha} outside [0, pi/{round(math.pi / upper)}]")
    return float(alpha)


def check_angles(angles: Sequence[float] | np.ndarray, n: int,
                 upper: float = math.pi / 2) -> np.ndarray:
    """One angle tuple, shape (n,), or a batch of k, shape (k, n), as floats.

    ValueError for any other shape, for an empty tuple or batch, and for any
    angle, NaN and +-inf included, outside [0, upper] (pi/2 or pi/4).
    """
    a = np.asarray(angles, dtype=float)
    if a.ndim not in (1, 2) or a.shape[-1] != n:
        raise ValueError(f"expected {n} angles per tuple, got shape {a.shape}")
    if a.size == 0:
        raise ValueError(f"expected a nonempty angle tuple or batch, got "
                         f"shape {a.shape}")
    inside = (-ANGLE_SLACK <= a) & (a <= upper + ANGLE_SLACK)
    if not inside.all():
        check_angle(a[~inside][0], upper)  # raises, naming the first one
    return a


def _observable_pairs(alpha: np.ndarray) -> np.ndarray:
    """Stacked pairs (A^0, A^1) at each angle, shape alpha.shape + (2, 2, 2).

    A^r = [[0, c - (-1)^r i s], [c + (-1)^r i s, 0]] with c, s the cosine
    and sine of the angle; the angles are not checked.
    """
    c, s = np.cos(alpha), np.sin(alpha)
    pairs = np.zeros(np.shape(alpha) + (2, 2, 2), dtype=complex)
    pairs.real[..., 0, 1] = pairs.real[..., 1, 0] = np.expand_dims(c, -1)
    pairs.imag[..., 0, 0, 1] = pairs.imag[..., 1, 1, 0] = -s
    pairs.imag[..., 0, 1, 0] = pairs.imag[..., 1, 0, 1] = s
    return pairs


def observable(r: int, alpha: float) -> np.ndarray:
    """Equatorial qubit observable cos(alpha) X + (-1)^r sin(alpha) Y."""
    if r not in (0, 1):
        raise ValueError(f"setting must be 0 or 1, got {r}")
    return _observable_pairs(check_angle(alpha))[r]


def _svetlichny_sign(n: int, w: int) -> int:
    if n % 2 == 1:
        return (-1) ** (w * (w + 1) // 2)
    return (-1) ** (w * (w - 1) // 2)


def _mabk_coefficient(n: int, w: int) -> float:
    if n % 2 == 1:
        return (1.0, 0.0, -1.0, 0.0)[w % 4]
    return (1.0, 1.0, -1.0, -1.0)[w % 4] / SQRT2


def functional_coefficients(protocol: BellProtocol) -> Dict[Tuple[int, ...], float]:
    """Coefficient c(x) of each correlator E(x) in the Bell functional."""
    out: Dict[Tuple[int, ...], float] = {}
    for x in itertools.product((0, 1), repeat=protocol.n):
        w = sum(x)
        if protocol.family == SVETLICHNY:
            out[x] = float(_svetlichny_sign(protocol.n, w))
        else:
            out[x] = _mabk_coefficient(protocol.n, w)
    return out


def build_operator(protocol: BellProtocol,
                   angles: Sequence[float] | np.ndarray) -> np.ndarray:
    """Dense operator sum_x c(x) A^{x_1} ... A^{x_n} at the given angles.

    ``angles`` is one tuple, shape (n,), giving a 2^n x 2^n matrix, or a
    batch of k tuples, shape (k, n), giving k such matrices; a single tuple
    is the batch of one.  The coefficient tensor c(x), with a leading batch
    axis, is contracted with each party's stacked pair (A^0, A^1) in turn:
    one batched matmul per party of the tensor, laid out (k, rest, x),
    against the k pairs laid out (k, x, row column), which replaces that
    party's setting index by its row and column indices.
    """
    a = check_angles(angles, protocol.n)
    batch = a.reshape(-1, protocol.n)
    pairs = _observable_pairs(batch).reshape(len(batch), protocol.n, 2, 4)
    tensor = np.broadcast_to(_coefficient_tensor(protocol).astype(complex),
                             (len(batch),) + (2,) * protocol.n)
    for j in range(protocol.n):
        tensor = contract_site(tensor, (1,), pairs[:, j])
    w = interleaved_to_matrix(tensor)
    return w if a.ndim == 2 else w[0]


def corner_coefficient(protocol: BellProtocol) -> complex:
    """Complex constant z_c in the antidiagonal closed form.

    The antidiagonal entries of the built operator factor as

        W[b, b~] = z_c prod_j (cos a_j - sigma_j sin a_j)
                 + conj(z_c) prod_j (cos a_j + sigma_j sin a_j)

    where b~ is the bitwise complement of b and sigma_j = +1 when bit j of b
    (most significant bit first) is 0, else -1.
    """
    n = protocol.n
    if protocol.family == SVETLICHNY:
        theta = (-1) ** (n + 1) * math.pi / 4
        return (SQRT2 / 2) * np.exp(1j * theta) * (1 + 1j) ** n
    k = (n - 1) % 2
    return 0.5 * np.exp(-1j * math.pi / 4 * k) * (1 + 1j) ** n


def ghz_phase(protocol: BellProtocol) -> complex:
    """Unit phase e^(i psi) of the maximal eigenvector's corner pair.

    The eigenvector is (|0...0> + e^(i psi) |1...1>) / sqrt(2) at the
    optimal angles, the one target state of the package.
    """
    zc = corner_coefficient(protocol)
    return zc / abs(zc)


def corner_entries(protocol: BellProtocol, cs: np.ndarray,
                   sn: np.ndarray) -> np.ndarray:
    """Antidiagonal entries W[b, b~] of every pair b < 2^(n-1).

    ``cs`` and ``sn`` hold the cosines and sines of the angles, one row per
    party and one column per angle tuple; the result has one row per pair
    and one column per tuple (see ``corner_coefficient``).  Both products
    of pair b are rows of one ``sign_products`` table, b and 2^n - 1 - b,
    combined by ``conjugate_pair_sum``.
    """
    return conjugate_pair_sum(sign_products(cs + sn, cs - sn),
                              corner_coefficient(protocol))


@functools.lru_cache(maxsize=None)
def _coefficient_tensor(protocol: BellProtocol) -> np.ndarray:
    """Functional coefficients c(x) as an array indexed by the setting bits.

    Built once per scenario and shared read-only by every caller.
    """
    c = np.zeros((2,) * protocol.n)
    for x, value in functional_coefficients(protocol).items():
        c[x] = value
    c.setflags(write=False)
    return c


def local_bound(protocol: BellProtocol) -> float:
    """Maximum of the Bell functional over deterministic local strategies.

    Enumerates all 4^n assignments of outcome pairs (a_j(0), a_j(1)) in
    {-1, +1}^2 and returns the largest functional value: the 4 x 2 table of
    outcome pairs is contracted into the coefficient tensor once per party,
    leaving one value per assignment.  For MABK this is
    the catalog ``beta_L``; for Svetlichny it is the fully local bound
    2^floor((n+1)/2), below the catalog's hybrid ``beta_L`` for n >= 4
    (see ``hybrid_bound``).
    """
    if protocol.n > _MAX_PARTIES:
        raise ValueError(f"enumeration supports n <= {_MAX_PARTIES}")
    values = _coefficient_tensor(protocol)
    for _ in range(protocol.n):
        values = np.tensordot(values, _OUTCOME_PAIRS, axes=([0], [1]))
    return float(np.max(values))


def hybrid_bound(protocol: BellProtocol) -> float:
    """Maximum of the Bell functional over Svetlichny's hybrid strategies.

    In the hybrid model the parties split into two groups (G, G~) and each
    group answers with any joint +-1 function of its own inputs; mixtures
    over bipartitions cannot exceed the best single one.  For each of the
    2^(n-1) - 1 bipartitions, with G the smaller group, every function f_G
    on {0,1}^|G| is enumerated and scored by

        sum_{x_G~} | sum_{x_G} c(x) f_G(x_G) |,

    which is exact because the best f_G~ is the sign of the inner sum.  For
    Svetlichny this is the catalog ``beta_L`` = 2^(n-1).
    """
    n = protocol.n
    if n > _MAX_PARTIES:
        raise ValueError(f"enumeration supports n <= {_MAX_PARTIES}")
    c = _coefficient_tensor(protocol)
    best = -math.inf
    for mask in range(1, 2 ** (n - 1)):
        group = [j for j in range(n) if (mask >> j) & 1]
        rest = [j for j in range(n) if not (mask >> j) & 1]
        if len(group) > len(rest):
            group, rest = rest, group
        table = c.transpose(group + rest).reshape(2 ** len(group), -1)
        functions = np.array(list(itertools.product(
            (1.0, -1.0), repeat=2 ** len(group))))
        best = max(best, float(np.max(np.abs(functions @ table).sum(axis=1))))
    return best


def quantum_bound(protocol: BellProtocol) -> float:
    """Maximal quantum value, computed as the norm at the optimal angles.

    W is antidiagonal, so its spectral norm is its largest antidiagonal
    magnitude; that is read off the ``corner_entries`` closed form at the
    all-pi/4 point and cross-checked against the same magnitudes on a coarse
    grid over the full angle domain.
    """
    value = _corner_magnitude_max(protocol, np.array([math.pi / 4]))
    grid_max = _corner_magnitude_max(protocol, np.linspace(0.0, math.pi / 2, 9))
    if grid_max > value + 1e-8:
        raise ArithmeticError(
            f"grid norm {grid_max} exceeds optimal-point norm {value}")
    return value


def _corner_magnitude_max(protocol: BellProtocol, grid: np.ndarray) -> float:
    """Largest antidiagonal magnitude over a product grid of angles.

    The magnitudes of all pairs at a point are permuted along with the
    parties, so only one sorted angle tuple per permutation orbit is
    evaluated, all 2^(n-1) pairs at once.  The loop body runs once per
    chunk of ``walk_canonical``, in its per-thread buffers, as the
    certificate scan's does, and reads the chunk's entries with
    ``chunk_corner_entries``: ``corner_entries``, bit for bit.
    """
    axes = [grid] * protocol.n
    values = np.concatenate(axes)
    cs, sn = np.cos(values), np.sin(values)
    trig = np.stack([cs + sn, cs - sn])
    z = corner_coefficient(protocol)
    best = 0.0
    for _, buffers in walk_canonical(axes):
        entries = chunk_corner_entries(trig, z, buffers)
        best = max(best, float(np.abs(entries,
                                      out=buffers["scratch"][0]).max()))
    return best


def chunk_corner_entries(trig: np.ndarray, z: complex,
                         buffers: Dict[str, np.ndarray]) -> np.ndarray:
    """``corner_entries`` of one ``walk_canonical`` chunk, bit for bit, in
    its ``bell`` buffer; ``trig`` holds cos + sin and cos - sin of every
    value of the walk's concatenated axes, ``z`` the ``corner_coefficient``.
    """
    return conjugate_pair_sum(chunk_sign_products(trig, buffers), z,
                              buffers["bell"], buffers["scratch"])


def validate_state(rho: np.ndarray, n: int) -> np.ndarray:
    """Check that ``rho`` is an n-qubit density matrix and return it.

    Hermiticity, unit trace and positivity are each checked once, and each
    comparison fails on NaN; a non-finite entry fails the Hermiticity check,
    since its own difference is NaN or infinite, and finite entries that
    overflow a check fail it without a warning.  When ``rho`` is diagonal
    plus antidiagonal (``x_blocks``), its least eigenvalue is the least over
    its 2^(n-1) 2 x 2 blocks (``least_block_eigenvalue``); any other state
    takes numpy's full ``eigvalsh`` spectrum.
    """
    rho = np.asarray(rho, dtype=complex)
    dim = 2 ** n
    if rho.shape != (dim, dim):
        raise ValueError(f"expected a {dim} x {dim} state, got {rho.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.max(np.abs(rho - rho.conj().T)) <= HERMITICITY_TOL:
            raise ValueError("state is not Hermitian within tolerance")
        if not abs(np.trace(rho) - 1.0) <= _TRACE_TOL:
            raise ValueError("state trace differs from 1")
        blocks = x_blocks(rho)
        least = (np.linalg.eigvalsh(rho)[0] if blocks is None
                 else least_block_eigenvalue(blocks))
    if not least >= -_STATE_PSD_TOL:
        raise ValueError(f"state has negative eigenvalue {least}")
    return rho

