"""Construction and evaluation of multipartite Bell operators.

This module builds the n-party Svetlichny and MABK Bell operators from
single-qubit equatorial observables, exposes their classical and quantum
bounds, and evaluates Bell values on density matrices.

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
magnitude.  The corner-coefficient helpers expose the closed form for those
antidiagonal entries, which downstream modules reuse for fast scans.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from .linalg import (canonical_indices, hermitian_eigenvalues, kron_all, pauli,
                     signed_site_product)
from .root2 import Root2

SVETLICHNY = "svetlichny"
MABK = "mabk"
FAMILIES = (SVETLICHNY, MABK)

_ANGLE_SLACK = 1e-12
_MIN_PARTIES = 3
_MAX_PARTIES = 6
SQRT2 = math.sqrt(2.0)


class CoefficientRow(NamedTuple):
    """One row of the block coefficient table: index, bit string, sign."""

    mu: int
    bits: str
    nu: int


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

    @property
    def beta_L(self) -> float:
        return float(self.beta_L_exact)

    @property
    def beta_Q(self) -> float:
        return float(self.beta_Q_exact)


def _check_angle(alpha: float) -> float:
    if not (-_ANGLE_SLACK <= alpha <= math.pi / 2 + _ANGLE_SLACK):
        raise ValueError(f"angle {alpha} outside [0, pi/2]")
    return float(alpha)


def observable(r: int, alpha: float) -> np.ndarray:
    """Equatorial qubit observable cos(alpha) X + (-1)^r sin(alpha) Y."""
    if r not in (0, 1):
        raise ValueError(f"setting must be 0 or 1, got {r}")
    alpha = _check_angle(alpha)
    return math.cos(alpha) * pauli("X") + (-1) ** r * math.sin(alpha) * pauli("Y")


def coefficient_table(n: int) -> List[CoefficientRow]:
    """Signed index table for the 2^(n-1) two-dimensional blocks.

    Row mu carries the (n-1)-bit string of mu - 1 (most significant bit
    first) and the sign nu = (-1)^(m(m+1)/2) where m is the bit weight.
    """
    if n < 2:
        raise ValueError(f"coefficient table needs n >= 2, got {n}")
    rows = []
    for mu in range(1, 2 ** (n - 1) + 1):
        bits = format(mu - 1, f"0{n - 1}b")
        m = bits.count("1")
        rows.append(CoefficientRow(mu=mu, bits=bits, nu=(-1) ** (m * (m + 1) // 2)))
    return rows


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


def _validate_build(n: int, angles: Sequence[float]) -> Tuple[float, ...]:
    if n < _MIN_PARTIES:
        raise ValueError(f"need at least {_MIN_PARTIES} parties, got {n}")
    if len(angles) != n:
        raise ValueError(f"expected {n} angles, got {len(angles)}")
    return tuple(_check_angle(a) for a in angles)


def build_svetlichny(n: int, angles: Sequence[float]) -> np.ndarray:
    """Svetlichny operator S_n at the given per-party angles."""
    angles = _validate_build(n, angles)
    obs = [(observable(0, a), observable(1, a)) for a in angles]
    total = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for x in itertools.product((0, 1), repeat=n):
        sign = _svetlichny_sign(n, sum(x))
        total += sign * kron_all([obs[j][x[j]] for j in range(n)])
    return total


def build_mabk(n: int, angles: Sequence[float]) -> np.ndarray:
    """MABK operator M_n at the given per-party angles."""
    angles = _validate_build(n, angles)
    obs = [(observable(0, a), observable(1, a)) for a in angles]
    total = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for x in itertools.product((0, 1), repeat=n):
        c = _mabk_coefficient(n, sum(x))
        if c == 0.0:
            continue
        total += c * kron_all([obs[j][x[j]] for j in range(n)])
    return total


def build_operator(protocol: BellProtocol, angles: Sequence[float]) -> np.ndarray:
    """Build the Bell operator of ``protocol`` at the given angles."""
    if protocol.family == SVETLICHNY:
        return build_svetlichny(protocol.n, angles)
    return build_mabk(protocol.n, angles)


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
    """Unit phase e^(i psi) aligning the maximal eigenvector corner pair."""
    zc = corner_coefficient(protocol)
    return zc / abs(zc)


def pair_signs(n: int, b: int) -> Tuple[float, ...]:
    """Per-party signs sigma_j for antidiagonal pair index b (MSB first)."""
    return tuple(1.0 if ((b >> (n - 1 - j)) & 1) == 0 else -1.0
                 for j in range(n))


def pair_sign_matrix(n: int) -> np.ndarray:
    """Signs ``pair_signs(n, b)`` of every pair b < 2^(n-1), one row each."""
    return np.array([pair_signs(n, b) for b in range(2 ** (n - 1))])


def antidiagonal_profile(protocol: BellProtocol,
                         angles: Sequence[float]) -> np.ndarray:
    """Closed-form antidiagonal entries W[b, b~] for b = 0 .. 2^n - 1."""
    n = protocol.n
    zc = corner_coefficient(protocol)
    cs = [math.cos(a) for a in angles]
    sn = [math.sin(a) for a in angles]
    out = np.empty(2 ** n, dtype=complex)
    for b in range(2 ** n):
        sig = pair_signs(n, b)
        minus = 1.0
        plus = 1.0
        for j in range(n):
            minus *= cs[j] - sig[j] * sn[j]
            plus *= cs[j] + sig[j] * sn[j]
        out[b] = zc * minus + np.conj(zc) * plus
    return out


def local_bound(protocol: BellProtocol) -> float:
    """Maximum of the Bell functional over deterministic local strategies.

    Enumerates all 4^n assignments of outcome pairs (a_j(0), a_j(1)) in
    {-1, +1}^2 and returns the largest functional value.  For MABK this is
    the catalog ``beta_L``; for Svetlichny it is the fully local bound
    2^floor((n+1)/2), below the catalog's hybrid ``beta_L`` for n >= 4
    (see ``hybrid_bound``).
    """
    if protocol.n > _MAX_PARTIES:
        raise ValueError(f"enumeration supports n <= {_MAX_PARTIES}")
    coeffs = [(x, c) for x, c in functional_coefficients(protocol).items()
              if c != 0.0]
    best = -math.inf
    for assignment in itertools.product((1.0, -1.0), repeat=2 * protocol.n):
        value = 0.0
        for x, c in coeffs:
            product = c
            for j, bit in enumerate(x):
                product *= assignment[2 * j + bit]
            value += product
        if value > best:
            best = value
    return best


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
    c = np.zeros((2,) * n)
    for x, value in functional_coefficients(protocol).items():
        c[x] = value
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

    The spectral norm is evaluated with the package eigensolver at the
    all-pi/4 point and cross-checked against the closed-form antidiagonal
    magnitudes on a coarse grid over the full angle domain.
    """
    quarter = (math.pi / 4,) * protocol.n
    w = build_operator(protocol, quarter)
    value = float(np.max(np.abs(hermitian_eigenvalues(w))))

    grid_max = _corner_magnitude_max(protocol, np.linspace(0.0, math.pi / 2, 9))
    if grid_max > value + 1e-8:
        raise ArithmeticError(
            f"grid norm {grid_max} exceeds optimal-point norm {value}")
    return value


def _corner_magnitude_max(protocol: BellProtocol, grid: np.ndarray) -> float:
    """Largest antidiagonal magnitude over a product grid of angles.

    The magnitudes of all pairs at a point are permuted along with the
    parties, so only one sorted angle tuple per permutation orbit is
    evaluated (``canonical_indices``), all 2^(n-1) pairs at once.
    """
    n = protocol.n
    zc = corner_coefficient(protocol)
    idx = canonical_indices([grid] * n)
    cs = np.cos(grid)[idx]
    sn = np.sin(grid)[idx]
    sig = pair_sign_matrix(n)
    profile = (zc * signed_site_product(cs, sn, -sig)
               + np.conj(zc) * signed_site_product(cs, sn, sig))
    return float(np.max(np.abs(profile)))


def validate_state(rho: np.ndarray, n: int,
                   hermiticity_tol: float = 1e-10,
                   trace_tol: float = 1e-10,
                   psd_tol: float = 1e-8) -> np.ndarray:
    """Check that ``rho`` is an n-qubit density matrix and return it."""
    rho = np.asarray(rho, dtype=complex)
    dim = 2 ** n
    if rho.shape != (dim, dim):
        raise ValueError(f"expected a {dim} x {dim} state, got {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > hermiticity_tol:
        raise ValueError("state is not Hermitian within tolerance")
    if abs(np.trace(rho) - 1.0) > trace_tol:
        raise ValueError("state trace differs from 1")
    eigenvalues = hermitian_eigenvalues(rho, hermiticity_tol=hermiticity_tol)
    if eigenvalues[0] < -psd_tol:
        raise ValueError(f"state has negative eigenvalue {eigenvalues[0]}")
    return rho


def evaluate(protocol: BellProtocol, rho: np.ndarray,
             angles: Sequence[float]) -> float:
    """Bell value Tr[rho W] of a density matrix at the given angles."""
    rho = validate_state(rho, protocol.n)
    w = build_operator(protocol, angles)
    value = complex(np.trace(rho @ w))
    if abs(value.imag) > 1e-10:
        raise ArithmeticError(f"Bell value has imaginary part {value.imag}")
    return value.real
