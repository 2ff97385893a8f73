"""Test-local reference constructions, independent of the package internals.

Most of this is built from raw numpy Pauli algebra so that package outputs
can be checked against a second, separately written route.  The Kronecker
routes build one 2^n x 2^n matrix per term: ``kron_sum_operator`` (the Bell
operator as a sum over setting strings), ``kraus_loop_channel`` (the channel
as a sum over product Kraus operators), ``dense_spectral_ghz_rho`` (the
target state read off the Kronecker-sum operator) and
``dense_born_probabilities`` (one projector per outcome).  The scan
oracles at the end keep the package's per-point closed forms but evaluate
them on the whole product grid, one pair at a time, so the permutation
orbit reduction of the package kernels can be checked against them.
``complex_corner_entries`` and ``complex_min_block_over_axes`` are the
per-pair route to the corner closed form and the orbit-reduced scan: one
``signed_site_product`` per pair table and sign, corner algebra in complex
arrays; the package's sign tables and real arithmetic must match them bit
for bit.  The small helpers after the Pauli algebra (``kron``,
``exchange_matrix``, ``eig2x2_hermitian``, ``coefficient_table``) are
reference tools the tests use and the package does not;
``stop_past_validation`` stands in for the first step after an input
check, so a test can show that a large input is accepted without running
it.
"""
from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from ghzcert.bell import (ANGLE_SLACK, corner_coefficient,
                          functional_coefficients, ghz_phase)
from ghzcert.linalg import canonical_indices, outer_all
from ghzcert.states import g_values

SQ2 = np.sqrt(2.0)
PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_chain(mats: list[np.ndarray]) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices."""
    return np.kron(a, b)


def exchange_matrix(dim: int) -> np.ndarray:
    """Return the dim x dim exchange (reversal) matrix J."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    return np.eye(dim, dtype=complex)[::-1]


def eig2x2_hermitian(a: float, b: complex) -> tuple[float, float]:
    """Eigenvalues of [[a, b], [conj(b), a]], returned as (low, high)."""
    r = abs(b)
    return (a - r, a + r)


class CoefficientRow(NamedTuple):
    """One row of the block coefficient table: index, bit string, sign."""

    mu: int
    bits: str
    nu: int


def coefficient_table(n: int) -> list[CoefficientRow]:
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


class PastValidation(Exception):
    """Raised by ``stop_past_validation``."""


def stop_past_validation(*args, **kwargs):
    """Stub for the first call after an input check: raise PastValidation."""
    raise PastValidation


def pauli_string(labels: str) -> np.ndarray:
    return kron_chain([PAULI[c] for c in labels])


def pauli_coefficient(m: np.ndarray, labels: str) -> complex:
    """Coefficient of the given Pauli string in the expansion of m."""
    return np.trace(m @ pauli_string(labels)) / m.shape[0]


def reference_svetlichny_3(a1: float, a2: float, a3: float) -> np.ndarray:
    """Three-party operator from its explicit four-term Pauli expansion."""
    c1, c2, c3 = np.cos([a1, a2, a3])
    s1, s2, s3 = np.sin([a1, a2, a3])
    return 4 * (
        -c1 * c2 * c3 * pauli_string("XXX")
        + c1 * s2 * s3 * pauli_string("XYY")
        + s1 * c2 * s3 * pauli_string("YXY")
        + s1 * s2 * c3 * pauli_string("YYX")
    )


# (sign, labels, cosine slots, sine slots) for the 16-term four-party expansion
_FOUR_PARTY_TERMS = [
    (-1, "XXXX", (0, 1, 2, 3), ()),
    (+1, "XXXY", (0, 1, 2), (3,)),
    (+1, "XXYX", (0, 1, 3), (2,)),
    (+1, "XXYY", (0, 1), (2, 3)),
    (+1, "XYXX", (0, 2, 3), (1,)),
    (+1, "XYXY", (0, 2), (1, 3)),
    (+1, "XYYX", (0, 3), (1, 2)),
    (-1, "XYYY", (0,), (1, 2, 3)),
    (+1, "YXXX", (1, 2, 3), (0,)),
    (+1, "YXXY", (1, 2), (0, 3)),
    (+1, "YXYX", (1, 3), (0, 2)),
    (-1, "YXYY", (1,), (0, 2, 3)),
    (+1, "YYXX", (2, 3), (0, 1)),
    (-1, "YYXY", (2,), (0, 1, 3)),
    (-1, "YYYX", (3,), (0, 1, 2)),
    (-1, "YYYY", (), (0, 1, 2, 3)),
]


def reference_svetlichny_4(angles: list[float]) -> np.ndarray:
    """Four-party operator from its explicit 16-term Pauli expansion."""
    c = np.cos(angles)
    s = np.sin(angles)
    out = np.zeros((16, 16), dtype=complex)
    for sign, labels, ci, si in _FOUR_PARTY_TERMS:
        coeff = sign * np.prod([c[i] for i in ci] + [s[i] for i in si])
        out += 4 * coeff * pauli_string(labels)
    return out


def reference_state_3() -> np.ndarray:
    """Three-party target state from its explicit Pauli expansion."""
    rho = sum(pauli_string(t) for t in ("III", "ZZI", "IZZ", "ZIZ"))
    rho = rho - pauli_string("XXX") + pauli_string("XYY") \
        + pauli_string("YXY") + pauli_string("YYX")
    return rho / 8


def reference_state_4() -> np.ndarray:
    """Four-party target state from its explicit Pauli expansion."""
    diag = ("IIII", "ZZII", "ZIZI", "ZIIZ", "IZZI", "IZIZ", "IIZZ", "ZZZZ")
    rho = sum(pauli_string(t) for t in diag).astype(complex) / 16
    sign_by_y_weight = {0: -1, 1: +1, 2: +1, 3: -1, 4: -1}
    for bits in range(16):
        labels = "".join("Y" if (bits >> (3 - j)) & 1 else "X" for j in range(4))
        w = labels.count("Y")
        rho += sign_by_y_weight[w] * pauli_string(labels) / (16 * SQ2)
    return rho


def reference_channel_output_3(a1: float, a2: float, a3: float) -> np.ndarray:
    """Channel action on the three-party state, from its printed closed form."""
    g1, g2, g3 = ((1 + SQ2) * (np.sin(a) + np.cos(a) - 1) for a in (a1, a2, a3))
    out = pauli_string("III") + g1 * g2 * pauli_string("ZZI") \
        + g2 * g3 * pauli_string("IZZ") + g1 * g3 * pauli_string("ZIZ") \
        - pauli_string("XXX") + g2 * g3 * pauli_string("XYY") \
        + g1 * g3 * pauli_string("YXY") + g1 * g2 * pauli_string("YYX")
    return out / 8


def equatorial(r: int, alpha: float) -> np.ndarray:
    """cos(alpha) X + (-1)^r sin(alpha) Y."""
    return math.cos(alpha) * PAULI["X"] + (-1) ** r * math.sin(alpha) * PAULI["Y"]


def kron_sum_operator(protocol, angles) -> np.ndarray:
    """Bell operator as the sum over settings x of c(x) A^{x_1} ... A^{x_n}."""
    obs = [(equatorial(0, a), equatorial(1, a)) for a in angles]
    total = np.zeros((protocol.dim, protocol.dim), dtype=complex)
    for x, c in functional_coefficients(protocol).items():
        if c != 0.0:
            total += c * kron_chain([obs[j][x[j]] for j in range(protocol.n)])
    return total


def kraus_loop_channel(mat: np.ndarray, channel) -> np.ndarray:
    """Channel output as the sum over product Kraus operators K M K^dagger."""
    pairs = channel.kraus_pairs()
    out = np.zeros((2 ** channel.n,) * 2, dtype=complex)
    for bits in itertools.product((0, 1), repeat=channel.n):
        k = kron_chain([pairs[j][b] for j, b in enumerate(bits)])
        out += k @ mat @ k.conj().T
    return out


def dense_spectral_ghz_rho(protocol) -> np.ndarray:
    """Target state from the corners of the Kronecker-sum operator at pi/4.

    The maximal antidiagonal pair (b, b~) carries the eigenvector
    (|b> + e^(i phi) |b~>)/sqrt(2), with e^(i phi) = conj(W[b, b~])/|W[b, b~]|.
    """
    dim = protocol.dim
    w = kron_sum_operator(protocol, (math.pi / 4,) * protocol.n)
    corners = np.array([w[b, dim - 1 - b] for b in range(dim // 2)])
    b_star = int(np.argmax(np.abs(corners)))
    v = np.zeros(dim, dtype=complex)
    v[b_star] = 1.0 / SQ2
    v[dim - 1 - b_star] = np.conj(corners[b_star]) / abs(corners[b_star]) / SQ2
    return np.outer(v, v.conj())


def dense_born_probabilities(state: np.ndarray, settings, angles) -> np.ndarray:
    """Born distribution from one dense Kronecker projector per outcome.

    Outcome index bit j (most significant first) is 0 for outcome +1 of
    party j.  Clips and renormalises as the package does.
    """
    n = len(angles)
    projectors = []
    for r, alpha in zip(settings, angles):
        a = equatorial(r, alpha)
        projectors.append(((np.eye(2) + a) / 2, (np.eye(2) - a) / 2))
    dist = np.empty(2 ** n)
    for k in range(2 ** n):
        p = kron_chain([projectors[j][(k >> (n - 1 - j)) & 1]
                        for j in range(n)])
        dist[k] = np.trace(state @ p).real
    dist = np.clip(dist, 0.0, None)
    return dist / dist.sum()


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (b + b.conj().T) / 2


def full_grid_min_block(protocol, s: float, mu: float, axes) -> tuple:
    """Minimum block lower-eigenvalue over every point of a product grid.

    Returns (minimum, argmin angles, binding pair); the first pair and the
    first grid point in C order win ties.
    """
    n = protocol.n
    zc = corner_coefficient(protocol)
    psi = ghz_phase(protocol)
    quarter = math.pi / 4 + 1e-12
    cs = [np.cos(a) for a in axes]
    sn = [np.sin(a) for a in axes]
    gs = [np.clip((1 + SQ2) * (np.sin(a) + np.cos(a) - 1.0), 0.0, 1.0)
          for a in axes]
    dx = [np.where(a <= quarter, 1.0, g) for a, g in zip(axes, gs)]
    dy = [np.where(a <= quarter, g, 1.0) for a, g in zip(axes, gs)]
    scale = 1.0 / 2 ** (n + 1)
    best, best_point, best_pair = math.inf, (), 0
    for b in range(2 ** (n - 1)):
        sig = pair_signs(n, b)
        diag = scale * (outer_all([1.0 + sig[j] * gs[j] for j in range(n)])
                        + outer_all([1.0 - sig[j] * gs[j] for j in range(n)]))
        kc = scale * (np.conj(psi) * outer_all([dx[j] + sig[j] * dy[j]
                                                for j in range(n)])
                      + psi * outer_all([dx[j] - sig[j] * dy[j]
                                         for j in range(n)]))
        wc = (zc * outer_all([cs[j] - sig[j] * sn[j] for j in range(n)])
              + np.conj(zc) * outer_all([cs[j] + sig[j] * sn[j]
                                         for j in range(n)]))
        low = (diag - mu) - np.abs(kc - s * wc)
        flat = int(np.argmin(low))
        if low.flat[flat] < best:
            best = float(low.flat[flat])
            idx = np.unravel_index(flat, low.shape)
            best_point = tuple(float(axes[j][idx[j]]) for j in range(n))
            best_pair = b
    return best, best_point, best_pair


def full_grid_corner_max(protocol, grid: np.ndarray) -> float:
    """Largest antidiagonal magnitude of the Bell operator on the full grid."""
    n = protocol.n
    zc = corner_coefficient(protocol)
    cs, sn = np.cos(grid), np.sin(grid)
    best = 0.0
    for b in range(2 ** (n - 1)):
        sig = pair_signs(n, b)
        minus = outer_all([cs - sig[j] * sn for j in range(n)])
        plus = outer_all([cs + sig[j] * sn for j in range(n)])
        best = max(best, float(np.max(np.abs(zc * minus
                                             + np.conj(zc) * plus))))
    return best


def pair_signs(n: int, b: int) -> tuple[float, ...]:
    """Per-party signs sigma_j for antidiagonal pair index b (MSB first)."""
    return tuple(1.0 if ((b >> (n - 1 - j)) & 1) == 0 else -1.0
                 for j in range(n))


def pair_sign_matrix(n: int) -> np.ndarray:
    """Signs ``pair_signs(n, b)`` of every pair b < 2^(n-1), one row each."""
    return np.array([pair_signs(n, b) for b in range(2 ** (n - 1))])


def signed_site_product(base: np.ndarray, other: np.ndarray,
                        signs: np.ndarray) -> np.ndarray:
    """Per-site products prod_j (base[j] + signs[:, j] * other[j]).

    ``base`` and ``other`` hold one row of values per site, ``signs`` one
    row of per-site signs per pair.  The product runs left to right over the
    sites, as ``outer_all`` does, and has shape (len(signs), base.shape[1]).
    """
    out = base[0] + signs[:, :1] * other[0]
    for j in range(1, len(base)):
        out = out * (base[j] + signs[:, j:j + 1] * other[j])
    return out


def complex_corner_entries(protocol, cs: np.ndarray,
                           sn: np.ndarray) -> np.ndarray:
    """Antidiagonal entries W[b, b~], one signed product per pair and sign."""
    zc = corner_coefficient(protocol)
    sig = pair_sign_matrix(protocol.n)
    return (zc * signed_site_product(cs, sn, -sig)
            + np.conj(zc) * signed_site_product(cs, sn, sig))


def complex_min_block_over_axes(protocol, s: float, mu: float, axes) -> tuple:
    """Orbit-reduced scan minimum in complex arithmetic.

    Same contract and return tuple as ``verifier._min_block_over_axes``:
    the minimum, its angles, the binding pair and the evaluation count.
    """
    n = protocol.n
    psi = ghz_phase(protocol)
    idx = canonical_indices(axes)
    quarter = [a <= math.pi / 4 + ANGLE_SLACK for a in axes]
    g_axes = [g_values(a) for a in axes]

    def at_points(per_axis):
        return np.array([values[i] for values, i in zip(per_axis, idx)])

    cs = at_points([np.cos(a) for a in axes])
    sn = at_points([np.sin(a) for a in axes])
    dx = at_points([np.where(q, 1.0, g) for q, g in zip(quarter, g_axes)])
    dy = at_points([np.where(q, g, 1.0) for q, g in zip(quarter, g_axes)])
    gs = at_points(g_axes)
    ones = np.ones_like(gs)
    sig = pair_sign_matrix(n)
    scale = 1.0 / 2 ** (n + 1)
    diag = scale * (signed_site_product(ones, gs, sig)
                    + signed_site_product(ones, gs, -sig))
    kc = scale * (np.conj(psi) * signed_site_product(dx, dy, sig)
                  + psi * signed_site_product(dx, dy, -sig))
    low = (diag - mu) - np.abs(kc - s * complex_corner_entries(protocol,
                                                                cs, sn))
    pair, k = divmod(int(np.argmin(low)), low.shape[1])
    point = tuple(float(axes[j][idx[j, k]]) for j in range(n))
    return float(low[pair, k]), point, pair, low.size
