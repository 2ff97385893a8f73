"""Test-local reference constructions, independent of the package internals.

Most of this is built from raw numpy Pauli algebra so that package outputs
can be checked against a second, separately written route.  The Kronecker
routes build one 2^n x 2^n matrix per term: ``kron_sum_operator`` (the Bell
operator as a sum over setting strings) and ``evaluate`` (its Bell value on
a state), ``kraus_loop_channel`` (the channel as a sum over product Kraus
operators, each site's ``kraus_pair`` written out from the Pauli matrices
and the formula for g), ``dense_spectral_ghz_rho`` (the target state read
off the Kronecker-sum operator) and ``dense_born_probabilities`` (one
projector per outcome).  ``is_persymmetric`` and ``block_unitary`` (the
permutation that pairs each index with its complement) are the references
for the channel's persymmetry and for ``block_decompose``.
``transposing_contract_sites`` contracts sites by copying each site's
indices last, the bit-for-bit reference for ``linalg.contract_sites``,
which reads them in cyclic order without copying.  The scan
oracles at the end keep the package's per-point closed forms but evaluate
them on the whole product grid, one pair at a time, so the permutation
orbit reduction of the package kernels can be checked against them.
``complex_corner_entries`` and ``complex_min_block_over_axes`` are the
per-pair route to the corner closed form and the orbit-reduced scan, with
``channel_corner_factors`` the channel corner's site factors: one
``signed_site_product`` per pair table and sign, corner algebra in complex
arrays.  ``real_corner_magnitudes`` (and ``full_grid_corner_max`` with
``real``) read the same corners through the shared phase u = z_c/|z_c|,
|z_c| |T~ + v T| with v = conj(u)^2 (``exact_turn``), which the quantum
bound must match bit for bit; ``real_min_block_over_axes`` is the scan
that way, one real table X = C - (s |z_c|/scale) B per pair and sign,
which the package's scan kernel must match bit for bit.  The complex
routes agree with both to 1e-15.  ``canonical_tuples`` picks the
canonical points of a grid by brute force over the full product, apart
from the package's layout cache, for both orbit-reduced oracles and the
walk's tests.  The
package's kernels take grids only as padded rows and lengths;
``padded_grid`` turns a list of axes, ragged or not, into that form.
``per_axis_stencil`` builds a refinement stencil one axis at a
time, the reference for the scan's one-call stencils, and
``sequential_refinement`` refines one round per kernel call, the reference
for the scan's batched rounds.  The small helpers
after the Pauli algebra (``kron``, ``exchange_matrix``,
``eig2x2_hermitian``, ``coefficient_table``) are
reference tools the tests use and the package does not;
``functional_coefficients`` writes c(x) out per Hamming weight, apart from
the package's coefficient tensor, for ``kron_sum_operator`` and the
sampling tests, and ``outer_all`` is the full-grid oracles' outer product;
``per_family_corner_coefficient``, ``per_family_beta_Q_exact`` and
``per_family_upper_bound_reference`` write the family constants out per
family and parity, apart from the package's family table; the scan oracles
take the corner constant, and the target phase z_c/|z_c|, from the first.
``stop_past_validation`` stands in for the first step after an input
check, so a test can show that a large input is accepted without running
it.  ``random_x_matrix`` builds random diagonal-plus-antidiagonal inputs
from one random 2 x 2 block per index pair.  ``emit_curve_by_point`` and
``curve_to_csv_by_field`` are the per-point curve and csv routes, the
bit-for-bit references for ``tradeoff.emit_curve``'s arrays and
``curve_to_csv``'s row template; ``full_parse`` parses a command line with
the CLI's top-level parser and then again with ``--config`` flags, the
reference for its one-parse dispatch.  ``trace_bound_slope`` reads the
trace condition of a unital channel off the dense spectrum of W, the
reference for ``verifier.catalog_slope``'s two lattice points.
``per_call_pair_zero_magnitudes`` builds the quantum bound's check-grid
products afresh on every call, the bit-for-bit reference for the table
``bell`` builds once per n.
"""
from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

import ghzcert.cli
from ghzcert.bell import (ANGLE_SLACK, SVETLICHNY, build_operator,
                          check_integer, corner_coefficient, corner_turn,
                          validate_state)
from ghzcert.linalg import canonical_layouts, pair_magnitudes
from ghzcert.root2 import Root2
from ghzcert.states import g_values
from ghzcert.tradeoff import (MAX_CURVE_POINTS, CurvePoint, TradeoffCurve,
                              fidelity_lower_bound, format_float,
                              relative_violation)
from ghzcert.verifier import (PSD_TOLERANCE, REFINEMENT_DEPTH,
                              CertificationReport, _min_block_over_products,
                              catalog_constants)

SQ2 = np.sqrt(2.0)
# Largest |m - J m^T J| entry a persymmetric matrix may have.
PERSYMMETRY_TOL = 1e-10
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


def functional_coefficients(protocol) -> dict[tuple[int, ...], float]:
    """Coefficient c(x) of each setting string x, from its Hamming weight w.

    Svetlichny: (-1)^(w(w+1)/2) for odd n, (-1)^(w(w-1)/2) for even n.
    MABK: (1, 0, -1, 0)[w mod 4] for odd n, (1, 1, -1, -1)[w mod 4]/sqrt(2)
    for even n.
    """
    n = protocol.n
    out = {}
    for x in itertools.product((0, 1), repeat=n):
        w = sum(x)
        if protocol.family == SVETLICHNY:
            shift = 1 if n % 2 == 1 else -1
            out[x] = float((-1) ** (w * (w + shift) // 2))
        elif n % 2 == 1:
            out[x] = (1.0, 0.0, -1.0, 0.0)[w % 4]
        else:
            out[x] = (1.0, 1.0, -1.0, -1.0)[w % 4] / SQ2
    return out


def per_family_corner_coefficient(protocol) -> complex:
    """Corner constant z_c written out per family and parity.

    Svetlichny: (sqrt(2)/2) e^(i theta) (1 + i)^n, theta = pi/4 for odd n
    and -pi/4 for even n.  MABK: (1/2) e^(-i k pi/4) (1 + i)^n, k = 0 for
    odd n and 1 for even n.
    """
    n = protocol.n
    if protocol.family == SVETLICHNY:
        theta = (-1) ** (n + 1) * math.pi / 4
        return (SQ2 / 2) * np.exp(1j * theta) * (1 + 1j) ** n
    k = (n - 1) % 2
    return 0.5 * np.exp(-1j * math.pi / 4 * k) * (1 + 1j) ** n


def per_family_beta_Q_exact(protocol) -> Root2:
    """Maximal quantum value per family: 2^(n-1) sqrt(2) for Svetlichny,
    2^(n-1) for MABK."""
    if protocol.family == SVETLICHNY:
        return Root2(0, 2 ** (protocol.n - 1))
    return Root2(2 ** (protocol.n - 1))


def per_family_upper_bound_reference(protocol) -> float:
    """Fidelity-1/2 Bell value per family: the hybrid bound 2^(n-1) for
    Svetlichny, 2^(n-2) sqrt(2) for MABK."""
    if protocol.family == SVETLICHNY:
        return float(2 ** (protocol.n - 1))
    return 2 ** (protocol.n - 2) * SQ2


def kron_sum_operator(protocol, angles) -> np.ndarray:
    """Bell operator as the sum over settings x of c(x) A^{x_1} ... A^{x_n}."""
    obs = [(equatorial(0, a), equatorial(1, a)) for a in angles]
    total = np.zeros((protocol.dim, protocol.dim), dtype=complex)
    for x, c in functional_coefficients(protocol).items():
        if c != 0.0:
            total += c * kron_chain([obs[j][x[j]] for j in range(protocol.n)])
    return total


def kraus_pair(alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Kraus pair (K0, K1) of the dephasing channel at one angle.

    K0 = sqrt((1 + g)/2) I and K1 = sqrt((1 - g)/2) Gamma, where
    g = (1 + sqrt(2))(sin(alpha) + cos(alpha) - 1), clamped into [0, 1], and
    Gamma is X up to pi/4 and Y beyond.
    """
    g = (1 + SQ2) * (math.sin(alpha) + math.cos(alpha) - 1)
    g = min(max(g, 0.0), 1.0)
    gamma = PAULI["X"] if alpha <= math.pi / 4 else PAULI["Y"]
    return (math.sqrt((1 + g) / 2) * PAULI["I"],
            math.sqrt((1 - g) / 2) * gamma)


def kraus_loop_channel(mat: np.ndarray, angles) -> np.ndarray:
    """Channel output as the sum over product Kraus operators K M K^dagger."""
    pairs = [kraus_pair(alpha) for alpha in angles]
    out = np.zeros((2 ** len(pairs),) * 2, dtype=complex)
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        k = kron_chain([pairs[j][b] for j, b in enumerate(bits)])
        out += k @ mat @ k.conj().T
    return out


def transposing_contract_sites(tensor: np.ndarray,
                               operators: np.ndarray) -> np.ndarray:
    """Site contraction that copies each site's indices last.

    The reference for ``linalg.contract_sites``, which must match it bit
    for bit.  k copies of ``tensor`` are contracted site by site: the
    site's indices are moved last and flattened, giving (k, rest, d),
    copied, and multiplied by its k operators in one batched matmul, which
    appends its output indices at the end.  Returns (k, 2^n, 2^n), rows
    before columns, when e = 4 and (k, 2^n) when e = 2.
    """
    k, n, d, e = operators.shape
    out = np.broadcast_to(tensor, (k,) + tensor.shape).reshape(
        (k,) + (2,) * (n * d // 2))
    for j in range(n):
        # Site j's indices lead what is left of the one index half, or of
        # the row and column halves.
        axes = (1,) if d == 2 else (1, 1 + n - j)
        lhs = out.transpose(_axes_last(out.ndim, axes))
        out = np.matmul(lhs.reshape(k, -1, d), operators[:, j]).reshape(
            lhs.shape[:-len(axes)] + (2,) * (e // 2))
    if e == 4:
        # Each site left its row and column side by side; rows go first.
        out = out.transpose([0] + list(range(1, 2 * n, 2))
                            + list(range(2, 2 * n + 1, 2)))
    return out.reshape((k,) + (2 ** n,) * (e // 2))


def _axes_last(ndim: int, axes: tuple[int, ...]) -> tuple[int, ...]:
    """The axis order that moves ``axes``, in their order, behind the rest."""
    return tuple(i for i in range(ndim) if i not in axes) + axes


def evaluate(protocol, rho: np.ndarray, angles) -> float:
    """Bell value Tr[rho W], W the Kronecker-sum operator at ``angles``.

    ``rho`` passes ``bell.validate_state`` first; ArithmeticError if the
    trace has an imaginary part above 1e-10.
    """
    rho = validate_state(rho, protocol.n)
    value = complex(np.trace(rho @ kron_sum_operator(protocol, angles)))
    if abs(value.imag) > 1e-10:
        raise ArithmeticError(f"Bell value has imaginary part {value.imag}")
    return value.real


def trace_bound_slope(protocol, angles) -> np.ndarray:
    """Smallest s with sum_i (1 - s (beta_Q - lambda_i))_+ <= 1, lambda_i
    the eigenvalues of the dense ``build_operator`` W, at each tuple of a
    (k, n) batch: the trace condition that a unital channel puts on the
    catalog slope, with mu = 1 - s beta_Q.

    With the gaps d_i = beta_Q - lambda_i in ascending order the sum is at
    least j - s (d_1 + ... + d_j) for every j, with equality for the j
    gaps below 1/s, so s is the largest (j - 1) / (d_1 + ... + d_j).  The
    j = 1 term is 0 and is left out.
    """
    eigenvalues = np.linalg.eigvalsh(build_operator(protocol, angles))
    gaps = np.cumsum(protocol.beta_Q - eigenvalues[:, ::-1], axis=-1)
    return np.max(np.arange(1, protocol.dim) / gaps[:, 1:], axis=-1)


def is_persymmetric(m: np.ndarray) -> bool:
    """Whether m = J m^T J within ``PERSYMMETRY_TOL``, J the exchange matrix."""
    j = exchange_matrix(len(m))
    return bool(np.max(np.abs(m - j @ m.T @ j)) <= PERSYMMETRY_TOL)


def block_unitary(n: int) -> np.ndarray:
    """Permutation matrix pairing each index b with its complement.

    Column k holds a single 1 at row 2k for k < 2^(n-1) and at row
    2(2^n - 1 - k) + 1 otherwise, so conjugation by this matrix brings a
    diagonal-plus-antidiagonal matrix into 2 x 2 block-diagonal form.
    """
    dim = 2 ** n
    u = np.zeros((dim, dim))
    for k in range(dim):
        row = 2 * k if k < dim // 2 else 2 * (dim - 1 - k) + 1
        u[row, k] = 1.0
    return u


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
    projectors = dense_outcome_projectors(settings, angles)
    return dense_born_from_projectors(state, projectors)


def dense_outcome_projectors(settings, angles) -> list[np.ndarray]:
    """The dense Kronecker projector of every outcome index, in order.

    Each is the ``kron_chain`` of its parties' projectors; the chains share
    their prefixes, so each prefix is built once.
    """
    out = [np.array([[1.0 + 0j]])]
    for r, alpha in zip(settings, angles):
        a = equatorial(r, alpha)
        pair = ((np.eye(2) + a) / 2, (np.eye(2) - a) / 2)
        out = [np.kron(prefix, p) for prefix in out for p in pair]
    return out


def dense_born_from_projectors(state: np.ndarray,
                               projectors: list[np.ndarray]) -> np.ndarray:
    """``dense_born_probabilities`` from projectors built beforehand.

    One setting's projectors can then serve several states.
    """
    dist = np.array([np.trace(state @ p).real for p in projectors])
    dist = np.clip(dist, 0.0, None)
    return dist / dist.sum()


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (b + b.conj().T) / 2


def outer_all(factors) -> np.ndarray:
    """Chained elementwise outer product of 1-D arrays, left to right."""
    out = np.asarray(factors[0])
    for f in factors[1:]:
        out = np.multiply.outer(out, f)
    return out


def full_grid_min_block(protocol, s: float, mu: float, axes) -> tuple:
    """Minimum block lower-eigenvalue over every point of a product grid.

    Returns (minimum, argmin angles, binding pair); the first pair and the
    first grid point in C order win ties.
    """
    n = protocol.n
    zc = per_family_corner_coefficient(protocol)
    psi = zc / abs(zc)
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


def full_grid_corner_max(protocol, grid: np.ndarray,
                         real: bool = False) -> float:
    """Largest antidiagonal magnitude of the Bell operator on the full grid.

    Each pair's entries are z_c and its conjugate against its two products
    in complex arithmetic, or with ``real`` their magnitudes through the
    shared phase (``real_corner_magnitude``).
    """
    n = protocol.n
    zc = per_family_corner_coefficient(protocol)
    cs, sn = np.cos(grid), np.sin(grid)
    best = 0.0
    for b in range(2 ** (n - 1)):
        sig = pair_signs(n, b)
        minus = outer_all([cs - sig[j] * sn for j in range(n)])
        plus = outer_all([cs + sig[j] * sn for j in range(n)])
        magnitudes = (real_corner_magnitude(zc, minus, plus) if real
                      else np.abs(zc * minus + np.conj(zc) * plus))
        best = max(best, float(np.max(magnitudes)))
    return best


def per_call_pair_zero_magnitudes(protocol) -> tuple[float, float]:
    """Pair 0's magnitude at the all-pi/4 point and its largest over the
    canonical points of the 9^n check grid, every product built in this
    call: the check grid's cached layout plus a pi/4 column, each site's
    ``cos +- sin`` factors multiplied in left to right, then
    ``linalg.pair_magnitudes`` at the corner turn, times |z_c|."""
    n = protocol.n
    axis = np.linspace(0.0, math.pi / 2, 9)
    layout, = canonical_layouts(np.broadcast_to(axis, (1, n, 9)),
                                np.full((1, n), 9))
    cols = np.concatenate([layout, np.full((n, 1), 9, layout.dtype)],
                          axis=1)
    values = np.append(axis, math.pi / 4)
    cs, sn = np.cos(values), np.sin(values)
    trig = np.stack([cs + sn, cs - sn])
    table = trig.take(cols[0], axis=1)
    for col in cols[1:]:
        table *= trig.take(col, axis=1)
    m = cols.shape[1]
    magnitudes, = pair_magnitudes(table, corner_turn(protocol),
                                  np.empty((1, m)), np.empty((1, m), complex))
    magnitudes *= abs(corner_coefficient(protocol))
    return float(magnitudes[-1]), float(magnitudes[:-1].max())


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
    zc = per_family_corner_coefficient(protocol)
    sig = pair_sign_matrix(protocol.n)
    return (zc * signed_site_product(cs, sn, -sig)
            + np.conj(zc) * signed_site_product(cs, sn, sig))


def exact_turn(zc: complex) -> complex:
    """v = conj(u)^2 of the phase u = z_c/|z_c|, rounded to the nearest of
    1, -1, i and -i."""
    v = np.conj(zc / abs(zc)) ** 2
    return complex(round(v.real), round(v.imag))


def real_corner_magnitude(zc: complex, complement: np.ndarray,
                          table: np.ndarray) -> np.ndarray:
    """|z_c T~ + conj(z_c) T| through the shared phase u = z_c/|z_c|:
    |z_c| |T~ + v T|, v = ``exact_turn(zc)``, for real products T~ and T."""
    return abs(zc) * np.abs(complement + exact_turn(zc) * table)


def real_corner_magnitudes(protocol, cs: np.ndarray,
                           sn: np.ndarray) -> np.ndarray:
    """|W[b, b~]| of every pair, one signed product per pair and sign,
    combined through the shared phase (``real_corner_magnitude``)."""
    sig = pair_sign_matrix(protocol.n)
    return real_corner_magnitude(per_family_corner_coefficient(protocol),
                                 signed_site_product(cs, sn, -sig),
                                 signed_site_product(cs, sn, sig))


def channel_corner_factors(alpha: np.ndarray) -> tuple:
    """Per-site factors (dx, dy) of the channel's corner products.

    The dephasing axis is X up to pi/4 (+ ``ANGLE_SLACK``), where
    (dx, dy) = (1, g), and Y beyond, where (dx, dy) = (g, 1); the corner
    products take dx + dy and dx - dy at each site.
    """
    g = g_values(alpha)
    quarter = alpha <= math.pi / 4 + ANGLE_SLACK
    return np.where(quarter, 1.0, g), np.where(quarter, g, 1.0)


def padded_grid(axes) -> tuple:
    """One product grid of ``axes`` as the package's kernels take it.

    Returns ``rows`` of shape (1, n, w), each axis padded to the longest by
    repeating its last value, and ``lengths`` of shape (1, n).
    """
    width = max(len(axis) for axis in axes)
    rows = [np.pad(axis, (0, width - len(axis)), "edge") for axis in axes]
    return np.array(rows)[None], np.array([[len(axis) for axis in axes]])


def canonical_tuples(axes) -> np.ndarray:
    """The canonical index tuples of a product grid, by brute force.

    Axes with equal values form a group, groups numbered in order of first
    appearance.  Of every index tuple of the full product
    (``itertools.product``), those nondecreasing within every group are
    kept, ordered group by group, the first group varying slowest and each
    group's indices lexicographically.  Returns an array of shape
    (len(axes), number of tuples) whose row j indexes ``axes[j]``.
    """
    groups: list[list[int]] = []
    for j, axis in enumerate(axes):
        for group in groups:
            if np.array_equal(axes[group[0]], axis):
                group.append(j)
                break
        else:
            groups.append([j])
    full = np.fromiter(itertools.chain.from_iterable(itertools.product(
        *(range(len(axis)) for axis in axes))), dtype=np.intp).reshape(
            -1, len(axes))
    keep = np.ones(len(full), dtype=bool)
    for group in groups:
        for a, b in zip(group, group[1:]):
            keep &= full[:, a] <= full[:, b]
    kept = full[keep]
    # np.lexsort sorts by its last key first.
    order = np.lexsort([kept[:, j] for group in groups for j in group][::-1])
    return kept[order].T


def _canonical_scan_tables(protocol, axes) -> tuple:
    """What both orbit-reduced scan oracles read at ``canonical_tuples``.

    Returns the tuples, the pair signs, each pair's diagonal entry D (mu
    not yet subtracted), and the channel's and the Bell corner's per-site
    values, (dx, dy) and (cos, sin), at every canonical point.
    """
    idx = canonical_tuples(axes)

    def at_points(per_axis):
        return np.array([values[i] for values, i in zip(per_axis, idx)])

    cs = at_points([np.cos(a) for a in axes])
    sn = at_points([np.sin(a) for a in axes])
    factors = [channel_corner_factors(a) for a in axes]
    dx = at_points([f[0] for f in factors])
    dy = at_points([f[1] for f in factors])
    gs = at_points([g_values(a) for a in axes])
    ones = np.ones_like(gs)
    sig = pair_sign_matrix(protocol.n)
    scale = 1.0 / 2 ** (protocol.n + 1)
    diag = scale * (signed_site_product(ones, gs, sig)
                    + signed_site_product(ones, gs, -sig))
    return idx, sig, diag, (dx, dy), (cs, sn)


def _scan_minimum(low: np.ndarray, idx: np.ndarray, axes) -> tuple:
    """The first pair's, then the first point's, least block value, its
    angles, its pair and the number of values, as the scan reports them."""
    pair, k = divmod(int(np.argmin(low)), low.shape[1])
    point = tuple(float(axes[j][idx[j, k]]) for j in range(len(axes)))
    return float(low[pair, k]), point, pair, low.size


def complex_min_block_over_axes(protocol, s: float, mu: float, axes) -> tuple:
    """Orbit-reduced scan minimum in complex arithmetic.

    Same contract and return tuple as ``verifier._min_block_over_products``
    gives for the one grid ``padded_grid(axes)``: the minimum, its angles,
    the binding pair and the evaluation count.  The points are
    ``canonical_tuples(axes)``.  The channel corner takes the phase
    z_c/|z_c| and the Bell corner z_c, each pair's two products combined
    in complex arithmetic.
    """
    zc = per_family_corner_coefficient(protocol)
    psi = zc / abs(zc)
    idx, sig, diag, (dx, dy), (cs, sn) = _canonical_scan_tables(protocol,
                                                                axes)
    scale = 1.0 / 2 ** (protocol.n + 1)
    kc = scale * (np.conj(psi) * signed_site_product(dx, dy, sig)
                  + psi * signed_site_product(dx, dy, -sig))
    low = (diag - mu) - np.abs(kc - s * complex_corner_entries(protocol,
                                                                cs, sn))
    return _scan_minimum(low, idx, axes)


def real_min_block_over_axes(protocol, s: float, mu: float, axes) -> tuple:
    """Orbit-reduced scan minimum through one real table per pair.

    Same contract and return tuple as ``complex_min_block_over_axes``.  The
    channel and Bell corners share the phase u = z_c/|z_c|, so
    |K_b - s W_b| = scale |X_b~ + v X_b| with X = C - (s |z_c|/scale) B, C
    and B the channel's and the Bell corner's signed products per pair and
    sign, and v = conj(u)^2 rounded to the nearest of 1, -1, i and -i.  The
    package's scan kernel must match this bit for bit.
    """
    zc = per_family_corner_coefficient(protocol)
    idx, sig, diag, (dx, dy), (cs, sn) = _canonical_scan_tables(protocol,
                                                                axes)
    scale = 1.0 / 2 ** (protocol.n + 1)
    ratio = s * (abs(zc) / scale)
    x, x_complement = (signed_site_product(dx, dy, signs)
                       - ratio * signed_site_product(cs, sn, signs)
                       for signs in (sig, -sig))
    low = (diag - mu) - scale * np.abs(x_complement + exact_turn(zc) * x)
    return _scan_minimum(low, idx, axes)


def per_axis_stencil(p: np.ndarray, h: float, lo: float,
                     hi: float) -> list[np.ndarray]:
    """Refinement stencil around ``p``, one ``linspace`` per axis.

    Five points from p[j] - h to p[j] + h on each axis, clipped to [lo, hi],
    each point kept once (``np.unique``).
    """
    return [np.unique(np.clip(np.linspace(c - h, c + h, 5), lo, hi))
            for c in p]


def sequential_refinement(constants, grid) -> tuple:
    """``min_eig_over_grid`` refining one round per kernel call.

    The grid pass, then ``REFINEMENT_DEPTH`` rounds, each one
    ``_min_block_over_products`` call on the ``padded_grid`` of
    ``per_axis_stencil`` around the current minimiser, as the scan refined
    before it batched its rounds; a round whose minimum is smaller moves
    the centre.  Returns the report,
    built as the package builds it at the default tolerance, and the
    0-based rounds that moved the centre.
    """
    protocol = constants.protocol
    lo, hi = grid.domain
    n = protocol.n
    axis = np.linspace(lo, hi, grid.points_per_axis)
    (best, point, pair, evaluations), = _min_block_over_products(
        protocol, constants.s, constants.mu, *padded_grid([axis] * n))
    refined, moves = False, []
    if abs(best) <= 10 * PSD_TOLERANCE:
        refined = True
        h = (hi - lo) / (grid.points_per_axis - 1)
        p = np.array(point)
        for round_ in range(REFINEMENT_DEPTH):
            (value, sub_point, sub_pair, count), = _min_block_over_products(
                protocol, constants.s, constants.mu,
                *padded_grid(per_axis_stencil(p, h, lo, hi)))
            evaluations += count
            if value < best:
                best, point, pair = value, sub_point, sub_pair
                p = np.array(sub_point)
                moves.append(round_)
            h /= 2.0
    report = CertificationReport(
        constants=constants, grid_points_per_axis=grid.points_per_axis,
        min_eigenvalue=best, argmin_angles=tuple(point), refined=refined,
        passed=bool(math.isfinite(best) and best >= -PSD_TOLERANCE),
        binding_pair=pair, block_evaluations=evaluations)
    return report, moves


def random_x_matrix(rng: np.random.Generator, n: int,
                    density: bool = False) -> np.ndarray:
    """Random matrix zero off its diagonal and antidiagonal.

    One random 2 x 2 block is placed on each index pair (b, 2^n - 1 - b):
    Hermitian, or, when ``density`` is set, positive semidefinite and scaled
    so the whole matrix has unit trace.
    """
    dim = 2 ** n
    m = np.zeros((dim, dim), dtype=complex)
    for b in range(dim // 2):
        if density:
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            block = g @ g.conj().T
        else:
            block = random_hermitian(rng, 2)
        pair = np.array([b, dim - 1 - b])
        m[np.ix_(pair, pair)] = block
    if density:
        m /= np.trace(m).real
    return m


def emit_curve_by_point(protocol, resolution: int = 50) -> TradeoffCurve:
    """The tradeoff curve one point at a time, through the scalar checks."""
    resolution = check_integer(resolution, "curve resolution", 2,
                               MAX_CURVE_POINTS)
    constants = catalog_constants(protocol)
    start = constants.beta_T
    stop = protocol.beta_Q
    step = (stop - start) / (resolution - 1)
    points = []
    for i in range(resolution):
        beta = stop if i == resolution - 1 else start + i * step
        points.append(CurvePoint(
            beta_O=beta,
            relative_violation=relative_violation(protocol, beta),
            fidelity_bound=fidelity_lower_bound(constants, beta)))
    return TradeoffCurve(protocol=protocol, points=points)


def curve_to_csv_by_field(curve: TradeoffCurve) -> str:
    """The curve's csv, every field through ``format_float``."""
    lines = ["beta_O,relative_violation,fidelity_bound"]
    for point in curve.points:
        lines.append(",".join(format_float(v) for v in (
            point.beta_O, point.relative_violation, point.fidelity_bound)))
    return "\n".join(lines) + "\n"


def full_parse(argv: list[str]):
    """``argv`` parsed whole by the CLI's top-level parser; with
    ``--config``, parsed whole again with the file's flags placed right
    after the subcommand's name."""
    parser = ghzcert.cli._build_parser()[0]
    args = parser.parse_args(argv)
    if args.command is None or args.config is None:
        return args
    flags = [("-n=" if key == "n" else f"--{key.replace('_', '-')}=") + value
             for key, value in ghzcert.cli._load_config(args.config).items()
             if key in vars(args) and key not in ("command", "config")]
    at = argv.index(args.command) + 1
    return parser.parse_args(argv[:at] + flags + argv[at:])
