"""Certificate verification: operator assembly, block reduction, grid scans.

The fidelity certificate asserts that the operator

    T(angles) = Lambda(rho_GHZ) - s W(angles) - mu I

is positive semidefinite for every angle tuple in the scan domain, where
Lambda is the dephasing extraction channel, W the Bell operator, and (s, mu)
the catalog constants of the scenario.  Because W is antidiagonal and the
channel output is diagonal plus antidiagonal, T splits into 2^(n-1) two-by-two
blocks over index pairs (b, 2^n - 1 - b).  The scan therefore only needs the
closed-form lower eigenvalue of each block, which this module evaluates on
product grids with local refinement around the minimizer.

Bell coefficients depend only on Hamming weight and the channel acts the same
way on every site, so permuting the parties maps block b at angles alpha to
block pi(b) at pi(alpha).  The minimum over all blocks is therefore constant
on each permutation orbit of a grid, and the scan evaluates one sorted angle
tuple per orbit: C(P + n - 1, n) of the P^n grid points, each with all
2^(n-1) pairs at once, each block entry read off a ``sign_products`` table.
Refinement stencils shrink the same way along axes that coincide.  A grid
pass above ``MAX_BLOCK_EVALUATIONS`` block evaluations is refused before
anything is allocated.

Independent routes cross-check the reduction:

* ``block_decompose`` reads each 2 x 2 block of the assembled matrix off its
  index pair and fails loudly if any off-block weight remains;
  ``block_unitary``, the pairing permutation, is its reference.
* ``sv3_block_functions`` / ``sv4_block_functions`` are hand-expanded scalar
  formulas for the block entries of the three- and four-party Svetlichny
  certificates, with ``sv4_determinant`` and ``projector_lambda`` covering
  the determinant and parity-sector routes.
* ``closed_form_crosscheck`` samples random angle tuples and confirms all of
  the above against the matrix route.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bell import (ANGLE_SLACK, MABK, SQRT2, SVETLICHNY, BellProtocol,
                   build_operator, check_angle, corner_entries, ghz_phase)
from .linalg import canonical_indices, outer_all, sign_products
from .root2 import Root2
from .states import DephasingChannel, apply_channel, g_values, ghz_state

PSD_TOLERANCE = 1e-8
_BLOCK_RESIDUE_TOL = 1e-12
# Largest grid pass min_eig_over_grid accepts, in 2 x 2 block evaluations
# (canonical points times pairs).  A scan peaks at about 82 bytes per
# evaluation, so the largest accepted one stays under about 650 MB.
MAX_BLOCK_EVALUATIONS = 8_000_000
# Most samples closed_form_crosscheck draws, at about 0.36 ms each (n = 4).
MAX_CROSSCHECK_SAMPLES = 100_000


class StructureViolation(Exception):
    """Raised when a matrix lacks the diagonal-plus-antidiagonal structure."""


@dataclass(frozen=True)
class CertificateConstants:
    """Slope s, offset mu, and threshold beta_T of one certificate."""

    protocol: BellProtocol
    s: float
    mu: float
    beta_T: float
    s_exact: Optional[Root2] = None
    mu_exact: Optional[Root2] = None
    beta_T_exact: Optional[Root2] = None


@dataclass(frozen=True)
class GridSpec:
    """Product grid description for the certificate scan."""

    points_per_axis: int
    domain: Tuple[float, float] = (0.0, math.pi / 4)
    refinement_depth: int = 6

    def __post_init__(self) -> None:
        if self.points_per_axis < 2:
            raise ValueError("grid needs at least 2 points per axis")
        lo, hi = self.domain
        if not (-ANGLE_SLACK <= lo < hi <= math.pi / 2 + ANGLE_SLACK):
            raise ValueError(f"invalid scan domain {self.domain}")
        if self.refinement_depth < 0:
            raise ValueError("refinement depth must be nonnegative")


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of one grid scan.

    ``binding_pair`` is the block pair b (of 2^(n-1)) holding the minimum and
    ``block_evaluations`` counts the 2 x 2 blocks evaluated by the grid pass
    and every refinement round.
    """

    constants: CertificateConstants
    grid_points_per_axis: int
    min_eigenvalue: float
    argmin_angles: Tuple[float, ...]
    refined: bool
    passed: bool
    binding_pair: int
    block_evaluations: int


# The one free constant of each scenario, the slope s.  Tightness at the
# ideal state fixes the offset mu = 1 - s * beta_Q.
_CATALOG: Dict[Tuple[str, int], Root2] = {
    (SVETLICHNY, 3): Root2(Fraction(3, 16), Fraction(3, 16)),
    (SVETLICHNY, 4): Root2(Fraction(1, 16), Fraction(1, 16)),
    (SVETLICHNY, 5): Root2(Fraction(1, 32), Fraction(1, 32)),
    (MABK, 3): Root2(Fraction(1, 4), Fraction(1, 8)),
    (MABK, 4): Root2(Fraction(1, 8), Fraction(1, 16)),
    (MABK, 5): Root2(Fraction(1, 16), Fraction(1, 32)),
}


@functools.lru_cache(maxsize=None)
def catalog_constants(protocol: BellProtocol) -> CertificateConstants:
    """Certificate constants for the supported scenarios, exact and float.

    The catalog slope s fixes mu = 1 - s * beta_Q and the threshold
    beta_T = (1/2 - mu) / s, where the fidelity bound s * beta + mu is 1/2.
    Derived once per scenario (the exact arithmetic takes about 0.1 ms);
    every caller shares the frozen result.
    """
    key = (protocol.family, protocol.n)
    if key not in _CATALOG:
        raise ValueError(f"no catalog constants for {protocol.family} n={protocol.n}")
    s = _CATALOG[key]
    mu = 1 - s * protocol.beta_Q_exact
    beta_t = (Fraction(1, 2) - mu) / s
    return CertificateConstants(protocol=protocol, s=float(s), mu=float(mu),
                                beta_T=float(beta_t), s_exact=s, mu_exact=mu,
                                beta_T_exact=beta_t)


def build_T(protocol: BellProtocol, angles: Sequence[float], s: float,
            mu: float) -> np.ndarray:
    """Assemble the certificate matrix Lambda(rho) - s W - mu I."""
    rho = ghz_state(protocol).rho
    channel = DephasingChannel(tuple(angles))
    if channel.n != protocol.n:
        raise ValueError(f"expected {protocol.n} angles, got {channel.n}")
    w = build_operator(protocol, angles)
    return apply_channel(rho, channel) - s * w - mu * np.eye(protocol.dim)


def block_unitary(n: int) -> np.ndarray:
    """Permutation matrix pairing each index b with its complement.

    Column k holds a single 1 at row 2k for k < 2^(n-1) and at row
    2(2^n - 1 - k) + 1 otherwise, so conjugation by this matrix brings a
    diagonal-plus-antidiagonal matrix into 2 x 2 block-diagonal form.
    """
    if n < 1:
        raise ValueError("need at least one party")
    dim = 2 ** n
    u = np.zeros((dim, dim))
    for k in range(dim):
        row = 2 * k if k < dim // 2 else 2 * (dim - 1 - k) + 1
        u[row, k] = 1.0
    return u


@functools.lru_cache(maxsize=None)
def _block_layout(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Flat indices of every 2 x 2 pair block and of every off-block entry.

    Block i holds the entries of index pair (i, 2^n - 1 - i), shape
    (2^(n-1), 2, 2); both arrays are read-only.
    """
    dim = 2 ** n
    low = np.arange(dim // 2)
    pairs = np.stack([low, dim - 1 - low], axis=1)
    on_block = pairs[:, :, None] * dim + pairs[:, None, :]
    off = np.ones(dim * dim, dtype=bool)
    off[on_block.ravel()] = False
    off_block = np.flatnonzero(off)
    on_block.setflags(write=False)
    off_block.setflags(write=False)
    return on_block, off_block


def block_decompose(t: np.ndarray, n: int,
                    residue_tol: float = _BLOCK_RESIDUE_TOL) -> List[np.ndarray]:
    """Split a diagonal-plus-antidiagonal matrix into its 2 x 2 blocks.

    Block i is t restricted to the index pair (i, 2^n - 1 - i), the block
    that conjugation by ``block_unitary`` brings to the diagonal.  Raises
    ValueError on non-finite input and StructureViolation if any entry off
    the diagonal and antidiagonal exceeds ``residue_tol``.
    """
    t = np.asarray(t, dtype=complex)
    dim = 2 ** n
    if t.shape != (dim, dim):
        raise ValueError(f"expected a {dim} x {dim} matrix, got {t.shape}")
    flat = t.ravel()
    if not np.isfinite(flat).all():
        raise ValueError("matrix has non-finite entries")
    on_block, off_block = _block_layout(n)
    worst = float(np.max(np.abs(flat[off_block]), initial=0.0))
    # Written so that a NaN residue or tolerance fails too.
    if not worst <= residue_tol:
        raise StructureViolation(
            f"off-block weight {worst} exceeds tolerance {residue_tol}")
    return list(flat[on_block])


def _min_block_over_axes(protocol: BellProtocol, s: float, mu: float,
                         axes: Sequence[np.ndarray]):
    """Minimum block lower-eigenvalue over a product grid of angles.

    Evaluates, for every antidiagonal pair b and every canonical grid point,
    the closed-form lower eigenvalue (D - mu) - |K_c - s W_c| of the 2 x 2
    block, where D and K_c are the diagonal and corner entries of the channel
    output and W_c the corner entry of the Bell operator.  Each sums the
    per-site products of pair b and its complement, rows of one
    ``sign_products`` table dropped once reduced.  Permuting parties
    maps block b at a point to block pi(b) at the permuted point, so the
    minimum over all pairs is the same on every point of a permutation orbit
    and only one tuple per orbit (``canonical_indices``) is evaluated.
    Returns the minimum, its angles, the binding pair and the number of
    block evaluations.
    """
    n = protocol.n
    half, scale = 2 ** (n - 1), 1.0 / 2 ** (n + 1)
    idx = canonical_indices(axes)
    quarter = [a <= math.pi / 4 + ANGLE_SLACK for a in axes]
    g_axes = [g_values(a) for a in axes]

    def at_points(per_axis):
        return np.array([values[i] for values, i in zip(per_axis, idx)])

    gs = at_points(g_axes)
    table = sign_products(1.0 + gs, 1.0 - gs)
    low = scale * (table[:half] + table[::-1][:half]) - mu
    del gs, table
    dx = at_points([np.where(q, 1.0, g) for q, g in zip(quarter, g_axes)])
    dy = at_points([np.where(q, g, 1.0) for q, g in zip(quarter, g_axes)])
    table = sign_products(dx + dy, dx - dy)
    plus, minus, psi = table[:half], table[::-1][:half], ghz_phase(protocol)
    corner = np.empty(low.shape, dtype=complex)
    corner.real = scale * (psi.real * plus + psi.real * minus)
    corner.imag = scale * ((-psi.imag) * plus + psi.imag * minus)
    del dx, dy, table, plus, minus
    w = corner_entries(protocol, at_points([np.cos(a) for a in axes]),
                       at_points([np.sin(a) for a in axes]))
    corner.real -= s * w.real
    corner.imag -= s * w.imag
    low -= np.abs(corner)
    pair, k = divmod(int(np.argmin(low)), low.shape[1])
    point = tuple(float(axes[j][idx[j, k]]) for j in range(n))
    return float(low[pair, k]), point, pair, low.size


def min_eig_over_grid(protocol: BellProtocol, constants: CertificateConstants,
                      grid: GridSpec,
                      psd_tol: float = PSD_TOLERANCE) -> CertificationReport:
    """Scan the certificate over a product grid and report the minimum.

    The grid pass evaluates C(P + n - 1, n) canonical points (sorted angle
    tuples) times 2^(n-1) block pairs; requests above
    ``MAX_BLOCK_EVALUATIONS`` are refused before anything is allocated.
    When the grid minimum sits near zero the scan refines locally around the
    minimizer, shrinking a 5-point stencil (clipped to the domain, with
    repeated edge points dropped) for ``refinement_depth`` rounds,
    so the reported value reflects the continuum minimum rather than grid
    placement.  Non-finite constants or tolerance, and constants large
    enough to overflow the scan, raise ValueError; a non-finite minimum
    never passes.
    """
    for name, value in (("s", constants.s), ("mu", constants.mu),
                        ("PSD tolerance", psd_tol)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if psd_tol < 0.0:
        raise ValueError(f"PSD tolerance must be nonnegative, got {psd_tol}")
    lo, hi = grid.domain
    n = protocol.n
    grid_evaluations = (math.comb(grid.points_per_axis + n - 1, n)
                        * 2 ** (n - 1))
    if grid_evaluations > MAX_BLOCK_EVALUATIONS:
        raise ValueError(
            f"grid of {grid.points_per_axis} points per axis needs "
            f"{grid_evaluations} block evaluations at n={n}, above the "
            f"limit {MAX_BLOCK_EVALUATIONS}")
    try:
        with np.errstate(over="raise", invalid="raise"):
            axis = np.linspace(lo, hi, grid.points_per_axis)
            best, point, pair, evaluations = _min_block_over_axes(
                protocol, constants.s, constants.mu, [axis] * n)
            refined = False
            if abs(best) <= 10 * psd_tol and grid.refinement_depth > 0:
                refined = True
                h = (hi - lo) / (grid.points_per_axis - 1)
                p = np.array(point)
                for _ in range(grid.refinement_depth):
                    # Clipping at the domain edge repeats the edge point;
                    # keep each stencil point once.
                    sub = [np.unique(np.clip(
                               np.linspace(p[j] - h, p[j] + h, 5), lo, hi))
                           for j in range(n)]
                    value, sub_point, sub_pair, count = _min_block_over_axes(
                        protocol, constants.s, constants.mu, sub)
                    evaluations += count
                    if value < best:
                        best, point, pair = value, sub_point, sub_pair
                        p = np.array(sub_point)
                    h /= 2.0
    except FloatingPointError as exc:
        raise ValueError(
            f"s={constants.s} and mu={constants.mu} overflow the "
            f"certificate scan ({exc})") from None
    return CertificationReport(constants=constants,
                               grid_points_per_axis=grid.points_per_axis,
                               min_eigenvalue=best,
                               argmin_angles=tuple(point),
                               refined=refined,
                               passed=bool(math.isfinite(best)
                                           and best >= -psd_tol),
                               binding_pair=pair,
                               block_evaluations=evaluations)


def _closed_form_g(angles: Sequence[float]) -> List[float]:
    """g of each angle, after checking that all lie in [0, pi/4]."""
    return g_values(np.array([check_angle(a, math.pi / 4)
                              for a in angles])).tolist()


def sv3_block_functions(angles: Sequence[float], s: float) -> List[float]:
    """Hand-expanded block entries of the three-party Svetlichny certificate.

    Returns [f1, ..., f8]; block i over pair (i, 7 - i) has diagonal f_{2i+1}
    and corner f_{2i+2} (1-based), valid on [0, pi/4]^3 with mu tied to s by
    the kernel condition mu = 1 - 4 sqrt(2) s.
    """
    if len(angles) != 3:
        raise ValueError(f"expected 3 angles, got {len(angles)}")
    g1, g2, g3 = _closed_form_g(angles)
    a1, a2, a3 = angles
    cos, sin = math.cos, math.sin
    f1 = (-7 + g2 * g3 + g1 * (g2 + g3)) / 8 + 4 * SQRT2 * s
    f2 = (-1 - g2 * g3 - g1 * (g2 + g3)) / 8 \
        + 4 * s * cos(a1 - a2) * cos(a3) + 4 * s * sin(a1 + a2) * sin(a3)
    f3 = (-7 + g1 * g2 - (g1 + g2) * g3) / 8 + 4 * SQRT2 * s
    f4 = (-1 - g1 * g2 + (g1 + g2) * g3) / 8 \
        + 4 * s * cos(a1 - a2) * cos(a3) - 4 * s * sin(a1 + a2) * sin(a3)
    f5 = (-7 - g2 * g3 + g1 * (-g2 + g3)) / 8 + 4 * SQRT2 * s
    f6 = (-1 + g1 * (g2 - g3) + g2 * g3) / 8 \
        + 4 * s * cos(a1 + a2) * cos(a3) + 4 * s * sin(a1 - a2) * sin(a3)
    f7 = (-7 + g2 * g3 - g1 * (g2 + g3)) / 8 + 4 * SQRT2 * s
    f8 = (-1 - g2 * g3 + g1 * (g2 + g3)) / 8 \
        + 4 * s * cos(a1 + a2) * cos(a3) - 4 * s * sin(a1 - a2) * sin(a3)
    return [float(f1), float(f2), float(f3), float(f4),
            float(f5), float(f6), float(f7), float(f8)]


def _sv4_terms(angles: Sequence[float]) -> Tuple[float, float, float, float]:
    """Even and odd g sums and the two angle terms of the four-party block."""
    if len(angles) != 4:
        raise ValueError(f"expected 4 angles, got {len(angles)}")
    g0, g1, g2, g3 = _closed_form_g(angles)
    a0, a1, a2, a3 = angles
    ge = (g0 * g1 + g0 * g2 + g1 * g2 + g0 * g3 + g1 * g3 + g2 * g3
          + g0 * g1 * g2 * g3)
    go = (g0 + g1 + g2 + g3
          + g0 * g1 * g2 + g0 * g1 * g3 + g0 * g2 * g3 + g1 * g2 * g3)
    t1 = (math.cos(a0 - a3) * math.cos(a1 - a2)
          + math.sin(a1 + a2) * math.sin(a0 + a3))
    t2 = (-math.cos(a0 - a3) * math.sin(a1 + a2)
          - math.cos(a1 - a2) * math.sin(a0 + a3))
    return ge, go, t1, t2


def sv4_block_functions(angles: Sequence[float],
                        s: float) -> Tuple[float, complex]:
    """Diagonal f1 and corner f2 of the four-party outer certificate block.

    Valid on [0, pi/4]^4 with mu = 1 - 8 sqrt(2) s; the corner entry f2 is
    the (lower-left) block entry T[15, 0].
    """
    ge, go, t1, t2 = _sv4_terms(angles)
    f1 = (-15 + ge) / 16 + 8 * SQRT2 * s
    f2 = (-(1 + ge) / (16 * SQRT2) + 4 * t1 * s
          + 1j * (go / (16 * SQRT2) + 4 * t2 * s))
    return float(f1), complex(f2)


def sv4_determinant(angles: Sequence[float], s: float) -> float:
    """Determinant of the four-party outer block, expanded directly in s.

    Independent of ``sv4_block_functions``: the quadratic-in-s expansion is
    written out term by term rather than formed as f1^2 - |f2|^2.
    """
    ge, go, t1, t2 = _sv4_terms(angles)
    return ((128 - 16 * (t1 ** 2 + t2 ** 2)) * s ** 2
            + (-15 * SQRT2 + ge * SQRT2 + (1 + ge) / (2 * SQRT2) * t1
               - go / (2 * SQRT2) * t2) * s
            + ((ge + go) * (ge - go) / 2 - 31 * ge + 449 / 2) / 256)


def parity_projector(x1: int, x2: int) -> np.ndarray:
    """Rank-2 projector onto the three-qubit parity sector (x1, x2)."""
    if x1 not in (0, 1) or x2 not in (0, 1):
        raise ValueError("parity labels must be 0 or 1")
    iii = np.eye(8, dtype=complex)
    z = np.array([1.0, -1.0])
    zzi = np.diag(outer_all([z, z, np.ones(2)]).ravel()).astype(complex)
    ziz = np.diag(outer_all([z, np.ones(2), z]).ravel()).astype(complex)
    izz = np.diag(outer_all([np.ones(2), z, z]).ravel()).astype(complex)
    return (iii + (-1) ** x1 * zzi + (-1) ** x2 * ziz
            + (-1) ** (x1 + x2) * izz) / 4


def projector_lambda(angles: Sequence[float], s: float, x1: int,
                     x2: int) -> float:
    """Closed-form pair invariant of the projected certificate matrix.

    For M the certificate matrix compressed to the parity sector (x1, x2),
    returns (Tr M)^2 - Tr(M^2), which is twice the product of the two
    nonzero eigenvalues of M and hence nonnegative wherever the certificate
    holds.  Valid on [0, pi/4]^3 with mu = 1 - 4 sqrt(2) s.
    """
    if len(angles) != 3:
        raise ValueError(f"expected 3 angles, got {len(angles)}")
    if x1 not in (0, 1) or x2 not in (0, 1):
        raise ValueError("parity labels must be 0 or 1")
    g1, g2, g3 = _closed_form_g(angles)
    a1, a2, a3 = angles
    mu = 1 - 4 * SQRT2 * s
    c1, c2, c3 = (math.cos(a) for a in angles)
    s1, s2, s3 = (math.sin(a) for a in angles)
    t1 = -1 / 8 + 4 * s * c1 * c2 * c3
    t2 = g2 * g3 / 8 - 4 * s * c1 * s2 * s3
    t3 = g1 * g3 / 8 - 4 * s * s1 * c2 * s3
    t4 = g1 * g2 / 8 - 4 * s * s1 * s2 * c3
    q = 1 / 8 - mu
    lam = (2 * q ** 2 - 2 * (t1 ** 2 + t2 ** 2 + t3 ** 2 + t4 ** 2)
           + (g1 ** 2 * g2 ** 2 + g2 ** 2 * g3 ** 2 + g3 ** 2 * g1 ** 2) / 32
           + (-1) ** x1 * ((q + g3 ** 2 / 8) * g1 * g2 / 2
                           - 4 * (t2 * t3 - t1 * t4))
           + (-1) ** x2 * ((q + g2 ** 2 / 8) * g1 * g3 / 2
                           - 4 * (t2 * t4 - t1 * t3))
           + (-1) ** (x1 + x2) * ((q + g1 ** 2 / 8) * g2 * g3 / 2
                                  - 4 * (t3 * t4 - t1 * t2)))
    return float(lam)


def closed_form_crosscheck(protocol: BellProtocol, samples: int = 200,
                           seed: int = 0) -> dict:
    """Compare every closed form against the matrix route on random angles.

    Draws ``samples`` angle tuples from [0, pi/4]^n and checks the
    hand-expanded block entries (plus, for n = 4, the determinant expansion
    and the Sylvester positivity test, and for n = 3 the parity-sector
    invariant) against the assembled certificate matrix.  Only the three- and
    four-party Svetlichny scenarios have closed forms.  ``samples`` must
    lie in [1, ``MAX_CROSSCHECK_SAMPLES``]; ValueError otherwise.
    """
    if protocol.family != SVETLICHNY or protocol.n not in (3, 4):
        raise ValueError("closed forms exist only for svetlichny n in {3, 4}")
    if not 1 <= samples <= MAX_CROSSCHECK_SAMPLES:
        raise ValueError(f"need at least one sample and at most "
                         f"{MAX_CROSSCHECK_SAMPLES}, got {samples}")
    constants = catalog_constants(protocol)
    rng = np.random.default_rng(seed)
    failures: List[str] = []
    if protocol.n == 3:
        checks = ["block_entries", "parity_sector_invariant"]
        sectors = {(x1, x2): parity_projector(x1, x2)
                   for x1 in (0, 1) for x2 in (0, 1)}
    else:
        checks = ["block_entries", "determinant_expansion", "sylvester_test"]
    for index in range(samples):
        angles = tuple(rng.uniform(0.0, math.pi / 4, size=protocol.n))
        t = build_T(protocol, angles, constants.s, constants.mu)
        blocks = block_decompose(t, protocol.n)
        if protocol.n == 3:
            f = sv3_block_functions(angles, constants.s)
            for i, block in enumerate(blocks):
                if (abs(block[0, 0].real - f[2 * i]) > 1e-10
                        or abs(block[0, 1] - f[2 * i + 1]) > 1e-10):
                    failures.append(f"sample {index}: block {i} mismatch")
            for (x1, x2), p in sectors.items():
                m = p @ t @ p
                direct = np.trace(m).real ** 2 - np.trace(m @ m).real
                got = projector_lambda(angles, constants.s, x1, x2)
                if abs(got - direct) > 1e-10:
                    failures.append(
                        f"sample {index}: sector ({x1},{x2}) mismatch")
        else:
            f1, f2 = sv4_block_functions(angles, constants.s)
            block = blocks[0]
            if (abs(block[0, 0].real - f1) > 1e-10
                    or abs(block[1, 0] - f2) > 1e-10):
                failures.append(f"sample {index}: outer block mismatch")
            deter = sv4_determinant(angles, constants.s)
            if abs(deter - (f1 ** 2 - abs(f2) ** 2)) > 1e-9:
                failures.append(f"sample {index}: determinant mismatch")
            sylvester_pd = f1 > 1e-9 and deter > 1e-9
            lower = f1 - abs(f2)
            if sylvester_pd and lower < -1e-9:
                failures.append(f"sample {index}: sylvester false positive")
            if lower > 1e-9 and (f1 < -1e-9 or deter < -1e-9):
                failures.append(f"sample {index}: sylvester false negative")
    return {
        "family": protocol.family,
        "n": protocol.n,
        "samples": samples,
        "checks": checks,
        "failures": failures,
        "passed": not failures,
    }
