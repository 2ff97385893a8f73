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
2^(n-1) pairs at once, each block entry read off a ``sign_products`` table
(the channel corner shares the diagonal's up to pi/4).  The points are
walked by ``linalg.walk_canonical``, in chunks of about
``SCAN_CHUNK_EVALUATIONS`` block evaluations in buffers kept per thread, so
the tables neither grow with the grid nor are allocated per chunk, and the
canonical points of a grid are a layout cached by its shape.  Refinement
stencils, built in one call over every axis, shrink the same way along axes
that coincide.  A grid pass above ``MAX_BLOCK_EVALUATIONS`` block
evaluations is refused before anything is allocated.

Independent routes cross-check the reduction:

* ``block_decompose`` reads each 2 x 2 block of the assembled matrix off its
  index pair and fails loudly if any off-block weight remains; the tests
  compare it with conjugation by the pairing permutation.
* ``sv3_block_functions`` / ``sv4_block_functions`` are hand-expanded
  formulas for the block entries of the three- and four-party Svetlichny
  certificates, with ``sv4_determinant`` and ``projector_lambda`` covering
  the determinant and parity-sector routes.  Each takes one angle tuple or
  a batch of them and runs the same numpy expressions on both.
* ``closed_form_crosscheck`` samples random angle tuples and confirms all of
  the above against the matrix route in batches of tuples: one ``build_T``
  call and one call of each closed form per batch, each check one boolean
  mask over the batch.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Dict, List, Sequence, Tuple

import numpy as np

from .bell import (ANGLE_SLACK, MABK, SQRT2, SVETLICHNY, BellProtocol,
                   build_operator, check_angles, chunk_corner_entries,
                   corner_coefficient, ghz_phase)
from .linalg import (chunk_sign_products, conjugate_pair_sum, outer_all,
                     walk_canonical)
from .root2 import Root2
from .states import apply_channel, g_values, ghz_state

PSD_TOLERANCE = 1e-8
_BLOCK_RESIDUE_TOL = 1e-12
# Rounds of local refinement around a grid minimum near zero.
REFINEMENT_DEPTH = 6
# Largest grid pass min_eig_over_grid accepts, in 2 x 2 block evaluations
# (canonical points times pairs).  The largest accepted pass, n = 3 on grid
# 227, peaks at about 73 MB resident, most of it building the one-byte
# canonical layout; the scan's tables are bounded by SCAN_CHUNK_EVALUATIONS.
MAX_BLOCK_EVALUATIONS = 8_000_000
# Most samples closed_form_crosscheck draws, at about 0.03 ms each (n = 3)
# and 0.04 ms (n = 4), nearly all of it the batched matrix route.
MAX_CROSSCHECK_SAMPLES = 100_000
# Most matrix entries, k 4^n over a chunk of k samples, that
# closed_form_crosscheck assembles in one batched build_T call: 32 samples
# at n = 4 and 128 at n = 3, so its memory does not grow with the sample
# count.
CROSSCHECK_CHUNK_ENTRIES = 2 ** 13


class StructureViolation(Exception):
    """Raised when a matrix lacks the diagonal-plus-antidiagonal structure.

    ``index`` is the offending matrix's place in its batch, 0 for a single
    matrix.
    """

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class CertificateConstants:
    """Slope s, offset mu, and threshold beta_T of one certificate."""

    protocol: BellProtocol
    s: float
    mu: float
    beta_T: float


@dataclass(frozen=True)
class GridSpec:
    """Product grid description for the certificate scan.

    ``refinement_depth`` is ``REFINEMENT_DEPTH`` as a class attribute, not
    a field: the benchmark worker reads it from an instance.
    """

    points_per_axis: int
    domain: Tuple[float, float] = (0.0, math.pi / 4)
    refinement_depth: ClassVar[int] = REFINEMENT_DEPTH

    def __post_init__(self) -> None:
        if self.points_per_axis < 2:
            raise ValueError("grid needs at least 2 points per axis")
        lo, hi = self.domain
        if not (-ANGLE_SLACK <= lo < hi <= math.pi / 2 + ANGLE_SLACK):
            raise ValueError(f"invalid scan domain {self.domain}")


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
    """Certificate constants for the supported scenarios.

    The catalog slope s fixes mu = 1 - s * beta_Q and the threshold
    beta_T = (1/2 - mu) / s, where the fidelity bound s * beta + mu is 1/2;
    both are derived exactly in Q[sqrt(2)] and stored as floats.  Derived
    once per scenario (the exact arithmetic takes about 0.1 ms); every
    caller shares the frozen result.
    """
    key = (protocol.family, protocol.n)
    if key not in _CATALOG:
        raise ValueError(f"no catalog constants for {protocol.family} n={protocol.n}")
    s = _CATALOG[key]
    mu = 1 - s * protocol.beta_Q_exact
    beta_t = (Fraction(1, 2) - mu) / s
    return CertificateConstants(protocol=protocol, s=float(s), mu=float(mu),
                                beta_T=float(beta_t))


def build_T(protocol: BellProtocol, angles: Sequence[float] | np.ndarray,
            s: float, mu: float) -> np.ndarray:
    """Assemble the certificate matrix Lambda(rho) - s W - mu I.

    ``angles`` is one tuple, shape (n,), giving a 2^n x 2^n matrix, or a
    batch of k tuples, shape (k, n), giving k matrices from one batched
    ``build_operator`` and one batched ``apply_channel`` call.
    """
    w = build_operator(protocol, angles)
    lam = apply_channel(ghz_state(protocol), angles)
    return lam - s * w - mu * np.eye(protocol.dim)


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


def block_decompose(t: np.ndarray, n: int) -> list:
    """Split diagonal-plus-antidiagonal matrices into their 2 x 2 blocks.

    Block i is t restricted to the index pair (i, 2^n - 1 - i), the i-th
    diagonal block after the permutation that pairs each index with its
    complement.  One
    matrix, shape (2^n, 2^n), gives its list of blocks; a batch of k,
    shape (k, 2^n, 2^n), gives k such lists.  Raises ValueError on
    non-finite input and StructureViolation if any entry of any matrix off
    the diagonal and antidiagonal exceeds ``_BLOCK_RESIDUE_TOL`` (1e-12).
    """
    t = np.asarray(t, dtype=complex)
    blocks = [list(matrix) for matrix in _block_array(t, n)]
    return blocks if t.ndim == 3 else blocks[0]


def _block_array(t: np.ndarray, n: int) -> np.ndarray:
    """The blocks of ``block_decompose`` as one array, with the same checks.

    One matrix or a batch of k gives shape (k, 2^(n-1), 2, 2), k = 1 for one
    matrix; ``t`` must already be a complex array.
    """
    dim = 2 ** n
    if t.ndim not in (2, 3) or t.shape[-2:] != (dim, dim):
        raise ValueError(f"expected {dim} x {dim} matrices, got {t.shape}")
    flat = t.reshape(-1, dim * dim)
    if not np.isfinite(flat).all():
        raise ValueError("matrix has non-finite entries")
    on_block, off_block = _block_layout(n)
    worst = np.max(np.abs(flat[:, off_block]), axis=1, initial=0.0)
    if not (worst <= _BLOCK_RESIDUE_TOL).all():
        index = int(np.argmax(worst))
        raise StructureViolation(
            f"off-block weight {worst[index]} of matrix {index} exceeds "
            f"tolerance {_BLOCK_RESIDUE_TOL}", index)
    return flat[:, on_block]


def _min_block_over_axes(protocol: BellProtocol, s: float, mu: float,
                         axes: Sequence[np.ndarray]):
    """Minimum block lower-eigenvalue over a product grid of angles.

    Evaluates, for every antidiagonal pair b and every canonical grid point,
    the closed-form lower eigenvalue (D - mu) - |K_c - s W_c| of the 2 x 2
    block, where D and K_c are the diagonal and corner entries of the channel
    output and W_c the corner entry of the Bell operator.  Each sums the
    per-site products of pair b and its complement, rows of a
    ``sign_products`` table.  Permuting parties maps block b at a point to
    block pi(b) at the permuted point, so the minimum over all pairs is the
    same on every point of a permutation orbit and only one tuple per orbit
    is evaluated.

    The loop body runs once per chunk of ``walk_canonical``, in its
    per-thread buffers.  Each chunk builds the diagonal's table, the
    channel corner's and the Bell corner's (``chunk_corner_entries``) in
    turn, in one buffer.  The channel corner's site factors (dx + dy,
    dx - dy) are (1 + g, 1 - g) up to pi/4, where dx = 1 and dy = g, and
    (1 + g, -(1 - g)) beyond, where dx = g and dy = 1.  So its table is the
    diagonal's, rebuilt from the negated minus factors only when some axis
    passes pi/4; a negated factor negates the product bit for bit.  Ties go
    to the first pair, then the first canonical point, as one ``argmin``
    over the whole grid would choose.  Returns the minimum, its angles, the
    binding pair and the number of block evaluations.
    """
    n = protocol.n
    half, scale = 2 ** (n - 1), 1.0 / 2 ** (n + 1)
    # The site factors at every axis value, all axes end to end, one row of
    # each pair: 1 + g and 1 - g of the diagonal, 1 + g and +-(1 - g) of the
    # channel corner, cos + sin and cos - sin of the Bell corner.
    values = np.concatenate(axes)
    g = g_values(values)
    diagonal = np.stack([1.0 + g, 1.0 - g])
    beyond = ~(values <= math.pi / 4 + ANGLE_SLACK)
    flips = bool(beyond.any())
    channel = np.stack([diagonal[0],
                        np.where(beyond, -diagonal[1], diagonal[1])])
    cs, sn = np.cos(values), np.sin(values)
    trig = np.stack([cs + sn, cs - sn])
    channel_z = scale * ghz_phase(protocol)
    bell_z = corner_coefficient(protocol)
    best, evaluations = None, 0
    for _, buffers in walk_canonical(axes):
        low, scratch = buffers["low"], buffers["scratch"]
        table = chunk_sign_products(diagonal, buffers)
        np.add(table[:half], table[::-1][:half], out=low)
        low *= scale
        low -= mu
        if flips:
            chunk_sign_products(channel, buffers)
        corner = conjugate_pair_sum(table, channel_z, buffers["channel"],
                                    scratch)
        w = chunk_corner_entries(trig, bell_z, buffers)
        w.real *= s
        w.imag *= s
        corner -= w
        low -= np.abs(corner, out=scratch[0])
        pair, k = divmod(int(low.argmin()), low.shape[1])
        value = float(low[pair, k])
        # An earlier chunk holds earlier points, so it keeps a tie unless
        # the later one binds at a smaller pair.
        if best is None or (value, pair) < best[:2]:
            best = value, pair, values[buffers["cols"][:, k]]
        evaluations += low.size
    value, pair, point = best
    return value, tuple(float(v) for v in point), pair, evaluations


def _stencil(p: np.ndarray, h: float, lo: float,
             hi: float) -> List[np.ndarray]:
    """The refinement stencil around ``p``: 5 points per axis, step h/2.

    Built in one ``linspace`` over every axis and clipped to [lo, hi];
    clipping at the domain edge repeats the edge point, and each axis keeps
    each point once, in ascending order.
    """
    points = np.clip(np.linspace(p - h, p + h, 5, axis=1), lo, hi)
    keep = np.empty(points.shape, dtype=bool)
    keep[:, 0] = True
    np.not_equal(points[:, 1:], points[:, :-1], out=keep[:, 1:])
    return [row[mask] for row, mask in zip(points, keep)]


def min_eig_over_grid(constants: CertificateConstants, grid: GridSpec,
                      psd_tol: float = PSD_TOLERANCE) -> CertificationReport:
    """Scan the certificate over a product grid and report the minimum.

    The scenario scanned is ``constants.protocol``, the one the report's
    constants name.  The grid pass evaluates C(P + n - 1, n) canonical
    points (sorted angle tuples) times 2^(n-1) block pairs; requests above
    ``MAX_BLOCK_EVALUATIONS`` are refused before anything is allocated.
    When the grid minimum sits near zero the scan refines locally around the
    minimizer, shrinking a 5-point stencil (clipped to the domain, with
    repeated edge points dropped) for ``REFINEMENT_DEPTH`` rounds,
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
    protocol = constants.protocol
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
            if abs(best) <= 10 * psd_tol:
                refined = True
                h = (hi - lo) / (grid.points_per_axis - 1)
                p = np.array(point)
                for _ in range(REFINEMENT_DEPTH):
                    value, sub_point, sub_pair, count = _min_block_over_axes(
                        protocol, constants.s, constants.mu,
                        _stencil(p, h, lo, hi))
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


def _site_rows(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Angles and g values of checked tuples, one contiguous row per site.

    ``a`` is one tuple, shape (n,), or a batch of k, shape (k, n); a single
    tuple is the batch of one, so both have shape (n, k).
    """
    rows = np.ascontiguousarray(a.reshape(-1, a.shape[-1]).T)
    return rows, g_values(rows)


def sv3_block_functions(angles: Sequence[float] | np.ndarray,
                        s: float) -> List[float] | np.ndarray:
    """Hand-expanded block entries of the three-party Svetlichny certificate.

    Returns [f1, ..., f8]; block i over pair (i, 7 - i) has diagonal f_{2i+1}
    and corner f_{2i+2} (1-based), valid on [0, pi/4]^3 with mu tied to s by
    the kernel condition mu = 1 - 4 sqrt(2) s.  ``angles`` is one tuple,
    shape (3,), giving a list of floats, or a batch of k, shape (k, 3),
    giving an array of shape (k, 8) whose rows equal the one-tuple calls.
    Any angle outside [0, pi/4], NaN included, raises ValueError.
    """
    a = check_angles(angles, 3, math.pi / 4)
    (a1, a2, a3), (g1, g2, g3) = _site_rows(a)
    cos, sin = np.cos, np.sin
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
    f = np.stack([f1, f2, f3, f4, f5, f6, f7, f8], axis=1)
    return f if a.ndim == 2 else f[0].tolist()


def _sv4_terms(a: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Even and odd g sums and the two angle terms of the four-party block.

    Each has shape (k,) over the checked tuples ``a`` (see ``_site_rows``).
    """
    (a0, a1, a2, a3), (g0, g1, g2, g3) = _site_rows(a)
    ge = (g0 * g1 + g0 * g2 + g1 * g2 + g0 * g3 + g1 * g3 + g2 * g3
          + g0 * g1 * g2 * g3)
    go = (g0 + g1 + g2 + g3
          + g0 * g1 * g2 + g0 * g1 * g3 + g0 * g2 * g3 + g1 * g2 * g3)
    t1 = (np.cos(a0 - a3) * np.cos(a1 - a2)
          + np.sin(a1 + a2) * np.sin(a0 + a3))
    t2 = (-np.cos(a0 - a3) * np.sin(a1 + a2)
          - np.cos(a1 - a2) * np.sin(a0 + a3))
    return ge, go, t1, t2


def sv4_block_functions(angles: Sequence[float] | np.ndarray, s: float
                        ) -> Tuple[float, complex] | Tuple[np.ndarray, ...]:
    """Diagonal f1 and corner f2 of the four-party outer certificate block.

    Valid on [0, pi/4]^4 with mu = 1 - 8 sqrt(2) s; the corner entry f2 is
    the (lower-left) block entry T[15, 0].  ``angles`` is one tuple, shape
    (4,), giving a float and a complex, or a batch of k, shape (k, 4),
    giving a real and a complex array of shape (k,) whose entries equal the
    one-tuple calls.  Any angle outside [0, pi/4], NaN included, raises
    ValueError.
    """
    a = check_angles(angles, 4, math.pi / 4)
    ge, go, t1, t2 = _sv4_terms(a)
    f1 = (-15 + ge) / 16 + 8 * SQRT2 * s
    f2 = (-(1 + ge) / (16 * SQRT2) + 4 * t1 * s
          + 1j * (go / (16 * SQRT2) + 4 * t2 * s))
    return (f1, f2) if a.ndim == 2 else (float(f1[0]), complex(f2[0]))


def sv4_determinant(angles: Sequence[float] | np.ndarray,
                    s: float) -> float | np.ndarray:
    """Determinant of the four-party outer block, expanded directly in s.

    Independent of ``sv4_block_functions``: the quadratic-in-s expansion is
    written out term by term rather than formed as f1^2 - |f2|^2.  Takes
    one tuple or a batch of k, and returns a float or an array of shape
    (k,), as ``sv4_block_functions`` does.
    """
    a = check_angles(angles, 4, math.pi / 4)
    ge, go, t1, t2 = _sv4_terms(a)
    det = ((128 - 16 * (t1 ** 2 + t2 ** 2)) * s ** 2
           + (-15 * SQRT2 + ge * SQRT2 + (1 + ge) / (2 * SQRT2) * t1
              - go / (2 * SQRT2) * t2) * s
           + ((ge + go) * (ge - go) / 2 - 31 * ge + 449 / 2) / 256)
    return det if a.ndim == 2 else float(det[0])


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


def projector_lambda(angles: Sequence[float] | np.ndarray, s: float,
                     x1: int, x2: int) -> float | np.ndarray:
    """Closed-form pair invariant of the projected certificate matrix.

    For M the certificate matrix compressed to the parity sector (x1, x2),
    returns (Tr M)^2 - Tr(M^2), which is twice the product of the two
    nonzero eigenvalues of M and hence nonnegative wherever the certificate
    holds.  Valid on [0, pi/4]^3 with mu = 1 - 4 sqrt(2) s.  Takes one
    tuple or a batch of k, and returns a float or an array of shape (k,),
    as ``sv4_determinant`` does.
    """
    if x1 not in (0, 1) or x2 not in (0, 1):
        raise ValueError("parity labels must be 0 or 1")
    a = check_angles(angles, 3, math.pi / 4)
    rows, (g1, g2, g3) = _site_rows(a)
    mu = 1 - 4 * SQRT2 * s
    c1, c2, c3 = np.cos(rows)
    s1, s2, s3 = np.sin(rows)
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
    return lam if a.ndim == 2 else float(lam[0])


def closed_form_crosscheck(protocol: BellProtocol, samples: int = 200,
                           seed: int = 0) -> dict:
    """Compare every closed form against the matrix route on random angles.

    Draws ``samples`` angle tuples from [0, pi/4]^n and checks the
    hand-expanded block entries (plus, for n = 4, the determinant expansion
    and the Sylvester positivity test, and for n = 3 the parity-sector
    invariant) against the assembled certificate matrix.  Only the three- and
    four-party Svetlichny scenarios have closed forms.  ``samples`` must
    lie in [1, ``MAX_CROSSCHECK_SAMPLES``]; ValueError otherwise.  The
    matrices are assembled in chunks of at most ``CROSSCHECK_CHUNK_ENTRIES``
    entries, one batched ``build_T`` call per chunk, and each closed form
    is evaluated once per chunk on the chunk's tuples.  Each failure names
    its sample's index in the whole run; failures are listed by sample,
    then by check.
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
        # One message per column of a chunk's failure mask.
        messages = ([f"block {i} mismatch" for i in range(4)]
                    + [f"sector ({x1},{x2}) mismatch" for x1, x2 in sectors])
    else:
        checks = ["block_entries", "determinant_expansion", "sylvester_test"]
        messages = ["outer block mismatch", "determinant mismatch",
                    "sylvester false positive", "sylvester false negative"]
    chunk = CROSSCHECK_CHUNK_ENTRIES // protocol.dim ** 2
    for start in range(0, samples, chunk):
        # One (k, n) draw is the same stream as k draws of n.
        batch = rng.uniform(0.0, math.pi / 4,
                            size=(min(chunk, samples - start), protocol.n))
        ts = build_T(protocol, batch, constants.s, constants.mu)
        try:
            blocks = _block_array(ts, protocol.n)
        except StructureViolation as exc:
            index = start + exc.index
            raise StructureViolation(
                f"sample {index}: certificate matrix has off-block weight "
                f"above tolerance {_BLOCK_RESIDUE_TOL}", index) from exc
        if protocol.n == 3:
            mask = _sv3_failures(batch, ts, blocks, sectors, constants.s)
        else:
            mask = _sv4_failures(batch, blocks, constants.s)
        # Sample first, then check, as the masks' rows and columns run.
        for offset, column in zip(*np.nonzero(mask)):
            failures.append(f"sample {start + offset}: {messages[column]}")
    return {
        "family": protocol.family,
        "n": protocol.n,
        "samples": samples,
        "checks": checks,
        "failures": failures,
        "passed": not failures,
    }


def _sv3_failures(batch: np.ndarray, ts: np.ndarray, blocks: np.ndarray,
                  sectors: Dict[Tuple[int, int], np.ndarray],
                  s: float) -> np.ndarray:
    """Failure mask of a chunk of three-party samples, shape (k, 8).

    Columns 0-3 flag blocks whose entries differ from
    ``sv3_block_functions``; columns 4-7 flag parity sectors, in the order
    of ``sectors`` (label pair to projector), whose ``projector_lambda``
    differs from (Tr M)^2 - Tr(M^2) of the projected matrices M.
    """
    f = sv3_block_functions(batch, s)
    columns = [(np.abs(blocks[:, :, 0, 0].real - f[:, 0::2]) > 1e-10)
               | (np.abs(blocks[:, :, 0, 1] - f[:, 1::2]) > 1e-10)]
    for (x1, x2), p in sectors.items():
        m = p @ ts @ p
        direct = (np.trace(m, axis1=1, axis2=2).real ** 2
                  - np.trace(m @ m, axis1=1, axis2=2).real)
        got = projector_lambda(batch, s, x1, x2)
        columns.append((np.abs(got - direct) > 1e-10)[:, None])
    return np.concatenate(columns, axis=1)


def _sv4_failures(batch: np.ndarray, blocks: np.ndarray,
                  s: float) -> np.ndarray:
    """Failure mask of a chunk of four-party samples, shape (k, 4).

    Columns flag, in order: an outer block that differs from
    ``sv4_block_functions``, a ``sv4_determinant`` that differs from
    f1^2 - |f2|^2, and a Sylvester test (f1 > 0 and det > 0) that calls
    the block positive when its lower eigenvalue f1 - |f2| is negative, or
    not when it is positive, each beyond 1e-9.
    """
    f1, f2 = sv4_block_functions(batch, s)
    outer = blocks[:, 0]
    deter = sv4_determinant(batch, s)
    modulus = np.abs(f2)
    lower = f1 - modulus
    return np.stack([
        (np.abs(outer[:, 0, 0].real - f1) > 1e-10)
        | (np.abs(outer[:, 1, 0] - f2) > 1e-10),
        np.abs(deter - (f1 ** 2 - modulus ** 2)) > 1e-9,
        (f1 > 1e-9) & (deter > 1e-9) & (lower < -1e-9),
        (lower > 1e-9) & ((f1 < -1e-9) | (deter < -1e-9)),
    ], axis=1)
