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
block pi(b) at pi(alpha).  The minimum over all blocks is therefore constant on
each permutation orbit of a grid, and the scan evaluates one sorted angle tuple
per orbit: C(P + n - 1, n) of the P^n grid points, each with all 2^(n-1) pairs
at once, each block entry read off a ``sign_products`` table (the channel
corner shares the diagonal's up to pi/4).  The channel and Bell corners
share the GHZ phase u, so each pair's |K_c - s W_c| is one real table's
two rows combined by the exact turn v = conj(u)^2 (``bell.corner_turn``):
no complex product is formed.  The scan kernel walks the points in chunks
of about ``SCAN_CHUNK_EVALUATIONS`` block evaluations, writing each chunk's
point columns, gathering its site factors there and building its tables.
The columns and the tables are views of one workspace kept per thread
(``_workspace``), so they neither grow with the grid nor are allocated per
chunk, and the canonical points of a grid are a layout cached by its shape
(``linalg.canonical_layouts``).
Refinement stencils shrink the same way along axes that coincide; the stencils
of every remaining round are built, grouped and walked at once, and a round
that moves the centre sends only the rounds after it to another walk.  A grid
pass above ``MAX_BLOCK_EVALUATIONS`` block evaluations is refused before
anything is allocated.

Independent routes cross-check the reduction:

* ``block_decompose`` reads the 2 x 2 blocks of the assembled matrix through
  ``linalg.x_blocks`` and fails loudly if any off-block weight remains; the
  tests compare it with conjugation by the pairing permutation.
* ``sv3_block_functions`` / ``sv4_block_functions`` are hand-expanded
  formulas for the block entries of the three- and four-party Svetlichny
  certificates, with ``sv4_determinant`` and ``projector_lambda`` covering
  the determinant and parity-sector routes.  Each takes one angle tuple or
  a batch of them and runs the same numpy expressions on both.
* ``closed_form_crosscheck`` samples random angle tuples and confirms all of
  the above against the matrix route in batches of tuples, reading the
  certificate only through ``block_decompose``: one ``build_T`` and one
  ``block_decompose`` call per chunk of matrices, and one call of each
  closed form per batch of chunks, each check one boolean mask over the
  batch.
"""
from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, List, Sequence, Tuple

import numpy as np

from .bell import (SQRT2, SVETLICHNY, BellProtocol, build_operator,
                   check_angles, check_integer, check_matrix, check_real,
                   corner_coefficient, corner_turn)
from .linalg import (canonical_layouts, pair_magnitudes, sign_products,
                     x_blocks)
from .root2 import Root2
from .states import apply_channel, g_values, ghz_state, y_axis

PSD_TOLERANCE = 1e-8
_BLOCK_RESIDUE_TOL = 1e-12
# Rounds of local refinement around a grid minimum near zero.
REFINEMENT_DEPTH = 6
# Block evaluations (points times pairs) per chunk of the scan's walk over
# canonical grid points, about 0.5 MB per table: 4096 points at n = 4.  The
# fastest of 2^13 to 2^17 at n = 4 on grid 31.
SCAN_CHUNK_EVALUATIONS = 2 ** 15
# Largest grid pass min_eig_over_grid accepts, in 2 x 2 block evaluations
# (canonical points times pairs).  The largest accepted pass, n = 3 on grid
# 227, peaks at about 73 MB resident, most of it building the one-byte
# canonical layout; the scan's tables are bounded by SCAN_CHUNK_EVALUATIONS.
MAX_BLOCK_EVALUATIONS = 8_000_000
# Most samples closed_form_crosscheck draws, at about 0.006 ms each (n = 3)
# and 0.013 ms (n = 4) in process on a 2-core machine, 80% and 95% of it the
# batched matrix route.
MAX_CROSSCHECK_SAMPLES = 100_000
# Most matrix entries, k 4^n over a chunk of k samples, that
# closed_form_crosscheck assembles in one batched build_T call: 32 samples
# at n = 4 and 128 at n = 3, so its memory does not grow with the sample
# count.
CROSSCHECK_CHUNK_ENTRIES = 2 ** 13
# Samples closed_form_crosscheck checks with one call of each closed form,
# their blocks gathered from the chunks above.  Batches of 128 or 256 ran
# slower than 512 to 2048 (n = 3 and 4, 2-core machine); at 1024 an n = 4
# run peaks at about 1.2 MB traced.
CROSSCHECK_BATCH_SAMPLES = 1024


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

    ``points_per_axis`` may be any integer from 2, numpy's included, and is
    stored as an int; anything else, such as 5.0, raises ValueError.  The
    ``domain`` (lo, hi), lo < hi, passes ``check_angles`` and is stored as
    a tuple of two floats, so equal specs compare and hash equal.
    ``refinement_depth`` is ``REFINEMENT_DEPTH`` as a class attribute, not
    a field: the benchmark worker reads it from an instance.
    """

    points_per_axis: int
    domain: Tuple[float, float] = (0.0, math.pi / 4)
    refinement_depth: ClassVar[int] = REFINEMENT_DEPTH

    def __post_init__(self) -> None:
        object.__setattr__(self, "points_per_axis", check_integer(
            self.points_per_axis, "grid points per axis", lo=2))
        ends = check_angles(self.domain, 2)
        if not (ends.ndim == 1 and ends[0] < ends[1]):
            raise ValueError(f"invalid scan domain {self.domain}")
        object.__setattr__(self, "domain", (float(ends[0]), float(ends[1])))


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of one grid scan.

    ``binding_pair`` is the block pair b (of 2^(n-1)) holding the minimum and
    ``block_evaluations`` counts the 2 x 2 blocks evaluated by the grid pass
    and every refinement round, each round once (see
    ``min_eig_over_grid``).
    """

    constants: CertificateConstants
    grid_points_per_axis: int
    min_eigenvalue: float
    argmin_angles: Tuple[float, ...]
    refined: bool
    passed: bool
    binding_pair: int
    block_evaluations: int


# Party counts with catalog constants, the -n choices of scan subcommands.
CATALOG_PARTIES = (3, 4, 5)


def catalog_slope(protocol: BellProtocol) -> Root2:
    """The catalog slope s of a scenario, exact in Q[sqrt(2)], at any n.

    A unital channel keeps tr K = 1, so K >= s W + mu I, mu = 1 - s beta_Q,
    needs tr((s W + mu I)_+) <= 1 at every angle tuple: s is at least
    (1 - 1/m) / (beta_Q - w), w the top eigenvalue of W and m its
    multiplicity, with equality at the two points below.  Over {0, pi/4}^n
    the least s is 1 / beta_Q with every angle at pi/4 and
    (1 + 2^(-j/2)) / beta_Q with 0 < j < n angles at 0, largest at j = 1:
    there w = beta_Q / sqrt(2) and m = 2.  With every angle at 0,
    W = (sum_x c(x)) X^(x)n, so w = 2^(1 - n/2) |cos((k + n) pi/4)| beta_Q
    and m = 2^(n-1), or W = 0 and m = 2^n; |cos| is 1, 1/sqrt(2) or 0 as
    the real part of ``corner_turn`` is 1, 0 or -1.  The slope is the larger
    of the two, each formed as s beta_Q = (1 - 1/m) / (1 - w/beta_Q); they
    differ by more than 10% at every n, so their floats order them.  The
    scan checks that the slope is feasible.
    """
    n, turn = protocol.n, int(corner_turn(protocol).real)
    one_zero = Fraction(1, 2) / (1 - Root2(0, Fraction(1, 2)))
    half, odd = divmod(1 - n + turn, 2)  # all 0: w/beta_Q = 2^(half + odd/2)
    w = Root2(0, Fraction(2) ** half) if odd else Root2(Fraction(2) ** half)
    w, m = (w, 2 ** (n - 1)) if turn >= 0 else (Root2(0), 2 ** n)
    all_zero = (1 - Fraction(1, m)) / (1 - w)
    return max(one_zero, all_zero, key=float) / protocol.beta_Q_exact


@functools.lru_cache(maxsize=None)
def catalog_constants(protocol: BellProtocol) -> CertificateConstants:
    """Certificate constants for the supported scenarios.

    The slope s (``catalog_slope``) fixes mu = 1 - s * beta_Q and the
    threshold beta_T = (1/2 - mu) / s, where the fidelity bound
    s * beta + mu is 1/2; all three are exact in Q[sqrt(2)] and stored as
    floats.  Derived once per scenario (the exact arithmetic takes about
    0.3 ms); every caller shares the frozen result.
    """
    if protocol.n not in CATALOG_PARTIES:
        raise ValueError(f"no catalog constants for {protocol.family} n={protocol.n}")
    s = catalog_slope(protocol)
    mu = 1 - s * protocol.beta_Q_exact
    beta_t = (Fraction(1, 2) - mu) / s
    return CertificateConstants(protocol=protocol, s=float(s), mu=float(mu),
                                beta_T=float(beta_t))


def build_T(protocol: BellProtocol, angles: Sequence[float] | np.ndarray,
            s: float, mu: float) -> np.ndarray:
    """Assemble the certificate matrix Lambda(rho) - s W - mu I.

    ``angles`` is one tuple, shape (n,), giving a 2^n x 2^n matrix, or a
    batch of k tuples, shape (k, n), giving k matrices from one batched
    ``build_operator`` and one batched ``apply_channel`` call.  Both
    return new arrays, so T is assembled inside them, with the operations
    of (lam - s W) - mu I in that order.
    """
    w = build_operator(protocol, angles)
    lam = apply_channel(ghz_state(protocol), angles)
    w *= s
    lam -= w
    lam -= mu * np.eye(protocol.dim)
    return lam


def block_decompose(t: np.ndarray, n: int) -> np.ndarray:
    """Split diagonal-plus-antidiagonal matrices into their 2 x 2 blocks.

    Block i is t on the index pair (i, 2^n - 1 - i), the i-th diagonal
    block after pairing each index with its complement (``x_blocks``).
    One matrix, (2^n, 2^n), or a batch of k, (k, 2^n, 2^n), passes
    ``check_matrix`` and gives its blocks, shape (2^(n-1), 2, 2) or
    (k, 2^(n-1), 2, 2).  Raises ValueError on non-finite input and
    StructureViolation if any entry off the diagonal and antidiagonal
    exceeds ``_BLOCK_RESIDUE_TOL`` (1e-12).
    """
    t = check_matrix(t, n, "matrices", batch=True)
    if not np.isfinite(t).all():
        raise ValueError("matrix has non-finite entries")
    blocks, worst = x_blocks(t.reshape((-1,) + t.shape[-2:]))
    if not (worst <= _BLOCK_RESIDUE_TOL).all():
        index = int(np.argmax(worst))
        raise StructureViolation(
            f"off-block weight {worst[index]} of matrix {index} exceeds "
            f"tolerance {_BLOCK_RESIDUE_TOL}", index)
    return blocks if t.ndim == 3 else blocks[0]


# The scan's flat buffers on this thread, grown to the largest chunk it has
# walked, so concurrent scans never share them.
_WORKSPACE = threading.local()
# Each workspace buffer starts on a page boundary: the scan kernel's speed
# moved by several percent with where the allocator placed its buffers.
_PAGE_BYTES = 4096
# Each workspace buffer's size, in units of block evaluations, and dtype.
_WORKSPACE_BUFFERS = ((2, float), (2, float), (1, float), (1, float),
                      (2, float), (1, np.intp))


def _workspace(n: int, m: int) -> List[np.ndarray]:
    """This thread's scan buffers for a chunk of m points at n parties.

    The kernel's two sign tables (2^n, m), D - mu (2^(n-1), m) and the
    scratch (2^(n-1), m), the site factors (2, n, m), then the point
    columns (n, m), intp: about 2.4 MB at 2^15 block evaluations.  Each is
    a view of one flat buffer sized in block evaluations, so one set serves
    every n (n <= 2^(n-1)), and the six are carved from one allocation at
    page boundaries (``_page_aligned``).  The scan keeps no other
    per-thread state.
    """
    half = 2 ** (n - 1)
    flat = getattr(_WORKSPACE, "current", None)
    if flat is None or len(flat[2]) < half * m:
        flat = _WORKSPACE.current = _page_aligned(half * m)
    shapes = ((2 * half, m), (2 * half, m), (half, m), (half, m), (2, n, m),
              (n, m))
    return [buffer[:math.prod(shape)].reshape(shape)
            for buffer, shape in zip(flat, shapes)]


def _page_aligned(evaluations: int) -> List[np.ndarray]:
    """The flat ``_WORKSPACE_BUFFERS`` for this many block evaluations,
    each starting on a page boundary of one byte allocation."""
    sizes = [units * evaluations * np.dtype(dtype).itemsize
             for units, dtype in _WORKSPACE_BUFFERS]
    spans = [-(-size // _PAGE_BYTES) * _PAGE_BYTES for size in sizes]
    raw = np.empty(sum(spans) + _PAGE_BYTES, np.uint8)
    start = -raw.ctypes.data % _PAGE_BYTES
    buffers = []
    for (_, dtype), size, span in zip(_WORKSPACE_BUFFERS, sizes, spans):
        buffers.append(raw[start:start + size].view(dtype))
        start += span
    return buffers


def _min_block_over_products(
        protocol: BellProtocol, s: float, mu: float, rows: np.ndarray,
        lengths: np.ndarray
) -> List[Tuple[float, Tuple[float, ...], int, int]]:
    """Minimum block lower-eigenvalue over each of several product grids.

    ``rows`` (r, n, w) and ``lengths`` (r, n) hold r grids of n axes each,
    as ``linalg.canonical_layouts`` takes them, and one walk evaluates the
    grids' canonical points end to end, grid after grid, in chunks of about
    ``SCAN_CHUNK_EVALUATIONS`` block evaluations, so one chunk may end one
    grid and start the next.  For every antidiagonal pair b and every
    canonical grid point it evaluates the closed-form lower eigenvalue
    (D - mu) - |K_c - s W_c| of the 2 x 2 block, where D and K_c are the
    diagonal and corner entries of the channel output and W_c the corner
    entry of the Bell operator.  Each
    sums the per-site products of pair b and its complement b~, rows of a
    ``sign_products`` table: D with scale = 2^-(n+1), K_c with scale u and
    W_c with z_c = |z_c| u, u the GHZ phase.  So with C and B the channel's
    and the Bell corner's tables,

        |K_c - s W_c| = scale |X[b~] + v X[b]|,  X = C - (s |z_c| / scale) B,

    and v = conj(u)^2 is exactly 1, -1, i or -i (``bell.corner_turn``): no
    complex product is formed (``linalg.pair_magnitudes``).  Permuting
    parties maps block b at a point to block pi(b) at the permuted point,
    so the minimum over all pairs is the same on every point of a
    permutation orbit and only one tuple per orbit is evaluated.

    The loop body runs once per chunk, in this thread's ``_workspace``
    sized to the chunk.  The walk runs through the grids' canonical points
    in order.  Each chunk writes its point columns from the grids that
    overlap it, each site's index into ``rows.ravel()`` (never into the
    padding past an axis), gathers its site factors there and builds the
    diagonal's table, then the channel corner's in the same buffer, then
    the Bell corner's in the second, where X is formed in place; the
    complex buffer of v = +-i is the first table's memory, free by then.
    The channel corner's site factors (dx + dy, dx - dy) are (1 + g, 1 - g)
    up to pi/4, where dx = 1 and dy = g, and (1 + g, -(1 - g)) beyond, where
    dx = g and dy = 1.  So its table is the diagonal's, rebuilt from the
    negated minus factors only when some axis passes pi/4; a negated factor
    negates the product bit for bit.
    Every block value depends on its own point alone, so each grid's values are
    those of a walk over that grid by itself.  Ties go to the first pair, then
    the first canonical point of the grid, as one ``argmin`` over the whole
    grid would choose.  Returns, per grid, the minimum, its angles, the binding
    pair and the number of block evaluations, its canonical points times
    2^(n-1).
    """
    n = protocol.n
    half, scale = 2 ** (n - 1), 1.0 / 2 ** (n + 1)
    # The site factors at every axis value, all axes end to end, one row of
    # each pair: 1 + g and 1 - g of the diagonal, 1 + g and +-(1 - g) of the
    # channel corner, cos + sin and cos - sin of the Bell corner.
    values = rows.ravel()
    g = g_values(values)
    diagonal = np.stack([1.0 + g, 1.0 - g])
    beyond = y_axis(values)
    flips = bool(beyond.any())
    channel = np.stack([diagonal[0],
                        np.where(beyond, -diagonal[1], diagonal[1])])
    cs, sn = np.cos(values), np.sin(values)
    trig = np.stack([cs + sn, cs - sn])
    # A numpy scalar, so that an overflow of the ratio raises as the
    # table's would; dividing by the power of two scale is exact.
    ratio = np.float64(s) * (abs(corner_coefficient(protocol)) / scale)
    turn = corner_turn(protocol)
    r, _, width = rows.shape
    best: list = [None] * r
    step = max(1, SCAN_CHUNK_EVALUATIONS // half)
    layouts = canonical_layouts(rows, lengths)
    offsets = np.arange(0, r * n * width, width).reshape(r, n, 1)
    sizes = [layout.shape[1] for layout in layouts]
    # Each grid's first point in the walk, then the total.
    firsts = np.cumsum([0] + sizes).tolist()
    for start in range(0, firsts[-1], step):
        m = min(step, firsts[-1] - start)
        if start == 0 or m < step:
            # The first chunk's width, then a shorter tail's.
            table, x, low, scratch, factors, cols = _workspace(n, m)
            # The first table read as complex (2^(n-1), m).
            parts = table.reshape(-1).view(complex).reshape(low.shape)
        # (grid, begin, end) for each grid whose points are the chunk's
        # columns begin to end, in order.
        pieces = [(g, max(first - start, 0), min(first + size - start, m))
                  for g, (first, size) in enumerate(zip(firsts, sizes))
                  if first < start + m and start < first + size]
        for g, begin, end in pieces:
            at = start + begin - firsts[g]
            np.add(layouts[g][:, at:at + end - begin], offsets[g],
                   out=cols[:, begin:end])
        # mode="clip" is faster and clips nothing.
        np.take(diagonal, cols, axis=1, out=factors, mode="clip")
        sign_products(*factors, table, scratch)
        np.add(table[:half], table[::-1][:half], out=low)
        low *= scale
        low -= mu
        if flips:
            np.take(channel, cols, axis=1, out=factors, mode="clip")
            sign_products(*factors, table, scratch)
        np.take(trig, cols, axis=1, out=factors, mode="clip")
        sign_products(*factors, x, scratch)
        x *= ratio
        np.subtract(table, x, out=x)
        pair_magnitudes(x, turn, scratch, parts)
        scratch *= scale
        low -= scratch
        for grid, begin, end in pieces:
            part = low[:, begin:end]
            pair, k = divmod(int(part.argmin()), end - begin)
            value = float(part[pair, k])
            # An earlier chunk holds earlier points, so it keeps a tie
            # unless the later one binds at a smaller pair.
            if best[grid] is None or (value, pair) < best[grid][:2]:
                best[grid] = (value, pair, values[cols[:, begin + k]])
    return [(value, tuple(float(v) for v in point), pair, size * half)
            for (value, pair, point), size in zip(best, sizes)]


def _stencils(p: np.ndarray, steps: np.ndarray, lo: float,
              hi: float) -> Tuple[np.ndarray, np.ndarray]:
    """The refinement stencils around ``p``, one grid per step h.

    Each has 5 points per axis, from p - h to p + h, clipped to [lo, hi];
    clipping at the domain edge repeats the edge point, and each axis keeps
    each point once, in ascending order.  Built in one ``linspace`` over
    every step and axis, one clip and one pass that drops the repeats.
    Returns ``rows`` and ``lengths`` as ``_min_block_over_products`` takes
    them: row j of stencil k, ``rows[k, j]``, holds its ``lengths[k, j]``
    points of axis j, padded to 5 by repeating the last one.
    """
    points = np.clip(np.linspace(p - steps[:, None], p + steps[:, None], 5,
                                 axis=2), lo, hi)
    # Each point's place among its axis's distinct points; a repeat takes
    # the place of the point it repeats, and writes the same value there.
    place = np.zeros(points.shape, dtype=np.intp)
    np.not_equal(points[..., 1:], points[..., :-1], out=place[..., 1:])
    np.cumsum(place, axis=2, out=place)
    rows = np.repeat(points[..., -1:], 5, axis=2)
    np.put_along_axis(rows, place, points, axis=2)
    return rows, place[..., -1] + 1


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
    placement.  Every remaining round is scanned around the current centre
    in one walk of the kernel and the rounds are accepted in order; the
    first with a smaller minimum moves the centre, and the rounds after it
    are walked again around the new one.  The report equals that of one
    walk per round bit for bit: ``block_evaluations`` counts each accepted
    round once and never a round scanned around a centre then left.
    Non-finite constants or tolerance, and constants large enough to
    overflow the scan, raise ValueError; a non-finite minimum never passes.
    """
    check_real(constants.s, "s")
    check_real(constants.mu, "mu")
    check_real(psd_tol, "PSD tolerance", lo=0.0)
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
            # The grid pass is one grid of n equal axes.
            axis = np.linspace(lo, hi, grid.points_per_axis)
            (best, point, pair, evaluations), = _min_block_over_products(
                protocol, constants.s, constants.mu,
                np.broadcast_to(axis, (1, n, len(axis))),
                np.full((1, n), len(axis)))
            refined = False
            if abs(best) <= 10 * psd_tol:
                refined = True
                h = (hi - lo) / (grid.points_per_axis - 1)
                done = 0    # the rounds accepted so far
                while done < REFINEMENT_DEPTH:
                    # Every remaining round around the current centre, in
                    # one walk; dividing a float by a power of two is
                    # exact, so each step equals the one the rounds reach
                    # by halving in turn.
                    steps = h / 2.0 ** np.arange(done, REFINEMENT_DEPTH)
                    batch = _min_block_over_products(
                        protocol, constants.s, constants.mu,
                        *_stencils(np.array(point), steps, lo, hi))
                    for value, sub_point, sub_pair, count in batch:
                        evaluations += count
                        done += 1
                        # A new minimum moves the centre, so the rounds
                        # after it are scanned again around it.
                        if value < best:
                            best, point, pair = value, sub_point, sub_pair
                            break
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
    x1 = check_integer(x1, "parity label x1", hi=1)
    x2 = check_integer(x2, "parity label x2", hi=1)
    iii = np.eye(8, dtype=complex)
    z, one = np.array([1.0, -1.0]), np.ones(2)
    zzi, ziz, izz = (np.diag(np.kron(np.kron(a, b), c)).astype(complex)
                     for a, b, c in ((z, z, one), (z, one, z), (one, z, z)))
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
    x1 = check_integer(x1, "parity label x1", hi=1)
    x2 = check_integer(x2, "parity label x2", hi=1)
    a = check_angles(angles, 3, math.pi / 4)
    lam = _sector_invariants(a, s)[:, 2 * x1 + x2]
    return lam if a.ndim == 2 else float(lam[0])


def _sector_invariants(a: np.ndarray, s: float) -> np.ndarray:
    """``projector_lambda`` of checked tuples ``a`` (see ``_site_rows``) in
    every parity sector (x1, x2), in lexicographic order, shape (k, 4).

    The terms all sectors share are formed once; each sector adds its three
    signed terms to them, left to right.
    """
    rows, (g1, g2, g3) = _site_rows(a)
    mu = 1 - 4 * SQRT2 * s
    c1, c2, c3 = np.cos(rows)
    s1, s2, s3 = np.sin(rows)
    t1 = -1 / 8 + 4 * s * c1 * c2 * c3
    t2 = g2 * g3 / 8 - 4 * s * c1 * s2 * s3
    t3 = g1 * g3 / 8 - 4 * s * s1 * c2 * s3
    t4 = g1 * g2 / 8 - 4 * s * s1 * s2 * c3
    q = 1 / 8 - mu
    shared = (2 * q ** 2 - 2 * (t1 ** 2 + t2 ** 2 + t3 ** 2 + t4 ** 2)
              + (g1 ** 2 * g2 ** 2 + g2 ** 2 * g3 ** 2 + g3 ** 2 * g1 ** 2)
              / 32)
    first = (q + g3 ** 2 / 8) * g1 * g2 / 2 - 4 * (t2 * t3 - t1 * t4)
    second = (q + g2 ** 2 / 8) * g1 * g3 / 2 - 4 * (t2 * t4 - t1 * t3)
    both = (q + g1 ** 2 / 8) * g2 * g3 / 2 - 4 * (t3 * t4 - t1 * t2)
    return np.stack([shared + (-1) ** x1 * first + (-1) ** x2 * second
                     + (-1) ** (x1 + x2) * both
                     for x1 in (0, 1) for x2 in (0, 1)], axis=1)


def closed_form_crosscheck(protocol: BellProtocol, samples: int = 200,
                           seed: int = 0) -> dict:
    """Compare every closed form against the matrix route on random angles.

    Draws ``samples`` angle tuples from [0, pi/4]^n and checks the
    hand-expanded block entries (plus, for n = 4, the determinant expansion
    and the Sylvester positivity test, and for n = 3 the parity-sector
    invariant) against the blocks of the assembled certificate matrix, read
    by ``block_decompose`` and by nothing else.  Only the three- and
    four-party Svetlichny scenarios have closed forms.  ``samples`` must be
    an integer in [1, ``MAX_CROSSCHECK_SAMPLES``]; ValueError otherwise.  The
    samples are drawn in batches of ``CROSSCHECK_BATCH_SAMPLES``.  Each
    batch's matrices are assembled in chunks of at most
    ``CROSSCHECK_CHUNK_ENTRIES`` entries, one batched ``build_T`` and one
    ``block_decompose`` call per chunk, into one block array, and each
    closed form is evaluated once per batch on the batch's tuples.  Each
    failure names its sample's index in the whole run; failures are listed
    by sample, then by check.
    """
    if protocol.family != SVETLICHNY or protocol.n not in _CROSSCHECKS:
        raise ValueError("closed forms exist only for svetlichny n in {3, 4}")
    samples = check_integer(samples, "sample count", 1,
                            MAX_CROSSCHECK_SAMPLES)
    constants = catalog_constants(protocol)
    rng = np.random.default_rng(check_integer(seed, "seed"))
    checks, messages, failure_mask = _CROSSCHECKS[protocol.n]
    failures: List[str] = []
    chunk = CROSSCHECK_CHUNK_ENTRIES // protocol.dim ** 2
    blocks = np.empty((min(CROSSCHECK_BATCH_SAMPLES, samples),
                       protocol.dim // 2, 2, 2), dtype=complex)
    for start in range(0, samples, CROSSCHECK_BATCH_SAMPLES):
        # One (k, n) draw is the same stream as k draws of n.
        batch = rng.uniform(0.0, math.pi / 4, size=(
            min(CROSSCHECK_BATCH_SAMPLES, samples - start), protocol.n))
        for begin in range(0, len(batch), chunk):
            ts = build_T(protocol, batch[begin:begin + chunk], constants.s,
                         constants.mu)
            try:
                blocks[begin:begin + len(ts)] = block_decompose(ts,
                                                                protocol.n)
            except StructureViolation as exc:
                index = start + begin + exc.index
                raise StructureViolation(
                    f"sample {index}: certificate matrix has off-block weight "
                    f"above tolerance {_BLOCK_RESIDUE_TOL}", index) from exc
        mask = failure_mask(batch, blocks[:len(batch)], constants.s)
        # Sample first, then check, as the masks' rows and columns run.
        for offset, column in zip(*np.nonzero(mask)):
            failures.append(f"sample {start + offset}: {messages[column]}")
    return {
        "family": protocol.family,
        "n": protocol.n,
        "samples": samples,
        "checks": list(checks),
        "failures": failures,
        "passed": not failures,
    }


def _sv3_failures(batch: np.ndarray, blocks: np.ndarray,
                  s: float) -> np.ndarray:
    """Failure mask of a batch of three-party samples, shape (k, 8).

    Columns 0-3 flag blocks whose entries differ from
    ``sv3_block_functions``; columns 4-7 flag parity sectors (x1, x2), in
    lexicographic order, whose ``projector_lambda``, read for all four at
    once off ``_sector_invariants``, differs from twice the determinant
    a c - |z|^2 of block b = 2 x1 + x2.  That is
    (Tr M)^2 - Tr(M^2) of the projected matrix M = P T P:
    ``parity_projector(x1, x2)`` is 1 exactly on indices b and 7 - b, and an
    X matrix has no entry that links two pairs, so M is block b alone.
    """
    f = sv3_block_functions(batch, s)
    a, c = blocks[..., 0, 0].real, blocks[..., 1, 1].real
    entries = ((np.abs(a - f[:, 0::2]) > 1e-10)
               | (np.abs(blocks[..., 0, 1] - f[:, 1::2]) > 1e-10))
    twice_det = 2 * (a * c - np.abs(blocks[..., 1, 0]) ** 2)
    lam = _sector_invariants(batch, s)
    return np.concatenate([entries, np.abs(lam - twice_det) > 1e-10], axis=1)


def _sv4_failures(batch: np.ndarray, blocks: np.ndarray,
                  s: float) -> np.ndarray:
    """Failure mask of a batch of four-party samples, shape (k, 4).

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


# Per party count: the report's check names, one failure message per column
# of the batch's failure mask, and the function that builds that mask from
# the batch's angles, its certificate blocks and the slope s.
_CROSSCHECKS = {
    3: (("block_entries", "parity_sector_invariant"),
        [f"block {i} mismatch" for i in range(4)]
        + [f"sector ({x1},{x2}) mismatch" for x1 in (0, 1) for x2 in (0, 1)],
        _sv3_failures),
    4: (("block_entries", "determinant_expansion", "sylvester_test"),
        ["outer block mismatch", "determinant mismatch",
         "sylvester false positive", "sylvester false negative"],
        _sv4_failures),
}
