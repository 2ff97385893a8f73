"""Dense Hermitian linear algebra helpers.

Provides the Kronecker product ``kron_all``, one batched step of a
site-by-site contraction (``contract_site``) and the matrices it leaves
(``interleaved_to_matrix``), the canonical index tuples of a product grid
(one per permutation orbit) and the one chunked walk over them
(``walk_canonical``), the per-site products over every sign choice
(``sign_products``) and their conjugate-pair combination
(``conjugate_pair_sum``), the 2 x 2 blocks of a diagonal-plus-antidiagonal
matrix (``x_blocks``) and their least eigenvalue, and a checked Hermitian
spectrum.  Certification and state validation read their spectra from
closed-form 2 x 2 blocks; the full spectrum serves the tests.

The canonical index layout depends only on the axis lengths and on which
axes are equal, so it is built once per such structure and cached:
read-only, in one-byte indices up to 256 points per axis, at most
``CANONICAL_LAYOUT_CACHE`` = 12 layouts.  The largest, n = 3 on grid 227
(the largest pass the certificate scan admits), is 3 one-byte indices per
point, 5.9 MB, so the cache holds at most 12 x 5.9 = 71 MB.  ``sign_products``
and ``conjugate_pair_sum`` write into caller-owned buffers when given them;
``walk_canonical`` yields each chunk with one set of buffers per thread, so
the certificate scan and the quantum bound's grid check, two loop bodies
over it, run their chunks without allocating.
"""
from __future__ import annotations

import functools
import threading
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

# Largest |m - m^dagger| entry a Hermitian matrix may have.
HERMITICITY_TOL = 1e-10
# Block evaluations (points times pairs) per chunk of a walk over canonical
# grid points, about 0.5 MB per table: 4096 points at n = 4.  The fastest
# of 2^13 to 2^17 for the certificate scan at n = 4 on grid 31; the
# quantum-bound grid check walks its points in chunks of the same size.
SCAN_CHUNK_EVALUATIONS = 2 ** 15
# Canonical layouts kept by ``canonical_indices``, least recently used
# first out; a cycle of the scan benchmark's verify ops uses 8.
CANONICAL_LAYOUT_CACHE = 12

def kron_all(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of a nonempty sequence of matrices, left to right."""
    if not mats:
        raise ValueError("kron_all requires at least one matrix")
    out = np.asarray(mats[0], dtype=complex)
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def contract_site(tensor: np.ndarray, axes: Tuple[int, ...],
                  operators: np.ndarray) -> np.ndarray:
    """Contract one site's indices of k tensors with k operators at once.

    ``tensor`` has a leading batch axis of k; the indices named by ``axes``
    are moved last and flattened, giving (k, rest, d), and multiplied by
    ``operators`` of shape (k, d, 4) in one batched matmul.  The site's
    output row and column indices are appended at the end.
    """
    lhs = tensor.transpose(_axes_last(tensor.ndim, axes))
    rest = lhs.shape[:-len(axes)]
    return np.matmul(lhs.reshape(len(tensor), -1, operators.shape[1]),
                     operators).reshape(rest + (2, 2))


@functools.lru_cache(maxsize=None)
def _axes_last(ndim: int, axes: Tuple[int, ...]) -> Tuple[int, ...]:
    """The axis order that moves ``axes``, in their order, behind the rest."""
    return tuple(i for i in range(ndim) if i not in axes) + axes


def interleaved_to_matrix(tensor: np.ndarray) -> np.ndarray:
    """The k x 2^n x 2^n matrices of a tensor indexed (sample, row 1,
    column 1, ..., row n, column n).

    Site-by-site contractions leave each site's row and column index side by
    side; this gathers the row indices before the column indices.
    """
    n = tensor.ndim // 2
    order = [0] + list(range(1, 2 * n, 2)) + list(range(2, 2 * n + 1, 2))
    return tensor.transpose(order).reshape(len(tensor), 2 ** n, 2 ** n)


def outer_all(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Chained elementwise outer product of 1-D arrays, left to right."""
    if not factors:
        raise ValueError("outer_all requires at least one factor")
    out = np.asarray(factors[0])
    for f in factors[1:]:
        out = np.multiply.outer(out, f)
    return out


def sorted_index_tuples(size: int, length: int) -> np.ndarray:
    """All nondecreasing index tuples over range(size), in lexicographic order.

    Returns an array of shape (C(size + length - 1, length), length) holding
    one representative of every orbit of range(size)^length under
    permutations of the coordinates, in the smallest unsigned dtype that
    holds size - 1 (uint8 for every grid the certificate scan admits).  Each
    step appends a coordinate that runs from the previous row's last entry
    up to size - 1.
    """
    if size < 1 or length < 1:
        raise ValueError("need a positive size and length")
    dtype = np.min_scalar_type(size - 1)
    tuples = np.arange(size, dtype=dtype).reshape(-1, 1)
    for _ in range(length - 1):
        last = tuples[:, -1].astype(np.intp)
        counts = size - last
        starts = np.repeat(np.cumsum(counts) - counts - last, counts)
        column = np.arange(len(starts)) - starts
        tuples = np.column_stack([np.repeat(tuples, counts, axis=0),
                                  column.astype(dtype)])
    return tuples


def canonical_indices(axes: Sequence[np.ndarray]) -> np.ndarray:
    """Index tuples of a product grid, one per orbit of permuting equal axes.

    Axes with identical values form a group; a tuple is canonical when its
    indices are nondecreasing within every group.  Groups are combined as a
    Cartesian product, the first group varying slowest.  Returns an integer
    array of shape (len(axes), number of canonical tuples) whose row j
    indexes ``axes[j]``.  The layout depends only on the axis lengths and on
    which axes are equal, so it is built once per such structure
    (``_canonical_layout``) and shared: read-only, in the smallest unsigned
    dtype that holds every index (uint8 up to 256 points per axis).
    """
    if not axes:
        raise ValueError("canonical_indices requires at least one axis")
    labels: List[int] = []
    firsts: List[int] = []
    for j, axis in enumerate(axes):
        for label, first in enumerate(firsts):
            if np.array_equal(axes[first], axis):
                labels.append(label)
                break
        else:
            labels.append(len(firsts))
            firsts.append(j)
    return _canonical_layout(tuple(len(axis) for axis in axes), tuple(labels))


@functools.lru_cache(maxsize=CANONICAL_LAYOUT_CACHE)
def _canonical_layout(lengths: Tuple[int, ...],
                      labels: Tuple[int, ...]) -> np.ndarray:
    """The ``canonical_indices`` layout of axes of these lengths whose equal
    axes share a label, labels numbered in order of first appearance."""
    dtype = np.min_scalar_type(max(lengths) - 1)
    out = np.empty((len(lengths), 1), dtype=dtype)
    for label in range(max(labels) + 1):
        group = [j for j, other in enumerate(labels) if other == label]
        block = sorted_index_tuples(lengths[group[0]], len(group)).T
        reps = block.shape[1]
        out = np.repeat(out, reps, axis=1)
        out[group] = np.tile(block, out.shape[1] // reps)
    out.setflags(write=False)
    return out


def sign_products(plus: np.ndarray, minus: np.ndarray,
                  out: Optional[np.ndarray] = None,
                  scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-site products prod_j (plus[j] or minus[j]) over every sign choice.

    ``plus`` and ``minus`` hold one row per site.  Row r of the 2^n-row
    result takes plus[j] where bit j of r (most significant first) is 0 and
    minus[j] where it is 1, multiplied left to right; rows r and 2^n - 1 - r
    choose oppositely at every site.  Each site doubles the table, about
    2^(n+1) row products in all.  The doublings alternate between ``out``,
    shape (2^n,) + plus.shape[1:], and ``scratch``, with at least 2^(n-1)
    such rows, and end in ``out``; either is allocated when not given.
    Each doubling reads a contiguous table and writes every other row of
    the next, whichever buffers are passed: numpy's complex multiply can
    round differently on other memory layouts.
    """
    n = len(plus)
    shape, dtype = plus.shape[1:], np.result_type(plus, minus)
    if out is None:
        out = np.empty((2 ** n,) + shape, dtype)
    if scratch is None:
        scratch = np.empty((2 ** (n - 1),) + shape, dtype)
    buffers = (out, scratch)
    table = buffers[(n - 1) % 2][:2]
    table[0], table[1] = plus[0], minus[0]
    for left, (p, q) in enumerate(zip(plus[1:], minus[1:]), start=2):
        doubled = buffers[(n - left) % 2][:2 * len(table)]
        np.multiply(table, p, out=doubled[0::2])
        np.multiply(table, q, out=doubled[1::2])
        table = doubled
    return out


def conjugate_pair_sum(table: np.ndarray, z: complex,
                       out: Optional[np.ndarray] = None,
                       scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """z table[2^n - 1 - b] + conj(z) table[b] for every row b < 2^(n-1).

    ``table`` is a real ``sign_products`` table; the real and imaginary parts
    are formed in real arithmetic, each complement row first.  The result
    goes to ``out``, a complex array of the half table's shape, when given;
    the two products of each part are formed in ``scratch``, a real array of
    shape (2,) + that shape, when given.  Either is allocated otherwise.
    """
    half = len(table) // 2
    low, high = table[:half], table[::-1][:half]
    if out is None:
        out = np.empty(low.shape, dtype=complex)
    if scratch is None:
        scratch = np.empty((2,) + low.shape)
    first, second = scratch
    np.multiply(z.real, high, out=first)
    np.multiply(z.real, low, out=second)
    np.add(first, second, out=out.real)
    np.multiply(z.imag, high, out=first)
    np.multiply(-z.imag, low, out=second)
    np.add(first, second, out=out.imag)
    return out


# The flat chunk buffers of this thread's walk, replaced when the chunk size
# changes, so concurrent walks never share them.
_CHUNK_BUFFERS = threading.local()


def walk_canonical(axes: Sequence[np.ndarray]
                   ) -> Iterator[Tuple[int, Dict[str, np.ndarray]]]:
    """Walk the canonical points of a product grid in chunks.

    Yields ``(start, buffers)`` for each chunk of about
    ``SCAN_CHUNK_EVALUATIONS`` block evaluations (points times 2^(n-1)
    pairs) of ``canonical_indices(axes)``: the index of its first point and
    its buffers, shaped (..., m) for its m points at n = len(axes).
    ``cols`` (n, m) holds each site's column into ``np.concatenate(axes)``;
    the others are the caller's.  The buffers, about 3.1 MB at 2^15
    evaluations, are allocated once per thread and chunk size and reused by
    every chunk, so two walks must not be interleaved on one thread (no
    caller does).
    """
    idx = canonical_indices(axes)
    n, total = idx.shape
    half = 2 ** (n - 1)
    step = max(1, SCAN_CHUNK_EVALUATIONS // half)
    # Sized in block evaluations, so one set serves every n: m points at n
    # parties take 2^n m table entries and n m <= 2^(n-1) m columns.
    flat = getattr(_CHUNK_BUFFERS, "current", None)
    if flat is None or len(flat["low"]) != step * half:
        flat = _CHUNK_BUFFERS.current = {
            name: np.empty(size * step * half, dtype) for name, size, dtype in
            (("table", 2, float), ("low", 1, float), ("scratch", 2, float),
             ("channel", 1, complex), ("bell", 1, complex),
             ("cols", 1, np.intp), ("factors", 2, float))}
    offsets = np.array([0] + [len(a) for a in axes[:-1]]).cumsum()[:, None]
    buffers: Dict[str, np.ndarray] = {}
    for start in range(0, total, step):
        m = min(step, total - start)
        if not buffers or m < step:
            pairs = half * m
            buffers = {
                "table": flat["table"][:2 * pairs].reshape(-1, m),
                "low": flat["low"][:pairs].reshape(-1, m),
                "scratch": flat["scratch"][:2 * pairs].reshape(2, -1, m),
                "channel": flat["channel"][:pairs].reshape(-1, m),
                "bell": flat["bell"][:pairs].reshape(-1, m),
                "cols": flat["cols"][:n * m].reshape(n, m),
                "factors": flat["factors"][:2 * n * m].reshape(2, n, m)}
        np.add(idx[:, start:start + step], offsets, out=buffers["cols"])
        yield start, buffers


def chunk_sign_products(rows: np.ndarray,
                        buffers: Dict[str, np.ndarray]) -> np.ndarray:
    """``sign_products`` of a chunk's factors, into its ``table``.

    ``rows`` holds the plus and the minus factor of every value of the
    walk's concatenated axes; one ``np.take`` reads them at the chunk's
    ``cols`` (mode="clip" is faster and clips nothing).
    """
    plus, minus = np.take(rows, buffers["cols"], axis=1,
                          out=buffers["factors"], mode="clip")
    return sign_products(plus, minus, buffers["table"],
                         buffers["scratch"][0])


def x_blocks(m: np.ndarray
             ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The 2 x 2 blocks of a matrix that is diagonal plus antidiagonal.

    For every pair b < 2^(n-1), with b~ = 2^n - 1 - b, returns m[b, b],
    m[b~, b~] and the corner m[b~, b] as three arrays indexed by b.  Returns
    None when any entry off the diagonal and antidiagonal is nonzero (NaN
    counts as nonzero).  The order must be even, so that the two lines share
    no entry.
    """
    diagonal = np.diagonal(m)
    corners = np.diagonal(m[::-1])
    if np.count_nonzero(m) != (np.count_nonzero(diagonal)
                               + np.count_nonzero(corners)):
        return None
    half = len(m) // 2
    return diagonal[:half], diagonal[::-1][:half], corners[:half]


def least_block_eigenvalue(
        blocks: Tuple[np.ndarray, np.ndarray, np.ndarray]) -> float:
    """Least eigenvalue over Hermitian 2 x 2 blocks [[a, z*], [z, c]].

    ``blocks`` holds (a, c, z) as ``x_blocks`` returns them; each block's
    lower eigenvalue is (a + c)/2 - hypot((a - c)/2, |z|), and the
    imaginary parts of a and c are ignored.
    """
    a, c, z = blocks
    return float(np.min((a.real + c.real) / 2
                        - np.hypot((a.real - c.real) / 2, np.abs(z))))


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a complex Hermitian matrix, sorted ascending.

    Raises ValueError for non-square or non-Hermitian input, which includes
    any non-finite entry; the spectrum is numpy's ``eigvalsh``.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    # A non-finite entry makes its own difference NaN or infinite.
    if not np.max(np.abs(a - a.conj().T)) <= HERMITICITY_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    return np.linalg.eigvalsh(a)
