"""Dense Hermitian linear algebra helpers.

Provides the Kronecker product ``kron_all``, the one site-by-site
contraction of a tensor or matrix with a batch of per-site operators
(``contract_sites``, which the dense Bell operator, the extraction channel,
the non-X Born table and the local bound call; real operators on a complex
input run in real arithmetic, and one gather along a flat index cached per
shape orders every result), the canonical index tuples
of product grids given as padded rows (``canonical_layouts``, one tuple per
permutation orbit, which the certificate scan's walk in ``verifier`` and
the quantum bound's check grid read), the per-site products over every
sign choice (``sign_products``, the certificate scan's tables), the one
combination of each pair's two rows at the GHZ phase's turn
(``pair_magnitudes``, which the scan and the quantum bound read every
corner through, in real arithmetic), the one reader of the 2 x 2
pair blocks of an X matrix or a batch (``x_blocks``, which the state
check, the Born table and ``verifier.block_decompose`` call) and their
least eigenvalue, which certification and state validation read, and the
one Hermiticity check (``check_hermitian``) of states and of the full
spectrum the tests read.

The canonical index layout depends only on the axis lengths and on which
axes are equal, so it is built once per such structure and cached:
read-only, in one-byte indices up to 256 points per axis, at most
``CANONICAL_LAYOUT_CACHE`` = 12 layouts.  The largest, n = 3 on grid 227
(the largest pass the certificate scan admits), is 3 one-byte indices per
point, 5.9 MB, so the cache holds at most 12 x 5.9 = 71 MB.  The result
order of ``contract_sites`` is one read-only flat index per (n, e, planes)
(``_site_order``); every caller bounds n to 6, so there are at most 24,
the largest 8192 entries (64 kB).
``sign_products`` writes into caller-owned buffers when given them and
``pair_magnitudes`` always does, so each caller keeps its own workspace;
this module keeps no per-thread state.
"""
from __future__ import annotations

import functools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

# Largest |m - m^dagger| entry a Hermitian matrix may have.
HERMITICITY_TOL = 1e-10
# Canonical layouts kept by ``_canonical_layout``, least recently used
# first out; a cycle of the scan benchmark's verify ops uses 8, and one of
# the reference benchmark's bounds ops 4, one 9^n check grid per n.
CANONICAL_LAYOUT_CACHE = 12


def kron_all(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of a nonempty sequence of matrices, left to right."""
    if not mats:
        raise ValueError("kron_all requires at least one matrix")
    out = np.asarray(mats[0], dtype=complex)
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def contract_sites(tensor: np.ndarray, operators: np.ndarray) -> np.ndarray:
    """Contract each site of k copies of ``tensor`` with its k operators.

    ``tensor`` is one size-2 index per site, shape (2,) * n, or a 2^n x 2^n
    matrix; ``operators`` has shape (k, n, d, e), site j's operators
    mapping its one index (d = 2) or its row and column (d = 4) to one
    outcome (e = 2) or a row and column (e = 4).  Sites go in cyclic
    order: site j's index leads, so the running array read as (k, d, rest)
    and transposed is a (k, rest, d) view, and one batched matmul by the
    site's k operators appends its output index last.  Site 0 reads the
    one tensor as (1, rest, d), broadcast over k.  Real operators on a
    complex tensor run in real arithmetic on the tensor's float view, its
    real and imaginary planes one trailing index that no site touches.
    The only copies are one interleave of a matrix's rows and columns
    (d = 4) and one gather along the cached ``_site_order`` that puts rows
    before columns (e = 4) and the planes last.  Returns a new array,
    (k, 2^n, 2^n), rows before columns, when e = 4 and (k, 2^n) when e = 2.
    """
    k, n, d, e = operators.shape
    dtype = np.result_type(tensor, operators)
    planes = np.iscomplexobj(tensor) and not np.iscomplexobj(operators)
    if d == 4:
        # Site j's row and column indices side by side: (r0 c0 r1 c1 ...).
        tensor = tensor.reshape((2,) * (2 * n)).transpose(
            [i for j in range(n) for i in (j, n + j)])
    if planes:
        tensor = tensor[..., None].view(tensor.real.dtype)
    out = tensor.reshape(1, d, -1)
    for j in range(n):
        out = np.matmul(out.reshape(len(out), d, -1).swapaxes(1, 2),
                        operators[:, j])
    if e == 4 or planes:
        out = out.reshape(k, -1).take(_site_order(n, e, planes), axis=1)
    if planes:
        out = out.view(dtype)
    return out.reshape((k,) + (2 ** n,) * (e // 2))


@functools.lru_cache(maxsize=None)
def _site_order(n: int, e: int, planes: bool) -> np.ndarray:
    """Flat index, read-only, of each result entry in ``contract_sites``'s
    loop output: (planes,) then each site's outcome, or its row and column
    side by side, read as every row, then every column, then the planes."""
    half = e // 2
    axes = [half * j + i for i in range(half) for j in range(n)]
    if planes:
        axes = [axis + 1 for axis in axes] + [0]
    order = np.arange(2 ** len(axes)).reshape((2,) * len(axes))
    order = order.transpose(axes).ravel()
    order.setflags(write=False)
    return order


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


def canonical_layouts(rows: np.ndarray, lengths: np.ndarray
                      ) -> List[np.ndarray]:
    """Index tuples of r product grids, one per orbit of permuting equal axes.

    Axis j of grid k is ``rows[k, j, :lengths[k, j]]``; ``rows`` has shape
    (r, n, w) and ``lengths`` (r, n), and each row is padded past its axis
    by repeating the axis's last value.  Axes of a grid with equal values
    form a group; a tuple is canonical when its indices are nondecreasing
    within every group.  Returns one integer array per grid, of shape
    (n, number of canonical tuples), whose row j indexes axis j, read off
    ``_canonical_layout``.
    """
    layouts = []
    for axes, sizes in zip(rows.tolist(), lengths.tolist()):
        # Each axis takes the label of the first axis equal to it, labels
        # numbered in order of first appearance.
        labels: Dict[tuple, int] = {}
        layouts.append(_canonical_layout(tuple(sizes), tuple(
            labels.setdefault((size, *axis), len(labels))
            for axis, size in zip(axes, sizes))))
    return layouts


@functools.lru_cache(maxsize=CANONICAL_LAYOUT_CACHE)
def _canonical_layout(lengths: Tuple[int, ...],
                      labels: Tuple[int, ...]) -> np.ndarray:
    """The canonical tuples of axes of these lengths whose equal axes share
    a label, labels numbered in order of first appearance.

    Groups are combined as a Cartesian product, the first group varying
    slowest, each group's tuples in lexicographic order.  The layout is
    shared between calls, so it is read-only, in the smallest unsigned
    dtype that holds every index (uint8 up to 256 points per axis).
    """
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


def pair_magnitudes(table: np.ndarray, turn: complex, out: np.ndarray,
                    parts: np.ndarray) -> np.ndarray:
    """|table[2^n - 1 - b] + turn table[b]| for every row b < 2^(n-1).

    ``table`` is real and ``turn`` exactly 1, -1, 1j or -1j: one real add or
    subtract and ``abs``, or for +-i numpy's complex ``abs`` of the two
    halves as the real and imaginary parts of ``parts``, a complex array of
    the half table's shape.  The result goes to ``out``, a real one.
    """
    half = len(table) // 2
    high, low = table[::-1][:half], table[:half]
    if turn.imag:
        parts.real = high
        parts.imag = low
        return np.abs(parts, out=out)
    (np.add if turn.real > 0 else np.subtract)(high, low, out=out)
    return np.abs(out, out=out)


@functools.lru_cache(maxsize=None)
def _pair_layout(dim: int) -> Tuple[np.ndarray, np.ndarray]:
    """Flat indices of a dim x dim matrix's pair blocks, (dim/2, 2, 2), and
    of its entries off both lines, in order; both read-only."""
    low = np.arange(dim // 2)
    pairs = np.stack([low, dim - 1 - low], axis=1)
    on_lines = pairs[:, :, None] * dim + pairs[:, None, :]
    off_lines = np.delete(np.arange(dim * dim), on_lines.ravel())
    on_lines.setflags(write=False)
    off_lines.setflags(write=False)
    return on_lines, off_lines


def x_blocks(m: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The 2 x 2 pair blocks of one matrix or a batch, and what lies off them.

    For m of shape (..., 2^n, 2^n), block b < 2^(n-1) is m on the index pair
    (b, b~ = 2^n - 1 - b), [[m[b, b], m[b, b~]], [m[b~, b], m[b~, b~]]], all
    of shape (..., 2^(n-1), 2, 2).  Also returns each matrix's largest
    magnitude off the diagonal and antidiagonal, NaN if any is NaN and 0 if
    there are none (n = 1): exactly 0 for an X matrix.  The order must be
    even, so that the two lines share no entry.
    """
    dim = m.shape[-1]
    on_lines, off_lines = _pair_layout(dim)
    flat = m.reshape(m.shape[:-2] + (dim * dim,))
    worst = np.abs(flat.take(off_lines, axis=-1)).max(axis=-1, initial=0.0)
    return flat.take(on_lines, axis=-1), worst


def least_block_eigenvalue(blocks: np.ndarray) -> float:
    """Least eigenvalue over Hermitian 2 x 2 blocks [[a, z*], [z, c]].

    ``blocks`` has shape (..., 2, 2), as ``x_blocks`` returns them; each
    block's lower eigenvalue is (a + c)/2 - hypot((a - c)/2, |z|), and the
    imaginary parts of a and c are ignored.
    """
    a, c = blocks[..., 0, 0].real, blocks[..., 1, 1].real
    return float(np.min((a + c) / 2
                        - np.hypot((a - c) / 2, np.abs(blocks[..., 1, 0]))))


def check_hermitian(m: np.ndarray, what: str) -> np.ndarray:
    """Return square ``m``, or a batch (..., d, d), if Hermitian within
    ``HERMITICITY_TOL``, else raise ValueError naming ``what`` (also,
    unwarned, on a non-finite difference)."""
    with np.errstate(over="ignore", invalid="ignore"):
        worst = np.max(np.abs(m - m.conj().swapaxes(-1, -2)))
        if not worst <= HERMITICITY_TOL:
            raise ValueError(f"{what} is not Hermitian within tolerance")
    return m


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a complex Hermitian matrix, sorted ascending.

    Raises ValueError for non-square or non-Hermitian input
    (``check_hermitian``); the spectrum is numpy's ``eigvalsh``.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    return np.linalg.eigvalsh(check_hermitian(a, "matrix"))
