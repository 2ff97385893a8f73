"""Dense Hermitian linear algebra helpers.

Provides the Kronecker product ``kron_all``, one batched step of a
site-by-site contraction (``contract_site``) and the matrices it leaves
(``interleaved_to_matrix``), the canonical index tuples of a product grid
(one per permutation orbit), the per-site products over every sign choice
(``sign_products``) and their conjugate-pair combination
(``conjugate_pair_sum``), the 2 x 2 blocks of a diagonal-plus-antidiagonal
matrix (``x_blocks``) and their least eigenvalue, and a checked Hermitian
spectrum.  Certification and state validation read their spectra from
closed-form 2 x 2 blocks; the full spectrum serves the tests.
"""
from __future__ import annotations

import functools
from typing import List, Optional, Sequence, Tuple

import numpy as np

# Largest |m - m^dagger| entry a Hermitian matrix may have.
HERMITICITY_TOL = 1e-10
# Block evaluations (points times pairs) per chunk of a walk over canonical
# grid points, about 0.5 MB per table: 4096 points at n = 4.  The fastest
# of 2^13 to 2^17 for the certificate scan at n = 4 on grid 31; the
# quantum-bound grid check walks its points in chunks of the same size.
SCAN_CHUNK_EVALUATIONS = 2 ** 15

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
    indexes ``axes[j]``.  Each group's tuples are built in the small dtype
    of ``sorted_index_tuples``; the result is numpy's index type, intp.
    """
    if not axes:
        raise ValueError("canonical_indices requires at least one axis")
    groups: List[List[int]] = []
    for j, axis in enumerate(axes):
        for group in groups:
            if np.array_equal(axes[group[0]], axis):
                group.append(j)
                break
        else:
            groups.append([j])
    out = np.empty((len(axes), 1), dtype=np.intp)
    for group in groups:
        block = sorted_index_tuples(len(axes[group[0]]), len(group)).T
        reps = block.shape[1]
        out = np.repeat(out, reps, axis=1)
        out[group] = np.tile(block, out.shape[1] // reps)
    return out


def sign_products(plus: np.ndarray, minus: np.ndarray) -> np.ndarray:
    """Per-site products prod_j (plus[j] or minus[j]) over every sign choice.

    ``plus`` and ``minus`` hold one row per site.  Row r of the 2^n-row
    result takes plus[j] where bit j of r (most significant first) is 0 and
    minus[j] where it is 1, multiplied left to right; rows r and 2^n - 1 - r
    choose oppositely at every site.  Each site doubles the table, about
    2^(n+1) row products in all.
    """
    table = np.stack([plus[0], minus[0]])
    for p, q in zip(plus[1:], minus[1:]):
        out = np.empty((2 * len(table),) + table.shape[1:], table.dtype)
        np.multiply(table, p, out=out[0::2])
        np.multiply(table, q, out=out[1::2])
        table = out
    return table


def conjugate_pair_sum(table: np.ndarray, z: complex) -> np.ndarray:
    """z table[2^n - 1 - b] + conj(z) table[b] for every row b < 2^(n-1).

    ``table`` is a real ``sign_products`` table; the real and imaginary parts
    are formed in real arithmetic, each complement row first.
    """
    half = len(table) // 2
    low, high = table[:half], table[::-1][:half]
    out = np.empty(low.shape, dtype=complex)
    np.multiply(z.real, high, out=out.real)
    out.real += z.real * low
    np.multiply(z.imag, high, out=out.imag)
    out.imag += (-z.imag) * low
    return out


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
