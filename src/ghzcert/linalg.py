"""Dense Hermitian linear algebra helpers.

Provides the Pauli matrices, the Kronecker product ``kron_all``, the
matrix form of a site-by-site contraction (``interleaved_to_matrix``), the
canonical index tuples of a product grid (one per permutation orbit), the
per-site products over every sign choice (``sign_products``), persymmetry
tests, and a checked Hermitian spectrum.  Certification reads its spectra
from closed-form 2 x 2 blocks; the full spectrum serves state validation
and the tests.
"""
from __future__ import annotations

from typing import List, Sequence

import numpy as np

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def pauli(label: str) -> np.ndarray:
    """Return the 2x2 Pauli matrix named by ``label`` in {I, X, Y, Z}."""
    try:
        return _PAULI[label].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli label {label!r}") from None


def kron_all(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of a nonempty sequence of matrices, left to right."""
    if not mats:
        raise ValueError("kron_all requires at least one matrix")
    out = np.asarray(mats[0], dtype=complex)
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def interleaved_to_matrix(tensor: np.ndarray) -> np.ndarray:
    """The 2^n x 2^n matrix of a tensor indexed (row 1, column 1, ..., column n).

    Site-by-site contractions leave each site's row and column index side by
    side; this gathers the row indices before the column indices.
    """
    n = tensor.ndim // 2
    rows_then_columns = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    return tensor.transpose(rows_then_columns).reshape(2 ** n, 2 ** n)


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

    Returns an integer array of shape (C(size + length - 1, length), length)
    holding one representative of every orbit of range(size)^length under
    permutations of the coordinates.  Each step appends a coordinate that
    runs from the previous row's last entry up to size - 1.
    """
    if size < 1 or length < 1:
        raise ValueError("need a positive size and length")
    tuples = np.arange(size).reshape(-1, 1)
    for _ in range(length - 1):
        last = tuples[:, -1]
        counts = size - last
        starts = np.repeat(np.cumsum(counts) - counts - last, counts)
        tuples = np.column_stack([np.repeat(tuples, counts, axis=0),
                                  np.arange(int(counts.sum())) - starts])
    return tuples


def canonical_indices(axes: Sequence[np.ndarray]) -> np.ndarray:
    """Index tuples of a product grid, one per orbit of permuting equal axes.

    Axes with identical values form a group; a tuple is canonical when its
    indices are nondecreasing within every group.  Groups are combined as a
    Cartesian product, the first group varying slowest.  Returns an integer
    array of shape (len(axes), number of canonical tuples) whose row j
    indexes ``axes[j]``.
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


def is_persymmetric(m: np.ndarray, tol: float = 1e-10) -> bool:
    """Check whether ``m`` is symmetric about its antidiagonal: m = J m.T J."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("persymmetry is defined for square matrices")
    flipped = m[::-1, ::-1].T
    return bool(np.max(np.abs(m - flipped)) <= tol)


def hermitian_eigenvalues(m: np.ndarray,
                          hermiticity_tol: float = 1e-10) -> np.ndarray:
    """Eigenvalues of a complex Hermitian matrix, sorted ascending.

    Raises ValueError for non-square or non-Hermitian input, which includes
    any non-finite entry; the spectrum is numpy's ``eigvalsh``.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    # A non-finite entry makes its own difference NaN or infinite.
    if not np.max(np.abs(a - a.conj().T)) <= hermiticity_tol:
        raise ValueError("matrix is not Hermitian within tolerance")
    return np.linalg.eigvalsh(a)
