"""Dense complex linear algebra: Pauli matrices, kron, eigenvalues, predicates."""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from ghzcert.linalg import (canonical_indices, hermitian_eigenvalues,
                            is_persymmetric, kron_all, pauli, sign_products,
                            sorted_index_tuples)
from oracles import (eig2x2_hermitian, exchange_matrix, kron, pair_signs,
                     random_hermitian, signed_site_product)

SQ2 = np.sqrt(2.0)


def test_pauli_matrices():
    assert np.array_equal(pauli("I"), np.eye(2))
    assert np.array_equal(pauli("X"), [[0, 1], [1, 0]])
    assert np.array_equal(pauli("Y"), [[0, -1j], [1j, 0]])
    assert np.array_equal(pauli("Z"), [[1, 0], [0, -1]])
    assert np.array_equal(pauli("Y") @ pauli("Y"), np.eye(2))


def test_pauli_rejects_bad_label():
    with pytest.raises(ValueError):
        pauli("Q")


def test_pauli_structure():
    for label in "IXYZ":
        p = pauli(label)
        assert np.array_equal(p, p.conj().T)
        assert np.allclose(p @ p.conj().T, np.eye(2))
    for label in "XYZ":
        assert np.trace(pauli(label)) == 0


def test_kron_examples():
    x, z = pauli("X"), pauli("Z")
    assert np.array_equal(kron(pauli("I"), x),
                          np.block([[x, np.zeros((2, 2))], [np.zeros((2, 2)), x]]))
    assert np.array_equal(kron(x, x), np.eye(4)[::-1])
    assert np.array_equal(kron(z, z), np.diag([1, -1, -1, 1]))


def test_kron_associative_on_integer_inputs():
    a, b, c = pauli("X"), pauli("Z"), pauli("I")
    assert np.array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))
    assert np.array_equal(kron_all([a, b, c]), kron(a, kron(b, c)))


def test_hermitian_eigenvalues_examples():
    assert np.allclose(hermitian_eigenvalues(pauli("Z")), [-1, 1], atol=1e-12)
    m = kron(pauli("X"), pauli("X")) + kron(pauli("Z"), pauli("Z"))
    assert np.allclose(hermitian_eigenvalues(m), [-2, 0, 0, 2], atol=1e-10)


def test_hermitian_eigenvalues_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValueError):
        hermitian_eigenvalues(np.ones((2, 3)))


def test_hermitian_eigenvalues_rejects_non_finite_entries():
    for bad in (np.nan, np.inf, complex(np.inf, np.inf)):
        for i, j in ((0, 0), (0, 1)):
            m = np.eye(4, dtype=complex)
            m[i, j] = bad
            m[j, i] = np.conj(bad)
            with np.errstate(invalid="ignore"):
                with pytest.raises(ValueError, match="Hermitian"):
                    hermitian_eigenvalues(m)


def test_hermitian_eigenvalues_against_lapack():
    rng = np.random.default_rng(11)
    for dim in (2, 4, 8, 16, 32):
        for _ in range(8):
            h = random_hermitian(rng, dim)
            got = hermitian_eigenvalues(h)
            ref = np.linalg.eigvalsh(h)
            assert np.max(np.abs(got - ref)) <= 1e-9
            assert abs(np.sum(got) - np.trace(h).real) <= 1e-9


def test_eigenvalues_invariant_under_exchange_conjugation():
    rng = np.random.default_rng(12)
    for _ in range(20):
        h = random_hermitian(rng, 8)
        j = exchange_matrix(8)
        assert np.allclose(hermitian_eigenvalues(j @ h @ j),
                           hermitian_eigenvalues(h), atol=1e-9)


def test_eig2x2_hermitian_examples():
    assert eig2x2_hermitian(0.0, 0.0) == (0.0, 0.0)
    lo, hi = eig2x2_hermitian(1.0, 1j)
    assert abs(lo) <= 1e-15 and abs(hi - 2) <= 1e-15


def test_eig2x2_matches_full_solver():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        a = rng.normal()
        b = rng.normal() + 1j * rng.normal()
        lo, hi = eig2x2_hermitian(a, b)
        ref = hermitian_eigenvalues(np.array([[a, b], [np.conj(b), a]]))
        assert abs(lo - ref[0]) <= 1e-10 and abs(hi - ref[1]) <= 1e-10


def test_exchange_matrix():
    assert np.array_equal(exchange_matrix(2), pauli("X"))
    assert np.array_equal(exchange_matrix(4), kron(pauli("X"), pauli("X")))
    assert np.array_equal(exchange_matrix(8),
                          kron_all([pauli("X")] * 3))
    for dim in (1, 2, 5, 8):
        j = exchange_matrix(dim)
        assert np.array_equal(j @ j, np.eye(dim))


def test_is_persymmetric():
    assert is_persymmetric(np.diag([1.0, 2.0, 2.0, 1.0]), tol=1e-10)
    assert not is_persymmetric(np.diag([1.0, 0.0, 0.0, 0.0]), tol=1e-10)
    j = exchange_matrix(4)
    rng = np.random.default_rng(14)
    h = random_hermitian(rng, 4)
    sym = h + j @ h.T @ j
    assert is_persymmetric(sym, tol=1e-10)


def test_sorted_index_tuples_one_per_orbit():
    for size, length in [(1, 1), (1, 4), (4, 1), (3, 3), (5, 4), (7, 3),
                         (4, 6)]:
        tuples = sorted_index_tuples(size, length)
        assert tuples.shape == (math.comb(size + length - 1, length), length)
        rows = [tuple(row) for row in tuples.tolist()]
        assert rows == sorted(rows)
        assert all(list(row) == sorted(row) for row in rows)
        full = {tuple(sorted(t))
                for t in itertools.product(range(size), repeat=length)}
        assert full == set(rows)
    with pytest.raises(ValueError):
        sorted_index_tuples(0, 3)
    with pytest.raises(ValueError):
        sorted_index_tuples(3, 0)


def test_canonical_indices_groups_identical_axes():
    a = np.linspace(0.0, 1.0, 4)
    b = np.linspace(0.0, 2.0, 3)
    axes = [a, b, a.copy(), b, a]
    idx = canonical_indices(axes)
    assert idx.shape == (5, math.comb(4 + 2, 3) * math.comb(3 + 1, 2))
    got = {tuple(col) for col in idx.T.tolist()}
    assert len(got) == idx.shape[1]
    want = set()
    for t in itertools.product(*(range(len(x)) for x in axes)):
        first = sorted(t[j] for j in (0, 2, 4))
        second = sorted(t[j] for j in (1, 3))
        want.add((first[0], second[0], first[1], second[1], first[2]))
    assert got == want
    distinct = canonical_indices([a, b])
    assert distinct.shape == (2, 12)
    with pytest.raises(ValueError):
        canonical_indices([])


def test_signed_site_product_matches_outer_products():
    rng = np.random.default_rng(5)
    base = rng.normal(size=(3, 6))
    other = rng.normal(size=(3, 6))
    signs = np.array([[1.0, -1.0, 1.0], [-1.0, -1.0, 1.0]])
    got = signed_site_product(base, other, signs)
    for row, sig in zip(got, signs):
        want = (base[0] + sig[0] * other[0]) * (base[1] + sig[1] * other[1]) \
            * (base[2] + sig[2] * other[2])
        assert np.array_equal(row, want)


def test_sign_products_match_signed_site_products():
    # Row r takes the signs of pair_signs(n, r); the doubling multiplies in
    # the same left-to-right order, so every entry is bit-identical.
    rng = np.random.default_rng(11)
    for n in range(1, 7):
        for _ in range(3):
            base = rng.normal(size=(n, 13))
            other = rng.normal(size=(n, 13))
            signs = np.array([pair_signs(n, r) for r in range(2 ** n)])
            table = sign_products(base + other, base - other)
            assert table.shape == (2 ** n, 13)
            assert np.array_equal(table,
                                  signed_site_product(base, other, signs))
