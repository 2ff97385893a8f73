"""Dense complex linear algebra: kron, eigenvalues, sign tables, blocks.

The Pauli matrices, the exchange matrix and the persymmetry test are the
oracle's (``tests/oracles.py``); the tests here check them too.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from ghzcert.linalg import (canonical_layouts, contract_sites,
                            hermitian_eigenvalues, kron_all,
                            least_block_eigenvalue, pair_magnitudes,
                            sign_products, sorted_index_tuples, x_blocks)
from oracles import (PAULI, canonical_tuples, eig2x2_hermitian,
                     exchange_matrix, is_persymmetric, kron, padded_grid,
                     pair_signs, random_hermitian, random_x_matrix,
                     signed_site_product, transposing_contract_sites)

SQ2 = np.sqrt(2.0)


def test_pauli_matrices():
    assert np.array_equal(PAULI["I"], np.eye(2))
    assert np.array_equal(PAULI["X"], [[0, 1], [1, 0]])
    assert np.array_equal(PAULI["Y"], [[0, -1j], [1j, 0]])
    assert np.array_equal(PAULI["Z"], [[1, 0], [0, -1]])
    assert np.array_equal(PAULI["Y"] @ PAULI["Y"], np.eye(2))


def test_pauli_structure():
    for label in "IXYZ":
        p = PAULI[label]
        assert np.array_equal(p, p.conj().T)
        assert np.allclose(p @ p.conj().T, np.eye(2))
    for label in "XYZ":
        assert np.trace(PAULI[label]) == 0


def test_kron_examples():
    x, z = PAULI["X"], PAULI["Z"]
    assert np.array_equal(kron(PAULI["I"], x),
                          np.block([[x, np.zeros((2, 2))], [np.zeros((2, 2)), x]]))
    assert np.array_equal(kron(x, x), np.eye(4)[::-1])
    assert np.array_equal(kron(z, z), np.diag([1, -1, -1, 1]))


def test_kron_associative_on_integer_inputs():
    a, b, c = PAULI["X"], PAULI["Z"], PAULI["I"]
    assert np.array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))
    assert np.array_equal(kron_all([a, b, c]), kron(a, kron(b, c)))


@pytest.mark.parametrize("d, e, dtype", [(2, 4, complex), (2, 4, float),
                                         (4, 4, complex), (4, 2, complex)])
def test_contract_sites_matches_transposing_route_bit_for_bit(d, e, dtype):
    # Every (d, e) a caller uses: the Bell operator (complex) and the local
    # bound (real), the channel, and the non-X Born table.
    rng = np.random.default_rng(53)

    def draw(shape):
        values = rng.normal(size=shape)
        if dtype is complex:
            values = values + 1j * rng.normal(size=shape)
        return values

    for n, k in itertools.product(range(1, 7), (1, 3)):
        operators = draw((k, n, d, e))
        base = draw((2,) * n if d == 2 else (2 ** n,) * 2)
        read_only = base.copy()
        read_only.setflags(write=False)
        # A read-only input and a transposed, non-contiguous view.
        for tensor in (read_only, base.T):
            before = tensor.copy()
            result = contract_sites(tensor, operators)
            expected = transposing_contract_sites(tensor, operators)
            assert result.dtype == expected.dtype
            assert np.array_equal(result, expected)
            assert np.array_equal(tensor, before)
            assert result.flags.writeable
            assert not np.shares_memory(result, tensor)


@pytest.mark.parametrize("d, e", [(2, 2), (2, 4), (4, 2), (4, 4)])
def test_contract_sites_runs_real_operators_on_complex_planes(d, e):
    # Real operators on a complex tensor contract its real and imaginary
    # planes in real arithmetic; the complex-operator route is the
    # reference, to 1e-15 of the largest result entry.
    rng = np.random.default_rng(54)
    for n, k in itertools.product(range(1, 7), (1, 3)):
        operators = rng.normal(size=(k, n, d, e))
        shape = (2,) * n if d == 2 else (2 ** n,) * 2
        base = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        read_only = base.copy()
        read_only.setflags(write=False)
        # A read-only input and a transposed, non-contiguous view.
        for tensor in (read_only, base.T):
            before = tensor.copy()
            result = contract_sites(tensor, operators)
            expected = contract_sites(tensor, operators.astype(complex))
            assert result.dtype == expected.dtype
            assert result.shape == expected.shape
            assert (np.max(np.abs(result - expected))
                    <= 1e-15 * np.max(np.abs(expected)))
            assert np.array_equal(tensor, before)
            assert result.flags.writeable
            assert not np.shares_memory(result, tensor)


def test_hermitian_eigenvalues_examples():
    assert np.allclose(hermitian_eigenvalues(PAULI["Z"]), [-1, 1], atol=1e-12)
    m = kron(PAULI["X"], PAULI["X"]) + kron(PAULI["Z"], PAULI["Z"])
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
    assert np.array_equal(exchange_matrix(2), PAULI["X"])
    assert np.array_equal(exchange_matrix(4), kron(PAULI["X"], PAULI["X"]))
    assert np.array_equal(exchange_matrix(8),
                          kron_all([PAULI["X"]] * 3))
    for dim in (1, 2, 5, 8):
        j = exchange_matrix(dim)
        assert np.array_equal(j @ j, np.eye(dim))


def test_is_persymmetric():
    assert is_persymmetric(np.diag([1.0, 2.0, 2.0, 1.0]))
    assert not is_persymmetric(np.diag([1.0, 0.0, 0.0, 0.0]))
    j = exchange_matrix(4)
    rng = np.random.default_rng(14)
    h = random_hermitian(rng, 4)
    sym = h + j @ h.T @ j
    assert is_persymmetric(sym)


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


def test_canonical_layouts_group_identical_axes():
    # Equal axes group by value, whether or not they are one object, and
    # the layout is the brute-force oracle's, first group slowest.
    a = np.linspace(0.0, 1.0, 4)
    b = np.linspace(0.0, 2.0, 3)
    axes = [a, b, a.copy(), b, a]
    idx, = canonical_layouts(*padded_grid(axes))
    assert idx.shape == (5, math.comb(4 + 2, 3) * math.comb(3 + 1, 2))
    got = {tuple(col) for col in idx.T.tolist()}
    assert len(got) == idx.shape[1]
    want = set()
    for t in itertools.product(*(range(len(x)) for x in axes)):
        first = sorted(t[j] for j in (0, 2, 4))
        second = sorted(t[j] for j in (1, 3))
        want.add((first[0], second[0], first[1], second[1], first[2]))
    assert got == want
    assert np.array_equal(idx, canonical_tuples(axes))
    distinct, = canonical_layouts(*padded_grid([a, b]))
    assert distinct.shape == (2, 12)


def test_sorted_index_tuples_take_the_smallest_unsigned_dtype():
    # uint8 holds every index of every grid the scan admits (at most 227
    # points per axis); the dtype widens only past 256 values.  The
    # canonical layout is shared between calls, so it is read-only.
    for size, dtype in ((1, np.uint8), (227, np.uint8), (256, np.uint8),
                        (257, np.uint16)):
        tuples = sorted_index_tuples(size, 2)
        assert tuples.dtype == dtype
        assert tuples[-1].tolist() == [size - 1, size - 1]
        idx, = canonical_layouts(*padded_grid([np.arange(size),
                                               np.arange(3.0)]))
        assert idx.dtype == dtype
        assert idx[0].max() == size - 1
        with pytest.raises(ValueError):
            idx[0, 0] = 1


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
            # Caller-owned buffers, stale contents and all, give the same
            # bits, for complex factors too.
            for plus, minus in ((base + other, base - other),
                                (base + 1j * other, base - 1j * other)):
                out = np.full((2 ** n, 13), np.nan, dtype=plus.dtype)
                scratch = np.full((2 ** (n - 1), 13), np.nan, plus.dtype)
                got = sign_products(plus, minus, out, scratch)
                assert got is out
                assert got.tobytes() == sign_products(plus, minus).tobytes()


def test_pair_magnitudes_matches_complex_formula():
    # |u T~ + conj(u) T| = |T~ + turn T| for a unit u with conj(u)^2 = turn:
    # to 1e-15 against the complex formula, and bit for bit against the
    # real add or subtract and abs (turn +-1), or the complex abs of the
    # two halves (turn +-i), that the scan kernel inlined before.
    rng = np.random.default_rng(12)
    for n in range(1, 7):
        table = sign_products(rng.normal(size=(n, 9)), rng.normal(size=(n, 9)))
        half = 2 ** (n - 1)
        high, low = table[::-1][:half], table[:half]
        for quarter, turn in enumerate((1 + 0j, -1j, -1 + 0j, 1j)):
            u = np.exp(1j * math.pi / 4 * (quarter + 4 * rng.integers(2)))
            assert abs(np.conj(u) ** 2 - turn) <= 1e-15
            out = np.full((half, 9), np.nan)
            parts = np.full((half, 9), np.nan, dtype=complex)
            assert pair_magnitudes(table, turn, out, parts) is out
            complex_route = np.abs(u * high + np.conj(u) * low)
            assert np.all(np.abs(out - complex_route)
                          <= 1e-15 * np.abs(table).max())
            if turn.imag:
                inline = np.empty((half, 9), dtype=complex)
                inline.real, inline.imag = high, low
                inline = np.abs(inline)
            else:
                inline = np.abs((np.add if turn.real > 0 else np.subtract)(
                    high, low))
            assert out.tobytes() == inline.tobytes()


def test_x_blocks_reads_pairs_and_rejects_other_entries():
    m = np.arange(1, 65, dtype=float).reshape(8, 8)
    x = np.where(np.eye(8, dtype=bool) | np.eye(8, dtype=bool)[::-1], m, 0.0)
    blocks, off_lines = x_blocks(x)
    assert off_lines == 0.0 and blocks.shape == (4, 2, 2)
    assert list(blocks[:, 0, 0]) == [m[b, b] for b in range(4)]
    assert list(blocks[:, 1, 1]) == [m[7 - b, 7 - b] for b in range(4)]
    assert list(blocks[:, 1, 0]) == [m[7 - b, b] for b in range(4)]
    assert list(blocks[:, 0, 1]) == [m[b, 7 - b] for b in range(4)]
    # The weight off the two lines is exact: -0.0 is no weight, 1e-300 is.
    for i, j, value, weight in ((0, 1, 1e-300, 1e-300), (2, 6, -1.0, 1.0),
                                (3, 5, -math.inf, math.inf),
                                (6, 2, -0.0, 0.0), (1, 3, -2j, 2.0)):
        y = x.astype(complex)
        y[i, j] = value
        assert x_blocks(y)[1] == weight
    y[4, 1] = math.nan
    assert math.isnan(x_blocks(y)[1])
    # n = 1 has nothing off the two lines.
    blocks, off_lines = x_blocks(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert off_lines == 0.0
    assert np.array_equal(blocks, [[[1.0, 2.0], [3.0, 4.0]]])


def test_x_blocks_of_a_batch_stacks_single_calls_bit_for_bit():
    rng = np.random.default_rng(15)
    for n in (1, 2, 3, 4):
        dim = 2 ** n
        batch = np.stack([random_x_matrix(rng, n) for _ in range(6)]
                         + [random_hermitian(rng, dim) for _ in range(2)])
        blocks, off_lines = x_blocks(batch.reshape(2, 4, dim, dim))
        assert blocks.shape == (2, 4, dim // 2, 2, 2)
        assert off_lines.shape == (2, 4)
        for m, got_blocks, got_off in zip(batch, blocks.reshape(8, -1),
                                          off_lines.ravel()):
            want_blocks, want_off = x_blocks(m)
            assert got_blocks.tobytes() == want_blocks.tobytes()
            assert np.float64(got_off).tobytes() == want_off.tobytes()
        assert np.count_nonzero(off_lines) == (2 if n > 1 else 0)


def test_least_block_eigenvalue_matches_lapack():
    rng = np.random.default_rng(14)
    for n in (1, 2, 3, 4, 5):
        for _ in range(50):
            m = random_x_matrix(rng, n)
            got = least_block_eigenvalue(x_blocks(m)[0])
            assert abs(got - np.linalg.eigvalsh(m)[0]) <= 1e-14
