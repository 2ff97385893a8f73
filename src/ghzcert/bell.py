"""Construction of multipartite Bell operators and their bounds.

This module builds the n-party Svetlichny and MABK Bell operators from
single-qubit equatorial observables, exposes their classical and quantum
bounds, and validates the density matrices Bell values are read from.

Two classical bounds are enumerated.  ``local_bound`` maximises over fully
local deterministic strategies; ``hybrid_bound`` over Svetlichny's hybrid
model, where the parties split into two groups that each answer with a
joint function of their inputs.  The catalog ``beta_L`` is the hybrid bound
2^(n-1) for Svetlichny and the fully local bound for MABK.  The fully local
Svetlichny bound is 2^floor((n+1)/2) (4, 4, 8, 8 for n = 3..6), so the two
Svetlichny bounds part from n = 4 on.

Conventions
-----------
Each party j measures A^r(alpha_j) = cos(alpha_j) X + (-1)^r sin(alpha_j) Y
for setting r in {0, 1}, with alpha_j restricted to [0, pi/2].  An operator
is a signed sum over all 2^n setting strings x:

    W = sum_x c(|x|) A^{x_1} otimes ... otimes A^{x_n},
    c(x) = A Re(e^{i k pi/4} i^{|x|}) = A cos((k + 2|x|) pi/4),

where ``_FAMILY_TABLE`` holds each family's amplitude A and phase octant
k (Svetlichny: A = sqrt(2), k = +1 at odd n, -1 at even n; MABK: A = 1,
k = 0, -1), so W_svetlichny = sqrt(2) W_mabk at even n.  The table also
gives c(x) (``_coefficient_tensor``), beta_Q = 2^(n-1) A and the corner
constant (A/2) e^{i k pi/4} (1 + i)^n (``corner_coefficient``).  Every
such W is exactly antidiagonal in the computational basis, Hermitian, and
persymmetric; its spectral norm equals the largest antidiagonal entry
magnitude.  Those entries have a closed form (``corner_coefficient``),
read off one ``sign_products`` table in real arithmetic; the certificate
scan (``verifier``) forms every pair's, chunk by chunk of its walk.

At every angle tuple in [0, pi/2]^n the pair (0, 2^n - 1) is the largest.
With T_b = prod_j (cos a_j + sigma_j sin a_j) and T_b~ its complement,
T_b T_b~ = prod_j cos 2a_j for every pair, so

    |W[b, b~]|^2 = |z_c|^2 [prod_j (1 + sigma_j sin 2a_j)
                            + prod_j (1 - sigma_j sin 2a_j)]
                   + 2 Re(z_c^2) prod_j cos 2a_j.

The bracket is twice the sum of the even-order terms
prod_{j in S} sigma_j sin 2a_j; on [0, pi/2] every sin 2a_j >= 0, so each
term is largest with every sigma_j = +1, which is pair 0.  So the quantum
bound reads that pair alone; outside [0, pi/2] no claim is made.  Its two
products over the check grid depend on n alone, so both families read
one read-only table built per n (``_pair_zero_products``).
``ghz_phase``, the phase of
that pair's eigenvector, defines the target state the scan and
``states.ghz_state`` share; ``corner_turn``, its conjugate square read
exactly off the family octant, lets the scan and the quantum bound read
corner entries through one real table.
``build_operator`` is the dense reference route the tests compare against:
it contracts the coefficient tensor c(x) with each party's stacked pair
(A^0, A^1) through ``linalg.contract_sites`` (``local_bound`` does so with
its outcome pairs), for one angle tuple or a batch of them at once, and
assumes no structure of W.
Each input from a caller passes one check here, by kind: ``check_integer``
(counts, seeds, 0/1 labels), ``check_real``, ``check_angles``,
``check_matrix`` (2^n x 2^n) or ``check_dense_parties`` (n <= 6), each
raising a ValueError naming it.
"""
from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .linalg import (canonical_layouts, check_hermitian, contract_sites,
                     least_block_eigenvalue, pair_magnitudes, x_blocks)
from .root2 import Root2

SVETLICHNY = "svetlichny"
MABK = "mabk"
SQRT2 = math.sqrt(2.0)
# family: ((a, b) of A = a + b sqrt(2), (k at even n, k at odd n))
_FAMILY_TABLE = {SVETLICHNY: ((0, 1), (-1, 1)), MABK: ((1, 0), (-1, 0))}
FAMILIES = tuple(_FAMILY_TABLE)
# cos(k pi/4), k = 0..7, with 1 / SQRT2 so that SQRT2 times it is 1.0 exactly.
_OCTANT_COSINES = np.array([1.0, 1 / SQRT2, 0.0, -1 / SQRT2,
                            -1.0, -1 / SQRT2, 0.0, 1 / SQRT2])

ANGLE_SLACK = 1e-12
_MIN_PARTIES = 3
_MAX_PARTIES = 6
# A density matrix's trace may differ from 1, and its least eigenvalue fall
# below 0, by at most these.
_TRACE_TOL = 1e-10
_STATE_PSD_TOL = 1e-8
# Outcome pairs (a(0), a(1)) of one party's deterministic strategies.
_OUTCOME_PAIRS = np.array(list(itertools.product((1.0, -1.0), repeat=2)))
# Check-grid tables kept by ``_pair_zero_products``: one per party count
# that ``check_dense_parties`` admits.
_CHECK_GRID_CACHE = _MAX_PARTIES - _MIN_PARTIES + 1


@dataclass(frozen=True)
class BellProtocol:
    """A Bell scenario: operator family and number of parties.

    ``n`` may be any integer, numpy's included, and is stored as an int, so
    equal scenarios are the same key of every cache; anything else, such as
    3.0 or "3", raises ValueError.
    """

    family: str
    n: int

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        object.__setattr__(self, "n", check_integer(
            self.n, "party count", lo=_MIN_PARTIES))

    @property
    def dim(self) -> int:
        return 2 ** self.n

    @property
    def beta_L_exact(self) -> Root2:
        """Catalog deterministic threshold constant, exact in Q[sqrt(2)].

        Svetlichny: 2^(n-1), the hybrid bound (``hybrid_bound``).  MABK: the
        fully local bound (``local_bound``).
        """
        if self.family == SVETLICHNY:
            return Root2(2 ** (self.n - 1))
        if self.n % 2 == 1:
            return Root2(2 ** ((self.n - 1) // 2))
        return Root2(0, 2 ** ((self.n - 2) // 2))

    @property
    def beta_Q_exact(self) -> Root2:
        """Maximal quantum value 2^(n-1) A, exact in Q[sqrt(2)]."""
        (a, b), _ = _FAMILY_TABLE[self.family]
        return Root2(a << (self.n - 1), b << (self.n - 1))

    @property
    def beta_L(self) -> float:
        return _float_bounds(self)[0]

    @property
    def beta_Q(self) -> float:
        return _float_bounds(self)[1]


# n has no upper bound, so the cache has one: both families at n = 3..34.
@functools.lru_cache(maxsize=64)
def _float_bounds(protocol: BellProtocol) -> Tuple[float, float]:
    """``float`` of the exact beta_L and beta_Q, once per scenario, so a
    fresh protocol, as each CLI op builds, does not redo the exact
    arithmetic."""
    return float(protocol.beta_L_exact), float(protocol.beta_Q_exact)


def check_integer(value: int, name: str, lo: int = 0,
                  hi: float = math.inf) -> int:
    """``value`` as an int in [lo, hi], numpy's included, through
    ``operator.index``; 5.0, "5" or lo - 1 raise ValueError naming it."""
    try:
        index = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    return check_real(index, name, lo, hi)


def check_real(value: float, name: str, lo: float = -math.inf,
               hi: float = math.inf) -> float:
    """``value`` as given if it is a finite real number in [lo, hi], numpy's
    included; anything else, such as 1j, "0.5", None, NaN or inf, raises
    ValueError naming it."""
    # float and int go first; the numbers.Real check is several times slower.
    if not (isinstance(value, (float, int, numbers.Real))
            and abs(value) < math.inf):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    if not lo <= value <= hi:
        raise ValueError(f"{name} must be at least {lo} and at most {hi}, "
                         f"got {value}")
    return value


def check_angles(angles: Sequence[float] | np.ndarray, n: int,
                 upper: float = math.pi / 2) -> np.ndarray:
    """One angle tuple, shape (n,), or a batch of k, shape (k, n), as floats.

    ValueError for any dtype but boolean, integer or float (complex, string,
    bytes and None included), any other shape, an empty tuple or batch, and
    any angle, NaN and +-inf included, outside [0, upper] (pi/2 or pi/4).
    """
    a = np.asarray(angles)
    if a.dtype.kind not in "biuf":
        raise ValueError(f"angles must be real, got dtype {a.dtype}")
    a = a.astype(float, copy=False)
    if a.ndim not in (1, 2) or a.shape[-1] != n:
        raise ValueError(f"expected {n} angles per tuple, got shape {a.shape}")
    if a.size == 0:
        raise ValueError(f"expected a nonempty angle tuple or batch, got "
                         f"shape {a.shape}")
    inside = (-ANGLE_SLACK <= a) & (a <= upper + ANGLE_SLACK)
    if not inside.all():
        raise ValueError(f"angle {a[~inside][0]} outside "
                         f"[0, pi/{round(math.pi / upper)}]")
    return a


def check_dense_parties(protocol: BellProtocol) -> int:
    """The scenario's n, if at most 6, the most the dense routes admit."""
    return check_integer(protocol.n, "party count", _MIN_PARTIES,
                         _MAX_PARTIES)


def check_matrix(m: np.ndarray, n: int, what: str,
                 batch: bool = False) -> np.ndarray:
    """``m`` as a complex 2^n x 2^n matrix, or with ``batch`` also a batch
    (k, 2^n, 2^n), for a party count n in [1, 6]; ValueError names the
    party count, or the ``what`` of any other shape."""
    dim = 2 ** check_integer(n, "party count", 1, _MAX_PARTIES)
    m = np.asarray(m, dtype=complex)
    if m.shape[-2:] != (dim, dim) or m.ndim not in ((2, 3) if batch else (2,)):
        raise ValueError(f"expected {dim} x {dim} {what}, got {m.shape}")
    return m


def _observable_pairs(alpha: np.ndarray) -> np.ndarray:
    """Stacked pairs (A^0, A^1) at each angle, shape alpha.shape + (2, 2, 2).

    A^r = [[0, c - (-1)^r i s], [c + (-1)^r i s, 0]] with c, s the cosine
    and sine of the angle; the angles are not checked.
    """
    c, s = np.cos(alpha), np.sin(alpha)
    pairs = np.zeros(np.shape(alpha) + (2, 2, 2), dtype=complex)
    pairs.real[..., 0, 1] = pairs.real[..., 1, 0] = np.expand_dims(c, -1)
    pairs.imag[..., 0, 0, 1] = pairs.imag[..., 1, 1, 0] = -s
    pairs.imag[..., 0, 1, 0] = pairs.imag[..., 1, 0, 1] = s
    return pairs


def observable(r: int, alpha: float) -> np.ndarray:
    """Equatorial qubit observable cos(alpha) X + (-1)^r sin(alpha) Y."""
    r = check_integer(r, "setting", hi=1)
    return _observable_pairs(check_angles((alpha,), 1)[0])[r]


def build_operator(protocol: BellProtocol,
                   angles: Sequence[float] | np.ndarray) -> np.ndarray:
    """Dense operator sum_x c(x) A^{x_1} ... A^{x_n} at the given angles.

    ``angles`` is one tuple, shape (n,), giving a 2^n x 2^n matrix, or a
    batch of k tuples, shape (k, n), giving k such matrices; a single tuple
    is the batch of one.  ``linalg.contract_sites`` contracts the
    coefficient tensor c(x) with each party's k stacked pairs (A^0, A^1),
    laid out (x, row column), which replaces that party's setting index by
    its row and column indices.  ValueError for n above 6.
    """
    a = check_angles(angles, check_dense_parties(protocol))
    batch = a.reshape(-1, protocol.n)
    pairs = _observable_pairs(batch).reshape(len(batch), protocol.n, 2, 4)
    w = contract_sites(_coefficient_tensor(protocol).astype(complex), pairs)
    return w if a.ndim == 2 else w[0]


@functools.lru_cache(maxsize=None)
def corner_coefficient(protocol: BellProtocol) -> complex:
    """Complex constant z_c in the antidiagonal closed form, once per scenario.

    The antidiagonal entries of the built operator factor as

        W[b, b~] = z_c prod_j (cos a_j - sigma_j sin a_j)
                 + conj(z_c) prod_j (cos a_j + sigma_j sin a_j)

    where b~ is the bitwise complement of b and sigma_j = +1 when bit j of b
    (most significant bit first) is 0, else -1.
    """
    (a, b), octants = _FAMILY_TABLE[protocol.family]
    n = protocol.n
    return ((a + b * SQRT2) / 2 * np.exp(1j * (octants[n % 2] * math.pi / 4))
            * (1 + 1j) ** n)


def ghz_phase(protocol: BellProtocol) -> complex:
    """Unit phase e^(i psi) of the maximal eigenvector's corner pair.

    The eigenvector is (|0...0> + e^(i psi) |1...1>) / sqrt(2) at the
    optimal angles, the one target state of the package.
    """
    zc = corner_coefficient(protocol)
    return zc / abs(zc)


def corner_turn(protocol: BellProtocol) -> complex:
    """conj(u)^2 of the GHZ phase u = ``ghz_phase``, exactly 1, -1j, -1 or 1j.

    z_c = (A/2) e^(i k pi/4) (1 + i)^n with A > 0, so u = e^(i (k + n) pi/4)
    and conj(u)^2 = (-i)^(k + n), read off ``_FAMILY_TABLE`` without
    rounding.  The certificate scan and the quantum bound read each pair's
    corner entry as u times one real table of sign products, whose two
    rows enter at this turn (``linalg.pair_magnitudes``).
    """
    _, octants = _FAMILY_TABLE[protocol.family]
    quarter_turns = (octants[protocol.n % 2] + protocol.n) % 4
    return (1 + 0j, -1j, -1 + 0j, 1j)[quarter_turns]


@functools.lru_cache(maxsize=None)
def _coefficient_tensor(protocol: BellProtocol) -> np.ndarray:
    """Functional coefficients c(x) = A cos((k + 2|x|) pi/4), indexed by the
    setting bits.

    Built once per scenario and shared read-only by every caller.
    """
    (a, b), octants = _FAMILY_TABLE[protocol.family]
    n = protocol.n
    weights = np.indices((2,) * n).sum(axis=0)
    c = (a + b * SQRT2) * _OCTANT_COSINES[(octants[n % 2] + 2 * weights) % 8]
    c.setflags(write=False)
    return c


def local_bound(protocol: BellProtocol) -> float:
    """Maximum of the Bell functional over deterministic local strategies.

    Enumerates all 4^n assignments of outcome pairs (a_j(0), a_j(1)) in
    {-1, +1}^2 and returns the largest functional value: the table of outcome
    pairs, as a (setting, strategy) operator at every party, is contracted
    into the coefficient tensor (``linalg.contract_sites``), leaving one
    value per assignment in a 2^n x 2^n layout.  For MABK this is
    the catalog ``beta_L``; for Svetlichny it is the fully local bound
    2^floor((n+1)/2), below the catalog's hybrid ``beta_L`` for n >= 4
    (see ``hybrid_bound``).
    """
    n = check_dense_parties(protocol)
    values = contract_sites(_coefficient_tensor(protocol), np.broadcast_to(
        _OUTCOME_PAIRS.T, (1, n, 2, 4)))
    return float(np.max(values))


def hybrid_bound(protocol: BellProtocol) -> float:
    """Maximum of the Bell functional over Svetlichny's hybrid strategies.

    In the hybrid model the parties split into two groups (G, G~) and each
    group answers with any joint +-1 function of its own inputs; mixtures
    over bipartitions cannot exceed the best single one.  For each of the
    2^(n-1) - 1 bipartitions, with G the smaller group, every function f_G
    on {0,1}^|G| is enumerated and scored by

        sum_{x_G~} | sum_{x_G} c(x) f_G(x_G) |,

    which is exact because the best f_G~ is the sign of the inner sum.  For
    Svetlichny this is the catalog ``beta_L`` = 2^(n-1).
    """
    n = check_dense_parties(protocol)
    c = _coefficient_tensor(protocol)
    best = -math.inf
    for mask in range(1, 2 ** (n - 1)):
        group = [j for j in range(n) if (mask >> j) & 1]
        rest = [j for j in range(n) if not (mask >> j) & 1]
        if len(group) > len(rest):
            group, rest = rest, group
        table = c.transpose(group + rest).reshape(2 ** len(group), -1)
        functions = np.array(list(itertools.product(
            (1.0, -1.0), repeat=2 ** len(group))))
        best = max(best, float(np.max(np.abs(functions @ table).sum(axis=1))))
    return best


def quantum_bound(protocol: BellProtocol) -> float:
    """Maximal quantum value, computed as the norm at the optimal angles.

    W is antidiagonal, so its spectral norm is its largest antidiagonal
    magnitude, and on [0, pi/2]^n that is pair 0's (module docstring).  The
    bound is pair 0's magnitude at the all-pi/4 point, cross-checked
    against the largest on a grid of 9 values per axis over [0, pi/2]
    (``_pair_zero_magnitudes``); ArithmeticError naming the cross-check
    if the grid's exceeds it.
    """
    check_dense_parties(protocol)
    value, grid_max = _pair_zero_magnitudes(protocol)
    if grid_max > value + 1e-8:
        raise ArithmeticError(
            f"quantum_bound cross-check failed: grid norm {grid_max} "
            f"exceeds optimal-point norm {value}")
    return value


def _pair_zero_magnitudes(protocol: BellProtocol) -> Tuple[float, float]:
    """Pair 0's antidiagonal magnitude at the all-pi/4 point, and its
    largest over the canonical points of the 9^n check grid.

    Each call reads the products of ``_pair_zero_products``, built once
    per n and shared by both families, and does the family's work on
    them: each magnitude is |z_c| times their ``linalg.pair_magnitudes``
    at ``corner_turn``, as the certificate scan reads every pair.
    """
    table = _pair_zero_products(protocol.n)
    m = table.shape[1]
    magnitudes, = pair_magnitudes(table, corner_turn(protocol),
                                  np.empty((1, m)), np.empty((1, m), complex))
    magnitudes *= abs(corner_coefficient(protocol))
    return float(magnitudes[-1]), float(magnitudes[:-1].max())


@functools.lru_cache(maxsize=_CHECK_GRID_CACHE)
def _pair_zero_products(n: int) -> np.ndarray:
    """Pair 0's two products, prod_j (cos a_j +- sin a_j), at each canonical
    point of the 9^n check grid and then at the all-pi/4 point: shape
    (2, m + 1), read-only, built on first use per n.

    The grid's cached orbit layout (``linalg.canonical_layouts``) gets one
    more column, pi/4 read as a tenth axis value.  Each product runs over
    the sites left to right, as rows 0 and 2^n - 1 of ``sign_products``
    do.  The largest table, n = 6, is 3004 columns (48 kB); all four
    n = 3..6 hold 79 kB.
    """
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
    table.setflags(write=False)
    return table


def validate_state(rho: np.ndarray, n: int) -> np.ndarray:
    """Check that ``rho`` is an n-qubit density matrix and return it.

    Shape (``check_matrix``), Hermiticity (``check_hermitian``, which any
    non-finite entry fails), unit trace and positivity are each checked
    once, each comparison failing on NaN and, unwarned, on overflow.  When
    ``rho`` is diagonal plus antidiagonal (``x_blocks``), its least
    eigenvalue is the least over its 2^(n-1) 2 x 2 blocks
    (``least_block_eigenvalue``); any other state takes numpy's ``eigvalsh``.
    """
    rho = check_hermitian(check_matrix(rho, n, "state"), "state")
    with np.errstate(over="ignore", invalid="ignore"):
        _check_unit_trace(np.trace(rho))
        blocks, off_lines = x_blocks(rho)
        _check_positive(np.linalg.eigvalsh(rho)[0] if off_lines != 0.0
                        else least_block_eigenvalue(blocks))
    return rho


def validate_x_blocks(blocks: np.ndarray) -> complex:
    """The trace of the X state with these 2^(n-1) pair blocks, shape
    (2^(n-1), 2, 2) as ``x_blocks`` lays them out, after ``validate_state``'s
    three checks on the blocks alone: Hermiticity, unit trace and least
    block eigenvalue.  The trace sums the diagonal in index order, as
    ``np.trace`` does the dense one, so it has the same bits.
    """
    check_hermitian(blocks, "state")
    with np.errstate(over="ignore", invalid="ignore"):
        trace = np.concatenate([blocks[:, 0, 0], blocks[::-1, 1, 1]]).sum()
        _check_unit_trace(trace)
        _check_positive(least_block_eigenvalue(blocks))
    return trace


def _check_unit_trace(trace: complex) -> None:
    if not abs(trace - 1.0) <= _TRACE_TOL:
        raise ValueError("state trace differs from 1")


def _check_positive(least: float) -> None:
    if not least >= -_STATE_PSD_TOL:
        raise ValueError(f"state has negative eigenvalue {least}")

