"""Elements of the adjoint Chevalley group over a ring.

An element carries its matrix, the matrix of its inverse (kept in lockstep so
no inversion is ever needed for word-built elements), both read-only arrays
(see linalg), and the word of generators that produced it; elements compare
and hash by the value of the matrix.  It has no product of its own: a
product of elements is one word, built by from_word.  Words use four token kinds:

    ("x", root, t)     root element at parameter t
    ("w", root, t)     Weyl representative, t a unit
    ("h", root, u)     semisimple element h_root(u), u a unit
    ("chi", units, None)  torus element for the character units_j^(beta_j)

The chi token exists because the adjoint torus is bigger than the span of the
h_root elements.  Words are what certificates replay; the matrix is what
equality means.  word_stack is the one word product, on arrays, for a list
of words at once: the x factors (three per w token) from one x_stack, each
torus token the diagonal of its character, the factors as a balanced tree of
batched products; from_word is the group element of one word.  The torus
diagonals are memoised per token, bounded at 4,096.

x_root(t) is 1 + sum_k t^k D_k, D_k = X^k / k! for X = ad e_root (Steinberg,
Lectures on Chevalley Groups, 1967, section 3).  D_k moves weight mu to
mu + k root and basis vectors have weight a root or 0, so entry (i, j) is
nonzero in at most one D_k, never on the diagonal: it is one term c t^k,
k <= 3.  _x_gather, the one builder of x_root(t) (x_stack's for (root, t) keys,
root_stack's at root positions), gathers any set of them from a per-algebra
int8 pattern and a table of c t^k, over every element of a finite ring once
per (algebra, ring), over Z (or a ring past STACK_BUDGET) over the parameters
asked for.
The chain constants of the commutator formula come in closed form from the
structure constants (Carter, Simple Groups of Lie Type, 5.2), once per
(algebra, r, s), shared read-only by the precheck and the verify suites.

root_stack holds x_root(t) for every root and element of a finite ring (or
given t), root-major, x_root(t) at row stack_row: root position * |R| + position of t.
commutator_pattern_holds is the one check of the commutator formula: for
root pairs times parameters (t, u) it reads x_r and x_s at (t, u) and (-t, -u)
and every chain factor from such a stack at rows computed by row_ops.  The
precheck runs it on its own table of the supplied images at t = u = 1, and
the verify commutator suite on a root_stack at every (t, u).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import factorial
from types import MappingProxyType
from typing import Iterable, Mapping, Tuple

import numpy as np

from chevalley.liealg import AdjointAlgebra, build_algebra
from chevalley.linalg import (every_element, from_ints, frozen, positions, row_ops, stack_dtype,
                              stack_mul)
from chevalley.rings import Ring
from chevalley.roots import Root

Token = Tuple

# the entries |Phi| |R| n^2 of one root_stack, the size of every table certify
# builds: the precheck and the verify suites refuse a ring past it before
# building, and x_stack tables every element of a finite ring only within it
STACK_BUDGET = 1 << 22


def stack_entries(alg: AdjointAlgebra, per_root: int) -> int:
    """The entries of a stack of per_root n x n matrices for every root."""
    return len(alg.system.roots) * per_root * alg.dim ** 2


@dataclass(frozen=True)
class GroupElement:
    ring: Ring
    mat: np.ndarray
    inv_mat: np.ndarray
    word: Tuple[Token, ...]

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupElement) and np.array_equal(self.mat, other.mat)

    def __hash__(self) -> int:   # by value: over Z the bytes of an object array are pointers
        return hash(tuple(self.mat.ravel().tolist()))


@lru_cache(maxsize=None)
def identity_element(alg: AdjointAlgebra, ring: Ring) -> GroupElement:
    """The identity, once per (algebra, ring): src's one identity matrix."""
    e = frozen(from_ints(ring, np.eye(alg.dim, dtype=np.int64), stack_dtype(ring, alg.dim)))
    return GroupElement(ring, e, e, ())


@lru_cache(maxsize=None)
def _x_pattern(alg: AdjointAlgebra):
    """(cell, constants): entry (i, j) of x_root(t) is constants[c] t^k where
    cell[root position, i, j] = 4 c + k, one int8 per entry (k = 0 on the
    diagonal's 1 and off the supports of the divided powers)."""
    roots = alg.system.roots
    full = np.array([np.eye(alg.dim, dtype=np.int64)] * len(roots))
    degree = np.zeros_like(full)
    for q, root in enumerate(roots):
        for k, dp in enumerate(alg.divided_powers(root), 1):
            degree[q] += k * (dp != 0)
            full[q] += dp.astype(np.int64)
    constants, coefficient = np.unique(full, return_inverse=True)
    cell = frozen((4 * coefficient.reshape(full.shape) + degree).astype(np.int8))
    return cell, tuple(constants.tolist())


def _x_columns(alg: AdjointAlgebra, ring: Ring, t):
    """constant * t^k at column 4 c + k, for every constant c of the pattern
    and k <= 3, for each element of the array t: two row_ops scalings for t^2
    and t^3, one by the constants (over Z, products of Python ints)."""
    scale = row_ops(ring)[0] if ring.size else np.multiply
    constants = from_ints(ring, _x_pattern(alg)[1], t.dtype)
    square = scale(t, t)
    powers = np.stack([t ** 0, t, square, scale(square, t)], axis=1)
    table = scale(constants[:, None], powers[:, None])   # [t, c, k]
    return table.reshape((len(t), -1) + table.shape[3:])


@lru_cache(maxsize=None)
def _x_table(alg: AdjointAlgebra, ring: Ring):
    """_x_columns of every element of a finite ring, in the order of
    linalg.positions, once per (algebra, ring)."""
    return frozen(_x_columns(alg, ring, every_element(ring).astype(stack_dtype(ring, alg.dim))))


def x_stack(alg: AdjointAlgebra, ring: Ring, keys):
    """x_root(t) for every (root, t) of keys, in their order, as one stack
    (see linalg.stack_mul), exact Python ints in an object array over Z."""
    roots, params = zip(*keys)
    return _x_gather(alg, ring, list(map(alg.system.root_index, roots)), params)


def _x_gather(alg: AdjointAlgebra, ring: Ring, at_root, params):
    """x_root(t) for the root at each position of at_root and the element t
    of params beside it: one gather of every entry's pattern cell from the
    row of t in _x_table, or over Z and over a ring whose root_stack passes
    STACK_BUDGET in the _x_columns of the parameters asked for."""
    t = np.asarray(params, dtype=stack_dtype(ring, alg.dim))
    if ring.size and stack_entries(alg, ring.size) <= STACK_BUDGET:
        table, at = _x_table(alg, ring), positions(ring, t)
    else:
        table, at = _x_columns(alg, ring, t), np.arange(len(t))
    return table[at[:, None, None], _x_pattern(alg)[0][at_root]]


def unipotent(alg: AdjointAlgebra, ring: Ring, root: Root, t) -> GroupElement:
    mat, inv = frozen(x_stack(alg, ring, ((root, t), (root, ring.neg(t)))))
    return GroupElement(ring, mat, inv, (("x", root, t),))


@lru_cache(maxsize=1 << 12)
def _torus_diagonal(alg: AdjointAlgebra, ring: Ring, kind: str, root, t) -> tuple:
    """The diagonals of an h or chi token and of its inverse: the character
    on the root vectors (h_root(u): u^<beta, root>), 1 on the Cartan part."""
    sysm = alg.system
    chi = [reduce(ring.mul, map(ring.power, root, beta), ring.one) if kind == "chi"
           else ring.power(t, sysm.pairing(beta, root)) for beta in sysm.roots]
    chi += [ring.one] * sysm.rank
    return tuple(chi), tuple(map(ring.inv, chi))


def word_stack(alg: AdjointAlgebra, ring: Ring, words):
    """The product of each word and, in reverse order, of its tokens'
    inverses, as a stack of shape (2, len(words), n, n), for nonempty words
    whose tokens have the same kinds in the same order.  Every x factor
    (three per w token, w_root(t) = x_root(t) x_(-root)(-1/t) x_root(t))
    comes from one x_stack, every torus token is the diagonal of its
    character (h_root(u) that of u^<beta, root>), and the factors multiply
    as a balanced tree of batched products."""
    sysm, n, tail = alg.system, alg.dim, np.shape(ring.one)
    keys, diagonals = [], []   # (matrix, inverse) per factor
    for kind, root, t in itertools.chain.from_iterable(words):
        if kind in ("x", "w"):
            x = [(root, t), (root, ring.neg(t))]
            if kind == "w":
                u, neg = ring.inv(t), sysm.negate(root)
                x += [(neg, ring.neg(u)), (neg, u)] + x
            keys += x
        elif kind in ("h", "chi"):
            diagonals += _torus_diagonal(alg, ring, kind, root, t)
        else:
            raise ValueError(f"unknown token kind {kind!r}")
    layout = "".join({"x": "x", "w": "xxx"}.get(kind, "d") for kind, _, _ in words[0])
    at_x, at_d = ([q for q, c in enumerate(layout) if c == f] for f in "xd")
    dtype = stack_dtype(ring, n)
    mats = np.zeros((len(words), len(layout), 2, n, n) + tail, dtype=dtype)
    if keys:
        mats[:, at_x] = x_stack(alg, ring, keys).reshape(mats[:, at_x].shape)
    if diagonals:   # the advanced index [factor, i] first, then word and matrix or inverse
        diag = np.array(diagonals, dtype=dtype).reshape((len(words), len(at_d), 2, n) + tail)
        mats[:, np.array(at_d)[:, None], :, range(n), range(n)] = np.moveaxis(diag, (1, 3), (0, 1))
    factors = np.stack([mats[:, :, 0], mats[:, ::-1, 1]]).swapaxes(1, 2)
    while factors.shape[1] > 1:   # a balanced tree, neighbours paired: one product a level
        even = factors.shape[1] // 2 * 2
        factors = np.concatenate([stack_mul(ring, factors[:, 0:even:2], factors[:, 1:even:2]),
                                  factors[:, even:]], axis=1)
    return factors[:, 0]


def weyl(alg: AdjointAlgebra, ring: Ring, root: Root, t) -> GroupElement:
    """w_root(t) = x_root(t) x_(-root)(-1/t) x_root(t); t must be a unit."""
    return from_word(alg, ring, (("w", root, t),))


def torus_chi(alg: AdjointAlgebra, ring: Ring, units: Tuple) -> GroupElement:
    """The torus element acting by chi(beta) = prod units_j ^ beta_j, as its
    one-token word.  chi ranges over all characters of the root lattice, so
    this covers the full torus of the adjoint group, which need not lie in
    the elementary subgroup."""
    return from_word(alg, ring, (("chi", units, None),))


def from_word(alg: AdjointAlgebra, ring: Ring, tokens: Iterable[Token]) -> GroupElement:
    """The group element of a word: its product and its inverse from one
    word_stack (the identity for the empty word)."""
    word = tuple((kind, root, t) for kind, root, t in tokens)
    if not word:
        return identity_element(alg, ring)
    mat, inv = frozen(word_stack(alg, ring, [word])[:, 0])
    return GroupElement(ring, mat, inv, word)


# ---------------------------------------------------------------------------
# commutator chains


def chain_pairs(system, r: Root, s: Root) -> Tuple[Tuple[int, int], ...]:
    """All (i, j) with i, j >= 1 and i*r + j*s a root, ordered by (i + j, i):
    the order of the factors of the commutator formula."""
    out = [(i, j) for i in range(1, 4) for j in range(1, 4)
           if system.is_root(tuple(i * a + j * b for a, b in zip(r, s)))]
    return tuple(sorted(out, key=lambda ij: (ij[0] + ij[1], ij[0])))


@lru_cache(maxsize=None)
def chain_coefficients(alg: AdjointAlgebra, r: Root, s: Root) -> Mapping[Tuple[int, int], int]:
    """Integer constants C_ij with [x_r(t), x_s(u)] = prod x_(ir+js)(C_ij t^i u^j),
    one per chain_pairs entry and in its order, once per (algebra, r, s); the
    mapping is read-only.

    With M_abi = N_a,b N_a,a+b ... N_a,(i-1)a+b / i!, Carter's constants are
    K_i1(a, b) = M_abi, K_1j(a, b) = (-1)^j M_baj, K_32(a, b) = M_(a+b),a,2 / 3
    and K_23(a, b) = -2 M_(a+b),b,2 / 3.  The commutator here is a b a^-1 b^-1,
    so C_ij(r, s) = (-1)^i K_ji(s, r).  The divisions run in Fraction and
    must land on integers.
    """
    def m(a, b, i):
        out = Fraction(1, factorial(i))
        for k in range(i):
            out *= alg.n_const(a, tuple(k * x + y for x, y in zip(a, b)))
        return out

    def carter(a, b, i, j):
        if j == 1:
            return m(a, b, i)
        if i == 1:
            return (-1) ** j * m(b, a, j)
        ab = tuple(x + y for x, y in zip(a, b))
        return m(ab, a, 2) / 3 if (i, j) == (3, 2) else -2 * m(ab, b, 2) / 3

    out = {}
    for i, j in chain_pairs(alg.system, r, s):
        c = (-1) ** i * carter(s, r, j, i)
        assert c.denominator == 1, (r, s, i, j, c)
        out[(i, j)] = int(c)
    return MappingProxyType(out)


def stack_row(ring: Ring, root, t):
    """The row of x_root(t) in a root_stack of every element of a finite
    ring, from the position of the root in the system and the position of t
    (linalg.positions), numpy-broadcast over arrays of either."""
    return np.asarray(root) * ring.size + t


def root_stack(alg: AdjointAlgebra, ring: Ring, params=None):
    """The matrix of x_root(t) for every root and every t of ``params``, by
    default every element of a finite ring, as one gather, root-major: by
    default in the rows of stack_row, and at params = (ring.one,) one row per
    root."""
    nroots, dtype = len(alg.system.roots), stack_dtype(ring, alg.dim)
    t = every_element(ring) if params is None else np.array(params, dtype=dtype)
    return _x_gather(alg, ring, np.repeat(np.arange(nroots), len(t)), np.concatenate([t] * nroots))


def commutator_rows(alg: AdjointAlgebra, ring: Ring, pairs, params):
    """(sides, opposite, factors, lengths): the stack rows commutator_pattern_holds
    reads, as arrays: sides[q] those of x_r(t), x_s(u) of pair q over params and
    then the (-t, -u) they lack, opposite[k] the column of the k-th (-t, -u), then
    the chain factors over params pair by pair in coeffs order, lengths[q] of them
    for pair q (x_r(0) for none).  Each is the stack_row of x_root(C t^i u^j),
    at the linalg.positions of C t^i u^j from row_ops."""
    column = {tu: k for k, tu in enumerate(params)}
    minus = [(ring.neg(t), ring.neg(u)) for t, u in params]
    column.update((tu, len(column)) for tu in minus if tu not in column)
    scale, tu = row_ops(ring)[0], np.array(list(column), dtype=np.int64)   # (t, u) on axis 1
    square = scale(tu, tu)
    powers = np.stack([tu ** 0, tu, square, scale(square, tu)])   # t^i and u^i
    at = alg.system.root_index
    sides = [(at(x), 1, 1 - k, k) for r, s, _ in pairs   # (root position, C, i, j)
             for k, x in enumerate((r, s))]
    chains = [[(at(tuple(i * a + j * b for a, b in zip(r, s))), c, i, j)
               for (i, j), c in coeffs.items()] or [(at(r), 0, 0, 0)]
              for r, s, coeffs in pairs]
    flat = itertools.chain.from_iterable(itertools.chain(sides, *chains))
    g, c, i, j = np.fromiter(flat, dtype=np.int64).reshape(-1, 4).T
    value = scale(scale(powers[i, :, 0], powers[j, :, 1]), from_ints(ring, c, np.int64)[:, None])
    rows = stack_row(ring, g[:, None], positions(ring, value))
    return (rows[:len(sides)].reshape(len(pairs), 2, -1), np.array([column[m] for m in minus]),
            rows[len(sides):, :len(params)], np.array(list(map(len, chains))))


def commutator_pattern_holds(ring: Ring, stack, rows) -> np.ndarray:
    """Per (r, s, coeffs) of pairs and (t, u) of params, pair-major, whether
    [x_r(t), x_s(u)] = prod x_(ir+js)(C_ij t^i u^j), as a boolean array, for
    the commutator_rows(alg, ring, pairs, params) given as ``rows``.

    ``stack`` holds x_root(t) for every root and element in the rows of
    stack_row (see ``linalg.stack_mul``), read at those rows, in any
    storage tier: the chains stay in the stack's dtype.  The left sides
    P(t, u) P(-t, -u), P(t, u) = x_r(t) x_s(u), are two batched products, the
    right sides of all chains of one length one batched product per factor
    past the first, the factors in coeffs order (chain_coefficients gives
    chain_pairs order).
    """
    sides, opposite, factors, lengths = rows
    pairs, params = len(sides), factors.shape[1]
    starts = np.cumsum(lengths) - lengths

    def product(rows):
        out = stack[rows[0]]
        for more in rows[1:]:
            out = stack_mul(ring, out, stack[more])
        return out

    half = product(sides.transpose(1, 0, 2))   # P(t, u) per pair and column
    lhs = stack_mul(ring, half[:, :params], half[:, opposite])
    holds = np.empty((pairs, params), dtype=bool)
    for length in set(lengths.tolist()):
        picked = np.flatnonzero(lengths == length)
        same = lhs[picked] == product([factors[starts[picked] + j] for j in range(length)])
        holds[picked] = same.reshape(len(picked), params, -1).all(axis=2)
    return holds.ravel()


# ---------------------------------------------------------------------------
# convenience


def group_for(name: str):
    """(system, algebra) pair for a name like "A2"."""
    from chevalley.roots import system_from_name
    sysm = system_from_name(name)
    return sysm, build_algebra(sysm.kind, sysm.rank)
