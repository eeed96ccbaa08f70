"""Elements of the adjoint Chevalley group over a ring.

An element carries its matrix, the matrix of its inverse (kept in lockstep so
no inversion is ever needed for word-built elements), and the word of
generators that produced it.  Words use four token kinds:

    ("x", root, t)     root element at parameter t
    ("w", root, t)     Weyl representative, t a unit
    ("h", root, u)     semisimple element h_root(u), u a unit
    ("chi", units, None)  torus element for the character units_j^(beta_j)

The chi token exists because the adjoint torus is bigger than the span of the
h_root elements; conjugator words coming out of big-cell factorizations need
it.  torus_chi builds every torus matrix: h_root(u) is the character
u^<beta, root>, under its own h token.  Words are what certificates replay;
the matrix is what equality means.

x_root(t) is 1 + sum_k t^k D_k over the divided powers D_k of ad e_root.
Each D_k is memoised per (algebra, ring, root) as its nonzero (i, j, value)
entries only, so building x_root(t) costs O(nnz) per power.  The chain
constants of the commutator formula come in closed form from the structure
constants (Carter, Simple Groups of Lie Type, 5.2), once per (algebra, r, s),
and are shared read-only by the precheck and the verify suites.

Over a finite ring, root_stack holds the matrix of x_root(t) for every root
and every element t as one stack (see linalg), in the rows of stack_rows:
root-major, the elements in ring.elements() order; given parameters, it
holds x_root(t) at those only, so at t = 1 one matrix per root.  It is
built per call and dropped on return, and it is the one form of that table:
certify and every verify suite, recover included, read it.
commutator_pattern_holds is the one check of the commutator formula: for
root pairs times parameters (t, u) it reads every factor, and the inverses
at -t and -u, from such a stack at rows computed on ring_tables.  The
precheck runs it on its own table of the supplied images at t = u = 1, and
the verify commutator suite on a root_stack at every (t, u).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from types import MappingProxyType
from typing import Dict, Iterable, Mapping, Tuple

import numpy as np

from chevalley.liealg import AdjointAlgebra, build_algebra
from chevalley.linalg import (Matrix, identity, mat_map, mat_mul, matrix, ring_tables,
                              stack_dtype, stack_mul, to_matrix)
from chevalley.rings import Ring
from chevalley.roots import Root

Token = Tuple


@dataclass(frozen=True)
class GroupElement:
    ring: Ring
    mat: Matrix
    inv_mat: Matrix
    word: Tuple[Token, ...]

    def mul(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.ring,
                            mat_mul(self.ring, self.mat, other.mat),
                            mat_mul(self.ring, other.inv_mat, self.inv_mat),
                            self.word + other.word)

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupElement) and self.mat == other.mat

    def __hash__(self) -> int:
        return hash(self.mat)


def identity_element(alg: AdjointAlgebra, ring: Ring) -> GroupElement:
    e = identity(ring, alg.dim)
    return GroupElement(ring, e, e, ())


@lru_cache(maxsize=None)
def _divided_powers_over(alg: AdjointAlgebra, ring: Ring, root: Root):
    """Per divided power of ad e_root, its nonzero entries as (i, j, value)
    with the value in ring form."""
    zero = ring.zero
    return tuple(
        tuple((i, j, v) for i, row in enumerate(mat_map(ring.from_int, dp))
              for j, v in enumerate(row) if v != zero)
        for dp in alg.divided_powers(root))


def unipotent(alg: AdjointAlgebra, ring: Ring, root: Root, t) -> GroupElement:
    return GroupElement(ring, _unipotent_matrix(alg, ring, root, t),
                        _unipotent_matrix(alg, ring, root, ring.neg(t)),
                        (("x", root, t),))


def _unipotent_matrix(alg: AdjointAlgebra, ring: Ring, root: Root, t) -> Matrix:
    """sum_k t^k D_k over the sparse divided powers D_k (D_0 = 1)."""
    zero, add, mul = ring.zero, ring.add, ring.mul
    rows = [list(row) for row in identity(ring, alg.dim)]
    power = ring.one
    for entries in _divided_powers_over(alg, ring, root):
        power = mul(power, t)
        if power == zero:
            break
        for i, j, v in entries:
            rows[i][j] = add(rows[i][j], mul(power, v))
    return matrix(rows)


def weyl(alg: AdjointAlgebra, ring: Ring, root: Root, t) -> GroupElement:
    """w_root(t) = x_root(t) x_(-root)(-1/t) x_root(t); t must be a unit."""
    tinv = ring.inv(t)
    neg_root = tuple(-c for c in root)
    prod = unipotent(alg, ring, root, t) \
        .mul(unipotent(alg, ring, neg_root, ring.neg(tinv))) \
        .mul(unipotent(alg, ring, root, t))
    return GroupElement(ring, prod.mat, prod.inv_mat, (("w", root, t),))


def torus_alpha(alg: AdjointAlgebra, ring: Ring, root: Root, u) -> GroupElement:
    """h_root(u), the torus element chi(beta) = u^<beta, root>: the pairing is
    linear in beta, so chi takes u^<alpha_j, root> on the simple roots."""
    sysm = alg.system
    pairings = (sysm.pairing(sysm.simple(j), root) for j in range(sysm.rank))
    h = torus_chi(alg, ring, tuple(ring.power(u, p) for p in pairings))
    return GroupElement(ring, h.mat, h.inv_mat, (("h", root, u),))


def torus_chi(alg: AdjointAlgebra, ring: Ring, units: Tuple) -> GroupElement:
    """The torus element acting by chi(beta) = prod units_j ^ beta_j.

    chi ranges over all characters of the root lattice, so this covers the
    full torus of the adjoint group, which need not lie in the elementary
    subgroup; its word is the one chi token.
    """
    sysm = alg.system
    inverses = tuple(ring.inv(u) for u in units)
    n = alg.dim
    diag = []
    for beta in sysm.roots:
        val = ring.one
        for j, c in enumerate(beta):
            base = units[j] if c >= 0 else inverses[j]
            val = ring.mul(val, ring.power(base, abs(c)))
        diag.append(val)
    diag.extend([ring.one] * sysm.rank)
    zeros = (ring.zero,) * n

    def diagonal(values):
        return tuple(zeros[:i] + (v,) + zeros[i + 1:] for i, v in enumerate(values))
    return GroupElement(ring, diagonal(diag), diagonal(map(ring.inv, diag)),
                        (("chi", units, None),))


def from_word(alg: AdjointAlgebra, ring: Ring, tokens: Iterable[Token]) -> GroupElement:
    """The product of a word's tokens: one batched ``stack_mul`` per token takes
    the matrices left to right and the inverses right to left as arrays."""
    factors = []
    for token in tokens:
        kind, root, t = token
        if kind == "x":
            factor = unipotent(alg, ring, root, t)
        elif kind == "w":
            factor = weyl(alg, ring, root, t)
        elif kind == "h":
            factor = torus_alpha(alg, ring, root, t)
        elif kind == "chi":
            factor = torus_chi(alg, ring, root)
        else:
            raise ValueError(f"unknown token kind {kind!r}")
        factors.append(factor)
    dtype = stack_dtype(ring, alg.dim) if ring.size else object   # over Z entries grow
    acc = np.array([identity(ring, alg.dim)] * 2, dtype=dtype)
    for mat, inv in np.array([(f.mat, f.inv_mat) for f in factors], dtype=dtype):
        acc = stack_mul(ring, np.stack([acc[0], inv]), np.stack([mat, acc[1]]))
    return GroupElement(ring, to_matrix(ring, acc[0]), to_matrix(ring, acc[1]),
                        tuple(itertools.chain.from_iterable(f.word for f in factors)))


# ---------------------------------------------------------------------------
# commutator chains


def chain_pairs(system, r: Root, s: Root) -> Tuple[Tuple[int, int], ...]:
    """All (i, j) with i, j >= 1 and i*r + j*s a root, ordered by (i + j, i):
    the order of the factors of the commutator formula."""
    out = []
    for i in range(1, 4):
        for j in range(1, 4):
            cand = tuple(i * a + j * b for a, b in zip(r, s))
            if system.is_root(cand):
                out.append((i, j))
    out.sort(key=lambda ij: (ij[0] + ij[1], ij[0]))
    return tuple(out)


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


def stack_rows(alg: AdjointAlgebra, ring: Ring) -> Dict[Tuple[Root, object], int]:
    """(root, t) -> row, for stacks of one matrix per root and element of a
    finite ring: root-major, the elements in ring.elements() order."""
    return {key: i for i, key in
            enumerate(itertools.product(alg.system.roots, ring.elements()))}


def root_stack(alg: AdjointAlgebra, ring: Ring, params=None):
    """The matrix of x_root(t) for every root and every t of ``params``, by
    default every element of a finite ring, as one stack of arrays of
    elements (see ``linalg.stack_mul``), root-major: by default in the row
    order of stack_rows, and at params = (ring.one,) one row per root."""
    params = tuple(ring.elements() if params is None else params)
    return np.array([_unipotent_matrix(alg, ring, root, t)
                     for root, t in itertools.product(alg.system.roots, params)],
                    dtype=stack_dtype(ring, alg.dim))


def commutator_rows(alg: AdjointAlgebra, ring: Ring, pairs, params):
    """(sides, factors, lengths): the stack_rows commutator_pattern_holds reads,
    as arrays over params: sides[q] those of x_r(t), x_s(u), x_r(-t), x_s(-u)
    of pair q, then the chain factors pair by pair in coeffs order, lengths[q]
    of them for pair q (x_r(0) for none).  A row is root position * |R| +
    element position, C t^i u^j being mul[C, mul[t^i, u^j]] on ring_tables."""
    index, mul, _, powers = ring_tables(ring)
    t, u = np.array([[index[x] for x in tu] for tu in params], dtype=np.int64).reshape(-1, 2).T
    base = {r: len(index) * k for k, r in enumerate(alg.system.roots)}
    neg = mul[index[ring.neg(ring.one)]]
    r0, s0 = np.array([[base[r], base[s]] for r, s, _ in pairs]).T[:, :, None]
    sides = np.stack([r0 + t, s0 + u, r0 + neg[t], s0 + neg[u]], axis=1)
    chains = [[(base[tuple(i * a + j * b for a, b in zip(r, s))], index[ring.from_int(c)], i, j)
               for (i, j), c in coeffs.items()] or [(base[r], index[ring.zero], 0, 0)]
              for r, s, coeffs in pairs]
    g, c, i, j = np.array([f for chain in chains for f in chain]).reshape(-1, 4).T[:, :, None]
    return sides, g + mul[c, mul[powers[i, t], powers[j, u]]], np.array(list(map(len, chains)))


def commutator_pattern_holds(alg: AdjointAlgebra, ring: Ring, stack, pairs, params) -> np.ndarray:
    """Per (r, s, coeffs) of pairs and (t, u) of params, pair-major, whether
    [x_r(t), x_s(u)] = prod x_(ir+js)(C_ij t^i u^j), as a boolean array.

    ``stack`` holds x_root(t) for every root and element in the rows of
    stack_rows (see ``linalg.stack_mul``), read at the commutator_rows.  The
    left sides are three batched products, the right sides of all chains of
    one length one batched product per factor past the first, the factors in
    coeffs order (chain_coefficients gives chain_pairs order).
    """
    sides, factors, lengths = commutator_rows(alg, ring, pairs, params)
    starts = np.cumsum(lengths) - lengths

    def product(rows):
        out = stack[rows[0].ravel()]
        for more in rows[1:]:
            out = stack_mul(ring, out, stack[more.ravel()])
        return out.reshape(len(rows[0]), len(params), -1)

    lhs = product(sides.transpose(1, 0, 2))
    holds = np.empty((len(pairs), len(params)), dtype=bool)
    for length in set(lengths.tolist()):
        picked = np.flatnonzero(lengths == length)
        holds[picked] = (lhs[picked] == product([factors[starts[picked] + j]
                                                 for j in range(length)])).all(axis=2)
    return holds.ravel()


# ---------------------------------------------------------------------------
# convenience


def group_for(name: str):
    """(system, algebra) pair for a name like "A2"."""
    from chevalley.roots import system_from_name
    sysm = system_from_name(name)
    return sysm, build_algebra(sysm.kind, sysm.rank)
