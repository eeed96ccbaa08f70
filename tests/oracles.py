"""Reference oracles that the tests compare the library against.

Each one is a slow or independent construction of something the library
computes another way: the localization of Z/n at a prime (for crt_split),
the (l+1) by (l+1) model of the A series (for the bracket table), linear
combinations of the adjoint basis matrices and the bracket of two elements
read from the table alone (for the matrices and the Jacobi checks), the
fraction-free determinant and the matrix-vector product (for the
elimination), and root chains walked through the enumeration (for the
pairing).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from chevalley.liealg import AdjointAlgebra, algebra_for
from chevalley.linalg import Matrix, mat_mul, mat_sub, matrix
from chevalley.rings import Ring, RingError, ZMod, ring_make
from chevalley.roots import Root, RootSystem, build_root_system

ZZ = ring_make("Z")


# ---------------------------------------------------------------------------
# localization oracle


def localize_at_prime(ring: ZMod, p: int):
    """Fraction construction S^-1(Z/n) at S = complement of (p).

    Returns (classes, canonical) where classes is the list of equivalence
    classes of pairs (a, s) and canonical maps x in Z/n to its class index.
    Used only as an oracle to validate crt_split.
    """
    if not isinstance(ring, ZMod):
        raise RingError("localization oracle is for Z/n only")
    if ring.n % p != 0:
        raise RingError(f"{p} does not divide {ring.n}")
    s_set = [s for s in ring.elements() if s % p != 0]
    pairs = [(a, s) for a in ring.elements() for s in s_set]

    def equivalent(x, y):
        a, s = x
        b, t = y
        return any((a * t - b * s) * u % ring.n == 0 for u in s_set)

    classes: list[list[tuple[int, int]]] = []
    index: dict[tuple[int, int], int] = {}
    for pair in pairs:
        for ci, cls in enumerate(classes):
            if equivalent(pair, cls[0]):
                cls.append(pair)
                index[pair] = ci
                break
        else:
            index[pair] = len(classes)
            classes.append([pair])

    def canonical(x):
        return index[(x % ring.n, 1)]

    return classes, canonical


# --------------------------------------------------------------------------
# the (l+1) by (l+1) model of the A series


@dataclass(frozen=True)
class ASeriesModel:
    """x for a positive root with support a..b maps to the matrix unit
    (a, b+1), its negative to (b+1, a), and h_j to E_jj - E_(j+1)(j+1)."""

    system: RootSystem
    size: int
    places: dict  # root -> (i, j)

    def basis_matrix(self, ring: Ring, key) -> Matrix:
        n = self.size
        rows = [[ring.zero] * n for _ in range(n)]
        if isinstance(key, tuple):
            i, j = self.places[key]
            rows[i][j] = ring.one
        else:
            rows[key][key] = ring.one
            rows[key + 1][key + 1] = ring.neg(ring.one)
        return matrix(rows)

    def combination(self, ring: Ring, coeffs: dict) -> Matrix:
        n = self.size
        rows = [[ring.zero] * n for _ in range(n)]
        for key, c in coeffs.items():
            if isinstance(key, tuple):
                i, j = self.places[key]
                rows[i][j] = ring.add(rows[i][j], c)
            else:
                rows[key][key] = ring.add(rows[key][key], c)
                rows[key + 1][key + 1] = ring.sub(rows[key + 1][key + 1], c)
        return matrix(rows)


@lru_cache(maxsize=None)
def a_series_model(rank: int) -> ASeriesModel:
    system = build_root_system("A", rank)
    alg = algebra_for(system)
    places = {}
    for root in system.roots:
        support = [i for i, c in enumerate(root) if c != 0]
        a, b = min(support), max(support)
        if root[support[0]] > 0:
            places[root] = (a, b + 1)
        else:
            places[root] = (b + 1, a)
    model = ASeriesModel(system, rank + 1, places)
    # the map must transport the bracket exactly, including all signs
    def as_mat(key):
        return model.basis_matrix(ZZ, key)
    keys = list(system.roots) + list(range(rank))
    for a in keys:
        for b in keys:
            ma, mb = as_mat(a), as_mat(b)
            lhs = mat_sub(ZZ, mat_mul(ZZ, ma, mb), mat_mul(ZZ, mb, ma))
            expect = alg.bracket_basis(a, b)
            rhs = model.combination(ZZ, {k: v for k, v in expect.items()})
            assert lhs == rhs, (a, b)
    return model


# ---------------------------------------------------------------------------
# the adjoint bracket, from the basis matrices and from the table


def combination(alg: AdjointAlgebra, ring: Ring, coeffs: dict) -> Matrix:
    """sum c * e_key over the adjoint basis matrices; keys are roots or h indices."""
    n = alg.dim
    rows = [[ring.zero] * n for _ in range(n)]
    for key, c in coeffs.items():
        if c == ring.zero:
            continue
        base = alg.x_mats[key] if isinstance(key, tuple) else alg.h_mats[key]
        for i in range(n):
            for j in range(n):
                v = base[i][j]
                if v:
                    rows[i][j] = ring.add(rows[i][j], ring.mul(c, ring.from_int(v)))
    return matrix(rows)


def bracket_dict(alg: AdjointAlgebra, u: dict, v: dict) -> dict:
    """[u, v] for u, v given as dicts over basis keys, through bracket_basis."""
    out: dict = {}
    for (ka, ca), (kb, cb) in itertools.product(u.items(), v.items()):
        for k, c in alg.bracket_basis(ka, kb).items():
            val = out.get(k, 0) + ca * cb * c
            if val:
                out[k] = val
            elif k in out:
                del out[k]
    return out


# --------------------------------------------------------------------------
# integer and ring matrices


def mat_vec(ring: Ring, a: Matrix, v: Sequence) -> tuple:
    zero, add, mul = ring.zero, ring.add, ring.mul
    out = []
    for row in a:
        acc = zero
        for x, y in zip(row, v):
            if x != zero and y != zero:
                acc = add(acc, mul(x, y))
        out.append(acc)
    return tuple(out)


def det_bareiss(a: Matrix) -> int:
    """Fraction-free determinant of an integer matrix."""
    n = len(a)
    m = [list(map(int, row)) for row in a]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


# --------------------------------------------------------------------------
# root chains


def root_chain(system: RootSystem, beta: Root, alpha: Root) -> tuple[int, int]:
    """(p, q) with beta - p alpha ... beta + q alpha the alpha-chain through beta."""
    if beta in (alpha, system.negate(alpha)):
        raise ValueError("chain through +/-alpha itself is not defined")
    p = 0
    cur = tuple(b - a for b, a in zip(beta, alpha))
    while system.is_root(cur):
        p += 1
        cur = tuple(b - a for b, a in zip(cur, alpha))
    q = 0
    cur = tuple(b + a for b, a in zip(beta, alpha))
    while system.is_root(cur):
        q += 1
        cur = tuple(b + a for b, a in zip(cur, alpha))
    assert p - q == system.pairing(beta, alpha)
    return p, q
