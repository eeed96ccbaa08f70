"""Adjoint Lie algebra data: structure constants, coroots, basis matrices.

Structure constants come from the extraspecial-pair recursion.  Positive sums
are processed in the frozen root order; the pair (alpha, beta) with minimal
alpha among all positive decompositions of gamma gets N = p + 1 where p is
the chain-down length, every other positive pair is resolved through the
four-root identity against the extraspecial one, and mixed-sign pairs reduce
to positive ones through the triangle relations.  All divisions run in
Fraction arithmetic and must land on integers, which the tests enforce
together with |N| = p + 1 and the Jacobi identity.

Basis order for the adjoint matrices is the root list of the system followed
by the Cartan elements h_1..h_l, so dimension is |roots| + rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Dict, Tuple

from chevalley.linalg import Matrix, mat_map, mat_mul, matrix
from chevalley.rings import Ring, ZRing, ring_make
from chevalley.roots import Root, RootSystem, build_root_system

ZZ = ring_make("Z")


def _add(r: Root, s: Root) -> Root:
    return tuple(x + y for x, y in zip(r, s))


def _neg(r: Root) -> Root:
    return tuple(-x for x in r)


def _is_zero(r: Root) -> bool:
    return all(x == 0 for x in r)


class StructureConstants:
    """The table N_{r,s} for all root pairs with r + s a root."""

    def __init__(self, system: RootSystem):
        self.system = system
        self._pos_order = {r: i for i, r in enumerate(system.positives)}
        self._extraspecial: Dict[Root, Tuple[Root, Root]] = {}
        for gamma in system.positives:
            pairs = self._special_pairs(gamma)
            if pairs:
                self._extraspecial[gamma] = pairs[0]

    def _special_pairs(self, gamma: Root):
        out = []
        for xi in self.system.positives:
            eta = tuple(g - x for g, x in zip(gamma, xi))
            if eta in self._pos_order and self._pos_order[xi] < self._pos_order[eta]:
                out.append((xi, eta))
        out.sort(key=lambda p: self._pos_order[p[0]])
        return out

    def chain_down(self, alpha: Root, beta: Root) -> int:
        """Largest p with beta - p*alpha a root."""
        p = 0
        cur = beta
        while True:
            cur = tuple(c - a for c, a in zip(cur, alpha))
            if self.system.is_root(cur):
                p += 1
            else:
                return p

    @lru_cache(maxsize=None)
    def value(self, r: Root, s: Root) -> int:
        total = _add(r, s)
        if _is_zero(total) or not self.system.is_root(total):
            return 0
        return self._compute(r, s, total)

    def _norm(self, r: Root) -> int:
        return self.system.norm2(r)

    def _compute(self, r: Root, s: Root, total: Root) -> int:
        pos = self._pos_order
        if r in pos and s in pos:
            if pos[r] > pos[s]:
                return -self.value(s, r)
            alpha, beta = self._extraspecial[total]
            if (r, s) == (alpha, beta):
                return self.chain_down(alpha, beta) + 1
            xi, eta = r, s
            acc = Fraction(0)
            d1 = _add(eta, _neg(alpha))
            if self.system.is_root(d1):
                acc += Fraction(self.value(eta, _neg(alpha)) * self.value(xi, _neg(beta)),
                                self._norm(d1))
            d2 = _add(xi, _neg(alpha))
            if self.system.is_root(d2):
                acc += Fraction(self.value(_neg(alpha), xi) * self.value(eta, _neg(beta)),
                                self._norm(d2))
            n_extra = self.value(alpha, beta)
            out = Fraction(self._norm(total)) * acc / n_extra
            assert out.denominator == 1, (r, s, out)
            return int(out)
        if r not in pos and s not in pos:
            return -self.value(_neg(r), _neg(s))
        if r not in pos:  # r negative, s positive
            return -self.value(s, r)
        # r positive, s negative
        if total in pos:
            b = _neg(s)
            out = Fraction(self._norm(total) * self.value(total, b), self._norm(r))
        else:
            c = _neg(total)
            out = Fraction(self._norm(c) * self.value(c, r), self._norm(s))
        assert out.denominator == 1, (r, s, out)
        return int(out)


@dataclass(eq=False)
class AdjointAlgebra:
    """Adjoint basis matrices over Z plus lookup helpers; build_algebra makes
    one per system, so it hashes by identity and memoises on its methods."""

    system: RootSystem
    constants: StructureConstants
    coroots: Dict[Root, Tuple[int, ...]]
    x_mats: Dict[Root, Matrix]
    h_mats: Tuple[Matrix, ...]
    dim: int

    # --- basic lookups ----------------------------------------------------

    def n_const(self, r: Root, s: Root) -> int:
        return self.constants.value(r, s)

    def x_matrix(self, root: Root, ring: Ring | None = None) -> Matrix:
        m = self.x_mats[root]
        if ring is None or isinstance(ring, ZRing):
            return m
        return mat_map(ring.from_int, m)

    def h_matrix(self, j: int, ring: Ring | None = None) -> Matrix:
        m = self.h_mats[j]
        if ring is None or isinstance(ring, ZRing):
            return m
        return mat_map(ring.from_int, m)

    # --- divided powers -----------------------------------------------------

    @lru_cache(maxsize=None)
    def divided_powers(self, root: Root) -> Tuple[Matrix, ...]:
        """(X, X^2/2, ...) up to nilpotency, exact over Z."""
        x = self.x_mats[root]
        out = [x]
        power = x
        k = 1
        while True:
            power = mat_mul(ZZ, power, x)
            k += 1
            if all(all(v == 0 for v in row) for row in power):
                break
            f = factorial(k)
            assert all(v % f == 0 for row in power for v in row), root
            out.append(tuple(tuple(v // f for v in row) for row in power))
            assert k <= 3, root
        return tuple(out)

    def nilpotency(self, root: Root) -> int:
        return len(self.divided_powers(root)) + 1

    # --- recovery witness for rings without 1/2 -----------------------------

    @lru_cache(maxsize=None)
    def half_square_witness(self, root: Root):
        """A pair (gamma, beta, c) with gamma + beta = root and
        c * ((exp X_gamma - E)(exp X_beta - E))^2 = X_root^2 / 2 over Z,
        or None when no such pair exists."""
        target = self.divided_powers(root)[1] if self.nilpotency(root) > 2 else None
        found = None
        if target is not None:
            for gamma in self.system.roots:
                beta = tuple(r - g for r, g in zip(root, gamma))
                if not self.system.is_root(beta) or beta == _neg(gamma):
                    continue
                # exp X - E is the sum of the divided powers of X
                ug, ub = (tuple(tuple(map(sum, zip(*rows)))
                                for rows in zip(*self.divided_powers(r)))
                          for r in (gamma, beta))
                prod = mat_mul(ZZ, ug, ub)
                t = mat_mul(ZZ, prod, prod)
                for c in (1, -1):
                    if tuple(tuple(c * v for v in row) for row in t) == target:
                        found = (gamma, beta, c)
                        break
                if found:
                    break
        return found

    # --- coordinates ---------------------------------------------------------

    @lru_cache(maxsize=None)
    def _slot(self, root: Root):
        """A matrix slot where only ad(x_root) has a nonzero entry, unit-valued."""
        sysm = self.system
        found = None
        for beta in sysm.roots:
            total = _add(root, beta)
            if sysm.is_root(total) and abs(self.n_const(root, beta)) == 1:
                found = ((sysm.root_index(total), sysm.root_index(beta)),
                         self.n_const(root, beta))
                break
        if found is None:
            for j in range(sysm.rank):
                p = sysm.pairing(root, sysm.simple(j))
                if abs(p) == 1:
                    found = ((sysm.root_index(root), len(sysm.roots) + j), -p)
                    break
        assert found is not None, root
        return found

    # --- abstract bracket, for the Jacobi checks ------------------------------

    def bracket_basis(self, a, b) -> dict:
        """[e_a, e_b] as a dict over basis keys; keys are roots or h indices."""
        sysm = self.system
        if isinstance(a, tuple) and isinstance(b, tuple):
            total = _add(a, b)
            if _is_zero(total):
                return {j: c for j, c in enumerate(self.coroots[a]) if c}
            if sysm.is_root(total):
                return {total: self.n_const(a, b)}
            return {}
        if isinstance(a, tuple):  # [x_a, h_j]
            p = sysm.pairing(a, sysm.simple(b))
            return {a: -p} if p else {}
        if isinstance(b, tuple):  # [h_i, x_b]
            p = sysm.pairing(b, sysm.simple(a))
            return {b: p} if p else {}
        return {}


def _coroot_coords(system: RootSystem, alpha: Root) -> Tuple[int, ...]:
    out = []
    na = system.norm2(alpha)
    for i in range(system.rank):
        c = Fraction(alpha[i] * system.norm2(system.simple(i)), na)
        assert c.denominator == 1, (alpha, i)
        out.append(int(c))
    return tuple(out)


@lru_cache(maxsize=None)
def build_algebra(kind: str, rank: int) -> AdjointAlgebra:
    system = build_root_system(kind, rank)
    consts = StructureConstants(system)
    nroots = len(system.roots)
    dim = nroots + system.rank
    coroots = {r: _coroot_coords(system, r) for r in system.roots}

    x_mats: Dict[Root, Matrix] = {}
    for alpha in system.roots:
        rows = [[0] * dim for _ in range(dim)]
        for beta in system.roots:
            col = system.root_index(beta)
            if beta == _neg(alpha):
                for j, c in enumerate(coroots[alpha]):
                    rows[nroots + j][col] = c
                continue
            total = _add(alpha, beta)
            if system.is_root(total):
                rows[system.root_index(total)][col] = consts.value(alpha, beta)
        for j in range(system.rank):
            p = system.pairing(alpha, system.simple(j))
            if p:
                rows[system.root_index(alpha)][nroots + j] = -p
        x_mats[alpha] = matrix(rows)

    h_mats = []
    for j in range(system.rank):
        rows = [[0] * dim for _ in range(dim)]
        for beta in system.roots:
            i = system.root_index(beta)
            rows[i][i] = system.pairing(beta, system.simple(j))
        h_mats.append(matrix(rows))

    return AdjointAlgebra(system, consts, coroots, x_mats, tuple(h_mats), dim)
