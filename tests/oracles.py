"""Reference oracles that the tests compare the library against.

Oracles work on tuple matrices, tuples of row tuples of Python values, which
compare and hash exactly; ``tuples`` is the one conversion from the
library's read-only arrays to that form, and the tests convert with it at
their own boundary.

Each one is a slow or independent construction of something the library
computes another way: the localization of Z/n at a prime (for crt_split),
the ring axioms checked on all pairs (for is_ring_automorphism, a lookup in
the enumeration),
the (l+1) by (l+1) model of the A series (for the bracket table), linear
combinations of the adjoint basis matrices and the bracket of two elements
read from the table alone (for the matrices and the Jacobi checks), the
Jacobi triples of ``verify jacobi`` one at a time on dicts of brackets, the
fraction-free determinant and the matrix-vector product (for the
elimination), root chains walked through the enumeration (for the
pairing), and the product of two group elements, the inverse of one
with its inverse word, and the conjugate and the commutator a b a^-1 b^-1
built from them (for the commutator formula and the conjugation laws, which
the library checks on root stacks; the library has no product of elements).

The last section keeps the loop forms that the batched code replaced: the
elimination that scans the whole remaining block for every pivot (beside
``local_diag``, linalg's elimination with P as tuple matrices, which only
tests read), and the precheck, residual ring map and replay of ``certify``
one image at a time on dicts of tuple matrices, and the Weyl scan of
``strictly_inner_element`` one translate at a time: Weyl elements folded by
tuple products, the Doolittle split, the unipotent fits and the big cell on
tuple matrices.  The batched code must agree with them exactly, down to the
stage, detail and witness of a refusal and to the word of a conjugator.
Beside them sit the group elements of word tokens built one at a time:
x_root(t) as the dense divided-power sum (for ``group.x_stack``, which
gathers every entry off a pattern), w_root(t) from its three x factors, the
torus elements entry by entry on the diagonal, and a word as a fold of tuple
products of those (for ``group.from_word``, which multiplies arrays).  Last
come the three recovery formulas on tuple matrices, one image at a time, for
``recover.recover_family``, which runs them on stacks.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from chevalley import linalg
from chevalley.decomposer import (
    CertifyError,
    _additive_order,
    _key_json,
    _weight_perm,
    _weyl_words,
    spanning_params,
)
from chevalley.group import GroupElement, chain_coefficients, from_word, torus_chi, unipotent
from chevalley.liealg import AdjointAlgebra, build_algebra
from chevalley.linalg import _eliminate, as_exact, residue_dtype, ring_tables
from chevalley.recover import recovery_regime
from chevalley.rings import (
    FieldTable,
    Ring,
    RingError,
    ZMod,
    ring_make,
)
from chevalley.roots import Root, RootSystem, build_root_system

ZZ = ring_make("Z")

# ---------------------------------------------------------------------------
# the oracles' matrix form

Matrix = tuple  # a tuple of row tuples of Python values


def tuples(a) -> Matrix:
    """A matrix, an array of elements (see linalg) or nested sequences, as a
    tuple of row tuples of Python ints, each element over a product ring a
    tuple of one per factor: the one conversion from the library's form to
    the oracles'."""
    def nest(x):
        return tuple(map(nest, x)) if isinstance(x, list) else x
    return nest(as_exact(np.asarray(a)).tolist())


def matrix(rows) -> Matrix:
    return tuples(rows)


def identity(ring: Ring, n: int) -> Matrix:
    return tuples(linalg.identity(ring, n))


def mat_mul(ring: Ring, a, b) -> Matrix:
    """a b as a tuple matrix, for tuple or array operands."""
    return tuples(linalg.mat_mul(ring, a, b))


def ring_invert(ring: Ring, a):
    """The inverse of a as a tuple matrix, or None."""
    inv = linalg.ring_invert(ring, a)
    return None if inv is None else tuples(inv)


# ---------------------------------------------------------------------------
# localization and ring automorphism oracles


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


def is_ring_automorphism_loop(ring: Ring, table: dict) -> bool:
    """Exhaustive check of a parameter table against the ring axioms on all
    |R|^2 pairs, for any finite ring: the oracle for
    ``rings.is_ring_automorphism``, which looks the table up in the
    enumeration of the local rings."""
    els = list(ring.elements())
    if sorted(table.keys(), key=repr) != sorted(els, key=repr):
        return False
    if sorted(table.values(), key=repr) != sorted(els, key=repr):
        return False
    if table[ring.one] != ring.one:
        return False
    for a in els:
        for b in els:
            if table[ring.add(a, b)] != ring.add(table[a], table[b]):
                return False
            if table[ring.mul(a, b)] != ring.mul(table[a], table[b]):
                return False
    return True


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
    alg = build_algebra("A", rank)
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


def add_nested_bracket(brackets: dict, u, v, w, acc: dict) -> dict:
    """Add [[e_u, e_v], e_w] = sum_m,k c_uv^m c_mw^k e_k into acc, reading the
    constants from a table of bracket_basis over ordered key pairs."""
    for m, c in brackets[(u, v)].items():
        for k, val in brackets[(m, w)].items():
            acc[k] = acc.get(k, 0) + c * val
    return acc


def jacobi_loop(alg: AdjointAlgebra, seed: int):
    """The Jacobi triples of ``cli._suite_jacobi`` one at a time on a dict of
    brackets, past 12000 triples on the same seeded sample: (checks,
    failures)."""
    sysm = alg.system
    keys = list(sysm.roots) + list(range(sysm.rank))
    brackets = {(u, v): alg.bracket_basis(u, v) for u, v in itertools.product(keys, repeat=2)}
    triples = list(itertools.product(keys, repeat=3))
    if len(triples) > 12000:
        triples = random.Random(seed).sample(triples, 12000)
    failures = []
    for a, b, c in triples:
        jac = {}
        for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
            add_nested_bracket(brackets, u, v, w, jac)
        if any(jac.values()):
            failures.append({"check": "jacobi", "triple": [
                list(k) if isinstance(k, tuple) else ["h", k] for k in (a, b, c)]})
    return len(triples), failures


def mat_sub(ring: Ring, a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(ring.sub(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(ring: Ring, c, a: Matrix) -> Matrix:
    return tuple(tuple(ring.mul(c, x) for x in row) for row in a)


def element_mul(a: GroupElement, b: GroupElement) -> GroupElement:
    """a b as matrix products: the matrices in order, the inverses in reverse
    order, the words concatenated."""
    ring = a.ring
    return GroupElement(ring, linalg.mat_mul(ring, a.mat, b.mat),
                        linalg.mat_mul(ring, b.inv_mat, a.inv_mat), a.word + b.word)


def is_identity(ring: Ring, a) -> bool:
    return tuples(a) == identity(ring, len(a))


def inverse(g: GroupElement) -> GroupElement:
    """g^-1, its word the tokens of g reversed and each inverted: x_r(t) and
    w_r(t) at -t, h_r(u) at 1/u, chi at the inverse units."""
    ring = g.ring

    def invert(token):
        kind, root, t = token
        if kind in ("x", "w"):
            return (kind, root, ring.neg(t))
        if kind == "chi":
            return ("chi", tuple(ring.inv(u) for u in root), None)
        return ("h", root, ring.inv(t))
    return GroupElement(ring, g.inv_mat, g.mat, tuple(invert(t) for t in reversed(g.word)))


def conjugate(g: GroupElement, x: GroupElement) -> GroupElement:
    """g x g^-1."""
    return element_mul(element_mul(g, x), inverse(g))


def commutator(a: GroupElement, b: GroupElement) -> GroupElement:
    """a b a^-1 b^-1, the commutator of group.chain_coefficients."""
    return element_mul(conjugate(a, b), inverse(b))


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


# --------------------------------------------------------------------------
# the elimination and the certify stages as they ran before the stacks


@dataclass(frozen=True)
class LocalDiag:
    """P @ A @ Q = D with P, Q invertible and D supported on (i, i) pivots, as
    tuple matrices.

    pivots lists (index, valuation); over a field every valuation is 0.
    """

    p_mat: Matrix
    q_mat: Matrix
    diag: tuple          # pivot values d_i, one per pivot
    pivots: tuple        # (index, valuation) pairs


def local_diag(ring: Ring, a: Matrix) -> LocalDiag:
    """linalg's elimination of a over a local ring, with P, as tuples."""
    P, Q, pivots, diag = _eliminate(ring, a, with_p=True)
    return LocalDiag(tuple(map(tuple, P.tolist())), tuple(map(tuple, Q.tolist())), diag, pivots)


def first_least_valuation(sub, p: int, k: int):
    """(row, col, v): the row-major first entry of least p-valuation v in
    ``sub``, whose entries lie in [0, p^k); None when ``sub`` is zero."""
    m, n = sub.shape
    step = max(1, 4096 // max(n, 1))   # scan a few thousand entries at a time
    for v in range(k):
        # no entry has valuation < v, so the first entry not divisible by
        # p^(v+1) has valuation exactly v
        for r in range(0, m, step):
            block = sub[r:r + step]
            hits = np.flatnonzero(block % p ** (v + 1) if v + 1 < k else block)
            if hits.size:
                i, j = divmod(int(hits[0]), n)
                return r + i, j, v
    return None


def row_ops(ring: Ring):
    """(scale, sub_mul): x * c and x - c * y on arrays of elements of Z/p^k or
    GF(q), with numpy broadcasting."""
    if isinstance(ring, ZMod):
        mod = ring.n
        return (lambda x, c: (x * c) % mod), (lambda x, c, y: (x - c * y) % mod)
    mul, sub = ring_tables(ring)
    return (lambda x, c: mul[x, c]), (lambda x, c, y: sub[x, mul[c, y]])


def eliminate_scan(ring: Ring, a, with_p: bool):
    """``linalg._eliminate`` as it was before the unit mask: every pivot scans
    the whole remaining block for its row-major first entry of least
    valuation.  (P or None, Q, pivots, diag) over Z/p^k or GF(q).

    P, Q are arrays with P @ A @ Q = D.  Q never depends on P, so callers
    that only need kernels skip P.  Over GF(q), where k = 1, the pivot is the
    first nonzero entry and every valuation is 0.
    """
    if not (isinstance(ring, FieldTable) or isinstance(ring, ZMod) and ring.is_local):
        raise ValueError(f"{ring.descriptor} is not a supported local ring")
    p, k = ring.residue_char, ring.nil_degree
    scale, sub_mul = row_ops(ring)
    m = len(a)
    n = len(a[0]) if m else 0
    dtype = residue_dtype(ring.size, 1)
    A = np.array(a, dtype=dtype).reshape(m, n) % ring.size
    P = np.eye(m, dtype=dtype) if with_p else None
    Q = np.eye(n, dtype=dtype)
    pivots = []
    for t in range(min(m, n)):
        found = first_least_valuation(A[t:, t:], p, k)
        if found is None:
            break
        bi, bj, bv = found[0] + t, found[1] + t, found[2]
        if bi != t:
            A[[t, bi]] = A[[bi, t]]
            if with_p:
                P[[t, bi]] = P[[bi, t]]
        if bj != t:
            A[:, [t, bj]] = A[:, [bj, t]]
            Q[:, [t, bj]] = Q[:, [bj, t]]
        pv = p ** bv
        u_inv = ring.inv(int(A[t, t]) // pv)
        A[t] = scale(A[t], u_inv)
        if with_p:
            P[t] = scale(P[t], u_inv)
        # clear column t with exact multipliers; rows above t and columns
        # left of t are already zero, and rows with a zero multiplier stay
        mult = A[:, t] // pv
        mult[t] = 0
        rows = np.flatnonzero(mult)
        if rows.size:
            A[rows, t:] = sub_mul(A[rows, t:], mult[rows, None], A[t, t:])
            if with_p:
                P[rows] = sub_mul(P[rows], mult[rows, None], P[t])
        # clear row t: column t of A is now p^bv e_t, so in A only row t
        # changes, to p^bv e_t (p^bv divides the whole row); Q takes the
        # full column update
        multc = A[t] // pv
        multc[t] = 0
        cols = np.flatnonzero(multc)
        if cols.size:
            A[t, cols] = 0
            Q[:, cols] = sub_mul(Q[:, cols], Q[:, t, None], multc[cols])
        pivots.append((t, bv))
    diag = tuple(int(A[i, i]) for i, _ in pivots)
    return P, Q, tuple(pivots), diag


def precheck_loop(spec, alg: AdjointAlgebra):
    """``decomposer.precheck`` as one loop per image: the same checks in the
    same order, on tuple matrices; returns the table as a dict (root, t) ->
    matrix."""
    sysm = alg.system
    ring = ring_make(spec.ring)
    if not getattr(ring, "size", None):
        raise CertifyError("precheck", "decomposition needs a finite ring, "
                           f"got {spec.ring}")
    span = spanning_params(ring)
    provided = {key: tuples(m) for key, m in spec.image_dict().items()}

    want = {(root, t) for root in sysm.roots for t in span}
    have = set(provided)
    if have != want:
        missing = sorted(want - have)[:3]
        extra = sorted(have - want)[:3]
        raise CertifyError(
            "precheck",
            "images must cover exactly the roots times the spanning parameters",
            {"missing": [_key_json(ring, k) for k in missing],
             "extra": [_key_json(ring, k) for k in extra]})

    # powers[(root, t)][c] is the c-th power of the image, up to its order
    powers = {}
    for (root, t), m in provided.items():
        pw = powers_upto(ring, m, ring.size)
        if pw is None and ring_invert(ring, m) is None:
            raise CertifyError("precheck", "image matrix is not invertible",
                               {"key": _key_json(ring, (root, t))})
        if pw is None or _additive_order(ring, t) != len(pw):
            raise CertifyError("precheck", "not bijective on parameters",
                               {"key": _key_json(ring, (root, t))})
        powers[(root, t)] = pw

    # extend additively over the spanning generators, in a fixed order
    table = {}
    for root in sysm.roots:
        seen = {}
        for t in ring.elements():
            acc = None
            for g, c in ring.additive_coords(t):
                if c:
                    p = powers[(root, g)][c]
                    acc = p if acc is None else mat_mul(ring, acc, p)
            if acc is None:
                acc = identity(ring, alg.dim)
            table[(root, t)] = acc
            if acc in seen:
                raise CertifyError("precheck", "not bijective on parameters",
                                   {"root": list(root),
                                    "params": [ring.element_to_json(seen[acc]),
                                               ring.element_to_json(t)]})
            seen[acc] = t

    # one-parameter law inside the provided set
    for root in sysm.roots:
        for s, t in itertools.product(span, repeat=2):
            got = mat_mul(ring, provided[(root, s)], provided[(root, t)])
            if got != table[(root, ring.add(s, t))]:
                raise CertifyError("precheck", "one-parameter law fails",
                                   {"key": _key_json(ring, (root, s)),
                                    "other": ring.element_to_json(t)})

    # commutator pattern at parameter 1; the law makes t -> table[(root, t)]
    # a homomorphism, so the image at -1 is the inverse of the image at 1
    for r, s in itertools.permutations(sysm.roots, 2):
        if r == sysm.negate(s):
            continue
        if not commutator_holds(ring, table, r, s, ring.one, ring.one,
                                chain_coefficients(alg, r, s)):
            raise CertifyError("precheck", "commutator pattern fails",
                               {"roots": [list(r), list(s)]})
    return table


def powers_upto(ring: Ring, m: Matrix, cap: int):
    """[1, m, ..., m^(k-1)] for the order k <= cap of m, else None."""
    out = [identity(ring, len(m))]
    acc = m
    for _ in range(cap):
        if is_identity(ring, acc):
            return out
        out.append(acc)
        acc = mat_mul(ring, acc, m)
    return None


def commutator_holds(ring: Ring, table, r: Root, s: Root, t, u, coeffs) -> bool:
    """``group.commutator_pattern_holds`` for one (r, s, t, u), on a dict
    (root, t) -> tuple matrix."""
    lhs = mat_mul(ring, mat_mul(ring, mat_mul(ring, table[(r, t)], table[(s, u)]),
                                table[(r, ring.neg(t))]), table[(s, ring.neg(u))])
    rhs = None
    for (i, j), c in coeffs.items():
        gamma = tuple(i * a + j * b for a, b in zip(r, s))
        param = ring.mul(ring.from_int(c), ring.mul(ring.power(t, i), ring.power(u, j)))
        factor = table[(gamma, param)]
        rhs = factor if rhs is None else mat_mul(ring, rhs, factor)
    return is_identity(ring, lhs) if rhs is None else lhs == rhs


def residual_rho_loop(alg: AdjointAlgebra, ring: Ring, conj, table):
    """``decomposer._residual_rho`` one image at a time, on a dict table:
    the parameter map of the residual, or an error detail dict."""
    sysm = alg.system
    rho = {}
    for t in ring.elements():
        value = None
        for root in sysm.roots:
            resid = mat_mul(ring, mat_mul(ring, conj.inv_mat, table[(root, t)]), conj.mat)
            (i, j), unit = alg._slot(root)
            s = ring.mul(resid[i][j], ring.from_int(unit))
            if resid != tuples(unipotent(alg, ring, root, s).mat):
                return None, {"reason": "residual is not a root element",
                              "key": _key_json(ring, (root, t))}
            if value is None:
                value = s
            elif value != s:
                return None, {"reason": "parameter image differs across roots",
                              "key": _key_json(ring, (root, t))}
        rho[t] = value
    if rho[ring.one] != ring.one:
        return None, {"reason": "residual moves the unit parameter"}
    if not is_ring_automorphism_loop(ring, rho):
        return None, {"reason": "parameter map is not a ring automorphism"}
    return tuple(rho.items()), None


def replay_loop(alg: AdjointAlgebra, ring: Ring, table, left, right, rho) -> int:
    """The replay of ``Certificate.replay`` one image at a time, on a dict
    table: every image must be left x_root(rho t) right."""
    sysm = alg.system
    replayed = 0
    for root in sysm.roots:
        for t in ring.elements():
            inner = unipotent(alg, ring, root, rho[t]).mat
            expected = mat_mul(ring, mat_mul(ring, left, inner), right)
            if expected != tuples(table[(root, t)]):
                raise CertifyError("replay", "assembled automorphism does not "
                                   "reproduce an image",
                                   {"key": _key_json(ring, (root, t))})
            replayed += 1
    return replayed


@lru_cache(maxsize=None)
def weyl_elements_loop(alg: AdjointAlgebra, ring: Ring) -> tuple:
    """The element of every word of ``decomposer._weyl_words``, in its order,
    each its BFS parent times one simple w_alpha(1) as a tuple product."""
    sysm = alg.system
    simple = [from_word(alg, ring, (("w", sysm.simple(i), ring.one),)) for i in range(sysm.rank)]
    elems = {(): from_word(alg, ring, ())}
    for word in _weyl_words(sysm)[1:]:
        elems[word] = element_mul(elems[word[:-1]], simple[word[-1]])
    return tuple(elems.values())


def lu_unit_diag(ring: Ring, m: Matrix):
    """Doolittle split m = L U with L unit lower triangular, or None when a
    pivot is not a unit: the oracle for ``decomposer._unit_lu``."""
    n = len(m)
    work = [list(row) for row in m]
    lower = [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]
    for k in range(n):
        pivot = work[k][k]
        if not ring.is_unit(pivot):
            return None
        pinv = ring.inv(pivot)
        for i in range(k + 1, n):
            f = ring.mul(work[i][k], pinv)
            if f == ring.zero:
                continue
            lower[i][k] = f
            wi, wk = work[i], work[k]
            for j in range(k, n):
                wi[j] = ring.sub(wi[j], ring.mul(f, wk[j]))
    return matrix(lower), matrix([tuple(row) for row in work])


def fit_unipotent_loop(alg: AdjointAlgebra, ring: Ring, target: Matrix, sign: int):
    """target as a product of root elements of one sign, in the order of the
    positive roots, built by tuple products: the element, or None."""
    sysm = alg.system
    acc = from_word(alg, ring, ())
    for beta in sysm.positives:
        root = beta if sign > 0 else sysm.negate(beta)
        (i, j), unit = alg._slot(root)
        t = ring.mul(ring.sub(target[i][j], int(acc.mat[i, j])), ring.from_int(unit))
        if t != ring.zero:
            acc = element_mul(acc, unipotent(alg, ring, root, t))
    return acc if tuples(acc.mat) == target else None


def big_cell_loop(alg: AdjointAlgebra, ring: Ring, m: Matrix):
    """m = c * (u^- chi u^+) for a unit scalar c, on tuple matrices: the
    element u^- chi u^+, or None."""
    sysm = alg.system
    perm = _weight_perm(sysm)
    n = alg.dim
    permuted = tuple(tuple(m[perm[i]][perm[j]] for j in range(n)) for i in range(n))
    lu = lu_unit_diag(ring, permuted)
    if lu is None:
        return None
    lower_p, upper_p = lu
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    lower = tuple(tuple(lower_p[inv[i]][inv[j]] for j in range(n)) for i in range(n))
    upper = tuple(tuple(upper_p[inv[i]][inv[j]] for j in range(n)) for i in range(n))

    nroots = len(sysm.roots)
    scalar = upper[nroots][nroots]
    if not ring.is_unit(scalar):
        return None
    upper = mat_scale(ring, ring.inv(scalar), upper)
    units = tuple(upper[sysm.root_index(sysm.simple(j))][sysm.root_index(sysm.simple(j))]
                  for j in range(sysm.rank))
    if any(not ring.is_unit(u) for u in units):
        return None
    chi = torus_chi(alg, ring, units)
    if any(upper[i][i] != chi.mat[i, i] for i in range(n)):
        return None
    down = fit_unipotent_loop(alg, ring, lower, -1)
    if down is None:
        return None
    up = fit_unipotent_loop(alg, ring, mat_mul(ring, chi.inv_mat, upper), +1)
    if up is None:
        return None
    elem = element_mul(element_mul(down, chi), up)
    return elem if mat_scale(ring, scalar, tuples(elem.mat)) == m else None


def strictly_inner_loop(alg: AdjointAlgebra, ring: Ring, m: Matrix):
    """``decomposer.strictly_inner_element`` one Weyl translate at a time on
    tuple matrices: w times the big-cell element of the first translate
    w^-1 m in BFS order that factors, or None."""
    for w in weyl_elements_loop(alg, ring):
        cell = big_cell_loop(alg, ring, mat_mul(ring, w.inv_mat, m))
        if cell is not None:
            return element_mul(w, cell)
    return None


def torus_alpha_loop(alg: AdjointAlgebra, ring: Ring, root: Root, u):
    """(mat, inv_mat) of h_root(u) entry by entry: u^<beta, root> on the root
    space of beta, 1 on the Cartan part, the inverses read off one by one.
    ``group.from_word`` builds the same matrices from an h token as a
    character."""
    sysm = alg.system
    uinv = ring.inv(u)
    n = alg.dim
    diag = []
    for beta in sysm.roots:
        p = sysm.pairing(beta, root)
        diag.append(ring.power(u, p) if p >= 0 else ring.power(uinv, -p))
    diag.extend([ring.one] * sysm.rank)
    mat = tuple(tuple(diag[i] if i == j else ring.zero for j in range(n))
                for i in range(n))
    inv = tuple(tuple(ring.inv(diag[i]) if i == j else ring.zero for j in range(n))
                for i in range(n))
    return mat, inv


def chi_loop(alg: AdjointAlgebra, ring: Ring, units):
    """(mat, inv_mat) of the torus element of units entry by entry:
    prod units_j^beta_j on the root space of beta, 1 on the Cartan part."""
    n, diag = alg.dim, []
    for beta in alg.system.roots:
        val = ring.one
        for u, c in zip(units, beta):
            for _ in range(abs(c)):
                val = ring.mul(val, u if c > 0 else ring.inv(u))
        diag.append(val)
    diag.extend([ring.one] * alg.system.rank)
    return tuple(tuple(tuple(d if i == j else ring.zero for j in range(n))
                       for i, d in enumerate(values))
                 for values in (diag, [ring.inv(d) for d in diag]))


def h_element(alg: AdjointAlgebra, ring: Ring, root: Root, u) -> GroupElement:
    """h_root(u) as the group element of its one-token word."""
    return from_word(alg, ring, (("h", root, u),))


def dense_unipotent(alg: AdjointAlgebra, ring: Ring, root: Root, t) -> Matrix:
    """1 + sum_k t^k D_k with every entry of every divided power D_k visited:
    the oracle for ``group.x_stack``, which reads each entry as one term off
    a per-algebra pattern."""
    n = alg.dim
    rows = [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]
    power = ring.one
    for dp in alg.divided_powers(root):
        power = ring.mul(power, t)
        for i in range(n):
            for j in range(n):
                rows[i][j] = ring.add(rows[i][j], ring.mul(power, ring.from_int(dp[i][j])))
    return tuple(map(tuple, rows))


def token_matrices(alg: AdjointAlgebra, ring: Ring, token):
    """(mat, inv_mat) of one word token from the oracles above: x_root(t) and
    x_root(-t) as dense sums, w_root(t) as the tuple product of its three x
    factors x_root(t) x_(-root)(-1/t) x_root(t), h and chi entry by entry."""
    kind, root, t = token
    if kind == "x":
        return dense_unipotent(alg, ring, root, t), dense_unipotent(alg, ring, root, ring.neg(t))
    if kind == "h":
        return torus_alpha_loop(alg, ring, root, t)
    if kind == "chi":
        return chi_loop(alg, ring, root)
    neg, u = tuple(-c for c in root), ring.inv(t)
    return tuple(mat_mul(ring, mat_mul(ring, dense_unipotent(alg, ring, root, a),
                                       dense_unipotent(alg, ring, neg, b)),
                         dense_unipotent(alg, ring, root, a))
                 for a, b in ((t, ring.neg(u)), (ring.neg(t), u)))


def word_fold(alg: AdjointAlgebra, ring: Ring, word):
    """(mat, inv_mat) of a word as a left fold of tuple products of its
    token_matrices, the inverses taken in reverse order."""
    mat = inv = identity(ring, alg.dim)
    for token in word:
        m, i = token_matrices(alg, ring, token)
        mat, inv = mat_mul(ring, mat, m), mat_mul(ring, i, inv)
    return mat, inv


# --------------------------------------------------------------------------
# nilpotent recovery on tuple matrices, one image at a time


def recover_half(ring: Ring, m: Matrix) -> Matrix:
    """X from exp(X) when X^3 = 0 and 2 is a unit."""
    e = identity(ring, len(m))
    d = mat_sub(ring, m, e)
    half = ring.inv(ring.from_int(2))
    return mat_sub(ring, d, mat_scale(ring, half, mat_mul(ring, d, d)))


def recover_g2_short(ring: Ring, m: Matrix) -> Matrix:
    """X from exp(X) when X^4 = 0 and both 2 and 3 are units."""
    e = identity(ring, len(m))
    d = mat_sub(ring, m, e)
    d2 = mat_mul(ring, d, d)
    d3 = mat_mul(ring, d2, d)
    half = ring.inv(ring.from_int(2))
    sixth = ring.inv(ring.from_int(6))
    # d2 = X^2 + X^3 and d3 = X^3 exactly
    x2_half = mat_scale(ring, half, mat_sub(ring, d2, d3))
    x3_sixth = mat_scale(ring, sixth, d3)
    return mat_sub(ring, mat_sub(ring, d, x2_half), x3_sixth)


def recover_no_half(ring: Ring, m_alpha: Matrix, m_gamma: Matrix, m_beta: Matrix,
                    sign: int) -> Matrix:
    """X from exp(X) using neighbour images in place of division by 2."""
    e = identity(ring, len(m_alpha))
    dg = mat_sub(ring, m_gamma, e)
    db = mat_sub(ring, m_beta, e)
    prod = mat_mul(ring, dg, db)
    t = mat_mul(ring, prod, prod)
    x2_half = mat_scale(ring, ring.from_int(sign), t)
    return mat_sub(ring, mat_sub(ring, m_alpha, e), x2_half)


def recover_family_loop(alg: AdjointAlgebra, ring: Ring, images: dict) -> dict:
    """``recover.recover_family`` on a dict root -> tuple matrix, one root at
    a time, with the regime that ``recovery_regime`` names."""
    regime = recovery_regime(alg.system, ring)
    if regime == "half":
        return {root: (recover_g2_short if alg.nilpotency(root) == 4 else recover_half)(ring, m)
                for root, m in images.items()}
    assert regime == "nohalf", regime
    out = {}
    for root, m in images.items():
        gamma, beta, sign = alg.half_square_witness(root)
        out[root] = recover_no_half(ring, m, images[gamma], images[beta], sign)
    return out
