"""Exact matrix arithmetic over ring handles.

Matrices are tuples of row tuples of ring elements, so they hash and compare
exactly.  Generic operations go through the ring handle; inversion first
splits the ring into local factors, then runs a Smith-style diagonalization
per factor, and kernels are taken over one local factor at a time.

Over Z/p^k and GF(q) the elimination is array-native: it keeps A and Q (and
P only when a caller needs it) as numpy arrays, finds the row-major first
entry of least p-valuation with a vectorised scan (over a field, the first
nonzero entry), and updates only the rows and columns a pivot changes;
results turn into tuples once, on return.  The pivot of least valuation keeps
every step exact.  Z/p^k reduces mod p^k; GF(q) indexes numpy ``mul``/``sub``
tables built once per field.  int64 is used only where no intermediate sum
can reach 2**63 (see ``residue_dtype``); larger moduli run the same code on
numpy object arrays of Python ints.  ``mat_mul`` from 6 rows up takes int64
over Z/n and over Z, where the same guard is fed the largest |entry| of both
factors, read off the Python ints before any cast, and over GF(p^k) it takes
``field_matmul``, k^2 int64 products of base-p digit planes; over a product
ring it multiplies the projections onto each factor, each on that factor's
path, and zips the entries back into tuples; past the guard it runs its
scalar loop with the ring operations bound once per call.  ``identity`` is
built once per (ring, n).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain

import numpy as np

from chevalley.rings import (_IRREDUCIBLE, FieldTable, ProductRing, Ring, ZMod,
                             ZRing, crt_split)

Matrix = tuple  # tuple of row tuples


# --------------------------------------------------------------------------
# generic ops


def matrix(rows) -> Matrix:
    return tuple(tuple(r) for r in rows)


@lru_cache(maxsize=None)
def identity(ring: Ring, n: int) -> Matrix:
    """The n x n identity, built once per (ring, n); matrices are immutable."""
    z, o = ring.zero, ring.one
    return tuple(tuple(o if i == j else z for j in range(n)) for i in range(n))


def mat_sub(ring: Ring, a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(ring.sub(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(ring: Ring, c, a: Matrix) -> Matrix:
    return tuple(tuple(ring.mul(c, x) for x in row) for row in a)


def residue_dtype(bound: int, inner: int):
    """int64 when a sum of ``inner`` products of integers of absolute value
    below ``bound`` stays below 2**63, else object (exact Python ints).

    ``bound`` is the modulus over Z/n and max|entry| + 1 over Z.
    """
    return np.int64 if inner * (bound - 1) ** 2 < 2 ** 63 else object


def _int64_bound(ring: Ring, a: Matrix, b: Matrix):
    """The ``residue_dtype`` bound of a @ b when it may run on int64, else None.

    Over Z the maximum is taken on the Python ints, before any cast.
    """
    if isinstance(ring, ZMod):
        return ring.n
    if isinstance(ring, ZRing):
        return max(map(abs, chain.from_iterable(chain(a, b))), default=0) + 1
    return None


@lru_cache(maxsize=None)
def field_tables(ring: FieldTable):
    """The mul and sub tables of a field as int64 arrays, built once per field."""
    els = range(ring.size)
    return (np.array([[ring.mul(x, y) for y in els] for x in els], dtype=np.int64),
            np.array([[ring.sub(x, y) for y in els] for x in els], dtype=np.int64))


def field_matmul(ring: FieldTable, a, b):
    """a @ b over GF(p^k) on int64 arrays of element indices (any shapes that
    ``@`` accepts).

    An index is the base-p digit vector of a polynomial of degree < k, so the
    product is k^2 int64 products of digit planes, one per pair of degrees,
    then a reduction mod p and by the field's irreducible polynomial.
    """
    p, k = ring.p, ring.k
    poly = _IRREDUCIBLE[(p, k)]
    da = [a // p ** i % p for i in range(k)]
    db = [b // p ** i % p for i in range(k)]
    coeff = [0] * (2 * k - 1)
    for i in range(k):
        for j in range(k):
            coeff[i + j] = coeff[i + j] + da[i] @ db[j]
    for d in range(2 * k - 2, k - 1, -1):   # x^k = -(poly[0] + ... + poly[k-1] x^(k-1))
        c = coeff[d] % p
        for j in range(k):
            if poly[j]:
                coeff[d - k + j] = coeff[d - k + j] - c * poly[j]
    out = coeff[k - 1] % p
    for d in range(k - 2, -1, -1):
        out = out * p + coeff[d] % p
    return out


def mat_mul(ring: Ring, a: Matrix, b: Matrix) -> Matrix:
    if isinstance(ring, ProductRing):
        k = len(ring.factors)
        parts = [mat_mul(f, fa, fb) for f, fa, fb in
                 zip(ring.factors, _factor_matrices(a, k), _factor_matrices(b, k))]
        return tuple(tuple(zip(*rows)) for rows in zip(*parts))
    if len(a) >= 6 and b:
        if isinstance(ring, FieldTable):
            cn = field_matmul(ring, np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
            return tuple(map(tuple, cn.tolist()))
        bound = _int64_bound(ring, a, b)
        if bound is not None and residue_dtype(bound, len(b)) is np.int64:
            cn = np.array(a, dtype=np.int64) @ np.array(b, dtype=np.int64)
            if isinstance(ring, ZMod):
                cn %= ring.n
            return tuple(map(tuple, cn.tolist()))
    zero, add, mul = ring.zero, ring.add, ring.mul
    bt = tuple(zip(*b))
    out = []
    for row in a:
        out_row = []
        for col in bt:
            acc = zero
            for x, y in zip(row, col):
                if x != zero and y != zero:
                    acc = add(acc, mul(x, y))
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def _factor_matrices(a: Matrix, k: int) -> list:
    """The k factor matrices of a matrix over a product of k rings."""
    per_row = [tuple(zip(*row)) or ((),) * k for row in a]
    return [tuple(rows) for rows in zip(*per_row)] if per_row else [()] * k


def mat_pow(ring: Ring, a: Matrix, n: int) -> Matrix:
    out = identity(ring, len(a))
    base = a
    while n:
        if n & 1:
            out = mat_mul(ring, out, base)
        base = mat_mul(ring, base, base)
        n >>= 1
    return out


def mat_map(fn, a: Matrix) -> Matrix:
    return tuple(tuple(fn(x) for x in row) for row in a)


def is_identity(ring: Ring, a: Matrix) -> bool:
    return a == identity(ring, len(a))


# --------------------------------------------------------------------------
# integer matrices


def invert_z(a: Matrix) -> Matrix:
    """Inverse of an integer matrix with unit determinant."""
    n = len(a)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(a)]
    for c in range(n):
        piv = next((r for r in range(c, n) if work[r][c] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular over Q")
        work[c], work[piv] = work[piv], work[c]
        scale = work[c][c]
        work[c] = [x / scale for x in work[c]]
        for r in range(n):
            if r != c and work[r][c] != 0:
                f = work[r][c]
                work[r] = [x - f * y for x, y in zip(work[r], work[c])]
    inv = []
    for r in range(n):
        row = work[r][n:]
        if any(x.denominator != 1 for x in row):
            raise ValueError("inverse is not integral")
        inv.append(tuple(int(x) for x in row))
    return tuple(inv)


# --------------------------------------------------------------------------
# diagonalization over a local ring


@dataclass(frozen=True)
class LocalDiag:
    """P @ A @ Q = D with P, Q invertible and D supported on (i, i) pivots.

    pivots lists (index, valuation); over a field every valuation is 0.
    """

    ring: Ring
    p_mat: Matrix
    q_mat: Matrix
    diag: tuple          # pivot values d_i, one per pivot
    pivots: tuple        # (index, valuation) pairs
    shape: tuple


def _first_least_valuation(sub, p: int, k: int):
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


def _row_ops(ring: Ring):
    """(scale, sub_mul): x * c and x - c * y on arrays of elements of Z/p^k or
    GF(q), with numpy broadcasting."""
    if isinstance(ring, ZMod):
        mod = ring.n
        return (lambda x, c: (x * c) % mod), (lambda x, c, y: (x - c * y) % mod)
    mul, sub = field_tables(ring)
    return (lambda x, c: mul[x, c]), (lambda x, c, y: sub[x, mul[c, y]])


def _eliminate(ring: Ring, a, with_p: bool):
    """Diagonalize the rows ``a`` over Z/p^k or GF(q): (P or None, Q, pivots, diag).

    P, Q are arrays with P @ A @ Q = D.  Q never depends on P, so callers
    that only need kernels skip P.  Over GF(q), where k = 1, the pivot is the
    first nonzero entry and every valuation is 0.
    """
    if not (isinstance(ring, FieldTable) or isinstance(ring, ZMod) and ring.is_local):
        raise ValueError(f"{ring.descriptor} is not a supported local ring")
    p, k = ring.residue_char, ring.nil_degree
    scale, sub_mul = _row_ops(ring)
    m = len(a)
    n = len(a[0]) if m else 0
    dtype = residue_dtype(ring.size, 1)
    A = np.array(a, dtype=dtype).reshape(m, n) % ring.size
    P = np.eye(m, dtype=dtype) if with_p else None
    Q = np.eye(n, dtype=dtype)
    pivots = []
    for t in range(min(m, n)):
        found = _first_least_valuation(A[t:, t:], p, k)
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


def local_diag(ring: Ring, a: Matrix) -> LocalDiag:
    P, Q, pivots, diag = _eliminate(ring, a, with_p=True)
    return LocalDiag(ring, tuple(map(tuple, P.tolist())), tuple(map(tuple, Q.tolist())),
                     diag, pivots, (len(P), len(Q)))


def local_nullspace(ring: Ring, a: Matrix) -> list:
    """Generators of {x : A x = 0} over a local ring, for any sequence of rows.

    With P A Q = D, they are the columns of Q past the pivots and, for a
    pivot of valuation v > 0, p^(k-v) times its column.
    """
    _, q, pivots, _ = _eliminate(ring, a, with_p=False)
    p, k = ring.residue_char, ring.nil_degree
    scale = np.ones(q.shape[1], dtype=q.dtype)
    for i, v in pivots:
        scale[i] = p ** (k - v) if v else 0   # p^k = 0: a unit pivot gives none
    keep = np.flatnonzero(scale)
    gens = _row_ops(ring)[0](q[:, keep], scale[keep])
    return [tuple(g) for g in gens.T.tolist()]


def local_invert(ring: Ring, a: Matrix):
    """Inverse of a square matrix over a local ring, or None."""
    n = len(a)
    d = local_diag(ring, a)
    if len(d.pivots) < n or any(v > 0 for _, v in d.pivots):
        return None
    dinv = identity(ring, n)
    dinv = tuple(tuple(ring.inv(d.diag[i]) if i == j and i < len(d.diag) else x
                       for j, x in enumerate(row)) for i, row in enumerate(dinv))
    return mat_mul(ring, mat_mul(ring, d.q_mat, dinv), d.p_mat)


# --------------------------------------------------------------------------
# composite rings via CRT


def ring_invert(ring: Ring, a: Matrix):
    if isinstance(ring, ZRing):
        return invert_z(a)
    split = crt_split(ring)
    if len(split.factors) == 1 and split.factors[0].ring == ring:
        return local_invert(ring, a)
    parts = []
    for f in split.factors:
        af = mat_map(f.project, a)
        inv = local_invert(f.ring, af)
        if inv is None:
            return None
        parts.append(inv)
    n = len(a)
    return tuple(tuple(split.from_factors([p[i][j] for p in parts])
                       for j in range(n)) for i in range(n))
