"""Matrix layer tests.

The oracle for kernels and invertibility is exhaustive enumeration of R^n
over tiny rings, so every answer the elimination gives is checked against
the full solution set.  The array elimination is also pinned to
scalar copies of its pivot rule over Z/p^k and over the field tables, its
kernel ranks over GF(p) to sympy's, and the GF(p^k) array product and the
per-factor product over product rings to entrywise table products.
"""

from __future__ import annotations

import hashlib
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevalley.decomposer import _intertwiner_basis
from chevalley.linalg import (
    CARRIER_BLOCK_BYTES,
    _eliminate,
    as_exact,
    every_element,
    field_matmul,
    from_ints,
    local_invert,
    local_invertible,
    local_nullspace,
    mat_pow,
    positions,
    residue_dtype,
    ring_invertible,
    ring_tables,
    row_ops,
    stack_dtype,
    stack_mul,
)
from chevalley.rings import RingError, ring_make
# mat_mul, identity, matrix and ring_invert as the oracles wrap them: linalg's,
# their results as tuple matrices
from oracles import (det_bareiss, eliminate_scan, identity, is_identity, local_diag, mat_mul,
                     mat_vec, matrix, ring_invert, tuples)

ZZ = ring_make("Z")
LOCAL_RINGS = ["Z/4", "Z/8", "Z/9", "Z/5", "F4"]
SPLIT_RINGS = ["Z/6", "Z/12", "Z/6xF4"]


def rand_matrix(ring, rng, m, n):
    return tuple(tuple(ring.rand(rng) for _ in range(n)) for _ in range(m))


def all_vectors(ring, n):
    return [tuple(v) for v in itertools.product(list(ring.elements()), repeat=n)]


def brute_kernel(ring, a):
    n = len(a[0])
    zero = (ring.zero,) * len(a)
    return {v for v in all_vectors(ring, n) if mat_vec(ring, a, v) == zero}


def brute_span(ring, gens, n):
    if not gens:
        return {(ring.zero,) * n}
    out = set()
    for coeffs in itertools.product(list(ring.elements()), repeat=len(gens)):
        acc = [ring.zero] * n
        for c, g in zip(coeffs, gens):
            for i in range(n):
                acc[i] = ring.add(acc[i], ring.mul(c, g[i]))
        out.add(tuple(acc))
    return out


def as_tuples(gens):
    """The rows of a local_nullspace array as tuples of Python ints."""
    return [tuple(g) for g in gens.tolist()]


def brute_injective(ring, a):
    n = len(a[0])
    seen = set()
    for v in all_vectors(ring, n):
        img = mat_vec(ring, a, v)
        if img in seen:
            return False
        seen.add(img)
    return True


# --- generic ops -----------------------------------------------------------

def test_identity_and_shapes():
    r = ring_make("Z/6")
    e = identity(r, 3)
    a = rand_matrix(r, random.Random(1), 3, 3)
    assert mat_mul(r, e, a) == a == mat_mul(r, a, e)
    assert is_identity(r, e)


def test_mat_pow():
    r = ring_make("Z/7")
    a = matrix([[1, 1], [0, 1]])
    assert tuples(mat_pow(r, a, 9)) == ((1, 2), (0, 1))
    assert tuples(mat_pow(r, a, 0)) == identity(r, 2)


# --- integer path -----------------------------------------------------------

def det_by_permutations(a):
    n = len(a)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = 1
        for i in range(n):
            term *= a[i][perm[i]]
        total += sign * term
    return total


def test_det_bareiss_matches_permanent_expansion():
    rng = random.Random(7)
    for n in (2, 3, 4):
        for _ in range(25):
            a = tuple(tuple(rng.randrange(-5, 6) for _ in range(n)) for _ in range(n))
            assert det_bareiss(a) == det_by_permutations(a)


def test_ring_invert_refuses_the_integers():
    # inversion runs over finite rings only; precheck refuses Z before any
    with pytest.raises(RingError):
        ring_invert(ring_make("Z"), matrix([[2, 1], [1, 1]]))


# --- local diagonalization ---------------------------------------------------

@pytest.mark.parametrize("name", LOCAL_RINGS)
def test_local_diag_factorization(name):
    ring = ring_make(name)
    rng = random.Random(hash(name) & 0xFFFF)
    for m, n in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        for _ in range(8):
            a = rand_matrix(ring, rng, m, n)
            d = local_diag(ring, a)
            pa = mat_mul(ring, d.p_mat, a)
            paq = mat_mul(ring, pa, d.q_mat)
            expect = [[ring.zero] * n for _ in range(m)]
            for (i, _), dv in zip(d.pivots, d.diag):
                expect[i][i] = dv
            assert paq == matrix(expect)
            assert brute_injective(ring, d.p_mat)
            assert brute_injective(ring, d.q_mat)


@pytest.mark.parametrize("name", LOCAL_RINGS)
def test_local_nullspace_spans_kernel(name):
    ring = ring_make(name)
    rng = random.Random(2 * len(name))
    for m, n in [(2, 2), (2, 3), (3, 3)]:
        for _ in range(8):
            a = rand_matrix(ring, rng, m, n)
            gens = as_tuples(local_nullspace(ring, a))
            assert brute_span(ring, gens, n) == brute_kernel(ring, a)


def test_nullspace_of_scaled_identity_mod4():
    ring = ring_make("Z/4")
    a = matrix([[2, 0], [0, 2]])
    assert brute_span(ring, as_tuples(local_nullspace(ring, a)), 2) == {
        (0, 0), (2, 0), (0, 2), (2, 2)}
    b = matrix([[2, 1], [0, 2]])
    assert local_invert(ring, b) is None
    assert brute_span(ring, as_tuples(local_nullspace(ring, b)), 2) == brute_kernel(ring, b)


@pytest.mark.parametrize("name", LOCAL_RINGS)
def test_local_invert_against_injectivity(name):
    ring = ring_make(name)
    rng = random.Random(3 * len(name) + 1)
    seen_invertible = seen_singular = 0
    for _ in range(24):
        a = rand_matrix(ring, rng, 2, 2)
        inv = local_invert(ring, a)
        if inv is None:
            assert not brute_injective(ring, a)
            seen_singular += 1
        else:
            assert mat_mul(ring, a, inv) == identity(ring, 2)
            assert mat_mul(ring, inv, a) == identity(ring, 2)
            seen_invertible += 1
    assert seen_invertible and seen_singular


# --- composite rings ---------------------------------------------------------

@pytest.mark.parametrize("name", SPLIT_RINGS)
def test_ring_solve_and_invert_split(name):
    ring = ring_make(name)
    rng = random.Random(5)
    for _ in range(10):
        a = rand_matrix(ring, rng, 2, 2)
        inv = ring_invert(ring, a)
        if inv is not None:
            assert mat_mul(ring, a, inv) == identity(ring, 2)
        else:
            assert not brute_injective(ring, a)


# --- the Z/p^k elimination against a scalar oracle ---------------------------

def oracle_local_diag(p, k, a):
    """Scalar Z/p^k diagonalization: a row-major scan for the first entry of
    least p-valuation, then full row and column updates of A, P and Q."""
    mod = p ** k
    m, n = len(a), len(a[0]) if a else 0
    A = [[x % mod for x in row] for row in a]
    P = [[int(i == j) for j in range(m)] for i in range(m)]
    Q = [[int(i == j) for j in range(n)] for i in range(n)]

    def val(x):
        if x == 0:
            return k
        v = 0
        while x % p == 0:
            x //= p
            v += 1
        return v

    pivots = []
    for t in range(min(m, n)):
        best, bv = None, k
        for i in range(t, m):
            for j in range(t, n):
                if val(A[i][j]) < bv:
                    best, bv = (i, j), val(A[i][j])
        if best is None:
            break
        bi, bj = best
        A[t], A[bi] = A[bi], A[t]
        P[t], P[bi] = P[bi], P[t]
        for rows in (A, Q):
            for row in rows:
                row[t], row[bj] = row[bj], row[t]
        pv = p ** bv
        u_inv = pow(A[t][t] // pv, -1, mod)
        A[t] = [x * u_inv % mod for x in A[t]]
        P[t] = [x * u_inv % mod for x in P[t]]
        mult = [A[i][t] // pv if i != t else 0 for i in range(m)]
        A = [[(x - c * y) % mod for x, y in zip(A[i], A[t])] for i, c in enumerate(mult)]
        P = [[(x - c * y) % mod for x, y in zip(P[i], P[t])] for i, c in enumerate(mult)]
        multc = [A[t][j] // pv if j != t else 0 for j in range(n)]
        A = [[(x - row[t] * c) % mod for x, c in zip(row, multc)] for row in A]
        Q = [[(x - row[t] * c) % mod for x, c in zip(row, multc)] for row in Q]
        pivots.append((t, bv))
    return matrix(P), matrix(Q), tuple(pivots), tuple(A[i][i] for i, _ in pivots)


def oracle_nullspace(p, k, a):
    _, q, pivots, _ = oracle_local_diag(p, k, a)
    n = len(a[0]) if a else 0
    val = dict(pivots)
    gens = []
    for j in range(n):
        if j not in val or val[j] > 0:
            scale = p ** (k - val[j]) if j in val else 1
            gens.append(tuple(row[j] * scale % p ** k for row in q))
    return gens


def rand_valued_matrix(rng, p, k, m, n):
    """Entries of every valuation, with zero rows and zero columns mixed in."""
    def entry():
        v = rng.choice([0, 0, 1, k])
        return (p ** v * rng.randrange(1, p ** k)) % p ** k
    zero_rows = {i for i in range(m) if rng.random() < 0.2}
    zero_cols = {j for j in range(n) if rng.random() < 0.2}
    return tuple(tuple(0 if i in zero_rows or j in zero_cols else entry()
                       for j in range(n)) for i in range(m))


ORACLE_RINGS = ["Z/3", "Z/4", "Z/8", "Z/9", "Z/25", "Z/27"]
ORACLE_SHAPES = [(1, 4), (4, 1), (3, 5), (5, 3), (6, 6), (7, 4), (4, 9), (3, 0)]


@pytest.mark.parametrize("name", ORACLE_RINGS)
def test_local_diag_matches_scalar_oracle(name):
    ring = ring_make(name)
    p, k = ring.residue_char, ring.nil_degree
    rng = random.Random(name)
    for m, n in ORACLE_SHAPES:
        for _ in range(6):
            a = rand_valued_matrix(rng, p, k, m, n)
            want_p, want_q, want_pivots, want_diag = oracle_local_diag(p, k, a)
            d = local_diag(ring, a)
            assert (d.p_mat, d.q_mat, d.pivots, d.diag) == (
                want_p, want_q, want_pivots, want_diag), (name, a)
            assert as_tuples(local_nullspace(ring, a)) == oracle_nullspace(p, k, a), (name, a)


@pytest.mark.parametrize("name", ["Z/2", "Z/3", "Z/5", "Z/7"])
def test_kernel_rank_matches_sympy_over_gf_p(name):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    ring = ring_make(name)
    p = ring.n
    rng = random.Random(name)
    for m, n in [(3, 5), (5, 3), (6, 6), (8, 7), (4, 9)]:
        for _ in range(6):
            a = rand_valued_matrix(rng, p, 1, m, n)
            rank = DomainMatrix.from_list([list(row) for row in a], sympy.GF(p)).rank()
            assert len(local_nullspace(ring, a)) == n - rank


def p_valuation(x: int, p: int) -> int:
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


@pytest.mark.parametrize("name", ["Z/4", "Z/8", "Z/9", "Z/25"])
def test_local_diag_valuations_match_sympy_smith_form(name):
    """The Smith form over Z of an integer lift, reduced mod p^k, is a Smith
    form over Z/p^k, so its diagonal entries that stay nonzero have the
    valuations of local_diag's pivots."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    ring = ring_make(name)
    p, k = ring.residue_char, ring.nil_degree
    mod = p ** k
    rng = random.Random(name)
    for m, n in [(3, 5), (5, 3), (4, 4), (6, 6), (7, 2)]:
        for trial in range(6):
            if trial % 2:       # rank at most 2 over Z
                left = [[rng.randrange(-3, 4) for _ in range(2)] for _ in range(m)]
                right = [[rng.randrange(mod) for _ in range(n)] for _ in range(2)]
                lift = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
                        for row in left]
            else:
                lift = [list(row) for row in rand_valued_matrix(rng, p, k, m, n)]
            snf = smith_normal_form(sympy.Matrix(lift), domain=sympy.ZZ)
            diag = [int(snf[i, i]) for i in range(min(m, n))]
            want = sorted(p_valuation(d, p) for d in diag if d % mod)
            d = local_diag(ring, tuple(tuple(x % mod for x in row) for row in lift))
            assert sorted(v for _, v in d.pivots) == want, (name, lift)


# --- the int64 guard -----------------------------------------------------------

def scalar_product(mod, a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % mod for col in zip(*b))
                 for row in a)


@pytest.mark.parametrize("mod", [1_000_000_007, 4_294_967_311])
def test_mat_mul_is_exact_near_and_past_int64(mod):
    ring = ring_make(f"Z/{mod}")
    rng = random.Random(mod)
    for _ in range(4):
        a = rand_matrix(ring, rng, 6, 6)
        b = rand_matrix(ring, rng, 6, 6)
        assert mat_mul(ring, a, b) == scalar_product(mod, a, b)
    top = ((mod - 1,) * 6,) * 6
    assert mat_mul(ring, top, top) == scalar_product(mod, top, top)


def test_elimination_and_intertwiners_exact_past_int64():
    mod = 4_294_967_311
    ring = ring_make(f"Z/{mod}")
    rng = random.Random(7)
    for m, n in [(3, 5), (6, 6)]:
        a = rand_matrix(ring, rng, m, n - 2)
        a = tuple(row + (sum(row) % mod, (2 * row[0]) % mod) for row in a)
        gens = local_nullspace(ring, a)
        assert len(gens) >= 2
        for g in gens:
            assert mat_vec(ring, a, g) == (0,) * m
        d = local_diag(ring, a)
        expect = [[0] * n for _ in range(m)]
        for (i, _), dv in zip(d.pivots, d.diag):
            expect[i][i] = dv
        assert scalar_product(mod, scalar_product(mod, d.p_mat, a), d.q_mat) == matrix(expect)
    x = ((1, mod - 1, 5), (0, 1, mod - 2), (0, 0, 1))
    z = scalar_product(mod, x, x)
    stack = np.array([x, z], dtype=stack_dtype(ring, 3))
    basis = _intertwiner_basis(ring, stack, stack)
    assert len(basis) >= 3     # the centralizer of x holds 1, x and x^2
    for vec in basis:
        mb = tuple(vec[i * 3:(i + 1) * 3] for i in range(3))
        for y in (x, z):
            assert scalar_product(mod, mb, y) == scalar_product(mod, y, mb)


# --- the float32 carrier tier --------------------------------------------------

# (n, inner) with inner (n - 1)^2 just below 2^24; n + 1 or inner + 1 passes it
CARRIER_EDGES = [(4096, 1), (2897, 2), (2365, 3)]
# a stack times one matrix, one matrix times a stack, broadcast batch axes
BATCH_SHAPES = [((5, 3), (), 4), ((), (2,), 4), ((2, 1), (1, 3), 2)]


def batched_operands(inner, fill, dtype=np.int64):
    """(a, b) pairs over BATCH_SHAPES with every entry ``fill``."""
    return [(np.full(ba + (m, inner), fill, dtype=dtype), np.full(bb + (inner, 3), fill, dtype=dtype))
            for ba, bb, m in BATCH_SHAPES]


@pytest.mark.parametrize("n,inner", CARRIER_EDGES)
def test_carrier_tier_ends_at_two_to_the_24(n, inner):
    assert inner * (n - 1) ** 2 < 2 ** 24 <= min(inner * n ** 2, (inner + 1) * (n - 1) ** 2)
    assert residue_dtype(n, inner, carrier=True) is np.float32
    assert residue_dtype(n + 1, inner, carrier=True) is np.int64
    assert residue_dtype(n, inner + 1, carrier=True) is np.int64
    assert residue_dtype(n, inner) is np.int64     # storage never takes the tier


def test_float32_sums_are_inexact_past_the_edge():
    # what the guard prevents: 3 * 2365^2 = 16779675 is odd and past 2^24
    a, b = batched_operands(3, 2365, np.float32)[0]
    assert int((a @ b).max()) != 3 * 2365 ** 2


@pytest.mark.parametrize("past", [0, 1])
@pytest.mark.parametrize("n,inner", CARRIER_EDGES)
def test_stack_mul_is_exact_on_both_sides_of_the_edge(n, inner, past):
    # every entry n - 1, the largest partial sums the tier can meet
    mod = n + past
    ring = ring_make(f"Z/{mod}")
    for a, b in batched_operands(inner, mod - 1):
        got = stack_mul(ring, a, b)
        assert got.dtype == np.int64
        assert np.array_equal(got, (a @ b) % mod)


@pytest.mark.parametrize("past", [0, 1])
@pytest.mark.parametrize("n,inner", CARRIER_EDGES)
def test_stack_mul_over_z_is_exact_on_both_sides_of_the_edge(n, inner, past):
    # over Z the bound is max|entry| + 1, here with both signs, as in the
    # Jacobi contraction of the structure constants
    rng = np.random.default_rng(n + past)
    for a, b in batched_operands(inner, n - 1 + past):
        a *= rng.choice((-1, 1), size=a.shape)
        b *= rng.choice((-1, 1), size=b.shape)
        got = stack_mul(ZZ, a, b)
        assert got.dtype == np.int64
        assert np.array_equal(got, a @ b)
    # the bound reads both factors: a small one times one past 2^24
    a, b = batched_operands(inner, 1)[0][0], np.full((inner, 3), 2 ** 24 + 1)
    assert np.array_equal(stack_mul(ZZ, a, b), a @ b)
    assert np.array_equal(stack_mul(ZZ, b.T, a.swapaxes(-1, -2)), b.T @ a.swapaxes(-1, -2))


@pytest.mark.parametrize("n", [4093, 4095])
def test_carrier_reduction_is_exact_next_to_every_multiple(n):
    # the top residues times every residue give quotients x / n just below
    # and at integers, where a reduction through an inexact 1 / n is off by n
    a, b = np.arange(n - 64, n).reshape(2, 32, 1), np.arange(n).reshape(1, n)
    assert np.array_equal(stack_mul(ring_make(f"Z/{n}"), a, b), (a @ b) % n)


def matrices_of(got, a, b, tail=2):
    """Each matrix of a batched product with the operand matrices it came
    from, the operands broadcast; a matrix is the last ``tail`` axes (3 over
    a product ring, whose elements are the last axis)."""
    batch = got.shape[:-tail]
    a, b = (np.broadcast_to(x, batch + x.shape[-tail:]) for x in (a, b))
    return [(got[i], a[i], b[i]) for i in np.ndindex(batch)]


@pytest.mark.parametrize("name", ["Z/4096xZ/4097", "Z/3xF4", "Z/3xZ/3"])
def test_product_ring_stack_mul_takes_each_factor_tier(name):
    # at inner 1, Z/4096 is inside the tier and Z/4097 past it
    ring = ring_make(name)
    rng = random.Random(name)
    top = np.array([f.size - 1 for f in ring.factors])
    for a, b in batched_operands(1, 0):
        a, b = a[..., None] + top, b[..., None] + top
        a[..., 0, 0, :] = [f.rand(rng) for f in ring.factors]
        got = stack_mul(ring, a, b)
        for g, x, y in matrices_of(got, a, b, tail=3):
            assert tuples(g) == table_product(ring, tuples(x), tuples(y))


@pytest.mark.parametrize("name", ["F4", "F8", "F9", "F16"])
def test_field_digit_planes_in_the_tier_match_the_tables(name):
    # every digit p - 1 (the index p^k - 1), and random stacks, batched and
    # broadcast, against the table oracle
    ring = ring_make(name)
    rng = np.random.default_rng(ring.size)
    assert residue_dtype(ring.p, ring.k * 8, carrier=True) is np.float32
    for a, b in batched_operands(8, ring.size - 1) + [
            (rng.integers(0, ring.size, (4, 5, 8)), rng.integers(0, ring.size, (8, 6))),
            (rng.integers(0, ring.size, (2, 1, 5, 8)), rng.integers(0, ring.size, (3, 8, 6)))]:
        got = stack_mul(ring, a, b)
        assert got.dtype == np.int64
        for g, x, y in matrices_of(got, a, b):
            assert tuples(g) == table_product(ring, tuples(x), tuples(y))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["Z/n", "Z"]), st.integers(2, 5000), st.integers(0, 6),
       st.lists(st.integers(1, 3), max_size=2), st.data())
def test_stack_mul_matches_the_int64_oracle(kind, n, inner, batch, data):
    # random batch shapes, each axis of each operand either kept or 1, around
    # the tier's edge: inner (n - 1)^2 < 2^24 holds up to n = 1673 at inner 6
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    axes = [data.draw(st.sampled_from([(d, d), (d, 1), (1, d)])) for d in batch]
    sa, sb = (tuple(side[i] for side in axes) for i in (0, 1))
    a_shape = sa[data.draw(st.integers(0, len(sa))):] + (data.draw(st.integers(1, 4)), inner)
    b_shape = sb[data.draw(st.integers(0, len(sb))):] + (inner, data.draw(st.integers(1, 4)))
    if kind == "Z":
        ring = ZZ
        a, b = (rng.integers(-n + 1, n, shape) for shape in (a_shape, b_shape))
        want = a @ b
    else:
        ring = ring_make(f"Z/{n}")
        a, b = (rng.integers(0, n, shape) for shape in (a_shape, b_shape))
        want = (a @ b) % n
    got = stack_mul(ring, a, b)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)


# (name, top entry) inside the carrier tier at inner 21: 21 * 892^2 < 2^24
BLOCK_RINGS = [("Z/3", 2), ("Z/887", 886), ("Z/3xZ/5", None), ("Z", 892)]


@pytest.mark.parametrize("name,top", BLOCK_RINGS)
def test_blocked_carrier_is_exact_at_block_edges(name, top):
    """Batches of one block, one past it and a ragged several, with the
    batch on the left, on the right, on both broadcast over two axes, and as
    the strided halves _tree_product multiplies, against the int64 product."""
    ring = ring_make(name)
    rng = np.random.default_rng(len(name))
    n = 21
    step = CARRIER_BLOCK_BYTES // (4 * n * n)
    tail = (len(ring.factors),) if name == "Z/3xZ/5" else ()

    def draw(shape):
        if tail:
            return np.stack([rng.integers(0, f.size, shape) for f in ring.factors], axis=-1)
        return rng.integers(-top if name == "Z" else 0, top + 1, shape)

    def want(a, b):
        if tail:
            return np.stack([(a[..., i] @ b[..., i]) % f.size
                             for i, f in enumerate(ring.factors)], axis=-1)
        return a @ b if name == "Z" else (a @ b) % ring.size

    for count in (step, step + 1, 3 * step - 1):
        both = draw((2, 2 * count, n, n))
        cases = [(draw((count, n, n)), draw((n, n))), (draw((n, n)), draw((count, n, n))),
                 (draw((2, 1, n, n)), draw((1, count, n, n))), (both[:, 0::2], both[:, 1::2])]
        for a, b in cases:
            if name == "Z" and a.ndim > 2:   # the largest entry sits in the last matrix only
                a[..., -1, n - 1, n - 1] = top
            got = stack_mul(ring, a, b)
            assert got.dtype == np.int64
            assert np.array_equal(got, want(a, b)), (count, a.shape, b.shape)


# --- float32 tier stacks: stored in the carrier from product to product -------

# (ring, inner) with inner (n - 1)^2 just below 2^24 and, one ring later, past
# it: at Z/1025 on 2^24 itself, at Z/2366 on 3 * 2365^2, odd, which float32
# cannot hold
TIER_EDGES = [("Z/1024", 16), ("Z/1025", 16), ("Z/2365", 3), ("Z/2366", 3)]


@pytest.mark.parametrize("name,inner", TIER_EDGES)
def test_stack_dtype_names_the_tier_only_for_storage_that_asks(name, inner):
    ring = ring_make(name)
    inside = inner * (ring.size - 1) ** 2 < 2 ** 24
    assert stack_dtype(ring, inner, carrier=True) is (np.float32 if inside else np.int64)
    assert stack_dtype(ring, inner) is np.int64


def test_stack_dtype_of_the_tier_over_fields_and_products():
    # a product ring takes the tier only when every factor does; GF(q) keeps
    # its digit-plane carrier inside the product and stores int64
    assert stack_dtype(ring_make("Z/3xZ/3"), 14, carrier=True) is np.float32
    assert stack_dtype(ring_make("Z/3xF4"), 14, carrier=True) is np.int64
    assert stack_dtype(ring_make("F9"), 14, carrier=True) is np.int64
    assert stack_dtype(ring_make(f"Z/{2 ** 40}"), 14, carrier=True) is object


@pytest.mark.parametrize("name,inner", TIER_EDGES)
def test_tier_stacks_multiply_as_int64_and_stay_float32(name, inner):
    # every entry n - 1, batched and broadcast; past the edge a tier stack
    # takes the integer path and still comes back float32
    ring = ring_make(name)
    rng = np.random.default_rng(ring.size)
    cases = batched_operands(inner, ring.size - 1) + [
        (rng.integers(0, ring.size, (2, 1, 5, inner)), rng.integers(0, ring.size, (3, inner, 4)))]
    for a, b in cases:
        got = stack_mul(ring, a.astype(np.float32), b.astype(np.float32))
        assert got.dtype == np.float32
        assert np.array_equal(got, stack_mul(ring, a, b)), (a.shape, b.shape)
    a, b = cases[-1]   # a 2-D tier product is carried too
    assert np.array_equal(stack_mul(ring, a[0, 0].astype(np.float32), b[0].astype(np.float32)),
                          (a[0, 0] @ b[0]) % ring.size)


@pytest.mark.parametrize("name", ["Z/3", "Z/887", "Z/3xZ/5"])
def test_tier_stacks_are_exact_at_block_edges(name):
    # one block, one past it and a ragged several, batch left, right and
    # broadcast on both, against the int64 path
    ring = ring_make(name)
    rng = np.random.default_rng(len(name) + 1)
    n = 21
    step = CARRIER_BLOCK_BYTES // (4 * n * n)
    sizes = [f.size for f in ring.factors] if name == "Z/3xZ/5" else [ring.size]

    def draw(shape):
        out = np.stack([rng.integers(0, s, shape) for s in sizes], axis=-1)
        return out if len(sizes) > 1 else out[..., 0]

    assert stack_dtype(ring, n, carrier=True) is np.float32
    for count in (step, step + 1, 3 * step - 1):
        for a, b in [(draw((count, n, n)), draw((n, n))), (draw((n, n)), draw((count, n, n))),
                     (draw((2, 1, n, n)), draw((1, count, n, n)))]:
            got = stack_mul(ring, a.astype(np.float32), b.astype(np.float32))
            assert got.dtype == np.float32
            assert np.array_equal(got, stack_mul(ring, a, b)), (count, a.shape, b.shape)


@pytest.mark.parametrize("name", ["Z/4", "Z/6", "Z/887", "Z/4096", "Z/3xZ/3"])
def test_row_ops_on_tier_stacks_match_the_int64_path(name):
    # x * c and x - c * y with c one element, one per row and one per entry,
    # the top residues included (x - c y then reaches -(n - 1)^2)
    ring = ring_make(name)
    rng = np.random.default_rng(ring.size)
    sizes = np.array([f.size for f in ring.factors] if len(name.split("x")) > 1 else [ring.size])
    tail = (len(sizes),) if len(sizes) > 1 else ()

    def draw(shape):
        out = rng.integers(0, sizes, shape + (len(sizes),))
        out[0] = sizes - 1
        return out if tail else out[..., 0]

    scale, sub_mul = row_ops(ring)
    x, y, c = draw((6, 5, 4)), draw((6, 5, 4)), draw((6, 1, 1))
    for cs in (c, c[0, 0, 0], draw((6, 5, 4))):
        tx, tc, ty = (np.asarray(v).astype(np.float32) for v in (x, cs, y))
        got = scale(tx, tc)
        assert got.dtype == np.float32 and np.array_equal(got, scale(x, cs))
        got = sub_mul(tx.copy(), tc, ty)
        assert got.dtype == np.float32 and np.array_equal(got, sub_mul(x.copy(), cs, y))


@pytest.mark.parametrize("name", ["Z/4", "Z/3xZ/3"])
def test_to_matrix_of_a_tier_stack_gives_python_ints(name):
    ring = ring_make(name)
    stack = from_ints(ring, np.arange(-4, 5).reshape(1, 3, 3), stack_dtype(ring, 3, carrier=True))
    assert stack.dtype == np.float32
    got = tuples(stack[0])
    assert got == tuples(from_ints(ring, np.arange(-4, 5).reshape(3, 3), np.int64))
    leaves = [x for row in got for x in row for x in (x if isinstance(x, tuple) else (x,))]
    assert all(type(x) is int for x in leaves)
    ints = as_exact(stack)
    assert ints.dtype == np.int64 and as_exact(ints) is ints


def test_blocked_carrier_over_z_reads_the_bound_off_the_whole_operands():
    # one entry past the tier in the last block sends the whole product to int64
    rng = np.random.default_rng(5)
    a, b = rng.integers(-3, 4, (500, 21, 21)), rng.integers(-3, 4, (21, 21))
    a[-1, 0, 0] = 2 ** 24 + 1
    assert np.array_equal(stack_mul(ZZ, a, b), a @ b)
    a[-1, 0, 0] = 892
    assert np.array_equal(stack_mul(ZZ, a, b), a @ b)


# --- products over Z ---------------------------------------------------------

def python_product(a, b):
    """The exact product on Python ints, the oracle for mat_mul over Z."""
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b))
                 for row in a)


@pytest.mark.parametrize("top", [1, 3, 2 ** 20, 2 ** 29, 2 ** 31, 2 ** 62, 2 ** 70])
def test_mat_mul_over_z_matches_python_product(top):
    ring = ring_make("Z")
    rng = random.Random(top)
    for m, k, n in [(6, 6, 6), (8, 8, 8), (7, 5, 9), (15, 15, 15), (3, 4, 2)]:
        a = tuple(tuple(rng.randint(-top, top) for _ in range(k)) for _ in range(m))
        b = tuple(tuple(rng.randint(-top, top) for _ in range(n)) for _ in range(k))
        got = mat_mul(ring, a, b)
        assert got == python_product(a, b)
        assert all(type(x) is int for row in got for x in row)


def test_mat_mul_over_z_takes_the_exact_path_past_int64():
    ring = ring_make("Z")
    big = 2 ** 32             # 6 * big^2 passes 2^63; an int64 product would wrap
    a = ((big,) * 6,) * 6
    assert mat_mul(ring, a, a) == ((6 * big * big,) * 6,) * 6
    # one entry past 2^63 in either factor, the other factor small
    huge = 2 ** 64 + 3
    a = tuple(tuple(huge if (i, j) == (2, 3) else i - j for j in range(6)) for i in range(6))
    b = tuple(tuple((i * j) % 5 - 2 for j in range(6)) for i in range(6))
    assert mat_mul(ring, a, b) == python_product(a, b)
    assert mat_mul(ring, b, a) == python_product(b, a)
    # max|a| * max|b| * inner stays below 2^63 only just
    edge = 1_239_850_262       # 6 * edge^2 < 2^63 <= 6 * (edge + 1)^2
    a = ((edge, -edge) * 3,) * 6
    assert mat_mul(ring, a, a) == python_product(a, a)


@pytest.mark.parametrize("name", ["Z", "Z/4", "F4"])
def test_mat_mul_with_empty_inner_dimension(name):
    ring = ring_make(name)
    assert mat_mul(ring, np.zeros((6, 0), dtype=np.int64), np.zeros((0, 0), dtype=np.int64)
                   ) == ((),) * 6


# --- the field tables against a scalar Gaussian pass ---------------------------

def oracle_local_diag_field(ring, a):
    """Scalar diagonalization over a field table: the row-major first nonzero
    entry is the pivot, then full row and column updates of A, P and Q."""
    m, n = len(a), len(a[0]) if a else 0
    A = [list(row) for row in a]
    P = [list(row) for row in identity(ring, m)]
    Q = [list(row) for row in identity(ring, n)]
    zero = ring.zero
    pivots = []
    t = 0
    while t < min(m, n):
        best = next(((i, j) for i in range(t, m) for j in range(t, n)
                     if A[i][j] != zero), None)
        if best is None:
            break
        bi, bj = best
        A[t], A[bi] = A[bi], A[t]
        P[t], P[bi] = P[bi], P[t]
        if bj != t:
            for row in A:
                row[t], row[bj] = row[bj], row[t]
            for row in Q:
                row[t], row[bj] = row[bj], row[t]
        u_inv = ring.inv(A[t][t])
        A[t] = [ring.mul(u_inv, x) for x in A[t]]
        P[t] = [ring.mul(u_inv, x) for x in P[t]]
        for i in range(m):
            if i != t and A[i][t] != zero:
                f = A[i][t]
                A[i] = [ring.sub(x, ring.mul(f, y)) for x, y in zip(A[i], A[t])]
                P[i] = [ring.sub(x, ring.mul(f, y)) for x, y in zip(P[i], P[t])]
        for j in range(n):
            if j != t and A[t][j] != zero:
                f = A[t][j]
                for row in A:
                    row[j] = ring.sub(row[j], ring.mul(row[t], f))
                for row in Q:
                    row[j] = ring.sub(row[j], ring.mul(row[t], f))
        pivots.append((t, 0))
        t += 1
    return matrix(P), matrix(Q), tuple(pivots), tuple(A[i][i] for i, _ in pivots)


def table_product(ring, a, b):
    """a @ b entry by entry through the ring's add and mul tables."""
    out = []
    for row in a:
        out_row = []
        for col in zip(*b):
            acc = ring.zero
            for x, y in zip(row, col):
                acc = ring.add(acc, ring.mul(x, y))
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def rand_field_matrix(ring, rng, m, n):
    """Zero rows and columns, and rows that are multiples of earlier rows."""
    rows = []
    zero_cols = {j for j in range(n) if rng.random() < 0.2}
    for i in range(m):
        r = rng.random()
        if r < 0.15:
            rows.append((ring.zero,) * n)
        elif r < 0.35 and rows:
            c = ring.rand(rng)
            rows.append(tuple(ring.mul(c, x) for x in rng.choice(rows)))
        else:
            rows.append(tuple(ring.zero if j in zero_cols else ring.rand(rng)
                              for j in range(n)))
    return tuple(rows)


FIELD_RINGS = ["F4", "F8", "F9", "F16"]
FIELD_SHAPES = [(1, 4), (4, 1), (3, 5), (5, 3), (6, 6), (7, 4), (4, 9), (3, 0), (0, 0)]


@pytest.mark.parametrize("name", FIELD_RINGS)
def test_field_elimination_matches_scalar_oracle(name):
    ring = ring_make(name)
    rng = random.Random(name)
    for m, n in FIELD_SHAPES:
        for _ in range(6):
            a = rand_field_matrix(ring, rng, m, n)
            want_p, want_q, want_pivots, want_diag = oracle_local_diag_field(ring, a)
            d = local_diag(ring, a)
            assert (d.p_mat, d.q_mat, d.pivots, d.diag) == (
                want_p, want_q, want_pivots, want_diag), (name, a)
            want_kernel = [tuple(row[j] for row in want_q)
                           for j in range(len(want_pivots), len(want_q))]
            assert as_tuples(local_nullspace(ring, a)) == want_kernel, (name, a)


@pytest.mark.parametrize("name", FIELD_RINGS)
def test_field_inverse_matches_scalar_oracle(name):
    ring = ring_make(name)
    rng = random.Random(name + "inv")
    seen = {True: 0, False: 0}
    for n in range(1, 7):
        for _ in range(6):
            a = rand_field_matrix(ring, rng, n, n)
            p_mat, q_mat, pivots, diag = oracle_local_diag_field(ring, a)
            want = None
            if len(pivots) == n:
                dinv = tuple(tuple(ring.inv(diag[i]) if i == j else ring.zero
                                   for j in range(n)) for i in range(n))
                want = table_product(ring, table_product(ring, q_mat, dinv), p_mat)
            assert ring_invert(ring, a) == want, (name, a)
            seen[want is None] += 1
    assert seen[True] and seen[False]


@pytest.mark.parametrize("name", FIELD_RINGS)
def test_field_products_match_table_products(name):
    ring = ring_make(name)
    rng = random.Random(name + "mul")
    els = list(ring.elements())
    # every entry of the mul table, and every entry of the add table
    column, row = tuple((x,) for x in els), (tuple(els),)
    assert field_matmul(ring, np.array(column), np.array(row)).tolist() == [
        [ring.mul(x, y) for y in els] for x in els]
    pairs = tuple((x, y) for x in els for y in els)
    assert field_matmul(ring, np.array(pairs), np.array(((1,), (1,)))).tolist() == [
        [ring.add(x, y)] for x, y in pairs]
    for m, k, n in [(6, 6, 6), (8, 8, 8), (7, 5, 9), (15, 15, 15), (3, 4, 2), (6, 1, 3)]:
        a = rand_matrix(ring, rng, m, k)
        b = rand_matrix(ring, rng, k, n)
        want = table_product(ring, a, b)
        assert mat_mul(ring, a, b) == want
        assert field_matmul(ring, np.array(a), np.array(b)).tolist() == [list(r) for r in want]
    # a stack of matrices against one matrix on either side, as in the intertwiner
    stack = [rand_matrix(ring, rng, 4, 4) for _ in range(3)]
    x = rand_matrix(ring, rng, 4, 4)
    assert field_matmul(ring, np.array(stack), np.array(x)).tolist() == [
        [list(r) for r in table_product(ring, s, x)] for s in stack]
    assert field_matmul(ring, np.array(x), np.array(stack)).tolist() == [
        [list(r) for r in table_product(ring, x, s)] for s in stack]


@pytest.mark.parametrize("name", ["Z/3xZ/3", "Z/6xF4", "F4xZ/2xZ/3"])
def test_product_ring_mat_mul_matches_scalar_loop(name):
    # each factor takes its own path (scalar below 6 rows, int64 or field
    # tables from 6 up); the zipped entries must equal the tuple-entry loop
    ring = ring_make(name)
    rng = random.Random(name + "mul")
    for n in range(1, 16):
        a = rand_matrix(ring, rng, n, n)
        b = rand_matrix(ring, rng, n, n)
        assert mat_mul(ring, a, b) == table_product(ring, a, b), (name, n)
    for m, k, n in [(7, 3, 9), (2, 8, 1), (6, 1, 6)]:
        a = rand_matrix(ring, rng, m, k)
        b = rand_matrix(ring, rng, k, n)
        assert mat_mul(ring, a, b) == table_product(ring, a, b), (name, m, k, n)
    tail = np.shape(ring.one)
    for m in (1, 6):
        assert mat_mul(ring, np.zeros((m, 0) + tail, dtype=np.int64),
                       np.zeros((0, 0) + tail, dtype=np.int64)) == ((),) * m


@pytest.mark.parametrize("name", ["Z/4", "Z/6", "F4", "F9", "Z/3xZ/3", "Z/6xF4"])
def test_row_ops_match_the_ring_ops(name):
    # x * c and x - c * y entry by entry, with c one element and c one per row
    ring = ring_make(name)
    rng = random.Random(name + "ops")
    scale, sub_mul = row_ops(ring)
    x, y = rand_matrix(ring, rng, 4, 5), rand_matrix(ring, rng, 4, 5)
    cs = [ring.rand(rng) for _ in x]
    ax, ay = np.array(x), np.array(y)
    c_rows = np.array(cs)[:, None]
    assert tuples(scale(ax, cs[0])) == tuple(
        tuple(ring.mul(v, cs[0]) for v in row) for row in x)
    assert tuples(scale(ax, c_rows)) == tuple(
        tuple(ring.mul(v, c) for v in row) for row, c in zip(x, cs))
    assert tuples(sub_mul(ax.copy(), c_rows, ay)) == tuple(
        tuple(ring.sub(u, ring.mul(c, v)) for u, v in zip(rx, ry))
        for rx, ry, c in zip(x, y, cs))


@pytest.mark.parametrize("name", ["Z/4", "Z/6", "F4", "F9", "Z/3xZ/3", "Z/2xF4"])
def test_from_ints_matches_from_int(name):
    ring = ring_make(name)
    values = np.arange(-7, 8).reshape(3, 5)
    assert tuples(from_ints(ring, values, np.int64)) == tuple(
        tuple(ring.from_int(int(v)) for v in row) for row in values)


@pytest.mark.parametrize("name", ["Z/4", "F9", "Z/6", "Z/3xZ/3", "Z/2xF4"])
def test_positions_are_the_order_of_elements(name):
    ring = ring_make(name)
    elems = list(ring.elements())
    assert positions(ring, elems).tolist() == list(range(ring.size))
    assert positions(ring, np.array(elems, dtype=np.float32)).dtype == np.int64   # a tier stack
    # every_element is the inverse: the elements as one array, in this order
    assert every_element(ring).tolist() == np.array(elems).tolist()


@pytest.mark.parametrize("name", ["Z/4", "Z/5", "Z/1009", "Z/3xZ/3", "F4xZ/3", "Z"])
def test_ring_tables_are_for_field_tables_only(name):
    # outside GF(p^k), k > 1, row_ops computes on the elements: no |R| x |R| table
    with pytest.raises(RingError):
        ring_tables(ring_make(name))
    assert [t.shape for t in ring_tables(ring_make("F9"))] == [(9, 9), (9, 9)]


# --- the unit mask against the full pivot scan ---------------------------------

def mask_cases(ring, rng):
    """Random matrices with mixed valuations, zero rows, all zeros, and (off a
    field) no unit entry at all or units only in the last row."""
    p = ring.residue_char
    k = ring.nil_degree

    def entry(v):
        return ring.rand(rng) if v == 0 else (rng.randrange(ring.size) * p ** v) % ring.size

    for m, n in [(1, 1), (1, 4), (4, 1), (3, 5), (5, 3), (6, 6), (9, 7), (12, 12)]:
        yield rand_matrix(ring, rng, m, n)
        yield tuple(tuple(entry(rng.randrange(k)) for _ in range(n)) for _ in range(m))
        rows = [list(r) for r in rand_matrix(ring, rng, m, n)]
        for i in rng.sample(range(m), (m + 1) // 2):
            rows[i] = [ring.zero] * n
        yield matrix(rows)
        yield matrix([[ring.zero] * n] * m)
        if k > 1:
            deep = [[entry(rng.randrange(1, k)) for _ in range(n)] for _ in range(m)]
            yield matrix(deep)
            deep[-1][rng.randrange(n)] = ring.one
            yield matrix(deep)


# the last and first local rings of int8, the type the elimination holds A, P
# and Q in while every x - c y for x, c, y in [0, q) fits: Z/11 the last,
# Z/13 and F16 the first past it, in int64
ELIMINATION_TYPES = {"Z/11": np.int8, "Z/13": np.int64, "F16": np.int64}


@pytest.mark.parametrize("name", ["Z/3", "Z/4", "Z/8", "Z/9", "F4", "F9", *ELIMINATION_TYPES])
def test_unit_mask_elimination_matches_the_full_scan(name):
    ring = ring_make(name)
    rng = random.Random(name + "mask")
    for a in mask_cases(ring, rng):
        for with_p in (False, True):
            got = _eliminate(ring, a, with_p)
            assert got[1].dtype == ELIMINATION_TYPES.get(name, got[1].dtype), (name, a)
            want = eliminate_scan(ring, a, with_p)
            assert got[2:] == want[2:], (name, a)          # pivots and diagonal
            assert np.array_equal(got[1], want[1]), (name, a)
            assert (got[0] is None and want[0] is None
                    or np.array_equal(got[0], want[0])), (name, a)


# --- local_nullspace against the tuples it returned before it returned arrays ----

CERTIFY_SYSTEMS = [("A2", "Z/4"), ("B2", "Z/9"), ("A2", "F4"), ("A2", "Z/6"), ("G2", "Z/7"),
                   ("A3", "Z/4"), ("C3", "Z/3"), ("A2", "Z/3xZ/3")]


def certify_systems():
    """(ring, rows) of every system certify hands local_nullspace on seed 0
    of each of CERTIFY_SYSTEMS: its intertwiners' first systems and residuals."""
    from chevalley import decomposer

    seen, real = [], decomposer.local_nullspace

    def recording(ring, a):
        seen.append((ring, [np.array(row) for row in a]))
        return real(ring, a)

    decomposer.local_nullspace = recording
    try:
        for system, ring_name in CERTIFY_SYSTEMS:
            decomposer.certify(decomposer.forge_random(system, ring_name, 0))
    finally:
        decomposer.local_nullspace = real
    return seen


def nullspace_cases():
    """(ring, rows) for local_nullspace: the random and planted matrices of
    this module's kernel, oracle, field, unit-mask and past-int64 tests, then
    every system certify solves on forged specs."""
    for name in LOCAL_RINGS:
        ring, rng = ring_make(name), random.Random(2 * len(name))
        for m, n in [(2, 2), (2, 3), (3, 3)]:
            for _ in range(8):
                yield ring, rand_matrix(ring, rng, m, n)
    z4 = ring_make("Z/4")
    yield z4, matrix([[2, 0], [0, 2]])
    yield z4, matrix([[2, 1], [0, 2]])
    for name in ORACLE_RINGS:
        ring, rng = ring_make(name), random.Random(name)
        for m, n in ORACLE_SHAPES:
            for _ in range(6):
                yield ring, rand_valued_matrix(rng, ring.residue_char, ring.nil_degree, m, n)
    for name in FIELD_RINGS:
        ring, rng = ring_make(name), random.Random(name)
        for m, n in FIELD_SHAPES:
            for _ in range(6):
                yield ring, rand_field_matrix(ring, rng, m, n)
    for name in ["Z/3", "Z/4", "Z/8", "Z/9", "F4", "F9"]:
        ring = ring_make(name)
        yield from ((ring, a) for a in mask_cases(ring, random.Random(name + "mask")))
    big, rng = ring_make("Z/4294967311"), random.Random(7)
    for m, n in [(3, 5), (6, 6)]:
        a = rand_matrix(big, rng, m, n - 2)
        yield big, tuple(row + (sum(row) % big.n, (2 * row[0]) % big.n) for row in a)
    yield from certify_systems()


# sha256 of repr([(ring descriptor, generators as tuples of ints)]) over
# nullspace_cases(), recorded when local_nullspace returned a list of tuples
NULLSPACE_TUPLES_SHA256 = "077f5d8d639f6fece2b08ed7788bbcb98f7c7da6900a2e5dbeeede42beb99ea2"


def test_array_nullspace_matches_the_tuples_recorded_before():
    out = []
    for ring, a in nullspace_cases():
        gens = local_nullspace(ring, a)
        assert isinstance(gens, np.ndarray) and gens.ndim == 2, (ring, a)
        assert gens.shape[1] == (len(a[0]) if len(a) else 0), (ring, a)
        out.append((ring.descriptor, [tuple(map(int, g)) for g in gens]))
    assert (len(out), sum(len(gens) for _, gens in out)) == (972, 2910)
    assert hashlib.sha256(repr(out).encode()).hexdigest() == NULLSPACE_TUPLES_SHA256


# --- the unit pivot test against ring_invert ------------------------------------

def pivot_cases(ring, rng, n):
    """A random n x n matrix, then singular ones built from it: a zero row, a
    row that is a multiple of another, a row in the maximal ideal (off a
    field), p times it, and an invertible one: unit diagonal, random above."""
    a = rand_matrix(ring, rng, n, n)
    yield a
    p = ring.residue_char
    rows = [list(r) for r in a]
    i, j = rng.randrange(n), rng.randrange(n)
    yield matrix(rows[:i] + [[ring.zero] * n] + rows[i + 1:])
    if i != j:
        yield matrix(rows[:i] + [[ring.mul(ring.rand(rng), x) for x in rows[j]]] + rows[i + 1:])
    if ring.nil_degree > 1:
        yield matrix(rows[:i] + [[ring.mul(p, x) for x in rows[i]]] + rows[i + 1:])
        yield matrix([[ring.mul(p, x) for x in row] for row in rows])
    unit = [[ring.rand(rng) if c > r else ring.one if c == r else ring.zero
             for c in range(n)] for r in range(n)]
    yield matrix(unit)
    if ring.nil_degree > 1:   # n unit-free pivots: diag(1, ..., 1, p) times it
        yield matrix(unit[:-1] + [[ring.mul(p, x) for x in unit[-1]]])


@pytest.mark.parametrize("name", ["Z/4", "Z/8", "Z/9", "F4", "F9"])
def test_unit_pivot_test_agrees_with_ring_invert(name):
    ring = ring_make(name)
    rng = random.Random(name + "pivots")
    seen = {True: 0, False: 0}
    for n in range(1, 8):
        for _ in range(10):
            for a in pivot_cases(ring, rng, n):
                want = ring_invert(ring, a) is not None
                assert local_invertible(ring, a) == want, (name, a)
                assert local_invertible(ring, np.array(a)) == want, (name, a)
                assert ring_invertible(ring, a) == want, (name, a)
                seen[want] += 1
    assert min(seen.values()) > 50, seen


@pytest.mark.parametrize("name", SPLIT_RINGS)
def test_unit_pivot_test_per_factor_agrees_with_ring_invert(name):
    ring = ring_make(name)
    rng = random.Random(name + "pivots")
    seen = {True: 0, False: 0}
    for n in range(1, 5):
        for _ in range(20):
            a = rand_matrix(ring, rng, n, n)
            for b in (a, mat_mul(ring, a, a), identity(ring, n)):
                want = ring_invert(ring, b) is not None
                assert ring_invertible(ring, b) == want, (name, b)
                seen[want] += 1
    assert min(seen.values()) > 10, seen
