"""Structure constant and adjoint matrix tests.

Independent checks: chain lengths give |N| = p + 1 without going through the
recursion, the abstract Jacobi identity is evaluated from the table alone,
the coroot coordinates are validated against the pairing identity they must
satisfy, and the matrix representation property ties the table to actual
commutators of the basis matrices.
"""

from __future__ import annotations

import itertools
import random

from chevalley.group import unipotent
from chevalley.liealg import build_algebra
from chevalley.linalg import identity, mat_mul, matrix
from chevalley.rings import ring_make
from chevalley.roots import build_root_system
from oracles import a_series_model, bracket_dict, combination, det_bareiss, mat_sub

ZZ = ring_make("Z")

SMALL = [("A", 2), ("B", 2), ("G", 2), ("A", 3)]
MEDIUM = SMALL + [("B", 3), ("C", 3)]


def add(r, s):
    return tuple(a + b for a, b in zip(r, s))


def neg(r):
    return tuple(-a for a in r)


def test_dimensions():
    expected = {("A", 2): 8, ("B", 2): 10, ("G", 2): 14, ("A", 3): 15,
                ("B", 3): 21, ("C", 3): 21, ("D", 4): 28, ("F", 4): 52}
    for (kind, rank), dim in expected.items():
        assert build_algebra(kind, rank).dim == dim


def test_frozen_constants_a2_b2_g2():
    a2 = build_algebra("A", 2)
    assert a2.n_const((1, 0), (0, 1)) == 1
    assert a2.n_const((0, 1), (1, 0)) == -1
    b2 = build_algebra("B", 2)
    assert b2.n_const((1, 0), (0, 1)) == 1
    assert b2.n_const((0, 1), (1, 1)) == 2
    g2 = build_algebra("G", 2)
    assert g2.n_const((1, 0), (0, 1)) == 1
    assert g2.n_const((1, 0), (1, 1)) == 2
    assert g2.n_const((1, 0), (2, 1)) == 3
    assert g2.n_const((0, 1), (3, 1)) == 1


def test_chain_rule_exhaustive():
    for kind, rank in MEDIUM:
        alg = build_algebra(kind, rank)
        sysm = alg.system
        for r, s in itertools.product(sysm.roots, repeat=2):
            if sysm.is_root(add(r, s)):
                p = alg.constants.chain_down(r, s)
                assert abs(alg.n_const(r, s)) == p + 1, (kind, rank, r, s)


def test_symmetry_rules_exhaustive():
    for kind, rank in SMALL:
        alg = build_algebra(kind, rank)
        sysm = alg.system
        for r, s in itertools.product(sysm.roots, repeat=2):
            if sysm.is_root(add(r, s)):
                assert alg.n_const(s, r) == -alg.n_const(r, s)
                assert alg.n_const(neg(r), neg(s)) == -alg.n_const(r, s)


def jacobi_defect(alg, a, b, c):
    out = {}
    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
        inner = alg.bracket_basis(y, z)
        term = bracket_dict(alg, {x: 1}, inner)
        for k, v in term.items():
            out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def test_jacobi_exhaustive_small():
    for kind, rank in SMALL:
        alg = build_algebra(kind, rank)
        keys = list(alg.system.roots) + list(range(rank))
        for a, b, c in itertools.product(keys, repeat=3):
            assert not jacobi_defect(alg, a, b, c), (kind, rank, a, b, c)


def test_jacobi_sampled_d4():
    alg = build_algebra("D", 4)
    keys = list(alg.system.roots) + list(range(4))
    rng = random.Random(99)
    for _ in range(4000):
        a, b, c = (rng.choice(keys) for _ in range(3))
        assert not jacobi_defect(alg, a, b, c)


def mat_bracket(x, y):
    return mat_sub(ZZ, mat_mul(ZZ, x, y), mat_mul(ZZ, y, x))


def basis_matrix(alg, key):
    return alg.x_mats[key] if isinstance(key, tuple) else alg.h_mats[key]


def test_matrices_represent_the_bracket():
    for kind, rank in [("A", 2), ("B", 2), ("G", 2)]:
        alg = build_algebra(kind, rank)
        keys = list(alg.system.roots) + list(range(rank))
        for a, b in itertools.product(keys, repeat=2):
            lhs = mat_bracket(basis_matrix(alg, a), basis_matrix(alg, b))
            rhs = combination(alg, ZZ, alg.bracket_basis(a, b))
            assert lhs == rhs, (kind, rank, a, b)


def test_matrices_represent_the_bracket_sampled():
    rng = random.Random(5)
    for kind, rank in [("A", 3), ("C", 3)]:
        alg = build_algebra(kind, rank)
        keys = list(alg.system.roots) + list(range(rank))
        for _ in range(300):
            a, b = rng.choice(keys), rng.choice(keys)
            lhs = mat_bracket(basis_matrix(alg, a), basis_matrix(alg, b))
            rhs = combination(alg, ZZ, alg.bracket_basis(a, b))
            assert lhs == rhs


def test_coroot_pairing_identity():
    # alpha-vee = sum c_j alpha_j-vee forces the pairing identity below
    for kind, rank in MEDIUM + [("D", 4)]:
        sysm = build_root_system(kind, rank)
        alg = build_algebra(kind, rank)
        for alpha in sysm.roots:
            c = alg.coroots[alpha]
            for beta in sysm.roots:
                expect = sysm.pairing(beta, alpha)
                got = sum(c[j] * sysm.pairing(beta, sysm.simple(j)) for j in range(rank))
                assert got == expect, (kind, rank, alpha, beta)


def test_coroot_frozen_values():
    a2 = build_algebra("A", 2)
    assert a2.coroots[(1, 1)] == (1, 1)
    b2 = build_algebra("B", 2)
    assert b2.coroots[(1, 2)] == (1, 1)
    assert b2.coroots[(0, 1)] == (0, 1)
    g2 = build_algebra("G", 2)
    assert g2.coroots[(3, 2)] == (1, 2)


def test_nilpotency_profile():
    for kind, rank in [("A", 2), ("B", 2), ("A", 3)]:
        alg = build_algebra(kind, rank)
        assert {alg.nilpotency(r) for r in alg.system.roots} == {3}
    g2 = build_algebra("G", 2)
    for root in g2.system.roots:
        short = g2.system.norm2(root) == min(g2.system.norm2(r) for r in g2.system.roots)
        assert g2.nilpotency(root) == (4 if short else 3)


def test_half_square_of_a2_root_is_single_entry():
    alg = build_algebra("A", 2)
    alpha = (1, 0)
    dp2 = alg.divided_powers(alpha)[1]
    entries = {(i, j): v for i, row in enumerate(dp2) for j, v in enumerate(row) if v}
    row = alg.system.root_index(alpha)
    col = alg.system.root_index((-1, 0))
    assert entries == {(row, col): -1}


def test_g2_short_cube_is_integral_and_nonzero():
    alg = build_algebra("G", 2)
    short = (1, 0)
    dps = alg.divided_powers(short)
    assert len(dps) == 3
    assert any(v for row in dps[2] for v in row)


def test_unipotent_z_is_unimodular():
    for kind, rank in [("A", 2), ("B", 2), ("G", 2)]:
        alg = build_algebra(kind, rank)
        for root in alg.system.roots:
            u = unipotent(alg, ZZ, root, 1).mat
            assert det_bareiss(u) == 1


def test_witness_table_availability():
    # simply laced systems admit the squared-product recovery at every root
    for kind, rank in [("A", 3), ("D", 4)]:
        alg = build_algebra(kind, rank)
        for root in alg.system.roots:
            assert alg.half_square_witness(root) is not None, (kind, rank, root)
    # rings with 1/2 are required throughout the doubly laced systems
    b2 = build_algebra("B", 2)
    assert all(b2.half_square_witness(r) is None for r in b2.system.roots)
    # in G2 exactly the long roots admit it
    g2 = build_algebra("G", 2)
    for root in g2.system.roots:
        long = g2.system.norm2(root) == max(g2.system.norm2(r) for r in g2.system.roots)
        assert (g2.half_square_witness(root) is not None) == long


def test_witness_identity_replays_over_small_rings():
    alg = build_algebra("A", 3)
    ring = ring_make("Z/4")
    for root in list(alg.system.roots)[:6]:
        gamma, beta, c = alg.half_square_witness(root)
        e = identity(ring, alg.dim)
        ug = mat_sub(ring, matrix([[ring.from_int(v) for v in row]
                                   for row in unipotent(alg, ZZ, gamma, 1).mat]), e)
        ub = mat_sub(ring, matrix([[ring.from_int(v) for v in row]
                                   for row in unipotent(alg, ZZ, beta, 1).mat]), e)
        prod = mat_mul(ring, ug, ub)
        t = mat_mul(ring, prod, prod)
        dp2 = matrix([[ring.from_int(v) for v in row]
                      for row in alg.divided_powers(root)[1]])
        scaled = matrix([[ring.mul(ring.from_int(c), v) for v in row] for row in t])
        assert scaled == dp2


def test_a_series_model_builds():
    # construction itself verifies every bracket against the table
    for rank in range(2, 6):
        model = a_series_model(rank)
        assert model.places[tuple(1 if i == 0 else 0 for i in range(rank))] == (0, 1)
    m2 = a_series_model(2)
    assert m2.places[(1, 1)] == (0, 2)
    assert m2.places[(-1, -1)] == (2, 0)
