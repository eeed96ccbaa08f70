"""Group element tests: generator relations, torus action, words, reduction mod 2.

The two diagonal matrices frozen at the top anchor the basis order and sign
conventions; everything else is law-checking across several rings.  The
commutator formula is checked on the tuple matrices of ``unipotent`` elements
by ``commutator_identity_holds`` here, the oracle for
``group.commutator_pattern_holds`` on a root table (whose stack rows are
checked against ring arithmetic), and the closed-form chain constants against
the commutator peeled over Z.
Inverses and commutators of elements come from ``tests/oracles.py``.
"""

from __future__ import annotations

import functools
import itertools
import random

import numpy as np
import pytest

from chevalley import cli, group
from chevalley.autos import graph_data
from chevalley.decomposer import _weyl_elements, forge_random, precheck
from chevalley.group import (
    _torus_diagonal,
    _x_pattern,
    chain_coefficients,
    chain_pairs,
    commutator_pattern_holds,
    commutator_rows,
    from_word,
    group_for,
    root_stack,
    stack_rows,
    torus_chi,
    unipotent,
    weyl,
    word_stack,
    x_stack,
)
from chevalley.liealg import build_algebra
from chevalley.linalg import diagonal_sandwich, ring_tables, sandwich, stack_dtype
from chevalley.rings import ring_make
from chevalley.roots import DiagramSymmetry, diagram_symmetries
from oracles import (commutator, conjugate, dense_unipotent, det_bareiss, element_mul, h_element,
                     identity, inverse, is_identity, mat_mul, token_matrices, torus_alpha_loop,
                     tuples, word_fold)

ZZ = ring_make("Z")

# values of h_alpha1(-1) pinned for the standard basis order
ANCHOR_DIAGONALS = {
    "A2": (1, 1, -1, -1, -1, -1, 1, 1),
    "B2": (1, 1, -1, -1, -1, -1, 1, 1, 1, 1),
}


def diag_of(mat):
    return tuple(mat[i][i] for i in range(len(mat)))


def test_torus_anchor_diagonals():
    for name, expected in ANCHOR_DIAGONALS.items():
        sysm, alg = group_for(name)
        h = h_element(alg, ZZ, sysm.simple(0), -1)
        assert diag_of(h.mat) == expected
        for i, row in enumerate(h.mat):
            for j, v in enumerate(row):
                if i != j:
                    assert v == 0


def test_one_parameter_law():
    for name in ("A2", "B2", "G2"):
        sysm, alg = group_for(name)
        for ring_name in ("Z/4", "Z/5", "F4"):
            ring = ring_make(ring_name)
            for root in sysm.roots:
                for t, u in itertools.product(ring.elements(), repeat=2):
                    lhs = element_mul(unipotent(alg, ring, root, t), unipotent(alg, ring, root, u))
                    rhs = unipotent(alg, ring, root, ring.add(t, u))
                    assert lhs == rhs


def test_unipotent_inverse_matches():
    sysm, alg = group_for("A3")
    ring = ring_make("Z/6")
    for root in sysm.roots[:4]:
        x = unipotent(alg, ring, root, 5)
        assert is_identity(ring, element_mul(x, inverse(x)).mat)
        assert inverse(x) == unipotent(alg, ring, root, ring.neg(5))


def test_torus_conjugation_formula():
    # h(chi) x_beta(xi) h(chi)^-1 = x_beta(chi(beta) xi), exactly
    for name in ("A2", "B2", "G2"):
        sysm, alg = group_for(name)
        ring = ring_make("Z/7")
        units = [u for u in ring.elements() if ring.is_unit(u)]
        rng = random.Random(3)
        for _ in range(40):
            chi = tuple(rng.choice(units) for _ in range(sysm.rank))
            h = torus_chi(alg, ring, chi)
            assert h.word == (("chi", chi, None),)
            beta = rng.choice(sysm.roots)
            xi = ring.rand(rng)
            lhs = conjugate(h, unipotent(alg, ring, beta, xi))
            val = ring.one
            for j, c in enumerate(beta):
                base = chi[j] if c >= 0 else ring.inv(chi[j])
                val = ring.mul(val, ring.power(base, abs(c)))
            assert lhs == unipotent(alg, ring, beta, ring.mul(val, xi))


def test_torus_alpha_is_a_character():
    sysm, alg = group_for("B2")
    ring = ring_make("Z/9")
    for root in sysm.roots:
        for u in (2, 4):
            h = h_element(alg, ring, root, u)
            chi = tuple(ring.power(u, sysm.pairing(sysm.simple(k), root))
                        if sysm.pairing(sysm.simple(k), root) >= 0
                        else ring.power(ring.inv(u), -sysm.pairing(sysm.simple(k), root))
                        for k in range(sysm.rank))
            assert h == torus_chi(alg, ring, chi)


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
@pytest.mark.parametrize("ring_name", ["Z", "Z/4", "Z/5", "F4", "F9", "Z/3xZ/3"])
def test_torus_alpha_matches_the_diagonal_loop(name, ring_name):
    # == compares only mat, so each field is compared on its own
    sysm, alg = group_for(name)
    ring = ring_make(ring_name)
    for root in sysm.roots:
        for u in (1, -1) if ring_name == "Z" else ring.units():
            h = h_element(alg, ring, root, u)
            assert (tuples(h.mat), tuples(h.inv_mat)) == torus_alpha_loop(alg, ring, root, u), \
                (root, u)
            assert h.word == (("h", root, u),)


def test_h_alpha_equals_weyl_quotient():
    # h_a(u) = w_a(u) w_a(1)^-1 holds in the adjoint matrices
    for name in ("A2", "B2", "G2"):
        sysm, alg = group_for(name)
        for ring_name in ("Z/5", "F4"):
            ring = ring_make(ring_name)
            units = [u for u in ring.elements() if ring.is_unit(u)]
            for root in sysm.roots:
                for u in units:
                    lhs = h_element(alg, ring, root, u)
                    rhs = element_mul(weyl(alg, ring, root, u), inverse(weyl(alg, ring, root, ring.one)))
                    assert lhs == rhs


def test_weyl_order_and_square():
    for name in ("A2", "B2"):
        sysm, alg = group_for(name)
        ring = ring_make("Z/7")
        for root in sysm.roots:
            w = weyl(alg, ring, root, ring.one)
            w2 = element_mul(w, w)
            assert w2 == h_element(alg, ring, root, ring.from_int(-1))
            assert is_identity(ring, element_mul(w2, w2).mat)


def test_weyl_conjugation_sign_is_parameter_free():
    for name in ("A2", "B2", "G2"):
        sysm, alg = group_for(name)
        ring = ring_make("Z/7")
        units = [u for u in ring.elements() if ring.is_unit(u)]
        for alpha in sysm.roots:
            for beta in sysm.roots:
                if beta in (alpha, tuple(-c for c in alpha)):
                    continue
                target = sysm.reflect(beta, alpha)
                pair = sysm.pairing(beta, alpha)
                # read the sign once at t = 1
                w = weyl(alg, ring, alpha, ring.one)
                conj = conjugate(w, unipotent(alg, ring, beta, ring.one))
                eta = None
                for cand in (1, -1):
                    if conj == unipotent(alg, ring, target, ring.from_int(cand)):
                        eta = cand
                        break
                assert eta is not None, (name, alpha, beta)
                for t in units[:3]:
                    for u in (1, 3):
                        w = weyl(alg, ring, alpha, t)
                        got = conjugate(w, unipotent(alg, ring, beta, ring.from_int(u)))
                        scale = ring.power(t, -pair) if pair <= 0 \
                            else ring.power(ring.inv(t), pair)
                        expect = unipotent(alg, ring, target,
                                           ring.mul(ring.from_int(eta * u), scale))
                        assert got == expect, (name, alpha, beta, t, u)


def test_chain_pairs_frozen():
    a2 = group_for("A2")[0]
    assert chain_pairs(a2, (1, 0), (0, 1)) == ((1, 1),)
    b2 = group_for("B2")[0]
    assert chain_pairs(b2, (1, 0), (0, 1)) == ((1, 1), (1, 2))
    g2 = group_for("G2")[0]
    assert chain_pairs(g2, (0, 1), (1, 0)) == ((1, 1), (1, 2), (1, 3), (2, 3))


def test_chain_coefficients_frozen_values():
    _, a2 = group_for("A2")
    assert chain_coefficients(a2, (1, 0), (0, 1)) == {(1, 1): 1}
    _, b2 = group_for("B2")
    cb = chain_coefficients(b2, (1, 0), (0, 1))
    assert set(cb) == {(1, 1), (1, 2)}
    assert abs(cb[(1, 1)]) == 1 and abs(cb[(1, 2)]) == 1
    _, g2 = group_for("G2")
    cg = chain_coefficients(g2, (0, 1), (1, 0))
    assert set(cg) == {(1, 1), (1, 2), (1, 3), (2, 3)}
    assert abs(cg[(1, 1)]) == 1 and abs(cg[(1, 3)]) == 1
    assert {abs(cg[(1, 2)]), abs(cg[(2, 3)])} <= {1, 2, 3}


def unipotent_memo(alg, ring):
    """(root, t) -> the matrix of unipotent(alg, ring, root, t), each built
    once per memo."""
    return functools.lru_cache(maxsize=None)(lambda root, t: unipotent(alg, ring, root, t).mat)


def commutator_identity_holds(alg, ring, r, s, t, u, coeffs, x):
    """Check x_r(t) x_s(u) x_r(-t) x_s(-u) against the chain product on tuple
    matrices, reading every x_root from the unipotent_memo x and taking the
    factors in chain_pairs order with their parameters in ring arithmetic."""
    lhs = x(r, t)
    for key in ((s, u), (r, ring.neg(t)), (s, ring.neg(u))):
        lhs = mat_mul(ring, lhs, x(*key))
    rhs = identity(ring, alg.dim)
    for i, j in chain_pairs(alg.system, r, s):
        gamma = tuple(i * a + j * b for a, b in zip(r, s))
        param = ring.mul(ring.from_int(coeffs[(i, j)]),
                         ring.mul(ring.power(t, i), ring.power(u, j)))
        rhs = mat_mul(ring, rhs, x(gamma, param))
    return lhs == rhs


def test_commutator_identity_across_rings():
    for name in ("A2", "B2", "G2"):
        sysm, alg = group_for(name)
        for ring_name in ("Z/4", "Z/5", "Z/7", "F4"):
            ring = ring_make(ring_name)
            x = unipotent_memo(alg, ring)
            rng = random.Random(hash((name, ring_name)) & 0xFFFF)
            for r, s in itertools.permutations(sysm.roots, 2):
                if s == tuple(-c for c in r):
                    continue
                coeffs = chain_coefficients(alg, r, s)
                for _ in range(3):
                    t, u = ring.rand(rng), ring.rand(rng)
                    assert commutator_identity_holds(alg, ring, r, s, t, u, coeffs, x)


def test_root_table_holds_every_unipotent():
    sysm, alg = group_for("B2")
    for ring_name in ("Z/4", "F4", "Z/3xZ/3"):
        ring = ring_make(ring_name)
        stack, rows = root_stack(alg, ring), stack_rows(alg, ring)
        assert len(stack) == len(rows) == len(sysm.roots) * ring.size
        for root in sysm.roots:
            for t in ring.elements():
                assert np.array_equal(stack[rows[(root, t)]], unipotent(alg, ring, root, t).mat)


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
@pytest.mark.parametrize("ring_name", ["Z/4", "Z/5", "F4", "Z/3xZ/3"])
def test_commutator_pattern_agrees_with_element_oracle(name, ring_name):
    """The batched check on every (t, u); the element oracle on a seeded
    sample of 16 of them per (r, s), which is all of them over Z/4 and F4."""
    sysm, alg = group_for(name)
    ring = ring_make(ring_name)
    stack, x = root_stack(alg, ring), unipotent_memo(alg, ring)
    params = list(itertools.product(ring.elements(), repeat=2))
    rng = random.Random(f"{name}/{ring_name}")
    for r, s in itertools.permutations(sysm.roots, 2):
        if r == sysm.negate(s):
            continue
        coeffs = chain_coefficients(alg, r, s)
        assert commutator_pattern_holds(alg, ring, stack, [(r, s, coeffs)], params).all(), (r, s)
        for t, u in rng.sample(params, min(16, len(params))):
            assert commutator_identity_holds(alg, ring, r, s, t, u, coeffs, x), (r, s, t, u)


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
@pytest.mark.parametrize("ring_name", ["Z/4", "F4", "F9", "Z/6", "Z/3xZ/3"])
def test_commutator_rows_match_ring_arithmetic(name, ring_name):
    ring = ring_make(ring_name)
    assert_commutator_rows_match(name, ring, list(itertools.product(ring.elements(), repeat=2)))


def test_commutator_rows_match_ring_arithmetic_at_one_over_z_1009():
    # the precheck's call: one (t, u), over a ring too large for |R| x |R| tables
    ring = ring_make("Z/1009")
    assert_commutator_rows_match("A2", ring, [(ring.one, ring.one)])


def assert_commutator_rows_match(name, ring, params):
    # the sides run over params and then the negations they lack, in order of
    # first need; opposite points every (t, u) at its (-t, -u)
    sysm, alg = group_for(name)
    rows = stack_rows(alg, ring)
    pairs = [(r, s, chain_coefficients(alg, r, s))
             for r, s in itertools.permutations(sysm.roots, 2) if r != sysm.negate(s)]
    sides, opposite, factors, lengths = commutator_rows(alg, ring, pairs, params)
    minus = [(ring.neg(t), ring.neg(u)) for t, u in params]
    extended = list(params) + [tu for tu in dict.fromkeys(minus) if tu not in params]
    assert [extended[k] for k in opposite] == minus
    chains = np.split(factors, np.cumsum(lengths)[:-1])
    assert len(sides) == len(chains) == len(pairs)
    for (r, s, coeffs), side, chain in zip(pairs, sides, chains):
        assert side.tolist() == [[rows[(r, t)] for t, _ in extended],
                                 [rows[(s, u)] for _, u in extended]]
        want = [[rows[(tuple(i * a + j * b for a, b in zip(r, s)),
                       ring.mul(ring.from_int(c), ring.mul(ring.power(t, i), ring.power(u, j))))]
                 for t, u in params] for (i, j), c in coeffs.items()]
        assert [f.tolist() for f in chain] == (want or [[rows[(r, ring.zero)]] * len(params)])


@pytest.mark.parametrize("caller", ["suite", "precheck"])
def test_commutator_left_side_takes_two_products(monkeypatch, caller):
    # [x_r(t), x_s(u)] = P(t, u) P(-t, -u), P(t, u) = x_r(t) x_s(u).  Every A2
    # chain has at most one factor, so the left sides are all group.stack_mul
    # sees, batched over (pair, parameter): over Z/4 x Z/4, where every
    # negation is a parameter, two products per root r; at the precheck's
    # (1, 1), P at (-1, -1) too.  Both read float32 tier stacks
    sysm, alg = group_for("A2")
    assert {len(chain_coefficients(alg, r, s)) for r, s in itertools.permutations(sysm.roots, 2)
            if r != sysm.negate(s)} == {0, 1}
    spec = forge_random("A2", "Z/4", 0)
    seen, clean = [], group.stack_mul

    def spy(r, a, b):
        seen.append((np.broadcast_shapes(a.shape[:-2], b.shape[:-2]), a.dtype, b.dtype))
        return clean(r, a, b)
    monkeypatch.setattr(group, "stack_mul", spy)
    if caller == "suite":
        assert cli.SUITES["commutator"]("A2", "Z/4", 0)[1] == []
        shapes = [(4, 16), (4, 16)] * len(sysm.roots)   # 4 pairs a root, 16 parameters
    else:
        precheck(spec, alg)
        shapes = [(24, 2), (24, 1)]
    assert seen == [(shape, np.dtype(np.float32), np.dtype(np.float32)) for shape in shapes]


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
@pytest.mark.parametrize("ring_name", ["Z/4", "Z/5", "F4", "Z/3xZ/3"])
def test_perturbed_chain_is_rejected_at_the_same_parameters(name, ring_name):
    sysm, alg = group_for(name)
    ring = ring_make(ring_name)
    stack, x = root_stack(alg, ring), unipotent_memo(alg, ring)
    params = list(itertools.product(ring.elements(), repeat=2))
    r, s = sysm.simple(0), sysm.simple(1)
    for key in chain_coefficients(alg, r, s):
        coeffs = dict(chain_coefficients(alg, r, s))
        coeffs[key] += 1
        holds = commutator_pattern_holds(alg, ring, stack, [(r, s, coeffs)], params)
        got = {tu for tu, ok in zip(params, holds) if not ok}
        want = {(t, u) for t, u in params
                if not commutator_identity_holds(alg, ring, r, s, t, u, coeffs, x)}
        assert got == want and got, (key, sorted(got))


@pytest.mark.parametrize("ring_name", ["Z/4", "F4", "F9", "Z/6", "Z/3xZ/3"])
def test_diagonal_sandwich_is_the_torus_conjugation(ring_name):
    ring = ring_make(ring_name)
    for name in ("A2", "B2"):
        sysm, alg = group_for(name)
        stack = root_stack(alg, ring)
        for alpha in sysm.roots:
            for u in ring.units():
                h = h_element(alg, ring, alpha, u)
                for m in (tuples(h.mat), tuples(h.inv_mat)):
                    assert all(v == ring.zero for i, row in enumerate(m)
                               for j, v in enumerate(row) if i != j), (alpha, u)
                left, right = (np.array(diag_of(m), dtype=stack.dtype) for m in (h.mat, h.inv_mat))
                got = diagonal_sandwich(ring, left, stack, right)
                want = sandwich(ring, h.mat, stack, h.inv_mat)
                assert got.dtype == want.dtype and np.array_equal(got, want), (alpha, u)


@pytest.mark.parametrize("ring_name", ["Z/4", "F9", "Z/3xZ/3"])
def test_diagonal_sandwich_of_stacked_diagonals_is_one_sandwich_per_pair(ring_name):
    # verify eq1 hands every unit's h_alpha(u) over at once, in the stack's tier
    ring = ring_make(ring_name)
    sysm, alg = group_for("B2")
    stack = root_stack(alg, ring)
    stack = stack.astype(stack_dtype(ring, alg.dim, carrier=True))
    alpha = sysm.roots[1]
    mats = [h_element(alg, ring, alpha, u) for u in ring.units()]
    left, right = (np.array([diag_of(getattr(h, side)) for h in mats], dtype=stack.dtype)
                   for side in ("mat", "inv_mat"))
    got = diagonal_sandwich(ring, left, stack, right)
    assert got.shape == (len(mats),) + stack.shape and got.dtype == stack.dtype
    for h, conj in zip(mats, got):
        assert np.array_equal(conj, sandwich(ring, h.mat, stack, h.inv_mat))


def test_torus_diagonals_are_memoised_per_token_and_bounded():
    sysm, alg = group_for("G2")
    ring = ring_make("Z/7")
    _torus_diagonal.cache_clear()
    token = ("chi", (3, 5), None)
    first = from_word(alg, ring, (token, ("h", sysm.roots[0], 3)))
    again = from_word(alg, ring, (("x", sysm.roots[1], 2), token))
    info = _torus_diagonal.cache_info()
    assert (info.misses, info.hits, info.maxsize) == (2, 1, 1 << 12)
    for elem in (first, again):
        assert (tuples(elem.mat), tuples(elem.inv_mat)) == word_fold(alg, ring, elem.word)


def test_commuting_roots_give_trivial_commutator():
    sysm, alg = group_for("A3")
    ring = ring_make("Z/6")
    r, s = (1, 0, 0), (0, 0, 1)
    assert chain_pairs(sysm, r, s) == ()
    c = commutator(unipotent(alg, ring, r, 4), unipotent(alg, ring, s, 5))
    assert is_identity(ring, c.mat)


def test_group_determinants_over_z():
    sysm, alg = group_for("B2")
    for root in sysm.roots:
        assert det_bareiss(unipotent(alg, ZZ, root, 3).mat) == 1
        assert det_bareiss(weyl(alg, ZZ, root, -1).mat) == 1
        assert det_bareiss(h_element(alg, ZZ, root, -1).mat) == 1


def test_from_word_and_inverse_words():
    sysm, alg = group_for("B2")
    ring = ring_make("Z/5")
    word = (("x", (1, 0), 2), ("w", (0, 1), 3), ("h", (1, 1), 4), ("x", (0, 1), 1))
    g = from_word(alg, ring, word)
    assert g.word == word
    assert is_identity(ring, element_mul(g, inverse(g)).mat)
    assert from_word(alg, ring, inverse(g).word) == inverse(g)


FOLD_CASES = [("A2", "Z/4"), ("B2", "F4"), ("G2", "Z/3xZ/3"), ("A3", "Z/4"), ("D4", "Z/2"),
              ("G2", "Z"), ("A2", "Z/5"), ("B2", "F9"), ("A3", "Z/6"), ("B2", "Z/3xZ/3")]


@pytest.mark.parametrize("name,ring_name", FOLD_CASES)
def test_from_word_is_the_fold_of_its_tokens(name, ring_name):
    """from_word multiplies token arrays as a tree; the oracle folds tuple
    products of the oracle token matrices, the inverses in reverse order."""
    sysm, alg = group_for(name)
    ring = ring_make(ring_name)
    rng = random.Random(name + ring_name)
    units = ring.units() if ring.size else [1, -1]
    for length in [0, 1, 2] + [rng.randrange(3, 9) for _ in range(6)]:
        word = []
        for _ in range(length):
            kind = rng.choice(("x", "w", "h", "chi"))
            if kind == "chi":
                word.append((kind, tuple(rng.choice(units) for _ in range(sysm.rank)), None))
            else:
                t = ring.rand(rng) if kind == "x" else rng.choice(units)
                word.append((kind, rng.choice(sysm.roots), t))
        g = from_word(alg, ring, tuple(word))
        assert (tuples(g.mat), tuples(g.inv_mat)) == word_fold(alg, ring, word), word
        assert g.word == tuple(word)


def test_from_word_rejects_an_unknown_token_kind():
    sysm, alg = group_for("A2")
    ring = ring_make("Z/4")
    with pytest.raises(ValueError, match="unknown token kind 'y'"):
        from_word(alg, ring, (("x", sysm.roots[0], 1), ("y", sysm.roots[0], 1)))


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
@pytest.mark.parametrize("ring_name", ["Z/4", "F4", "Z/3xZ/3", "Z"])
def test_group_elements_are_their_oracle_tokens(name, ring_name):
    # unipotent, weyl and torus_chi against the oracle token matrices, and
    # one word_stack of w tokens against weyl
    sysm, alg = group_for(name)
    ring = ring_make(ring_name)
    units = ring.units() if ring.size else [1, -1]
    for root in sysm.roots:
        for t in units[:3]:
            for kind, build in (("x", unipotent), ("w", weyl)):
                g = build(alg, ring, root, t)
                want = token_matrices(alg, ring, (kind, root, t))
                assert (tuples(g.mat), tuples(g.inv_mat)) == want
                assert g.word == ((kind, root, t),)
    chi = torus_chi(alg, ring, tuple(units[-1] for _ in range(sysm.rank)))
    assert (tuples(chi.mat), tuples(chi.inv_mat)) == token_matrices(alg, ring, chi.word[0])
    for t in units[:2]:
        mats, invs = word_stack(alg, ring, [(("w", root, t),) for root in sysm.roots])
        for root, m, i in zip(sysm.roots, mats, invs):
            w = weyl(alg, ring, root, t)
            assert np.array_equal(m, w.mat) and np.array_equal(i, w.inv_mat), (root, t)


def test_push_element_commutes_with_matrices():
    """Reducing a word's parameters mod 2 reduces its matrices mod 2."""
    sysm, alg = group_for("A2")
    src, dst = ring_make("Z/4"), ring_make("Z/2")
    tokens = []
    for root in sysm.roots:
        for t in src.elements():
            tokens.append(("x", root, t))
    for u in (1, 3):
        for root in sysm.roots:
            tokens.append(("w", root, u))
            tokens.append(("h", root, u))
    rng = random.Random(17)
    words = [(a,) for a in tokens]
    words += [(rng.choice(tokens), rng.choice(tokens)) for _ in range(150)]
    words += [tuple(rng.choice(tokens) for _ in range(3)) for _ in range(150)]
    for word in words:
        g = from_word(alg, src, word)
        reduced = from_word(alg, dst, tuple((k, r, dst.from_int(t)) for k, r, t in word))
        assert np.array_equal(reduced.mat, g.mat % 2), word
        assert np.array_equal(reduced.inv_mat, g.inv_mat % 2), word


# ---------------------------------------------------------------------------
# kernels against dense scalar oracles


SEVEN_SYSTEMS = ["A2", "B2", "G2", "A3", "B3", "C3", "D4"]


@pytest.mark.parametrize("name", SEVEN_SYSTEMS)
def test_divided_powers_have_disjoint_supports_off_the_diagonal(name):
    # the premise of the x_stack gather: D_k moves weight mu to mu + k root,
    # so each entry of x_root(t) is one term c t^k with k <= 3
    sysm, alg = group_for(name)
    for root in sysm.roots:
        support = np.array([np.array(dp) != 0 for dp in alg.divided_powers(root)])
        assert len(support) <= 3, root
        assert (support.sum(axis=0) <= 1).all(), root
        assert not support[:, np.arange(alg.dim), np.arange(alg.dim)].any(), root
    cell, constants = _x_pattern(alg)
    assert cell.dtype == np.int8 and cell.shape == (len(sysm.roots), alg.dim, alg.dim)
    assert 0 <= cell.min() and cell.max() < 4 * len(constants)
    for q, root in enumerate(sysm.roots):   # the degree of each entry is that of its power
        want = sum(k * s for k, s in enumerate(
            np.array([np.array(dp) != 0 for dp in alg.divided_powers(root)]), 1))
        assert (cell[q] % 4 == want).all(), root


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3"])
def test_sparse_unipotent_matches_dense_sum(name):
    sysm, alg = group_for(name)
    for ring_name in ("Z", "Z/4", "F4", "Z/3xZ/3"):
        ring = ring_make(ring_name)
        params = (-2, -1, 0, 1, 3, 2 ** 40) if ring_name == "Z" else tuple(ring.elements())
        for root in sysm.roots:
            for t in params:
                g = unipotent(alg, ring, root, t)
                assert (tuples(g.mat), tuples(g.inv_mat)) == (dense_unipotent(alg, ring, root, t),
                                              dense_unipotent(alg, ring, root, ring.neg(t))), \
                    (ring_name, root, t)


GATHER_CASES = [(name, ring_name) for name in ("A2", "B2", "G2", "A3", "C3")
                for ring_name in ("Z/4", "Z/5", "F4", "F9", "Z/6", "Z/3xZ/3", "Z")] + [("D4", "Z/2")]


@pytest.mark.parametrize("name,ring_name", GATHER_CASES)
def test_x_stack_is_the_divided_power_sum(name, ring_name):
    """Every root, in the full root_stack, at (ring.one,) and at chosen keys
    in a shuffled order with repeats, against the dense sum."""
    sysm, alg = group_for(name)
    ring = ring_make(ring_name)
    rng = random.Random(name + ring_name)
    if ring.size:
        full = root_stack(alg, ring)
        assert full.dtype == np.int64
        assert [tuples(m) for m in full] == [
            dense_unipotent(alg, ring, root, t)
            for root, t in itertools.product(sysm.roots, ring.elements())]
        chosen = [ring.rand(rng) for _ in range(3)]
    else:
        chosen = [0, 1, -1, 2, -7, 3 ** 45]
    at_one = root_stack(alg, ring, (ring.one,))
    assert [tuples(m) for m in at_one] == [dense_unipotent(alg, ring, root, ring.one)
                                                     for root in sysm.roots]
    keys = [(rng.choice(sysm.roots), rng.choice(chosen)) for _ in range(2 * len(sysm.roots))]
    got = x_stack(alg, ring, keys)
    assert got.dtype == (np.int64 if ring.size else object)
    assert [tuples(m) for m in got] == [dense_unipotent(alg, ring, root, t)
                                                 for root, t in keys]


def scalar_product(a, b):
    """Exact product on Python ints, skipping the zero entries of a."""
    n = len(b[0])
    out = []
    for row in a:
        acc = [0] * n
        for k, x in enumerate(row):
            if x:
                for j, y in enumerate(b[k]):
                    acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def scalar_chain_table(alg, r, s):
    """The constants peeled off [x_r(1), x_s(1)] over Z in chain_pairs order,
    on dense unipotents and scalar products: the oracle for the closed form
    of chain_coefficients."""
    def x(root, t):
        return dense_unipotent(alg, ZZ, root, t)

    resid = scalar_product(scalar_product(x(r, 1), x(s, 1)),
                           scalar_product(x(r, -1), x(s, -1)))
    out = {}
    for i, j in chain_pairs(alg.system, r, s):
        gamma = tuple(i * a + j * b for a, b in zip(r, s))
        (row, col), unit = alg._slot(gamma)
        out[(i, j)] = resid[row][col] * unit
        resid = scalar_product(x(gamma, -out[(i, j)]), resid)
    assert resid == x(r, 0)
    return out


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "C3", "D4"])
def test_chain_tables_match_scalar_products(name):
    sysm, alg = group_for(name)
    for r, s in itertools.permutations(sysm.roots, 2):
        if r != sysm.negate(s):
            assert chain_coefficients(alg, r, s) == scalar_chain_table(alg, r, s), (r, s)


def test_chain_table_is_cached_and_read_only():
    sysm, alg = group_for("B2")
    r, s = sysm.simple(0), sysm.simple(1)
    table = chain_coefficients(alg, r, s)
    assert chain_coefficients(alg, r, s) is table
    with pytest.raises(TypeError):
        table[(1, 1)] = 0


def test_tables_are_built_once_per_owner():
    # the memos key on the algebra and the ring handle, one of each per name
    sysm, alg = group_for("A2")
    assert alg is build_algebra("A", 2) is group_for("A2")[1]
    ring = ring_make("Z/4")
    assert diagram_symmetries(sysm) is diagram_symmetries(sysm)
    flip = diagram_symmetries(sysm)[1]
    assert graph_data(alg, flip) is graph_data(alg, DiagramSymmetry(flip.perm))
    assert _weyl_elements(alg, ring) is _weyl_elements(alg, ring)
    assert _x_pattern(alg) is _x_pattern(alg)
    assert ring_tables(ring_make("F4")) is ring_tables(ring_make("F4"))
