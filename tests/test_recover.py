"""Recovery regime tests.

Oracle: the recovered matrices must equal the integer Lie basis matrices
pushed into the ring, and the formulas must commute with conjugation.  Where
two regimes both apply they must agree on arbitrary conjugated inputs.  The
stacked recover_family must equal the tuple formulas of tests/oracles.py,
one image at a time, under random conjugators.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from chevalley.cli import RECOVER_DEFAULT
from chevalley.group import from_word, group_for, root_stack, unipotent, weyl
from chevalley.linalg import mat_mul, to_matrix
from chevalley.recover import recover_family, recovery_regime
from chevalley.rings import ring_make
from chevalley.roots import build_root_system
from oracles import (conjugate, element_mul, h_element, recover_family_loop, recover_half,
                     recover_no_half)

REGIME_MATRIX = [
    ("A", 2, "Z/5", "half"), ("A", 2, "Z/3", "half"), ("A", 2, "Z/4", None),
    ("A", 2, "F4", None), ("B", 2, "Z/5", "half"), ("B", 2, "Z/4", None),
    ("B", 3, "F4", None), ("C", 3, "Z/4", None), ("C", 3, "Z/7", "half"),
    ("G", 2, "Z/7", "half"), ("G", 2, "Z/5", "half"), ("G", 2, "Z/9", None),
    ("G", 2, "F4", None), ("A", 3, "Z/4", "nohalf"), ("A", 3, "Z/2", "nohalf"),
    ("A", 3, "F4", "nohalf"), ("A", 3, "Z/5", "half"), ("D", 4, "Z/4", "nohalf"),
]


def test_regime_matrix():
    for kind, rank, ring_name, expected in REGIME_MATRIX:
        system = build_root_system(kind, rank)
        assert recovery_regime(system, ring_make(ring_name)) == expected, \
            (kind, rank, ring_name)


def standard_images(alg, ring):
    """x_root(1) for every root, one stack in system.roots order."""
    return root_stack(alg, ring, (ring.one,))


def as_dict(alg, ring, stack):
    return {root: to_matrix(ring, m) for root, m in zip(alg.system.roots, stack)}


@pytest.mark.parametrize("name,ring_name", [
    ("A2", "Z/5"), ("A2", "Z/9"), ("B2", "Z/7"), ("B2", "F9"),
    ("G2", "Z/5"), ("G2", "Z/7"), ("A3", "Z/25"),
])
def test_half_recovers_standard_generators(name, ring_name):
    sysm, alg = group_for(name)
    ring = ring_make(ring_name)
    got = as_dict(alg, ring, recover_family(alg, ring, standard_images(alg, ring)))
    for root in sysm.roots:
        assert got[root] == alg.x_matrix(root, ring)


@pytest.mark.parametrize("name,ring_name", [
    ("A3", "Z/4"), ("A3", "Z/2"), ("A3", "F4"), ("D4", "Z/2"),
])
def test_nohalf_recovers_standard_generators(name, ring_name):
    sysm, alg = group_for(name)
    ring = ring_make(ring_name)
    got = as_dict(alg, ring, recover_family(alg, ring, standard_images(alg, ring)))
    for root in sysm.roots:
        assert got[root] == alg.x_matrix(root, ring)


def conjugated_images(alg, ring, g):
    return {root: conjugate(g, unipotent(alg, ring, root, ring.one)).mat
            for root in alg.system.roots}


def as_stack(alg, ring, images):
    return np.array([images[root] for root in alg.system.roots],
                    dtype=standard_images(alg, ring).dtype)


def some_conjugator(alg, ring):
    sysm = alg.system
    g = unipotent(alg, ring, sysm.simple(0), ring.from_int(3))
    g = element_mul(g, weyl(alg, ring, sysm.simple(1), ring.one))
    g = element_mul(g, h_element(alg, ring, sysm.simple(0), ring.from_int(-1)))
    return g


def test_recovery_is_conjugation_equivariant():
    for name, ring_name in [("B2", "Z/5"), ("G2", "Z/7"), ("A3", "Z/4")]:
        sysm, alg = group_for(name)
        ring = ring_make(ring_name)
        g = some_conjugator(alg, ring)
        got = as_dict(alg, ring, recover_family(
            alg, ring, as_stack(alg, ring, conjugated_images(alg, ring, g))))
        for root in sysm.roots:
            expect = mat_mul(ring, mat_mul(ring, g.mat, alg.x_matrix(root, ring)),
                             g.inv_mat)
            assert got[root] == expect, (name, root)


def test_regimes_agree_where_both_apply():
    # A3 over Z/5 admits both the division and the neighbour product path
    sysm, alg = group_for("A3")
    ring = ring_make("Z/5")
    g = some_conjugator(alg, ring)
    images = conjugated_images(alg, ring, g)
    for root in sysm.roots:
        via_half = recover_half(ring, images[root])
        gamma, beta, sign = alg.half_square_witness(root)
        via_witness = recover_no_half(ring, images[root], images[gamma],
                                      images[beta], sign)
        assert via_half == via_witness, root


def random_conjugator(alg, ring, rng):
    """A word of up to six random x, w and h tokens, as a group element."""
    sysm, units = alg.system, ring.units()
    word = []
    for _ in range(rng.randrange(1, 7)):
        kind = rng.choice(("x", "w", "h"))
        t = ring.rand(rng) if kind == "x" else rng.choice(units)
        word.append((kind, rng.choice(sysm.roots), t))
    return from_word(alg, ring, word)


@pytest.mark.parametrize("name,ring_name", list(RECOVER_DEFAULT) + [
    ("A3", "Z/6"), ("A3", "Z/3xZ/3"), ("A3", "F9"),
])
def test_stacked_recovery_matches_the_tuple_oracle(name, ring_name):
    sysm, alg = group_for(name)
    ring = ring_make(ring_name)
    rng = random.Random(f"{name}/{ring_name}")
    for _ in range(3):
        images = conjugated_images(alg, ring, random_conjugator(alg, ring, rng))
        got = recover_family(alg, ring, as_stack(alg, ring, images))
        assert as_dict(alg, ring, got) == recover_family_loop(alg, ring, images)


def test_recover_family_raises_without_regime():
    sysm, alg = group_for("A2")
    ring = ring_make("Z/4")
    with pytest.raises(ValueError):
        recover_family(alg, ring, standard_images(alg, ring))


def test_recover_family_requires_neighbours():
    # a stack without one matrix per root raises
    sysm, alg = group_for("A3")
    ring = ring_make("Z/4")
    with pytest.raises(ValueError):
        recover_family(alg, ring, standard_images(alg, ring)[:1])
