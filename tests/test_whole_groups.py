"""Whole groups over Z/2: every element round-trips, and B2's exceptional
automorphisms are refused.

E_ad(A2, Z/2) = PSL_3(2) has 168 elements and E_ad(B2, Z/2) = Sp_4(2) has
720; both are enumerated by a breadth-first search over words in the
x_r(1), which also gives their Cayley graphs.  Every element g under every
diagram symmetry delta is forged by ``forge_parts`` (the composition
``forge_random_parts`` uses) and must certify, with pairwise distinct
``global`` blocks.

B2 in characteristic 2 has a graph automorphism that swaps long and short
roots (Steinberg, Lectures on Chevalley Groups, 1967, section 10; Carter,
Simple Groups of Lie Type, 1972, section 12.3).  It is not standard in the
sense certify decides, a graph part from ``diagram_symmetries`` times an
inner part times a ring part, so certify must refuse it: the specs
x_r(1) -> x_pi(r)(1) for a signed root permutation pi that swaps the lengths
pass the precheck, are refused at match, and yet each extends along the
Cayley graph to a bijective homomorphism of the whole group.
"""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

from chevalley.decomposer import (CertifyError, certify, forge_parts, precheck,
                                  spec_from_elements)
from chevalley.group import from_word, group_for, root_stack
from chevalley.linalg import stack_mul
from chevalley.rings import ring_automorphisms, ring_make
from chevalley.roots import diagram_symmetries

ORDERS = {"A2": 168, "B2": 720}


def cayley(system):
    """(words, edges) of E_ad(system, Z/2) in BFS order from the identity:
    the word in the x_r(1) of each element, and edges[i][k] the index of
    element i times x_(roots[k])(1)."""
    sysm, alg = group_for(system)
    ring = ring_make("Z/2")
    gens = root_stack(alg, ring, (ring.one,))
    mats, words, index, edges = [np.eye(alg.dim, dtype=gens.dtype)], [()], {}, []
    index[mats[0].tobytes()] = 0
    for i in itertools.count():
        if i == len(mats):
            return words, edges
        edges.append([])
        for root, m in zip(sysm.roots, stack_mul(ring, mats[i], gens)):
            if m.tobytes() not in index:
                index[m.tobytes()] = len(mats)
                mats.append(m)
                words.append(words[i] + (("x", root, ring.one),))
            edges[i].append(index[m.tobytes()])


@pytest.mark.parametrize("system", sorted(ORDERS))
def test_every_element_under_every_delta_certifies(system):
    sysm, alg = group_for(system)
    ring = ring_make("Z/2")
    words, _ = cayley(system)
    assert len(words) == ORDERS[system]
    rho, = ring_automorphisms(ring)
    blocks = set()
    for word, delta in itertools.product(words, diagram_symmetries(sysm)):
        spec, planted = forge_parts(system, ring, [delta], rho, from_word(alg, ring, word))
        cert = certify(spec)   # replays every image before returning
        assert np.array_equal(cert.lambda_mat, planted["lambda"]), (word, delta.perm)
        assert cert.report["generators_replayed"] == len(sysm.roots) * ring.size
        blocks.add(json.dumps(cert.to_json()["global"], sort_keys=True))
    assert len(blocks) == len(words) * len(diagram_symmetries(sysm))


def signed_root_permutations(sysm):
    """Every pi with pi(-r) = -pi(r), as a dict on the roots."""
    positives = list(sysm.positives)
    for images in itertools.permutations(positives):
        for signs in itertools.product((1, -1), repeat=len(positives)):
            pi = {}
            for r, s, sign in zip(positives, images, signs):
                pi[r] = s if sign == 1 else sysm.negate(s)
                pi[sysm.negate(r)] = sysm.negate(pi[r])
            yield pi


def test_b2_exceptional_automorphisms_are_refused_at_match():
    sysm, alg = group_for("B2")
    ring = ring_make("Z/2")
    gens = dict(zip(sysm.roots, root_stack(alg, ring, (ring.one,))))
    passed, refused = [], []
    for pi in signed_root_permutations(sysm):
        spec = spec_from_elements("B2", ring, {(r, ring.one): gens[pi[r]] for r in sysm.roots})
        try:
            precheck(spec, alg)
        except CertifyError as err:
            assert err.stage == "precheck"
            continue
        passed.append(pi)
        try:
            certify(spec)
        except CertifyError as err:
            refused.append((pi, err.to_json()))
    swaps = [pi for pi in passed
             if all(sysm.norm2(pi[r]) != sysm.norm2(r) for r in sysm.roots)]
    assert (len(passed), len(refused)) == (16, 8)
    assert [pi for pi, _ in refused] == swaps
    assert {json.dumps(doc, sort_keys=True) for _, doc in refused} == {json.dumps(
        {"error": {"stage": "match", "witness": {"factor": 0}, "detail":
                   "no diagram symmetry admits a strictly inner intertwiner"}},
        sort_keys=True)}

    # each extends along the Cayley graph: phi(g x_r(1)) = phi(g) x_pi(r)(1)
    # is consistent on every edge, so phi is a homomorphism, and it is onto
    # the group's 720 elements
    words, edges = cayley("B2")
    for pi, _ in refused:
        at = [sysm.root_index(pi[r]) for r in sysm.roots]
        phi = {0: 0}
        for i in range(len(words)):   # BFS order: phi[i] is set before i is left
            for k, j in enumerate(edges[i]):
                image = edges[phi[i]][at[k]]
                assert phi.setdefault(j, image) == image, (i, k)
        assert sorted(phi.values()) == list(range(len(words)))
