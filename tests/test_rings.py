"""Ring handle tests.

Oracles used here are independent of the implementation paths:
brute-force idempotent search for CRT, hand-reduced polynomial tables for
the small fields, exhaustive bijection filtering for automorphism counts,
and the fraction construction for localization.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevalley.linalg import every_element
from chevalley.rings import (
    FieldTable,
    ProductRing,
    RingError,
    ZMod,
    ZRing,
    _factorize,
    _prime_power,
    crt_split,
    is_ring_automorphism,
    ring_automorphisms,
    ring_make,
)
from oracles import (additive_order, is_ring_automorphism_loop, localize_at_prime, rho_array,
                     rho_table)


def test_ring_make_caches_and_parses():
    assert ring_make("Z") is ring_make("Z")
    assert ring_make("Z/4") is ring_make("Z/4")
    assert isinstance(ring_make("Z"), ZRing)
    assert isinstance(ring_make("Z/6"), ZMod)
    assert ring_make("Z/6").n == 6
    assert isinstance(ring_make("F4"), FieldTable)
    assert isinstance(ring_make("F5"), ZMod)  # prime size collapses to Z/5
    r = ring_make("Z/3xZ/3")
    assert isinstance(r, ProductRing) and r.size == 9
    for bad in ("Q", "Z/0", "Z/1", "Z/4xZ/1", "F6", "F32", "Z/x"):
        with pytest.raises(RingError):
            ring_make(bad)


def test_field_sizes_are_read_without_factoring():
    # F<q> decides whether q is a prime power by integer roots and
    # Miller-Rabin; trial division (the oracle here) agrees below 5,000
    for q in range(-3, 5000):
        fac = _factorize(q) if q > 1 else {}
        assert _prime_power(q) == (next(iter(fac.items())) if len(fac) == 1 else None), q
    # strong pseudoprimes to the bases 2..31 and 2..37 (the least of each),
    # prime powers past 2^64, and a prime near 10^18 as the field it names
    assert _prime_power(3825123056546413051) is None
    assert _prime_power(318665857834031151167461) is None
    assert _prime_power(3 ** 50) == (3, 50) and _prime_power(1000003 ** 3) == (1000003, 3)
    assert ring_make("F1000000000000000003") == ring_make("Z/1000000000000000003")
    with pytest.raises(RingError, match="too large"):
        ring_make(f"F{10 ** 25 + 13}")
    with pytest.raises(RingError, match="^6 is not a prime power$"):
        ring_make("F6")


def test_basic_arithmetic_mod_6():
    r = ring_make("Z/6")
    assert r.add(4, 5) == 3
    assert r.mul(4, 5) == 2
    assert r.neg(2) == 4
    assert r.sub(1, 5) == 2
    assert r.from_int(-1) == 5
    assert sorted(r.units()) == [1, 5]
    assert r.inv(5) == 5
    with pytest.raises(RingError):
        r.inv(2)


def test_zmod_sub_is_add_of_negation():
    for n in range(2, 13):   # Z/1, the zero ring, is refused
        r = ring_make(f"Z/{n}")
        for a, b in itertools.product(r.elements(), repeat=2):
            assert r.sub(a, b) == r.add(a, r.neg(b)), (n, a, b)


def test_unit_flags():
    assert ring_make("Z/5").has_half and ring_make("Z/5").has_third
    assert not ring_make("Z/4").has_half and ring_make("Z/4").has_third
    assert not ring_make("Z/6").has_half and not ring_make("Z/6").has_third
    assert not ring_make("F4").has_half and ring_make("F4").has_third
    assert not ring_make("F9").has_third and ring_make("F9").has_half
    assert not ring_make("Z").has_half


def test_locality_flags():
    assert ring_make("Z/8").is_local
    assert ring_make("Z/7").is_local and ring_make("Z/7").nil_degree == 1
    assert not ring_make("Z/6").is_local
    assert ring_make("F4").is_local and ring_make("F4").nil_degree == 1
    assert not ring_make("Z/3xZ/3").is_local
    assert ring_make("Z/8").residue_char == 2
    assert ring_make("Z/8").nil_degree == 3


# --- field tables, checked against hand-reduced polynomial arithmetic ------

def test_f4_table_matches_hand_reduction():
    f4 = ring_make("F4")
    # index 2 is the generator x with x^2 = x + 1
    assert f4.mul(2, 2) == 3
    assert f4.mul(2, 3) == 1
    assert f4.add(2, 3) == 1
    assert f4.inv(2) == 3
    assert f4.power(2, 2) == 3   # Frobenius x -> x^p


def test_f8_f9_f16_spot_values():
    f8 = ring_make("F8")  # x^3 = x + 1
    assert f8.mul(2, 2) == 4
    assert f8.mul(2, 4) == 3
    assert f8.mul(4, 4) == 6
    f9 = ring_make("F9")  # x^2 = -1
    assert f9.mul(3, 3) == 2
    assert f9.add(3, 3) == 6
    f16 = ring_make("F16")  # x^4 = x + 1
    assert f16.mul(4, 4) == 3
    assert f16.mul(2, 8) == 3


@pytest.mark.parametrize("name", ["F4", "F8", "F9", "F16"])
def test_field_axioms_exhaustive(name):
    f = ring_make(name)
    els = list(f.elements())
    q = f.size
    assert len(els) == q
    for a in els:
        assert f.add(a, f.neg(a)) == 0
        assert f.mul(a, 1) == a
        # x^q = x marks a field of size q
        assert f.power(a, q) == a
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1
    for a, b in itertools.product(els, repeat=2):
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
    # multiplicative group is cyclic: some element has full order
    def order(a):
        k, acc = 1, a
        while acc != 1:
            acc = f.mul(acc, a)
            k += 1
        return k
    assert max(order(a) for a in els if a != 0) == q - 1


# --- CRT ---------------------------------------------------------------

def brute_idempotents(r):
    return sorted(e for e in r.elements() if r.mul(e, e) == e)


def test_crt_idempotents_z6():
    r = ring_make("Z/6")
    split = crt_split(r)
    assert [f.ring.descriptor for f in split.factors] == ["Z/2", "Z/3"]
    assert [f.idempotent for f in split.factors] == [3, 4]
    assert brute_idempotents(r) == [0, 1, 3, 4]


def test_crt_idempotents_z12():
    split = crt_split(ring_make("Z/12"))
    assert [f.ring.descriptor for f in split.factors] == ["Z/4", "Z/3"]
    assert [f.idempotent for f in split.factors] == [9, 4]


@pytest.mark.parametrize("name", ["Z/6", "Z/12", "Z/8", "F4", "Z/3xZ/3", "Z/6xF4"])
def test_crt_split_roundtrip(name):
    r = ring_make(name)
    split = crt_split(r)
    one = r.zero
    for f in split.factors:
        assert f.ring.is_local
        e = f.idempotent
        assert r.mul(e, e) == e
        one = r.add(one, e)
    assert one == r.one
    for fa, fb in itertools.combinations(split.factors, 2):
        assert r.mul(fa.idempotent, fb.idempotent) == r.zero
    for x in r.elements():
        assert split.from_factors([f.project(x) for f in split.factors]) == x
    # projections are ring maps
    for f in split.factors:
        for x, y in itertools.product(list(r.elements())[:6], repeat=2):
            assert f.project(r.add(x, y)) == f.ring.add(f.project(x), f.project(y))
            assert f.project(r.mul(x, y)) == f.ring.mul(f.project(x), f.project(y))


# --- automorphisms -------------------------------------------------------

def brute_automorphism_count(r):
    """Filter all bijections on the elements through the axiom oracle; only
    usable for tiny rings."""
    els = list(r.elements())
    count = 0
    for perm in itertools.permutations(els):
        table = dict(zip(els, perm))
        if is_ring_automorphism_loop(r, table):
            count += 1
    return count


@pytest.mark.parametrize("name,expected", [
    ("Z/4", 1), ("Z/6", 1), ("Z/5", 1), ("F4", 2),
])
def test_automorphism_count_vs_bruteforce(name, expected):
    r = ring_make(name)
    auts = ring_automorphisms(r)
    assert len(auts) == expected
    assert brute_automorphism_count(r) == expected
    assert np.array_equal(auts[0], np.arange(r.size))


@pytest.mark.parametrize("name,expected", [
    ("F8", 3), ("F9", 2), ("F16", 4),
    ("Z/3xZ/3", 2), ("Z/2xZ/3", 1), ("F4xF4", 8), ("Z/4xZ/2", 1),
])
def test_automorphism_counts_larger(name, expected):
    r = ring_make(name)
    auts = ring_automorphisms(r)
    assert len(auts) == expected
    for aut in auts:
        assert is_ring_automorphism_loop(r, rho_table(r, aut))
    # pairwise distinct
    for a, b in itertools.combinations(auts, 2):
        assert not np.array_equal(a, b)


LOCAL_RINGS = ["Z/2", "Z/3", "Z/4", "Z/5", "Z/7", "Z/8", "Z/9", "Z/25", "F4", "F8", "F9",
               "F16"]


@pytest.mark.parametrize("name", LOCAL_RINGS)
def test_automorphism_membership_agrees_with_the_axiom_oracle(name):
    """The automorphisms, permutations fixing 0 and 1 (every one for the
    smallest rings), a map that is not a bijection and partial tables."""
    r = ring_make(name)
    els = list(r.elements())
    rng = random.Random(name)
    tables = [rho_table(r, aut) for aut in ring_automorphisms(r)]
    rest = [x for x in els if x not in (r.zero, r.one)]
    if len(rest) <= 4:
        perms = list(itertools.permutations(rest))
    else:
        perms = [rng.sample(rest, len(rest)) for _ in range(40)]
    tables += [{r.zero: r.zero, r.one: r.one, **dict(zip(rest, perm))} for perm in perms]
    tables.append({x: r.mul(x, x) for x in els})
    tables.append({x: x for x in els[:-1]})
    tables.append({**{x: x for x in els}, els[-1]: r.zero})
    # as position arrays, the partial tables shorter ones
    verdicts = [is_ring_automorphism(r, rho_array(r, table.items())) for table in tables]
    assert verdicts == [is_ring_automorphism_loop(r, table) for table in tables]
    assert ({tuple(rho_array(r, t.items()).tolist()) for t, v in zip(tables, verdicts) if v}
            == {tuple(aut.tolist()) for aut in ring_automorphisms(r)})


@pytest.mark.parametrize("name", ["Z/6", "Z/3xZ/3", "Z"])
def test_automorphism_membership_is_for_local_rings(name):
    r = ring_make(name)
    with pytest.raises(RingError):
        is_ring_automorphism(r, np.array([0]))


def test_frobenius_structure():
    f4 = ring_make("F4")
    frob = ring_automorphisms(f4)[1]
    assert frob[2] == 3 and frob[3] == 2
    assert np.array_equal(frob[frob], np.arange(4))
    f16 = ring_make("F16")
    frob16 = ring_automorphisms(f16)[1]
    assert np.array_equal(frob16[frob16[frob16[frob16]]], np.arange(16))
    assert not np.array_equal(frob16[frob16], np.arange(16))


def test_swap_automorphism_of_square_product():
    r = ring_make("Z/3xZ/3")
    auts = ring_automorphisms(r)
    swap = auts[1]
    assert rho_table(r, swap)[(1, 2)] == (2, 1)
    assert np.array_equal(swap[swap], np.arange(r.size))


def test_not_an_automorphism():
    r = ring_make("Z/5")
    assert not is_ring_automorphism(r, np.array([(2 * x) % 5 for x in range(5)]))
    assert not is_ring_automorphism(r, np.arange(4))


def test_z_automorphisms_are_refused():
    # a parameter map is a position array, which Z has none of
    with pytest.raises(RingError, match="no automorphism enumeration for Z"):
        ring_automorphisms(ring_make("Z"))


# --- localization oracle --------------------------------------------------

@pytest.mark.parametrize("n,p,expect_size", [(12, 2, 4), (12, 3, 3), (6, 2, 2), (18, 3, 9)])
def test_localization_matches_crt_projection(n, p, expect_size):
    r = ring_make(f"Z/{n}")
    classes, canonical = localize_at_prime(r, p)
    assert len(classes) == expect_size
    split = crt_split(r)
    proj = next(f for f in split.factors if f.ring.residue_char == p)
    for x, y in itertools.product(r.elements(), repeat=2):
        assert (canonical(x) == canonical(y)) == (proj.project(x) == proj.project(y))
    # canonical map is onto the classes
    assert len({canonical(x) for x in r.elements()}) == expect_size


# --- products and serialization ------------------------------------------

def test_product_embed_project():
    r = ring_make("Z/6xF4")
    assert isinstance(r, ProductRing)
    assert r.embed(0, 5) == (5, 0)
    assert r.embed(1, 3) == (0, 3)
    assert r.project(1, (2, 3)) == 3
    assert r.from_int(7) == (1, 1)
    assert len(list(r.elements())) == 24


@pytest.mark.parametrize("name", ["Z/5", "Z/6", "F4", "F8", "F9", "F16",
                                  "Z/3xZ/3", "Z/6xF4"])
def test_additive_coords_rebuild_every_element(name):
    ring = ring_make(name)
    gens = ring.additive_generators()
    for t in ring.elements():
        coords = ring.additive_coords(t)
        assert [g for g, _ in coords] == gens
        acc = ring.zero
        for g, c in coords:
            acc = ring.add(acc, ring.mul(ring.from_int(c), g))
        assert acc == t


@pytest.mark.parametrize("name", ["Z/5", "Z/9", "Z/12", "F4", "F8", "F9", "F16",
                                  "Z/3xZ/3", "Z/6xF4", "Z/4xZ/6"])
def test_additive_orders_and_coords_in_closed_form(name):
    # Ring.additive_order against repeated addition, for every element, and
    # additive_coords of every element at once (linalg.every_element, its
    # transpose putting a product's factors first) against one at a time
    ring = ring_make(name)
    elements = list(ring.elements())
    assert [ring.additive_order(t) for t in elements] == [
        additive_order(ring, t) for t in elements]
    at_once = ring.additive_coords(every_element(ring).T)
    assert [g for g, _ in at_once] == ring.additive_generators()
    assert [[int(c[q]) for _, c in at_once] for q in range(ring.size)] == [
        [c for _, c in ring.additive_coords(t)] for t in elements]


def test_ring_automorphisms_are_built_once_per_handle():
    # one tuple per ring handle, in the order forge_random_parts draws from
    for name in ("Z/4", "F9", "Z/3xZ/3"):
        ring = ring_make(name)
        auts = ring_automorphisms(ring)
        assert ring_automorphisms(ring_make(name)) is auts
        assert np.array_equal(auts[0], np.arange(ring.size))
        assert [a.tolist() for a in auts] == sorted(
            (a.tolist() for a in auts), key=lambda a: (a != list(range(ring.size)), a))
        assert all(a.dtype == np.int64 and not a.flags.writeable for a in auts)


def test_element_json_roundtrip():
    r = ring_make("Z/6xF4")
    x = (4, 3)
    data = r.element_to_json(x)
    assert data == [4, 3]
    assert r.element_from_json(data) == x
    z = ring_make("Z/7")
    assert z.element_from_json(z.element_to_json(5)) == 5


# --- axioms by sampling ----------------------------------------------------

RING_NAMES = ["Z/4", "Z/6", "Z/12", "F4", "F9", "Z/3xZ/3", "Z/6xF4"]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(RING_NAMES), st.data())
def test_ring_axioms_sampled(name, data):
    r = ring_make(name)
    els = list(r.elements())
    a = data.draw(st.sampled_from(els))
    b = data.draw(st.sampled_from(els))
    c = data.draw(st.sampled_from(els))
    assert r.add(a, r.add(b, c)) == r.add(r.add(a, b), c)
    assert r.mul(a, r.mul(b, c)) == r.mul(r.mul(a, b), c)
    assert r.mul(a, r.add(b, c)) == r.add(r.mul(a, b), r.mul(a, c))
    assert r.add(a, r.zero) == a
    assert r.mul(a, r.one) == a


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(RING_NAMES), st.integers(-40, 40), st.integers(-40, 40))
def test_from_int_is_a_ring_map(name, m, n):
    r = ring_make(name)
    assert r.add(r.from_int(m), r.from_int(n)) == r.from_int(m + n)
    assert r.mul(r.from_int(m), r.from_int(n)) == r.from_int(m * n)


def test_scale_and_power():
    r = ring_make("Z/7")
    assert r.mul(r.from_int(10), 3) == 2
    assert r.power(3, 6) == 1
    assert r.power(3, -1) == r.inv(3)
