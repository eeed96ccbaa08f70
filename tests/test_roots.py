"""Root system tests against an independent Euclidean-coordinate oracle.

The oracle builds each system from hardcoded simple-root vectors in R^n and
closes under reflections, so it shares no code with the package's chain-based
enumeration.
"""

from fractions import Fraction

import pytest

from chevalley.roots import (
    build_root_system,
    diagram_symmetries,
    parse_system,
    system_from_name,
)
from oracles import root_chain

# Euclidean simple roots (Bourbaki); F4's last root has half coordinates.
ORACLE_SIMPLES = {
    ("A", 2): [(1, -1, 0), (0, 1, -1)],
    ("A", 3): [(1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1)],
    ("B", 2): [(1, -1), (0, 1)],
    ("B", 3): [(1, -1, 0), (0, 1, -1), (0, 0, 1)],
    ("C", 3): [(1, -1, 0), (0, 1, -1), (0, 0, 2)],
    ("D", 4): [(1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 1, 1)],
    ("D", 5): [(1, -1, 0, 0, 0), (0, 1, -1, 0, 0), (0, 0, 1, -1, 0),
               (0, 0, 0, 1, -1), (0, 0, 0, 1, 1)],
    ("F", 4): [(0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 0, 1),
               (Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 2), Fraction(-1, 2))],
    ("G", 2): [(1, -1, 0), (-2, 1, 1)],
}

EXPECTED_COUNTS = {
    ("A", 2): 6, ("B", 2): 8, ("G", 2): 12, ("A", 3): 12, ("B", 3): 18,
    ("C", 3): 18, ("D", 4): 24, ("F", 4): 48, ("D", 5): 40,
}


def dot(x, y):
    return sum(a * b for a, b in zip(x, y))


def reflect_euclid(w, v):
    c = Fraction(2 * dot(w, v), dot(v, v))
    return tuple(a - c * b for a, b in zip(w, v))


def oracle_roots(kind, rank):
    simples = [tuple(Fraction(c) for c in v) for v in ORACLE_SIMPLES[(kind, rank)]]
    roots = set(simples)
    changed = True
    while changed:
        changed = False
        for v in list(roots):
            for w in list(roots):
                r = reflect_euclid(w, v)
                if r not in roots:
                    roots.add(r)
                    changed = True
    return simples, roots


def embed(simples, coeffs):
    vec = tuple(Fraction(0) for _ in simples[0])
    for c, s in zip(coeffs, simples):
        vec = tuple(v + c * x for v, x in zip(vec, s))
    return vec


@pytest.mark.parametrize("kind,rank", sorted(EXPECTED_COUNTS))
def test_roots_match_euclidean_oracle(kind, rank):
    system = build_root_system(kind, rank)
    simples, expected = oracle_roots(kind, rank)
    assert len(system.roots) == EXPECTED_COUNTS[(kind, rank)]
    got = {embed(simples, r) for r in system.roots}
    assert got == expected, f"{kind}{rank} root sets differ"


@pytest.mark.parametrize("kind,rank", sorted(EXPECTED_COUNTS))
def test_pairing_matches_euclidean_oracle(kind, rank):
    system = build_root_system(kind, rank)
    simples, _ = oracle_roots(kind, rank)
    for beta in system.roots:
        vb = embed(simples, beta)
        for alpha in system.roots:
            va = embed(simples, alpha)
            want = Fraction(2 * dot(vb, va), dot(va, va))
            assert want.denominator == 1
            assert system.pairing(beta, alpha) == want


def test_cartan_entries_spec_convention():
    a2 = build_root_system("A", 2)
    assert a2.cartan == ((2, -1), (-1, 2))
    b2 = build_root_system("B", 2)
    # row for the long alpha1 pairs alpha2 to -1, the short row carries -2
    assert b2.cartan == ((2, -1), (-2, 2))
    g2 = build_root_system("G", 2)
    assert g2.cartan == ((2, -3), (-1, 2))


def test_b2_pairing_example():
    b2 = build_root_system("B", 2)
    assert b2.pairing((1, 2), (1, 0)) == 0


def test_frozen_enumeration_order_small_systems():
    a2 = build_root_system("A", 2)
    assert a2.roots == ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1))
    b2 = build_root_system("B", 2)
    assert b2.roots == ((1, 0), (-1, 0), (0, 1), (0, -1),
                        (1, 1), (-1, -1), (1, 2), (-1, -2))
    g2 = build_root_system("G", 2)
    assert g2.roots == ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1),
                        (2, 1), (-2, -1), (3, 1), (-3, -1), (3, 2), (-3, -2))
    a3 = build_root_system("A", 3)
    assert a3.roots[:6] == ((1, 0, 0), (-1, 0, 0), (0, 1, 0),
                            (0, -1, 0), (0, 0, 1), (0, 0, -1))
    assert a3.roots[6:] == ((1, 1, 0), (-1, -1, 0), (0, 1, 1),
                            (0, -1, -1), (1, 1, 1), (-1, -1, -1))


def test_adjoint_dimension_counts():
    assert build_root_system("A", 2).dimension == 8
    assert build_root_system("B", 2).dimension == 10
    assert build_root_system("A", 3).dimension == 15
    assert build_root_system("G", 2).dimension == 14


def test_root_chains():
    a2 = build_root_system("A", 2)
    assert root_chain(a2, (0, 1), (1, 0)) == (0, 1)
    g2 = build_root_system("G", 2)
    # chain of the long simple root through the short one
    assert root_chain(g2, (0, 1), (1, 0)) == (0, 3)
    b2 = build_root_system("B", 2)
    assert root_chain(b2, (0, 1), (1, 0)) == (0, 1)
    assert root_chain(b2, (1, 0), (0, 1)) == (0, 2)
    with pytest.raises(ValueError):
        root_chain(a2, (1, 0), (1, 0))


def test_chain_length_matches_pairing_everywhere():
    for name in ("A2", "B2", "G2", "A3", "C3"):
        system = system_from_name(name)
        for beta in system.roots:
            for alpha in system.roots:
                if beta in (alpha, system.negate(alpha)):
                    continue
                p, q = root_chain(system, beta, alpha)
                assert p - q == system.pairing(beta, alpha)
                assert p + q <= 3  # chains never exceed length 3


def test_reflection_example():
    b2 = build_root_system("B", 2)
    assert b2.reflect((1, 0), (0, 1)) == (1, 2)
    for system in (build_root_system("A", 3), b2):
        for alpha in system.roots:
            for beta in system.roots:
                assert system.is_root(system.reflect(beta, alpha))


@pytest.mark.parametrize("name,count", [
    ("A2", 2), ("A3", 2), ("B2", 1), ("B3", 1), ("C3", 1),
    ("D4", 6), ("D5", 2), ("E6", 2), ("F4", 1), ("G2", 1),
])
def test_symmetry_counts(name, count):
    system = system_from_name(name)
    syms = diagram_symmetries(system)
    assert len(syms) == count
    assert syms[0].is_identity
    for sym in syms:
        # a symmetry permutes the root set
        mapped = {sym.apply_root(r) for r in system.roots}
        assert mapped == set(system.roots)
        # and preserves pairings
        for beta in system.roots[:6]:
            for alpha in system.roots[:6]:
                assert (system.pairing(sym.apply_root(beta), sym.apply_root(alpha))
                        == system.pairing(beta, alpha))


def test_e_series_counts_smoke():
    e6 = build_root_system("E", 6)
    assert len(e6.roots) == 72
    assert e6.dimension == 78


def test_parse_system_errors():
    with pytest.raises(ValueError):
        parse_system("A1")
    with pytest.raises(ValueError):
        parse_system("H3")
    with pytest.raises(ValueError):
        parse_system("D3")
    assert parse_system("g2") == ("G", 2)
