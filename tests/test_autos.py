"""Graph automorphisms: diagram symmetries on the adjoint basis.

The graph construction self-checks its intertwining property at build time,
so merely instantiating a symmetry already proves Lambda X_a Lambda^-1 lands
on the right basis vector with the right sign.  The tests here pin the signs
that are not forced to +1 and the triality orbit structure.
"""

from __future__ import annotations

from chevalley.autos import graph_data
from chevalley.group import group_for
from chevalley.linalg import mat_mul
from chevalley.rings import ring_make
from chevalley.roots import diagram_symmetries
from oracles import is_identity


def nontrivial_symmetry(sysm):
    for delta in diagram_symmetries(sysm):
        if not delta.is_identity:
            return delta
    raise AssertionError("expected a nontrivial diagram symmetry")


def test_a2_flip_signs():
    sysm, alg = group_for("A2")
    data = graph_data(alg, nontrivial_symmetry(sysm))
    # simple roots are fixed to +1 by construction, the high root picks up
    # the structure-constant ratio, which is -1 for the flip
    assert data.eps[(1, 0)] == 1
    assert data.eps[(0, 1)] == 1
    assert data.eps[(1, 1)] == -1
    assert data.eps[(-1, -1)] == -1


def test_a3_reversal_builds():
    sysm, alg = group_for("A3")
    data = graph_data(alg, nontrivial_symmetry(sysm))
    assert sorted(data.eps.values()) is not None
    assert all(e in (1, -1) for e in data.eps.values())


def test_d4_symmetry_group():
    sysm, alg = group_for("D4")
    symmetries = diagram_symmetries(sysm)
    assert len(symmetries) == 6
    zz = ring_make("Z")
    orders = sorted(d.order() for d in symmetries)
    assert orders == [1, 2, 2, 2, 3, 3]
    for delta in symmetries:
        data = graph_data(alg, delta)
        power = data.lambda_z
        for _ in range(delta.order() - 1):
            power = mat_mul(zz, power, data.lambda_z)
        assert is_identity(zz, power), delta.perm
