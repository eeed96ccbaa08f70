"""Graph automorphisms: diagram symmetries realized on the adjoint basis.

A graph symmetry of the diagram lifts to the Lie algebra as a signed basis
permutation.  Signs are fixed by sending every simple root vector to its
image with sign +1 and propagating through extraspecial pairs; negatives
share the sign of their positives.  Construction verifies the intertwining
relations over Z, so a bad sign table cannot leave this module.

A standard automorphism in normal form acts as

    x  |->  L ( g rho(x) g^-1 ) L^-1

with rho a ring automorphism applied entrywise, g a group element, and L the
matrix of a graph symmetry built here; the decomposer's certificates carry
the three parts and compose them.  graph_data builds each GraphData once
per (algebra, symmetry).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

from chevalley.liealg import AdjointAlgebra
from chevalley.linalg import Matrix, mat_map, mat_mul, matrix
from chevalley.rings import Ring, ring_make
from chevalley.roots import DiagramSymmetry


@dataclass(eq=False)
class GraphData:
    """A diagram symmetry realized on the adjoint basis."""

    delta: DiagramSymmetry
    eps: dict
    lambda_z: Matrix
    lambda_z_inv: Matrix

    def matrices(self, ring: Ring) -> Tuple[Matrix, Matrix]:
        return (mat_map(ring.from_int, self.lambda_z),
                mat_map(ring.from_int, self.lambda_z_inv))


@lru_cache(maxsize=None)
def graph_data(alg: AdjointAlgebra, delta: DiagramSymmetry) -> GraphData:
    system, rank, perm = alg.system, alg.system.rank, delta.perm
    eps = {}
    for gamma in system.positives:
        if sum(gamma) == 1:
            eps[gamma] = 1
            continue
        alpha, beta = alg.constants._extraspecial[gamma]
        ratio = alg.n_const(delta.apply_root(alpha), delta.apply_root(beta))
        eps[gamma] = eps[alpha] * eps[beta] * ratio // alg.n_const(alpha, beta)
    for gamma in system.positives:
        eps[tuple(-c for c in gamma)] = eps[gamma]

    n = alg.dim
    nroots = len(system.roots)
    rows = [[0] * n for _ in range(n)]
    rows_inv = [[0] * n for _ in range(n)]
    for root in system.roots:
        i, j = system.root_index(delta.apply_root(root)), system.root_index(root)
        rows[i][j] = eps[root]
        rows_inv[j][i] = eps[root]
    for j in range(rank):
        rows[nroots + perm[j]][nroots + j] = 1
        rows_inv[nroots + j][nroots + perm[j]] = 1
    lam, lam_inv = matrix(rows), matrix(rows_inv)

    zz = ring_make("Z")

    def zz_mul(a, b):
        return mat_mul(zz, a, b)

    for root in system.roots:
        lhs = zz_mul(zz_mul(lam, alg.x_mats[root]), lam_inv)
        expect = tuple(tuple(eps[root] * v for v in row)
                       for row in alg.x_mats[delta.apply_root(root)])
        assert lhs == expect, root
    for j in range(rank):
        lhs = zz_mul(zz_mul(lam, alg.h_mats[j]), lam_inv)
        assert lhs == alg.h_mats[perm[j]], j
    return GraphData(delta, eps, lam, lam_inv)
