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

import numpy as np

from chevalley.liealg import AdjointAlgebra
from chevalley.linalg import from_ints, frozen, stack_dtype
from chevalley.rings import Ring
from chevalley.roots import DiagramSymmetry


@dataclass(eq=False)
class GraphData:
    """A diagram symmetry realized on the adjoint basis; its matrices over Z
    are read-only object arrays, as in liealg."""

    delta: DiagramSymmetry
    eps: dict
    lambda_z: np.ndarray
    lambda_z_inv: np.ndarray

    @lru_cache(maxsize=None)
    def matrices(self, ring: Ring) -> Tuple[np.ndarray, np.ndarray]:
        """lambda and its inverse over a ring, read-only, once per ring."""
        dtype = stack_dtype(ring, len(self.lambda_z))
        return tuple(frozen(from_ints(ring, m, dtype)) for m in (self.lambda_z, self.lambda_z_inv))


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

    nroots = len(system.roots)
    lam = np.zeros((alg.dim, alg.dim), dtype=np.int64)   # a signed permutation: lam^-1 = lam^T
    for root in system.roots:
        lam[system.root_index(delta.apply_root(root)), system.root_index(root)] = eps[root]
    for j in range(rank):
        lam[nroots + perm[j], nroots + j] = 1
    for root in system.roots:
        lhs = lam @ alg.x_mats[root].astype(np.int64) @ lam.T
        assert (lhs == eps[root] * alg.x_mats[delta.apply_root(root)]).all(), root
    for j in range(rank):
        lhs = lam @ alg.h_mats[j].astype(np.int64) @ lam.T
        assert (lhs == alg.h_mats[perm[j]]).all(), j
    return GraphData(delta, eps, *(frozen(m.astype(object)) for m in (lam, lam.T)))
