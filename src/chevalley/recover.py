"""Recovery of Lie algebra elements from unipotent group elements.

Each root element x = exp(X) determines X, but reading X back out of the
matrix of x depends on what the ring can divide by.  Three regimes:

  "half"     2 is a unit (and 3 too for G2): X = (x - E) - (x - E)^2 / 2
             on index-3 roots, with the cubic variant on short G2 roots.
  "nohalf"   simply laced of rank >= 3, no unit assumptions: the square
             X^2/2 is produced by a fixed pair of neighbouring root
             elements, so subtraction needs no division at all.
  None       nothing applies (A2 without 1/2, doubly laced without 1/2).

recover_family maps a whole family of parameter-1 images at once; the
`verify recover` suite and the acceptance gate check it against the integer
adjoint matrices.  The formulas are built from products and ring-scalings
only, so they commute with conjugation; the tests rely on that equivariance.
"""

from __future__ import annotations

from typing import Dict, Optional

from chevalley.liealg import AdjointAlgebra
from chevalley.linalg import Matrix, identity, mat_mul, mat_scale, mat_sub
from chevalley.rings import Ring
from chevalley.roots import Root, RootSystem


def recovery_regime(system: RootSystem, ring: Ring) -> Optional[str]:
    """Which recovery path a system/ring pair supports, if any."""
    simply_laced = system.kind in ("A", "D", "E")
    if system.kind == "G":
        return "half" if (ring.has_half and ring.has_third) else None
    if ring.has_half:
        return "half"
    if simply_laced and system.rank >= 3:
        return "nohalf"
    return None


def recover_half(ring: Ring, m: Matrix) -> Matrix:
    """X from exp(X) when X^3 = 0 and 2 is a unit."""
    e = identity(ring, len(m))
    d = mat_sub(ring, m, e)
    half = ring.inv(ring.from_int(2))
    return mat_sub(ring, d, mat_scale(ring, half, mat_mul(ring, d, d)))


def recover_g2_short(ring: Ring, m: Matrix) -> Matrix:
    """X from exp(X) when X^4 = 0 and both 2 and 3 are units."""
    e = identity(ring, len(m))
    d = mat_sub(ring, m, e)
    d2 = mat_mul(ring, d, d)
    d3 = mat_mul(ring, d2, d)
    half = ring.inv(ring.from_int(2))
    sixth = ring.inv(ring.from_int(6))
    # d2 = X^2 + X^3 and d3 = X^3 exactly
    x2_half = mat_scale(ring, half, mat_sub(ring, d2, d3))
    x3_sixth = mat_scale(ring, sixth, d3)
    return mat_sub(ring, mat_sub(ring, d, x2_half), x3_sixth)


def recover_no_half(ring: Ring, m_alpha: Matrix, m_gamma: Matrix, m_beta: Matrix,
                    sign: int) -> Matrix:
    """X from exp(X) using neighbour images in place of division by 2."""
    e = identity(ring, len(m_alpha))
    dg = mat_sub(ring, m_gamma, e)
    db = mat_sub(ring, m_beta, e)
    prod = mat_mul(ring, dg, db)
    t = mat_mul(ring, prod, prod)
    x2_half = mat_scale(ring, ring.from_int(sign), t)
    return mat_sub(ring, mat_sub(ring, m_alpha, e), x2_half)


def recover_family(alg: AdjointAlgebra, ring: Ring,
                   images: Dict[Root, Matrix]) -> Dict[Root, Matrix]:
    """Lie elements for a full family of parameter-1 unipotent images.

    Raises ValueError when the system/ring pair has no recovery regime or
    a required neighbour image is missing.
    """
    system = alg.system
    regime = recovery_regime(system, ring)
    if regime is None:
        raise ValueError(f"no recovery regime for {system.name} over {ring.descriptor}")
    out: Dict[Root, Matrix] = {}
    if regime == "half":
        for root, m in images.items():
            if alg.nilpotency(root) == 4:
                out[root] = recover_g2_short(ring, m)
            else:
                out[root] = recover_half(ring, m)
        return out
    for root, m in images.items():
        witness = alg.half_square_witness(root)
        assert witness is not None, root
        gamma, beta, sign = witness
        if gamma not in images or beta not in images:
            raise ValueError(f"missing neighbour images for {root}")
        out[root] = recover_no_half(ring, m, images[gamma], images[beta], sign)
    return out
