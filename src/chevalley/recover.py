"""Recovery of Lie algebra elements from unipotent group elements.

Each root element x = exp(X) determines X, but reading X back out of the
matrix of x depends on what the ring can divide by.  With d = x - E, three
regimes:

  "half"     2 is a unit (and 3 too for G2): X = d - d^2 / 2 on index-3
             roots, and on short G2 roots, where X^4 = 0, the cubic variant
             d - (d^2 - d^3) / 2 - d^3 / 6 = d - d^2 / 2 + d^3 / 3.
  "nohalf"   simply laced of rank >= 3, no unit assumptions: the square
             X^2/2 is sign * (d_gamma d_beta)^2 for a fixed pair of
             neighbouring root elements, so subtraction needs no division.
  None       nothing applies (A2 without 1/2, doubly laced without 1/2).

recover_family maps a whole family of parameter-1 images at once, as a
stack (see linalg) of one image per root in the order of system.roots, and
returns the Lie elements as a stack in the same order: each regime is a few
batched products and element-wise ops (``linalg.row_ops``) on it.  Like
every verify suite, `verify recover` reads stacks: it builds each family as
one sandwich of the x_root(1) stack and checks it, and the acceptance gate,
against the integer adjoint matrices.  The formulas are built from products
and ring-scalings only, so they commute with conjugation; the tests rely on
that equivariance.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from chevalley.group import identity_element
from chevalley.liealg import AdjointAlgebra
from chevalley.linalg import row_ops, stack_mul
from chevalley.rings import Ring
from chevalley.roots import RootSystem


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


def recover_family(alg: AdjointAlgebra, ring: Ring, stack):
    """Lie elements for a full family of parameter-1 unipotent images, given
    and returned as stacks with one matrix per root of alg.system.roots, in
    the stack's dtype: a float32 tier stack (see linalg.stack_dtype) stays
    in the tier through every product and row op.

    Raises ValueError when the system/ring pair has no recovery regime or
    the stack does not hold one matrix per root.
    """
    system = alg.system
    regime = recovery_regime(system, ring)
    if regime is None:
        raise ValueError(f"no recovery regime for {system.name} over {ring.descriptor}")
    if len(stack) != len(system.roots):
        raise ValueError(f"{len(stack)} images for the {len(system.roots)} roots "
                         f"of {system.name}")
    sub_mul = row_ops(ring)[1]
    d = sub_mul(stack.copy(), ring.one, identity_element(alg, ring).mat.astype(stack.dtype))
    if regime == "half":
        d2 = stack_mul(ring, d, d)
        short = [i for i, root in enumerate(system.roots) if alg.nilpotency(root) == 4]
        out = sub_mul(d.copy(), ring.inv(ring.from_int(2)), d2)
        if short:   # G2 only, where 3 is a unit
            d3 = stack_mul(ring, d2[short], d[short])
            out[short] = sub_mul(out[short], ring.neg(ring.inv(ring.from_int(3))), d3)
        return out
    gamma, beta, signs = zip(*map(alg.half_square_witness, system.roots))
    prod = stack_mul(ring, d[list(map(system.root_index, gamma))],
                     d[list(map(system.root_index, beta))])
    signs = np.array([ring.from_int(c) for c in signs], dtype=stack.dtype)
    return sub_mul(d, signs[:, None, None], stack_mul(ring, prod, prod))
