"""Exact-arithmetic Chevalley groups over commutative rings.

Builds root systems, Chevalley bases with integral structure constants, the
adjoint matrix representation, and the elementary adjoint group generated by
unipotent one-parameter elements over finite commutative rings.  On top of
that sits a decomposer that factors automorphisms of the elementary group
into graph, inner and ring components and emits machine-checkable
certificates.
"""

from chevalley.decomposer import (
    AutomorphismSpec,
    Certificate,
    CertifyError,
    certify,
    forge_random,
    forge_random_parts,
    spanning_params,
    spec_from_elements,
    spec_from_json,
)
from chevalley.group import (
    GroupElement,
    from_word,
    group_for,
    torus_chi,
    unipotent,
    weyl,
)
from chevalley.liealg import AdjointAlgebra, build_algebra
from chevalley.recover import recover_family, recovery_regime
from chevalley.rings import crt_split, ring_automorphisms, ring_make
from chevalley.roots import RootSystem, build_root_system, diagram_symmetries

__all__ = [
    "AdjointAlgebra", "AutomorphismSpec", "Certificate", "CertifyError",
    "GroupElement", "RootSystem", "build_algebra", "build_root_system",
    "certify", "crt_split", "diagram_symmetries",
    "forge_random", "forge_random_parts", "from_word", "group_for",
    "recover_family", "recovery_regime", "ring_automorphisms", "ring_make",
    "spanning_params", "spec_from_elements", "spec_from_json", "torus_chi",
    "unipotent", "weyl",
]
