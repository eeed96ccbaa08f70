"""Decomposition of automorphisms into graph * inner * ring components.

The input is a table of images for the generators x_root(t), with t ranging
over 1 and the additive generators of the finite ring.  The pipeline:

  precheck   extend the table additively, then test what can be tested
             cheaply: invertibility, additive orders, injectivity per root,
             and the commutator pattern at parameter 1.
  split      carve the ring into local factors along its idempotents and
             locate, for every factor, the factor its generators map into.
  match      over each local factor, try the diagram symmetries in order;
             untwist the images, solve the linear intertwining equations for
             a conjugating matrix, and keep a solution only if it factors
             through the big cell (a Weyl translate of U^- T U^+).  The
             factorization is the proof that the inner part is strictly
             inner, and it doubles as the certificate's conjugator word.
  ringmap    the residual map then fixes every x_root(1); read the parameter
             map off the unipotent slots and check it is a ring automorphism.
  certify    reassemble the factor data over the whole ring through the
             idempotents into the Certificate, and replay every image
             exactly through that object (Certificate.replay): the
             composition checked is the one to_json writes.

A certificate is only ever emitted after the replay, so a bad input can
waste time but cannot produce a false certificate.  Failures carry the stage
name and a witness.

Tables are stacks (see linalg), one image per root and ring element in the
rows of ``group.stack_row``, built per certify and dropped.  A parameter map
rho is a read-only int64 position array: rho[linalg.positions(t)] is the
position of rho(t), per factor and over the whole ring.  The precheck's
checks, the twist, the residual ring map and the replay are each a few
batched products on them, and report the first failure an image-by-image
loop would have met.  Match stays on arrays from the first nullspace to the
Weyl scan, and no inverse is built that nothing reads.

Big-cell factorization notes: in the basis ordered by descending coweight
height, elements of U^- are unit lower triangular and T U^+ is upper
triangular with unit diagonal entries, so a plain LU split either recovers
the factors or proves the element is outside the cell.  The inverses of the
Weyl representatives are one stack per (algebra, ring), in BFS order, one
batched product per BFS layer.  One product by it gives every translate
w^-1 m of a candidate m, and one Doolittle LU batched over the stack keeps
those whose pivots are all units.  Candidates are only determined up to a
scalar (the adjoint representation cannot see scalars), so for each kept
translate, in BFS order, the scalar is read off the Cartan block and divided
out, the torus units are read off the diagonal and the two unipotent factors
are fitted on arrays.  The element is built once, by from_word, and the
first translate whose element passes the check m = c * element gives it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from chevalley.autos import graph_data
from chevalley.group import (
    STACK_BUDGET,
    GroupElement,
    chain_coefficients,
    commutator_pattern_holds,
    commutator_rows,
    from_word,
    group_for,
    identity_element,
    root_stack,
    stack_entries,
    stack_row,
    torus_chi,
    weyl,
    x_stack,
)
from chevalley.liealg import AdjointAlgebra
from chevalley.linalg import (
    crt_combine,
    crt_tables,
    every_element,
    from_ints,
    frozen,
    local_invertible,
    local_nullspace,
    positions,
    residue_dtype,
    ring_invertible,
    row_ops,
    sandwich,
    stack_dtype,
    stack_equal,
    stack_mul,
)
from chevalley.rings import (
    ProductRing,
    Ring,
    ZMod,
    crt_split,
    is_ring_automorphism,
    ring_automorphisms,
    ring_make,
)
from chevalley.roots import Root, RootSystem, diagram_symmetries


class CertifyError(Exception):
    """A refusal, tagged with the pipeline stage that detected it."""

    def __init__(self, stage: str, detail: str, witness: Optional[dict] = None):
        super().__init__(f"{stage}: {detail}")
        self.stage = stage
        self.detail = detail
        self.witness = witness or {}

    def to_json(self) -> dict:
        return {"error": {"stage": self.stage, "detail": self.detail,
                          "witness": self.witness}}


# ---------------------------------------------------------------------------
# spanning parameters and additive coordinates


def spanning_params(ring: Ring) -> Tuple:
    """1 together with the additive generators of the ring."""
    out = [ring.one]
    for g in ring.additive_generators():
        if g not in out:
            out.append(g)
    return tuple(out)


# ---------------------------------------------------------------------------
# the spec


@dataclass(frozen=True, eq=False)
class AutomorphismSpec:
    """Generator images of a would-be automorphism of the elementary group."""

    system: str
    ring: str
    images: Tuple[Tuple[Tuple[Root, object], np.ndarray], ...]

    def image_dict(self) -> Dict[Tuple[Root, object], np.ndarray]:
        return dict(self.images)

    def to_json(self) -> dict:
        ring = ring_make(self.ring)
        return {
            "system": self.system,
            "ring": self.ring,
            "images": [
                {"root": list(root), "param": ring.element_to_json(t),
                 "matrix": m.tolist()}
                for (root, t), m in self.images
            ],
        }


def spec_from_json(data: dict) -> AutomorphismSpec:
    """Parse a spec document strictly: every refusal is a precheck error.

    The system and ring are JSON strings.  Roots and elements are JSON
    integers, never bools or floats (an element of a product ring is a list
    of one per factor); elements lie in the ring, each matrix is dim x dim,
    and no (root, param) pair appears twice.  Entries are walked one by one
    only to name the first offender of a matrix ``_element_array`` refuses.
    """
    try:
        system = data["system"]
        ring_name = data["ring"]
        for field, value in (("system", system), ("ring", ring_name)):
            if not isinstance(value, str):
                raise CertifyError("precheck", f"{field} is not a string",
                                   {field: value})
        ring = ring_make(ring_name)
        if not getattr(ring, "size", None):
            raise CertifyError("precheck", "decomposition needs a finite ring, "
                               f"got {ring_name}")
        _, alg = group_for(system)

        def element(raw, what, witness):
            if not _is_int_json(ring, raw):
                raise CertifyError("precheck", f"{what} is not an integer element",
                                   dict(witness, value=raw))
            v = ring.element_from_json(raw)
            if not _in_ring(ring, v):
                raise CertifyError("precheck", f"{what} outside the ring")
            return v

        images = {}
        for entry in data["images"]:
            root = tuple(entry["root"])
            if not (all(type(c) is int for c in root) and alg.system.is_root(root)):
                raise CertifyError("precheck", f"{root} is not a root of {system}")
            t = element(entry["param"], "parameter", {"root": list(root)})
            if (root, t) in images:
                raise CertifyError("precheck", "duplicate image for a (root, param) pair",
                                   {"key": _key_json(ring, (root, t))})
            raw = entry["matrix"]
            lengths = [len(row) if isinstance(row, list) else None
                       for row in raw] if isinstance(raw, list) else None
            if lengths != [alg.dim] * alg.dim:
                raise CertifyError("precheck", f"image matrix is not {alg.dim}x{alg.dim}",
                                   {"key": _key_json(ring, (root, t)), "row_lengths": lengths})
            held = _element_array(ring, raw)
            if held is None:
                witness = {"key": _key_json(ring, (root, t))}
                for v in itertools.chain.from_iterable(raw):
                    element(v, "matrix entry", witness)
            images[(root, t)] = frozen(held)
        return AutomorphismSpec(system, ring_name, tuple(images.items()))
    except CertifyError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CertifyError("precheck", f"malformed spec: {exc}") from exc


def _element_array(ring: Ring, raw):
    """The dim x dim rows ``raw`` in the ring's stack_dtype, or None unless
    every entry is a JSON integer in the ring (over a product ring, a list of
    one per factor): one type-set check, one shape check, one range check."""
    entries, tops = list(itertools.chain.from_iterable(raw)), ring.size
    if isinstance(ring, ProductRing):   # a non-list entry puts None in the set
        entries = list(itertools.chain.from_iterable(
            x if type(x) is list else [None] for x in entries))
        tops = [f.size for f in ring.factors]
    if {type(x) for x in entries} != {int}:
        return None
    try:
        held = np.array(raw, dtype=stack_dtype(ring, len(raw)))
    except (OverflowError, ValueError):   # past int64, or ragged entries
        return None
    fits = held.shape[2:] == np.shape(tops) and ((held >= 0) & (held < tops)).all()
    return held if fits else None


def _is_int_json(ring: Ring, raw) -> bool:
    """raw is a JSON integer, or over a product ring a list of one per factor."""
    if isinstance(ring, ProductRing):
        return (isinstance(raw, list) and len(raw) == len(ring.factors)
                and all(_is_int_json(f, x) for f, x in zip(ring.factors, raw)))
    return type(raw) is int


def _in_ring(ring: Ring, v) -> bool:
    """An element read by ``_is_int_json`` lies in [0, size) in every factor."""
    pairs = zip(ring.factors, v) if isinstance(ring, ProductRing) else [(ring, v)]
    return all(0 <= x < f.size for f, x in pairs)


def spec_from_elements(system: str, ring: Ring, table: Dict[Tuple[Root, object], np.ndarray]
                       ) -> AutomorphismSpec:
    # a ring's elements are all ints or all tuples, so the keys sort as they are
    items = tuple((key, frozen(np.asarray(m, dtype=stack_dtype(ring, len(m)))))
                  for key, m in sorted(table.items(), key=lambda kv: kv[0]))
    return AutomorphismSpec(system, ring.descriptor, items)


# ---------------------------------------------------------------------------
# precheck: orders, injectivity, commutator pattern; extends the table


@lru_cache(maxsize=None)
def _precheck_plan(alg: AdjointAlgebra, ring: Ring):
    """What the precheck reads that depends only on (algebra, ring), once:
    (at, orders, layers, laws, law_rows, pairs, commutator).

    ``at`` maps each supplied key (root, g) to its row, root-major in
    spanning_params order, and orders holds the additive order of each g.
    Per additive generator, in additive_coords order, a layer holds the key
    rows of every root at it (a column) and every element's coefficient on it
    (a row).  laws are the (root, s, t) of the one-parameter law over the
    spanning parameters, law_rows the key rows of (root, s) and (root, t) and
    the stack_row of (root, s + t).  pairs are the commutator pairs
    (r, s, coeffs) with r != -s, and commutator their commutator_rows at
    t = u = 1."""
    sysm, span = alg.system, spanning_params(ring)
    at = {key: q for q, key in enumerate(itertools.product(sysm.roots, span))}
    orders = frozen(np.array([ring.additive_order(g) for _, g in at]))
    column = np.arange(len(sysm.roots))[:, None] * len(span)
    # the transpose puts a product ring's factors first, where additive_coords reads them
    layers = tuple((frozen(column + span.index(g)), frozen(np.asarray(c)[None]))
                   for g, c in ring.additive_coords(every_element(ring).T))
    laws = tuple((root, s, t) for root in sysm.roots for s, t in itertools.product(span, repeat=2))
    law_rows = tuple(frozen(np.array(x)) for x in zip(*(
        (at[(root, s)], at[(root, t)], stack_row(ring, sysm.root_index(root),
                                                 positions(ring, ring.add(s, t))))
        for root, s, t in laws)))
    pairs = tuple((r, s, chain_coefficients(alg, r, s))
                  for r, s in itertools.permutations(sysm.roots, 2) if r != sysm.negate(s))
    commutator = tuple(map(frozen, commutator_rows(alg, ring, pairs, [(ring.one, ring.one)])))
    return at, orders, layers, laws, law_rows, pairs, commutator


def _first_repeat(blobs):
    """(i, j) for the first j whose bytes equal those of an earlier i, or
    None, from one dict keyed on the bytes of each item."""
    rows = list(map(bytes, blobs))
    first = dict(zip(reversed(rows), range(len(rows) - 1, -1, -1)))   # the earliest i of each
    if len(first) < len(rows):
        return next((first[row], j) for j, row in enumerate(rows) if first[row] != j)
    return None


def precheck(spec: AutomorphismSpec, alg: Optional[AdjointAlgebra] = None):
    """Validate the supplied images and extend them to every parameter.

    Returns the extended table: a stack of arrays of elements (see
    ``linalg.stack_mul``) with the image of x_root(t) for every root and
    every t in the ring, in the rows of ``group.stack_row``.  Raises
    CertifyError("precheck", ...) on any violation, first of all when that
    table would pass STACK_BUDGET entries.  Only matrices are built:
    no check reads an inverse.  Every check runs on all images at once and
    reports its first failure in the order of the loop it replaces.
    """
    if alg is None:
        _, alg = group_for(spec.system)
    sysm = alg.system
    ring = ring_make(spec.ring)
    if not getattr(ring, "size", None):
        raise CertifyError("precheck", "decomposition needs a finite ring, "
                           f"got {spec.ring}")
    entries = stack_entries(alg, ring.size)
    if entries > STACK_BUDGET:
        raise CertifyError("precheck", "ring too large: its tables pass the entry budget",
                           {"entries": entries, "budget": STACK_BUDGET})
    at, orders, layers, laws, law_rows, pairs, commutator = _precheck_plan(alg, ring)
    provided = spec.image_dict()

    if provided.keys() != at.keys():
        missing = sorted(at.keys() - provided.keys())[:3]
        extra = sorted(provided.keys() - at.keys())[:3]
        raise CertifyError(
            "precheck",
            "images must cover exactly the roots times the spanning parameters",
            {"missing": [_key_json(ring, k) for k in missing],
             "extra": [_key_json(ring, k) for k in extra]})

    # the powers of the supplied images up to the largest additive order, by
    # doubling (powers[c + have] = powers[c] powers[have], one batched product
    # a step), until each has met the identity or passed its additive order;
    # met is the first c >= 1 with image^c = 1 so far, or 0
    images = np.array([provided[key] for key in at], dtype=stack_dtype(ring, alg.dim))
    eye = identity_element(alg, ring).mat
    powers = np.empty((int(orders.max()) + 1,) + images.shape, dtype=images.dtype)
    powers[0], powers[1] = eye, images
    met, have = np.where(stack_equal(images, eye), 1, 0), 1
    while ((met == 0) & (orders > have)).any():
        step = min(have, len(powers) - 1 - have)
        block = powers[have + 1:have + step + 1]
        block[...] = stack_mul(ring, powers[1:step + 1], powers[have])
        hit = stack_equal(block.reshape((-1,) + images.shape[1:]), eye).reshape(step, -1)
        new = (met == 0) & hit.any(axis=0)
        met[new] = have + 1 + hit.argmax(axis=0)[new]
        have += step
    bad = met != orders   # an image that never met the identity is singular or of larger order
    if bad.any():
        key = next(key for key in provided if bad[at[key]])
        if not met[at[key]] and not ring_invertible(ring, provided[key]):
            raise CertifyError("precheck", "image matrix is not invertible",
                               {"key": _key_json(ring, key)})
        raise CertifyError("precheck", "not bijective on parameters",
                           {"key": _key_json(ring, key)})

    # extend additively: the image at t is the product over the additive
    # generators g of the image at g to t's coefficient on g, the same product
    # for every root (over Z/n one gather from the powers)
    table = None
    for column, coefficients in layers:
        layer = powers[coefficients, column]          # [root, t]
        table = layer if table is None else stack_mul(ring, table, layer)
    # within the budget the table is int64, whose bytes compare as its values
    flat = np.ascontiguousarray(table).reshape(len(sysm.roots), ring.size, -1)
    for root, blobs in zip(sysm.roots, flat.view(np.dtype((np.void, flat[0, 0].nbytes)))):
        repeat = _first_repeat(blobs[:, 0])
        if repeat is not None:
            raise CertifyError("precheck", "not bijective on parameters",
                               {"root": list(root),
                                "params": [ring.element_to_json(t)
                                           for t in every_element(ring)[list(repeat)]]})
    table = table.reshape(-1, *images.shape[1:])

    # one-parameter law inside the provided set
    at_s, at_t, at_sum = law_rows
    held = stack_equal(stack_mul(ring, images[at_s], images[at_t]), table[at_sum])
    if not held.all():
        root, s, t = laws[int(np.argmin(held))]
        raise CertifyError("precheck", "one-parameter law fails",
                           {"key": _key_json(ring, (root, s)),
                            "other": ring.element_to_json(t)})

    # commutator pattern at parameter 1; the law makes t -> table[(root, t)]
    # a homomorphism, so the image at -1 is the inverse of the image at 1; read
    # from a float32 tier copy where there is one: its gathers take half the bytes
    tier = table.astype(stack_dtype(ring, alg.dim, carrier=True), copy=False)
    held = commutator_pattern_holds(ring, tier, commutator)
    if not held.all():
        r, s, _ = pairs[int(np.argmin(held))]
        raise CertifyError("precheck", "commutator pattern fails",
                           {"roots": [list(r), list(s)]})
    return table


def _key_json(ring: Ring, key) -> dict:
    root, t = key
    return {"root": list(root), "param": ring.element_to_json(t)}


# ---------------------------------------------------------------------------
# splitting along idempotents


@dataclass
class FactorProblem:
    index: int                  # position in crt_split(ring).factors
    target: int                 # factor index the images land in
    ring: Ring                  # the local ring (source and target agree)
    table: np.ndarray           # a precheck table over the local ring


def split_local(spec_table, alg: AdjointAlgebra, ring: Ring) -> List[FactorProblem]:
    """Locate each factor's image factor and project the tables locally.

    The transport test is the generator-level shadow of the fact that an
    automorphism maps the kernel of reduction at one maximal ideal onto the
    kernel at another: every image of a generator supported on one idempotent
    must be trivial in all but one factor.  A factor's projection is a lookup
    of every entry's position in ring.elements() (``linalg.positions``).
    """
    factors, projections, _ = crt_tables(ring)
    if len(factors) == 1:
        return [FactorProblem(0, 0, factors[0].ring, spec_table)]

    n = alg.dim
    codes = positions(ring, spec_table).reshape(len(alg.system.roots), -1, n, n)
    eye = np.eye(n, dtype=np.int64)

    def lifted(lf, ts):     # every root's image at lf.embed(t), for t in ts
        return codes[:, positions(ring, [lf.embed(t) for t in ts])]

    sigma: Dict[int, int] = {}
    for j, lf in enumerate(factors):
        images = lifted(lf, [t for t in lf.ring.elements() if t != lf.ring.zero])
        hit = {k for k, project in enumerate(projections) if (project[images] != eye).any()}
        if len(hit) != 1:
            raise CertifyError(
                "split", "factor images do not land in a single factor",
                {"factor": j, "hit": sorted(hit)})
        sigma[j] = hit.pop()

    if sorted(sigma.values()) != list(range(len(factors))):
        raise CertifyError("split", "factor correspondence is not a bijection",
                           {"sigma": sigma})
    for j, k in sigma.items():
        if factors[j].ring.descriptor != factors[k].ring.descriptor:
            raise CertifyError("split", "factor mapped to a non-isomorphic factor",
                               {"factor": j, "target": k})

    return [FactorProblem(j, sigma[j], lf.ring,
                          projections[sigma[j]][lifted(lf, lf.ring.elements())].reshape(-1, n, n))
            for j, lf in enumerate(factors)]


# ---------------------------------------------------------------------------
# intertwining equations


def _intertwiner_basis(ring: Ring, xs, ys) -> np.ndarray:
    """Basis of {M : M X = Y M for every pair X, Y of the stacks xs, ys}, as
    the rows of a (b, n*n) array.

    The first pair's equations are the rows of I (x) X^T - Y (x) I, written
    into one array.  After it each pair's residuals B_c X - Y B_c are two
    batched products, and so is the recombination of the basis by their
    nullspace (a batch of one, which stack_mul carries in float32).
    """
    n = xs.shape[-1]
    nn = n * n
    dtype = residue_dtype(ring.n, nn) if isinstance(ring, ZMod) else np.int64
    sub_mul = row_ops(ring)[1]
    # entry (i, j) of E_ab X - Y E_ab is [i = a] X[b, j] - Y[i, a] [b = j],
    # held in the smallest type that holds a difference of two elements
    first = np.zeros((n, n, n, n), dtype=np.min_scalar_type(-2 * ring.size))   # [i, j, a, b]
    x, y = xs[0].astype(first.dtype), ys[0].astype(first.dtype)
    for i in range(n):
        first[i, :, i, :] = x.T
    for j in range(n):
        first[:, j, :, j] = sub_mul(first[:, j, :, j], 1, y)
    basis = local_nullspace(ring, list(first.reshape(nn, nn))).astype(dtype, copy=False)
    del first
    for x, y in zip(xs[1:], ys[1:]):
        if not len(basis):
            break
        mb = basis.reshape(-1, n, n)
        residual = sub_mul(stack_mul(ring, mb, x), 1, stack_mul(ring, y, mb))
        coords = local_nullspace(ring, list(residual.reshape(len(basis), nn).T))
        basis = stack_mul(ring, coords.astype(dtype, copy=False)[None], basis[None])[0]
    return basis


# ---------------------------------------------------------------------------
# big-cell factorization: the strict-innerness test and word extraction


@lru_cache(maxsize=None)
def _weight_perm(sysm: RootSystem) -> Tuple[int, ...]:
    nroots = len(sysm.roots)

    def h(i: int) -> int:
        return sum(sysm.roots[i]) if i < nroots else 0

    return tuple(sorted(range(sysm.dimension), key=lambda i: (-h(i), i)))


@lru_cache(maxsize=None)
def _weyl_words(sysm: RootSystem) -> Tuple[Tuple[int, ...], ...]:
    """Words in simple reflections for every Weyl group element, BFS order."""
    maps = [tuple(sysm.root_index(sysm.reflect(root, sysm.simple(i))) for root in sysm.roots)
            for i in range(sysm.rank)]
    ident = tuple(range(len(sysm.roots)))
    seen, queue = {ident: ()}, [ident]
    for img in queue:   # breadth first: the queue grows while it is read
        for i, smap in enumerate(maps):
            nxt = tuple(img[j] for j in smap)
            if nxt not in seen:
                seen[nxt] = seen[img] + (i,)
                queue.append(nxt)
    return tuple(seen.values())


@lru_cache(maxsize=None)
def _weyl_elements(alg: AdjointAlgebra, ring: Ring) -> np.ndarray:
    """w^-1 for every word w of _weyl_words, in its order, as one read-only
    stack: w^-1 = s^-1 parent^-1 for the BFS parent of w (the word less its
    last letter s), one batched product per BFS layer."""
    sysm = alg.system
    words = _weyl_words(sysm)
    simple = np.stack([weyl(alg, ring, sysm.simple(i), ring.one).inv_mat for i in range(sysm.rank)])
    at = {word: q for q, word in enumerate(words)}
    out = np.empty((len(words),) + simple.shape[1:], dtype=simple.dtype)
    out[0] = identity_element(alg, ring).mat
    lo = 1
    for _, layer in itertools.groupby(words[1:], key=len):   # BFS layers are runs
        layer = list(layer)
        out[lo:lo + len(layer)] = stack_mul(ring, simple[[w[-1] for w in layer]],
                                            out[[at[w[:-1]] for w in layer]])
        lo += len(layer)
    return frozen(out)


@lru_cache(maxsize=None)
def _unit_inverses(ring: Ring) -> np.ndarray:
    """The inverse of every unit of Z/n or GF(q) at its own value, 0 at a
    non-unit."""
    return frozen(np.array([ring.inv(x) if ring.is_unit(x) else 0 for x in ring.elements()],
                           dtype=np.int64))


def _unit_lu(ring: Ring, stack):
    """Doolittle splits m = L U, L unit lower triangular, of every matrix of a
    stack over Z/n or GF(q), in n steps batched over the stack: (rows, L, U)
    for the matrices whose pivots are all units, rows their positions in the
    stack, or None once no matrix has a unit pivot left."""
    inverses = _unit_inverses(ring)
    scale, sub_mul = row_ops(ring)
    n = stack.shape[-1]
    rows = np.arange(len(stack))
    upper = stack.copy()
    lower = np.zeros_like(upper)
    lower[:, range(n), range(n)] = 1
    for k in range(n):
        pinv = inverses[upper[:, k, k]]
        if not pinv.all():
            live = np.flatnonzero(pinv)
            if not live.size:
                return None
            rows, lower, upper, pinv = rows[live], lower[live], upper[live], pinv[live]
        f = scale(upper[:, k + 1:, k], pinv[:, None])
        lower[:, k + 1:, k] = f
        upper[:, k + 1:, k:] = sub_mul(upper[:, k + 1:, k:], f[:, :, None], upper[:, k, None, k:])
    return rows, lower, upper


def _fit_unipotent(alg: AdjointAlgebra, ring: Ring, target, sign: int):
    """The x tokens, in the order of the positive roots, whose product is the
    array target, all roots of one sign, or None.  Each parameter is read off
    its root's slot of the target less the product so far, and each x_root(t)
    is one x_stack row multiplied in."""
    sysm = alg.system
    acc = identity_element(alg, ring).mat.astype(target.dtype)
    tokens = []
    for beta in sysm.positives:
        root = beta if sign > 0 else sysm.negate(beta)
        (i, j), unit = alg._slot(root)
        t = ring.mul(ring.sub(int(target[i, j]), int(acc[i, j])), ring.from_int(unit))
        if t != ring.zero:
            tokens.append(("x", root, t))
            acc = stack_mul(ring, acc, x_stack(alg, ring, [(root, t)])[0])
    return tuple(tokens) if (acc == target).all() else None


def _big_cell(alg: AdjointAlgebra, ring: Ring, word, lower, upper, m):
    """w u^- chi u^+ with m = c * it for a unit c, or None, from the BFS word
    of w and the Doolittle factors lower and upper of w^-1 m, taken back to
    the natural basis order.  The diagonal of upper holds the pivots, all
    units."""
    sysm = alg.system
    scale = row_ops(ring)[0]
    scalar = upper[len(sysm.roots), len(sysm.roots)]
    upper = scale(upper, _unit_inverses(ring)[scalar])
    simple = [sysm.root_index(sysm.simple(j)) for j in range(sysm.rank)]
    diagonal = np.diagonal(upper)
    chi = torus_chi(alg, ring, tuple(int(diagonal[q]) for q in simple))
    if not np.array_equal(diagonal, np.diagonal(chi.mat)):
        return None
    down = _fit_unipotent(alg, ring, lower, -1)
    if down is None:
        return None
    # chi^-1 upper: the rows of upper over their diagonal entries, those of chi
    up = _fit_unipotent(alg, ring, scale(upper, _unit_inverses(ring)[diagonal][:, None]), +1)
    if up is None:
        return None
    w = tuple(("w", sysm.simple(i), ring.one) for i in word)
    elem = from_word(alg, ring, w + down + chi.word + up)
    if (scale(elem.mat.astype(m.dtype), scalar) != m).any():
        return None
    return elem


def strictly_inner_element(alg: AdjointAlgebra, ring: Ring, m):
    """A group element with the same conjugation action as the matrix m, or
    None, over Z/n or GF(q) (match calls it on local factors' arrays).

    Scans Weyl translates of the big cell, all at once (see the module
    notes); over a local ring this covers the whole group generated by the
    root elements and the torus, so failure means the candidate is not an
    inner conjugator.
    """
    sysm = alg.system
    perm = np.array(_weight_perm(sysm))
    back = np.argsort(perm)
    m = np.asarray(m, dtype=stack_dtype(ring, alg.dim))
    translates = stack_mul(ring, _weyl_elements(alg, ring), m)[:, perm[:, None], perm]
    lu = _unit_lu(ring, translates)
    if lu is None:
        return None
    rows, lower, upper = lu
    lower, upper = (x[:, back[:, None], back] for x in (lower, upper))
    words = _weyl_words(sysm)
    for q, low, up in zip(rows.tolist(), lower, upper):
        elem = _big_cell(alg, ring, words[q], low, up, m)
        if elem is not None:
            return elem
    return None


# ---------------------------------------------------------------------------
# per-factor matching


def _twist_table(alg, ring, table, gd):
    """lam^-1 m lam for every image matrix m of a stack; the stack itself for
    no twist."""
    if gd is None:
        return table
    lam, lam_inv = gd.matrices(ring)
    return sandwich(ring, lam_inv, table, lam)


def _residual_rho(alg: AdjointAlgebra, ring: Ring, conj: GroupElement, table, units):
    """Parameter map of the residual, a position array, or an error detail dict.

    The residuals conj^-1 m conj of every image of the table are two batched
    products; each must be the root element of ``units`` (a root_stack) at
    the parameter read off its slot by row_ops, its own position over a local
    ring.  The first failure is reported in (t, root) order.
    """
    sysm, n = alg.system, alg.dim
    resid = sandwich(ring, conj.inv_mat, table, conj.mat).reshape(-1, ring.size, n, n)
    slots, scalars = zip(*map(alg._slot, sysm.roots))
    (i, j), q = np.array(slots).T, np.arange(len(sysm.roots))
    params = row_ops(ring)[0](resid[q, :, i, j], from_ints(ring, scalars, np.int64)[:, None])
    is_root = (resid == units[stack_row(ring, q[:, None], params)]).all(axis=(2, 3))
    bad = ~is_root | (params != params[0])
    if bad.any():
        t, r = divmod(int(np.argmax(bad.T)), len(sysm.roots))
        return None, {"reason": "parameter image differs across roots" if is_root[r, t]
                      else "residual is not a root element",
                      "key": _key_json(ring, (sysm.roots[r], t))}
    rho = frozen(params[0].astype(np.int64))
    if rho[ring.one] != ring.one:
        return None, {"reason": "residual moves the unit parameter"}
    if not is_ring_automorphism(ring, rho):
        return None, {"reason": "parameter map is not a ring automorphism"}
    return rho, None


def _match_local(alg: AdjointAlgebra, ring: Ring, table, problem_tag, units):
    """Search (delta, conjugator, rho) for one local factor; ``units`` is its
    root_stack.

    The conjugator intertwines each x_root(1) with its untwisted image.  The
    intertwiners reduce to a line over the residue field, and over a local
    ring a matrix is invertible exactly when its residue is, so the candidates
    are the basis rows that pass the unit pivot test, in basis order.
    """
    sysm = alg.system
    at_one = stack_row(ring, np.arange(len(sysm.roots)), positions(ring, ring.one))
    deepest = CertifyError("match", "no diagram symmetry admits a strictly "
                           "inner intertwiner", {"factor": problem_tag})
    for delta in diagram_symmetries(sysm):
        gd = None if delta.is_identity else graph_data(alg, delta)
        twisted = _twist_table(alg, ring, table, gd)
        basis = _intertwiner_basis(ring, units[at_one], twisted[at_one])
        for m in basis.reshape(-1, alg.dim, alg.dim):
            if not local_invertible(ring, m):
                continue
            conj = strictly_inner_element(alg, ring, m)
            if conj is None:
                continue
            rho, err = _residual_rho(alg, ring, conj, twisted, units)
            if rho is None:
                err["factor"] = problem_tag
                deepest = CertifyError("ringmap", err.pop("reason"), err)
                continue
            return delta, conj, rho
    raise deepest


# ---------------------------------------------------------------------------
# the certificate


@dataclass
class FactorCertificate:
    ring: str
    source_idempotent: object
    target_idempotent: object
    delta: Tuple[int, ...]
    conjugator_word: Tuple
    rho: np.ndarray            # a position array over the local ring


@dataclass(eq=False)
class Certificate:
    """The standard automorphism x_root(t) -> lambda C x_root(rho t) C^-1
    lambda^-1 and the per-factor data it was assembled from.  ``replay`` and
    ``apply`` both read the one composition, ``_compose``."""

    system: str
    ring: str
    factors: Tuple[FactorCertificate, ...]
    lambda_mat: np.ndarray
    lambda_inv: np.ndarray
    conjugator: np.ndarray
    conjugator_inv: np.ndarray
    rho: np.ndarray
    report: dict

    def _compose(self, ring: Ring, stack):
        """(lambda C) m (C^-1 lambda^-1) for every matrix m of a stack, the two
        outer products folded once."""
        return sandwich(ring, stack_mul(ring, self.lambda_mat, self.conjugator), stack,
                        stack_mul(ring, self.conjugator_inv, self.lambda_inv))

    def apply(self, alg: AdjointAlgebra, ring: Ring, root: Root, t) -> tuple:
        """The image of x_root(t) under the certified standard automorphism, as
        the tuple of row tuples ``Ring.element_from_json`` reads a spec's into."""
        image = every_element(ring)[self.rho[positions(ring, t)]]
        rows = self._compose(ring, x_stack(alg, ring, [(root, image)])[0]).tolist()
        if isinstance(ring, ProductRing):
            return tuple(tuple(map(tuple, row)) for row in rows)
        return tuple(map(tuple, rows))

    def replay(self, alg: AdjointAlgebra, ring: Ring, table, units) -> int:
        """Check that every image of a precheck table is the image of its
        generator, composed over ``units``, the ring's root_stack, at once.
        Returns the number of images replayed, or raises at the first
        mismatch in (root, t) order."""
        roots = alg.system.roots
        inner = units[stack_row(ring, np.arange(len(roots))[:, None], self.rho).ravel()]
        held = stack_equal(self._compose(ring, inner), table)
        if not held.all():
            r, t = divmod(int(np.argmin(held)), ring.size)
            raise CertifyError("replay", "assembled automorphism does not "
                               "reproduce an image",
                               {"key": _key_json(ring, (roots[r], every_element(ring)[t]))})
        return len(held)

    def to_json(self) -> dict:
        ring = ring_make(self.ring)
        factors = []
        for fc in self.factors:
            fring = ring_make(fc.ring)
            factors.append({
                "ring": fc.ring,
                "source_idempotent": ring.element_to_json(fc.source_idempotent),
                "target_idempotent": ring.element_to_json(fc.target_idempotent),
                "delta": list(fc.delta),
                "conjugator_word": [_token_json(fring, tok)
                                    for tok in fc.conjugator_word],
                "rho": _rho_json(fring, fc.rho),
            })
        return {
            "system": self.system,
            "ring": self.ring,
            "factors": factors,
            "global": {
                "lambda": self.lambda_mat.tolist(),
                "lambda_inv": self.lambda_inv.tolist(),
                "conjugator": self.conjugator.tolist(),
                "conjugator_inv": self.conjugator_inv.tolist(),
                "rho": _rho_json(ring, self.rho),
            },
            "report": self.report,
        }


def _rho_json(ring: Ring, rho) -> list:
    """A position array as the [t, rho(t)] pair of every element, in
    ring.elements() order."""
    every = every_element(ring)
    return np.stack([every, every[rho]], axis=1).tolist()


def _token_json(ring: Ring, token) -> list:
    kind, root, t = token
    if kind == "chi":
        return ["chi", [ring.element_to_json(u) for u in root], None]
    return [kind, list(root), ring.element_to_json(t)]


def certify(spec: AutomorphismSpec) -> Certificate:
    """Decompose the spec or raise a stage-tagged CertifyError.  The
    Certificate is assembled first, and replayed before it is returned."""
    _, alg = group_for(spec.system)
    ring = ring_make(spec.ring)
    table = precheck(spec, alg)
    matched = []    # (problem, delta, conjugator, rho) per factor, in source order
    for problem in split_local(table, alg, ring):
        units = root_stack(alg, problem.ring)
        matched.append((problem, *_match_local(alg, problem.ring, problem.table,
                                               problem.index, units)))

    # reassemble over the whole ring through the idempotents; factor data is
    # found at its source, placed at its target's slot; rho(t) is the lift
    # of the factors' images of its projections, one gather
    factors, project, lift = crt_tables(ring)
    by_target = sorted(matched, key=lambda found: found[0].target)
    lam, lam_inv, conj, conj_inv = (frozen(crt_combine(ring, parts)) for parts in zip(*(
        graph_data(alg, delta).matrices(problem.ring) + (c.mat, c.inv_mat)
        for problem, delta, c, _ in by_target)))
    rho = frozen(positions(ring, lift[np.ravel_multi_index(
        [r[project[problem.index]] for problem, _, _, r in by_target],
        [lf.ring.size for lf in factors])]))
    cert = Certificate(spec.system, spec.ring, tuple(
        FactorCertificate(problem.ring.descriptor, factors[problem.index].idempotent,
                          factors[problem.target].idempotent, delta.perm, c.word, r)
        for problem, delta, c, r in matched), lam, lam_inv, conj, conj_inv, rho, {})

    # a local ring is its own one factor, whose stack the match already built
    if len(factors) > 1:
        units = root_stack(alg, ring)
    cert.report = {"generators_replayed": cert.replay(alg, ring, table, units),
                   "factors": len(factors), "spanning_parameters": len(spanning_params(ring))}
    return cert


# ---------------------------------------------------------------------------
# forging random standard automorphisms (for round-trip testing)


def forge_random_parts(system: str, ring_name: str, seed: int):
    """A random standard automorphism spec plus the planted components."""
    sysm, alg = group_for(system)
    ring = ring_make(ring_name)
    rng = random.Random(f"{system}|{ring_name}|{seed}")
    deltas = [rng.choice(diagram_symmetries(sysm)) for _ in crt_split(ring).factors]
    rho = rng.choice(ring_automorphisms(ring))
    units = [u for u in ring.units()]
    word = []
    for _ in range(rng.randrange(0, 6)):
        kind = rng.choice(("x", "x", "w", "h", "chi"))
        if kind == "chi":
            word.append(("chi", tuple(rng.choice(units) for _ in range(sysm.rank)),
                         None))
        elif kind == "x":
            word.append(("x", rng.choice(sysm.roots), ring.rand(rng)))
        else:
            word.append((kind, rng.choice(sysm.roots), rng.choice(units)))
    return forge_parts(system, ring, deltas, rho, from_word(alg, ring, tuple(word)))


def forge_parts(system: str, ring: Ring, deltas, rho, g):
    """The spec of lambda g x_root(rho t) g^-1 lambda^-1 at the spanning
    parameters, lambda from one diagram symmetry per local factor and rho a
    position array, plus the planted components, their rho as (t, rho(t))
    pairs."""
    sysm, alg = group_for(system)
    lam, lam_inv = (frozen(crt_combine(ring, parts)) for parts in zip(*(
        graph_data(alg, delta).matrices(lf.ring)
        for lf, delta in zip(crt_tables(ring)[0], deltas))))
    span, every = spanning_params(ring), every_element(ring)
    keys = list(itertools.product(sysm.roots, span))
    moved = every[rho[positions(ring, span)]]
    images = sandwich(ring, stack_mul(ring, lam, g.mat),
                      x_stack(alg, ring, [(root, t) for root in sysm.roots for t in moved]),
                      stack_mul(ring, g.inv_mat, lam_inv))
    spec = spec_from_elements(system, ring, dict(zip(keys, images)))
    planted = {
        "lambda": lam,
        "lambda_inv": lam_inv,
        "conjugator": g,
        "rho": tuple(zip(every, every[rho])),
        "deltas": tuple(d.perm for d in deltas),
    }
    return spec, planted


def forge_random(system: str, ring_name: str, seed: int) -> AutomorphismSpec:
    spec, _ = forge_random_parts(system, ring_name, seed)
    return spec
