"""Command-line front end: construction dumps, verification suites,
random spec generation, and decomposition.

Artifacts are JSON with sorted keys, so identical flags and seeds produce
byte-identical output.  Wall-clock timings go to stderr, never into the
artifact.  Verification suites run their cases one after another, in case
order.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
import time
from functools import lru_cache

import numpy as np

from chevalley.decomposer import (
    CertifyError,
    certify,
    forge_random,
    spec_from_json,
)
from chevalley.group import (
    STACK_BUDGET,
    chain_coefficients,
    commutator_pattern_holds,
    commutator_rows,
    group_for,
    identity_element,
    root_stack,
    stack_entries,
    stack_row,
    word_stack,
)
from chevalley.linalg import (as_exact, diagonal_sandwich, every_element, from_ints, frozen,
                              positions, row_ops, sandwich, stack_dtype, stack_equal, stack_mul)
from chevalley.recover import recover_family, recovery_regime
from chevalley.rings import ring_make
from chevalley.roots import diagram_symmetries, system_from_name

SYSTEMS_DEFAULT = ("A2", "B2", "G2", "A3")
RINGS_DEFAULT = ("Z/4", "Z/5", "F4")

SUITE_MATRIX = {
    "laws": (SYSTEMS_DEFAULT, RINGS_DEFAULT),
    "eq1": (SYSTEMS_DEFAULT, RINGS_DEFAULT),
    "weyl": (SYSTEMS_DEFAULT, RINGS_DEFAULT),
    "commutator": (("A2", "B2", "G2"), ("Z/4", "Z/5")),
    "jacobi": (("A2", "B2", "G2", "A3", "C3"), ("Z",)),
    "recover": ((), ()),  # pairs listed separately, regimes are sparse
}

RECOVER_DEFAULT = (("A2", "Z/5"), ("B2", "Z/5"), ("G2", "Z/7"),
                   ("A3", "Z/4"), ("A3", "F4"), ("D4", "Z/2"))


def emit(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# construction dumps


def cmd_roots(args) -> int:
    sysm = system_from_name(args.system)
    doc = {
        "command": "roots",
        "system": sysm.name,
        "rank": sysm.rank,
        "dimension": sysm.dimension,
        "roots": [list(r) for r in sysm.roots],
        "positive_count": len(sysm.positives),
        "symmetries": [
            {"perm": list(d.perm), "order": d.order()}
            for d in diagram_symmetries(sysm)
        ],
    }
    emit(doc, args.out)
    return 0


def cmd_adjoint(args) -> int:
    sysm, alg = group_for(args.system)
    ring = ring_make(args.ring)

    def over(m):
        return from_ints(ring, m, stack_dtype(ring, alg.dim)).tolist()
    doc = {
        "command": "adjoint",
        "system": sysm.name,
        "ring": ring.descriptor,
        "dimension": alg.dim,
        "basis": [list(r) for r in sysm.roots] + [["h", j] for j in range(sysm.rank)],
        "x": [{"root": list(r), "matrix": over(alg.x_mats[r])} for r in sysm.roots],
        "h": [{"index": j, "matrix": over(alg.h_mats[j])} for j in range(sysm.rank)],
    }
    emit(doc, args.out)
    return 0


# ---------------------------------------------------------------------------
# verification suites; each returns (checks, failures)
#
# The index tables a suite reads (rows of a root_stack, torus diagonals,
# reflections and slots) are functions of (algebra, ring) only and are built
# once, by the lru_cached _*_tables below.  They never hold data under test:
# nothing they keep is read from bracket_basis, chain_coefficients, x_stack
# or root_stack, so a defect planted there shows on every call.


def _within_budget(alg, ring, per_root) -> None:
    """Raise UnsupportedCase over a finite ring whose root_stack, or a suite's
    largest stack of per_root(ring) matrices a root, passes STACK_BUDGET."""
    if ring.size and (stack_entries(alg, ring.size) > STACK_BUDGET
                      or stack_entries(alg, per_root(ring)) > STACK_BUDGET):
        raise UnsupportedCase(f"ring too large: {ring.descriptor} passes the stack budget "
                              f"of {STACK_BUDGET} entries")


def _tier_stack(alg, ring, params=None):
    """root_stack in its storage tier (see linalg.stack_dtype): float32 over
    Z/n wherever every product of n x n matrices is exact in it."""
    return root_stack(alg, ring, params).astype(stack_dtype(ring, alg.dim, carrier=True),
                                                copy=False)


@lru_cache(maxsize=None)
def _law_tables(alg, ring):
    """(pairs, s, t, sum, zero, neg): every (s, t) of ring elements, and the
    root_stack rows of x_root(s), x_root(t) and x_root(s + t) for every root
    and pair, of x_root(0) for every root and of x_root(-t) for every row."""
    elements = list(ring.elements())
    pairs = tuple(itertools.product(elements, repeat=2))
    s, t = np.divmod(np.arange(len(pairs)), ring.size)   # the positions of each pair
    roots = np.arange(len(alg.system.roots))[:, None]

    def at(where):
        return frozen(stack_row(ring, roots, where).ravel())
    return (pairs, at(s), at(t), at(positions(ring, [ring.add(*st) for st in pairs])),
            at(positions(ring, ring.zero)), at(positions(ring, list(map(ring.neg, elements)))))


def _suite_laws(system: str, ring_name: str, seed: int):
    """x(s) x(t) = x(s + t), x(0) = 1 and x(t) x(-t) = 1 on every root, as
    batched products over one root_stack."""
    sysm, alg = group_for(system)
    ring = ring_make(ring_name)
    _within_budget(alg, ring, lambda ring: ring.size ** 2)
    stack = _tier_stack(alg, ring)
    pairs, at_s, at_t, at_sum, at_zero, at_neg = _law_tables(alg, ring)
    eye = identity_element(alg, ring).mat
    law_held = stack_equal(stack_mul(ring, stack[at_s], stack[at_t]), stack[at_sum])
    zero_held = stack_equal(stack[at_zero], eye)
    neg_held = stack_equal(stack_mul(ring, stack, stack[at_neg]), eye)
    failures = []
    for root, held, zero_ok, neg_ok in zip(sysm.roots, law_held.reshape(len(sysm.roots), -1),
                                           zero_held, neg_held.reshape(len(sysm.roots), -1)):
        failures += [{"check": "one-parameter-law", "root": list(root),
                      "s": ring.element_to_json(s), "t": ring.element_to_json(t)}
                     for s, t in (pairs[q] for q in np.flatnonzero(~held))]
        if not zero_ok:
            failures.append({"check": "zero-is-identity", "root": list(root)})
        if not neg_ok.all():
            failures.append({"check": "inverse-is-negation", "root": list(root)})
    return len(at_s) + 2 * len(sysm.roots), failures


@lru_cache(maxsize=None)
def _eq1_tables(alg, ring):
    """(units, per root alpha (alpha, h, h_inv, want)): the units u, the
    diagonals of h_alpha(u) and h_alpha(u)^-1, u^(+-<beta,alpha>) on the root
    vectors, one row per u in the stack's storage tier, and the root_stack
    rows of x_beta(u^<beta,alpha> t), u-major, the positions of the row_ops
    products u^<beta,alpha> t."""
    sysm = alg.system
    scale, elems = row_ops(ring)[0], every_element(ring)
    units, dtype = tuple(ring.units()), stack_dtype(ring, alg.dim, carrier=True)
    roots = np.arange(len(sysm.roots))[:, None]
    tables = []
    for alpha in sysm.roots:
        pairings = [sysm.pairing(beta, alpha) for beta in sysm.roots]
        h, h_inv = (np.array([[ring.power(u, e * p) for p in pairings + [0] * sysm.rank]
                              for u in units], dtype=dtype) for e in (1, -1))
        want = stack_row(ring, roots, positions(ring, scale(as_exact(h[:, :len(pairings), None]),
                                                            elems)))
        tables.append((alpha, frozen(h), frozen(h_inv), frozen(want.reshape(len(units), -1))))
    return units, tuple(tables)


def _suite_eq1(system: str, ring_name: str, seed: int):
    """h_alpha(u) x_beta(t) h_alpha(u)^-1 = x_beta(u^<beta,alpha> t), per
    alpha one diagonal_sandwich of a root_stack by the diagonals of
    h_alpha(u) for every unit u, against the rows of _eq1_tables."""
    sysm, alg = group_for(system)
    ring = ring_make(ring_name)
    _within_budget(alg, ring, lambda ring: ring.size * len(ring.units()))
    stack = _tier_stack(alg, ring)
    units, tables = _eq1_tables(alg, ring)
    failures = []
    for alpha, h, h_inv, want in tables:
        conj = diagonal_sandwich(ring, h, stack, h_inv)
        held = stack_equal(conj.reshape((want.size,) + stack.shape[1:]), stack[want.ravel()])
        for q in np.flatnonzero(~held):
            u, (beta, t) = q // len(stack), divmod(q % len(stack), ring.size)
            failures.append({"check": "torus-conjugation", "alpha": list(alpha),
                             "beta": list(sysm.roots[beta]), "u": ring.element_to_json(units[u]),
                             "t": ring.element_to_json(every_element(ring)[t])})
    return len(tables) * len(units) * len(stack), failures


@lru_cache(maxsize=None)
def _weyl_tables(alg, ring):
    """(at_one, per root alpha (gamma, i, j, units)): the root_stack rows of
    x_beta(1) and, for every beta, the position of s_alpha beta and its slot
    (row i, column j, unit) read for the sign."""
    sysm = alg.system
    tables = []
    for alpha in sysm.roots:
        gamma = [sysm.reflect(beta, alpha) for beta in sysm.roots]
        slots = list(map(alg._slot, gamma))
        at = np.array(list(map(sysm.root_index, gamma)))
        i, j = (np.array([slot[k] for slot, _ in slots], dtype=np.intp) for k in (0, 1))
        units = from_ints(ring, [u for _, u in slots], np.int64)
        tables.append(tuple(map(frozen, (at, i, j, units))))
    at_one = stack_row(ring, np.arange(len(sysm.roots)), positions(ring, ring.one))
    return frozen(at_one), tuple(tables)


def _suite_weyl(system: str, ring_name: str, seed: int):
    """w_alpha(1) x_beta(t) w_alpha(1)^-1 = x_{s_alpha beta}(sign * t), one
    sandwich of a root_stack per alpha by w_alpha(1) and its inverse, all of
    them one word_stack; the sign is read off the slot of s_alpha beta at
    t = 1, and the rows of x_{s_alpha beta}(sign * t) are row_ops products."""
    sysm, alg = group_for(system)
    ring = ring_make(ring_name)
    _within_budget(alg, ring, lambda ring: ring.size)
    stack = _tier_stack(alg, ring)
    scale, values = row_ops(ring)[0], every_element(ring)
    checks, failures = 0, []
    at_one, tables = _weyl_tables(alg, ring)
    weyls = word_stack(alg, ring, [(("w", alpha, ring.one),) for alpha in sysm.roots])
    for alpha, w, w_inv, (gamma, i, j, units) in zip(sysm.roots, *weyls, tables):
        conj = sandwich(ring, w, stack, w_inv)
        sign = scale(as_exact(conj[at_one, i, j]), units)
        rows = stack_row(ring, gamma[:, None], positions(ring, scale(sign[:, None], values)))
        held = stack_equal(conj, stack[rows.ravel()]).reshape(len(sign), -1)
        for beta, square, ok in zip(sysm.roots, positions(ring, scale(sign, sign)), held):
            checks += 1
            if square != at_one[0]:   # the position of one
                failures.append({"check": "weyl-sign-not-unit",
                                 "alpha": list(alpha), "beta": list(beta)})
                continue
            checks += len(values)
            failures += [{"check": "weyl-conjugation",
                          "alpha": list(alpha), "beta": list(beta),
                          "t": ring.element_to_json(values[k])}
                         for k in np.flatnonzero(~ok)]
    return checks, failures


def _suite_jacobi(system: str, ring_name: str, seed: int):
    """Jacobi identity on basis triples, over the integers.

    Structure constants are integral, so vanishing over Z settles every ring.
    On their tensor c[u, v, m], one first index is one ``stack_mul`` of three
    matrices over Z; past 12000 triples a seeded sample is read.  The suite
    also rechecks the extraspecial-pair sizes and the divided powers' integrality.
    """
    sysm, alg = group_for(system)
    keys = list(sysm.roots) + list(range(sysm.rank))
    at, d = {k: i for i, k in enumerate(keys)}, len(keys)
    consts = np.zeros((d, d, d), dtype=np.int64)
    for (u, a), (v, b) in itertools.product(enumerate(keys), repeat=2):
        for k, c in alg.bracket_basis(a, b).items():
            consts[u, v, at[k]] = c
    flat, tall = consts.reshape(d, d * d), consts.reshape(d * d, d)
    right, ints = np.stack([flat, flat, tall.T]), ring_make("Z")
    bad = np.empty((d, d, d), dtype=bool)
    for a in range(d):   # [[a,b],c] + [[c,a],b] + [[b,c],a] over every (b, c)
        left = np.stack([consts[a], consts[:, a], consts[:, a].T])
        abc, cab, bca = stack_mul(ints, left, right).reshape(3, d, d, d)
        bad[a] = (abc + cab.transpose(1, 0, 2) + bca.transpose(1, 2, 0)).any(axis=2)
    n, labels = d ** 3, [list(r) for r in sysm.roots] + [["h", j] for j in range(sysm.rank)]
    picked = np.array(random.Random(seed).sample(range(n), 12000)) if n > 12000 else np.arange(n)
    checks = len(picked)
    failures = [{"check": "jacobi", "triple": [labels[i] for i in np.unravel_index(q, bad.shape)]}
                for q in picked[bad.ravel()[picked]]]
    for r, s in itertools.permutations(sysm.roots, 2):   # |N_rs| = p + 1, r - p s a root
        if sysm.is_root(tuple(x + y for x, y in zip(r, s))):
            checks += 1
            if abs(alg.n_const(r, s)) != alg.constants.chain_down(s, r) + 1:
                failures.append({"check": "extraspecial-size", "pair": [list(r), list(s)]})
    for root in sysm.roots:
        checks += 1
        try:
            alg.divided_powers(root)
        except AssertionError:
            failures.append({"check": "divided-power-integrality",
                             "root": list(root)})
    return checks, failures


def _suite_commutator(system: str, ring_name: str, seed: int):
    """The commutator formula at every (r, s, t, u), one batch per r."""
    sysm, alg = group_for(system)
    ring = ring_make(ring_name)
    _within_budget(alg, ring, lambda ring: ring.size ** 2)
    params = list(itertools.product(ring.elements(), repeat=2))
    stack = _tier_stack(alg, ring)
    checks, failures = 0, []
    for r in sysm.roots:
        pairs = [(r, s, chain_coefficients(alg, r, s))
                 for s in sysm.roots if s not in (r, sysm.negate(r))]
        holds = commutator_pattern_holds(ring, stack, commutator_rows(alg, ring, pairs, params))
        checks += len(holds)
        failures += [{"check": "chevalley-commutator", "r": list(r), "s": list(s),
                      "t": ring.element_to_json(t), "u": ring.element_to_json(u)}
                     for ((_, s, _), (t, u)), ok in zip(itertools.product(pairs, params), holds)
                     if not ok]
    return checks, failures


@lru_cache(maxsize=None)
def _recover_tables(alg, ring):
    """X_root for every root, the integer adjoint matrices mapped into the
    ring in the storage tier of _tier_stack, as one read-only stack."""
    return frozen(from_ints(ring, [alg.x_mats[root] for root in alg.system.roots],
                            stack_dtype(ring, alg.dim, carrier=True)))


def _suite_recover(system: str, ring_name: str, seed: int):
    """recover_family on g x_root(1) g^-1 against g X_root g^-1 for every root,
    five random conjugators g: per trial g and g^-1 from one word_stack (the
    identity for the empty word), one sandwich of the x_root(1) stack and
    the X_root of _recover_tables side by side, and one recover_family call."""
    sysm, alg = group_for(system)
    ring = ring_make(ring_name)
    regime = recovery_regime(sysm, ring)
    if regime is None:
        raise UnsupportedCase(
            f"no recovery regime for {system} over {ring_name}: needs an "
            "invertible 2 (and 3 for G2) or a simply-laced system of rank "
            "at least 3")
    rng = random.Random(seed)
    units = ring.units()
    both = np.concatenate([_tier_stack(alg, ring, (ring.one,)), _recover_tables(alg, ring)])
    checks, failures = 0, []
    for trial in range(5):
        word = []
        for _ in range(rng.randrange(0, 5)):
            kind = rng.choice(("x", "w", "h"))
            root = rng.choice(sysm.roots)
            t = ring.rand(rng) if kind == "x" else rng.choice(units)
            word.append((kind, root, t))
        g, g_inv = word_stack(alg, ring, [word])[:, 0] if word else (
            identity_element(alg, ring).mat,) * 2
        images, lie = np.split(sandwich(ring, g, both, g_inv), 2)
        held = stack_equal(recover_family(alg, ring, images), lie)
        checks += len(sysm.roots)
        failures += [{"check": "recover-conjugated-family", "regime": regime, "trial": trial,
                      "root": list(root),
                      "word": [[k, list(r), ring.element_to_json(t)] for k, r, t in word]}
                     for root, ok in zip(sysm.roots, held) if not ok]
    return checks, failures


class UnsupportedCase(RuntimeError):
    pass


SUITES = {
    "laws": _suite_laws,
    "eq1": _suite_eq1,
    "weyl": _suite_weyl,
    "jacobi": _suite_jacobi,
    "commutator": _suite_commutator,
    "recover": _suite_recover,
}


def cmd_verify(args) -> int:
    suite = args.suite
    fn = SUITES[suite]
    if suite == "recover":
        if args.system and args.ring:
            cases = [(args.system, args.ring)]
        elif args.system or args.ring:
            cases = [(s, r) for s, r in RECOVER_DEFAULT
                     if s == args.system or r == args.ring]
            if not cases:
                print(f"no default recover case matches the given flag",
                      file=sys.stderr)
                return 2
        else:
            cases = list(RECOVER_DEFAULT)
    else:
        systems, rings = SUITE_MATRIX[suite]
        systems = [args.system] if args.system else list(systems)
        rings = [args.ring] if args.ring else list(rings)
        cases = list(itertools.product(systems, rings))

    def run(case):
        system, ring_name = case
        t0 = time.monotonic()
        try:
            checks, failures = fn(system, ring_name, args.seed)
        except UnsupportedCase as exc:
            return {"system": system, "ring": ring_name,
                    "status": "unsupported", "reason": str(exc)}, 0.0
        return {"system": system, "ring": ring_name,
                "status": "pass" if not failures else "fail",
                "checks": checks, "failures": failures}, time.monotonic() - t0

    results = [run(c) for c in cases]

    unsupported = [r for r, _ in results if r["status"] == "unsupported"]
    if unsupported and args.system and args.ring:
        # an explicitly requested combination that cannot run is a usage error
        print(f"verify {suite}: {unsupported[0]['reason']}", file=sys.stderr)
        return 2

    doc = {
        "command": "verify",
        "suite": suite,
        "seed": args.seed,
        "cases": [r for r, _ in results],
        "status": "pass" if all(r["status"] == "pass" for r, _ in results)
                  else "fail",
    }
    emit(doc, args.out)
    total = sum(dt for _, dt in results)
    for r, dt in results:
        print(f"verify {suite} {r['system']}/{r['ring']}: {r['status']} "
              f"({dt:.2f}s)", file=sys.stderr)
    print(f"verify {suite}: {doc['status']} in {total:.2f}s", file=sys.stderr)
    return 0 if doc["status"] == "pass" else 1


# ---------------------------------------------------------------------------
# forging and decomposing


def cmd_forge_random(args) -> int:
    spec = forge_random(args.system, args.ring, args.seed)
    emit(spec.to_json(), args.out)
    return 0


def cmd_decompose(args) -> int:
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"decompose: cannot read spec: {exc}", file=sys.stderr)
        return 2
    try:
        spec = spec_from_json(data)
        cert = certify(spec)
    except CertifyError as exc:
        emit(exc.to_json(), args.out)
        print(f"decompose: refused at stage {exc.stage}: {exc.detail}",
              file=sys.stderr)
        return 1
    emit(cert.to_json(), args.out)
    print(f"decompose: certified {spec.system} over {spec.ring} "
          f"({cert.report['generators_replayed']} images replayed)",
          file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process."""
    parser = argparse.ArgumentParser(
        prog="chevalley",
        description="Chevalley groups over commutative rings: construction "
                    "dumps, verification suites, and automorphism "
                    "decomposition with certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, system=False, ring=None, seed=False):
        if system:
            p.add_argument("--system", required=system == "required",
                           help="root system name, e.g. A2, B3, G2")
        if ring is not None:
            p.add_argument("--ring", required=ring == "required",
                           default=None if ring == "required" or ring == "optional"
                           else ring,
                           help="ring descriptor, e.g. Z/6, F4, Z/3xZ/3, Z")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="write the artifact here")

    p = sub.add_parser("roots", help="dump a root system")
    common(p, system="required")
    p.set_defaults(fn=cmd_roots)

    p = sub.add_parser("adjoint", help="dump the adjoint matrices")
    common(p, system="required", ring="Z")
    p.set_defaults(fn=cmd_adjoint)

    p = sub.add_parser("verify", help="run an invariant suite")
    p.add_argument("suite", choices=sorted(SUITES))
    common(p, system=True, ring="optional", seed=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("forge-random",
                       help="produce a random standard automorphism spec")
    common(p, system="required", ring="required", seed=True)
    p.set_defaults(fn=cmd_forge_random)

    p = sub.add_parser("decompose",
                       help="decompose a spec into a certificate")
    p.add_argument("--spec", required=True, help="spec JSON file")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_decompose)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (KeyError, ValueError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
