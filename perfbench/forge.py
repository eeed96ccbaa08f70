"""Input forging for the benchmark, run as a child process.

The measured process only ever receives documents: spec JSON documents for
the decomposer workloads and ``verify`` argument lists for the suites.  This
process builds them with chevalley's own forging code, so the measured
process starts with cold caches and its set-up time is what a fresh
``chevalley decompose`` pays.

Protocol: one request per stdin line, one JSON line per reply on stdout.
``warmup`` returns one operation per configuration of the workload, on forge
seeds that the measured rounds never use (negative ones).  ``round K`` returns
the K-th measured round.  End of input ends the process.

Each operation is ``{"id", "config", "kind", "expect", "doc" | "argv"}``.
``expect`` says what a correct program returns: ``certified`` with the
planted lambda and rho, ``refused`` at a stage, or ``pass`` for a suite.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from chevalley.decomposer import (  # noqa: E402
    forge_random_parts,
    spanning_params,
    spec_from_elements,
)
from chevalley.group import group_for  # noqa: E402
from chevalley.linalg import identity, mat_mul, mat_pow, matrix, ring_invert  # noqa: E402
from chevalley.rings import ring_make  # noqa: E402
from chevalley.roots import diagram_symmetries  # noqa: E402

SMALL = (("A2", "Z/5"), ("B2", "Z/5"), ("G2", "Z/7"), ("A2", "F4"), ("A2", "Z/6"))
RANK3 = (("A3", "Z/4"), ("C3", "Z/3"))

# every suite over its default systems, on the first ring of its default
# matrix (all the pairs for recover); the full matrices take about 35 s a
# pass on a 2-vCPU Xeon VM, too long for the runs the benchmark must fit
VERIFY_CASES = tuple(
    [(suite, s, "Z/4") for suite in ("laws", "eq1", "weyl")
     for s in ("A2", "B2", "G2", "A3")]
    + [("commutator", s, "Z/4") for s in ("A2", "B2", "G2")]
    + [("jacobi", s, "Z") for s in ("A2", "B2", "G2", "A3", "C3")]
    + [("recover", s, r) for s, r in (("A2", "Z/5"), ("B2", "Z/5"), ("G2", "Z/7"),
                                      ("A3", "Z/4"), ("A3", "F4"), ("D4", "Z/2"))])


# ---------------------------------------------------------------------------
# decomposer inputs


def _json_matrix(ring, m):
    return [[ring.element_to_json(v) for v in row] for row in m]


def forged_op(system, ring_name, fseed):
    """A forged standard automorphism and the lambda and rho it must certify with."""
    spec, planted = forge_random_parts(system, ring_name, fseed)
    ring = ring_make(ring_name)
    expect = {"outcome": "certified",
              "lambda": _json_matrix(ring, planted["lambda"]),
              "rho": [[ring.element_to_json(a), ring.element_to_json(b)]
                      for a, b in planted["rho"]]}
    return {"config": f"{system}/{ring_name}", "kind": "forged",
            "doc": spec.to_json(), "expect": expect}


def forged_per_delta(system, ring_name, rng):
    """One forged spec per diagram symmetry, over a local ring.

    A spec whose planted symmetry is not the identity first pays for a
    wrong-delta intertwiner solve; for A3 that doubles its cost, so rounds of
    two randomly drawn specs would differ by seconds."""
    sysm, _ = group_for(system)
    ops = []
    for delta in diagram_symmetries(sysm):
        while True:
            fseed = rng.randrange(2 ** 31)
            _, planted = forge_random_parts(system, ring_name, fseed)
            if planted["deltas"] == (delta.perm,):
                break
        ops.append(forged_op(system, ring_name, fseed))
    return ops


def _forged_table(system, ring_name, fseed):
    spec, _ = forge_random_parts(system, ring_name, fseed)
    return dict(spec.images)


def _conjugated(ring, b, table):
    b_inv = ring_invert(ring, b)
    return {k: mat_mul(ring, mat_mul(ring, b, m), b_inv) for k, m in table.items()}


def _refusal(system, ring_name, kind, stage, table):
    spec = spec_from_elements(system, ring_make(ring_name), table)
    return {"config": f"{system}/{ring_name}", "kind": kind,
            "doc": spec.to_json(), "expect": {"outcome": "refused", "stage": stage}}


def diag_op(system, ring_name, fseed, rng):
    """A forged spec conjugated by a diagonal matrix that scales one root
    coordinate by a unit other than 1.  The images keep every relation but
    leave the group, so only an exhaustive match can refuse them."""
    ring = ring_make(ring_name)
    sysm, alg = group_for(system)
    pos = rng.randrange(len(sysm.roots))
    unit = rng.choice([u for u in ring.units() if u != ring.one])
    d = matrix([[(unit if i == pos else ring.one) if i == j else ring.zero
                 for j in range(alg.dim)] for i in range(alg.dim)])
    return _refusal(system, ring_name, "diag", "match",
                    _conjugated(ring, d, _forged_table(system, ring_name, fseed)))


def replaced_op(system, ring_name, fseed, rng):
    """A forged spec with one spanning generator's image replaced by the
    identity, which has the wrong order."""
    _, alg = group_for(system)
    table = _forged_table(system, ring_name, fseed)
    table[rng.choice(sorted(table))] = identity(ring_make(ring_name), alg.dim)
    return _refusal(system, ring_name, "replaced", "precheck", table)


def control_ops(fseeds, rng):
    """The criterion-7 control shapes, applied to forged specs.

    A forged spec is a standard automorphism, so composing it with a shape
    keeps the shape's defect and the stage that rejects it."""
    fs = iter(fseeds)
    out = []

    sysm, alg = group_for("A2")
    z5 = ring_make("Z/5")

    t = _forged_table("A2", "Z/5", next(fs))
    pairs = [(a, b) for a in sysm.roots for b in sysm.roots
             if a < b and sysm.is_root(tuple(x + y for x, y in zip(a, b)))]
    a, b = rng.choice(pairs)
    t[(a, 1)], t[(b, 1)] = t[(b, 1)], t[(a, 1)]
    out.append(_refusal("A2", "Z/5", "shuffled-labels", "precheck", t))

    t = _forged_table("A2", "Z/5", next(fs))
    key = rng.choice(sorted(t))
    rows = [list(r) for r in t[key]]
    rows[rng.randrange(alg.dim)] = [0] * alg.dim
    t[key] = matrix(rows)
    out.append(_refusal("A2", "Z/5", "singular-image", "precheck", t))

    rows = [list(r) for r in identity(z5, alg.dim)]
    rows[0][1], rows[3][6] = 1, 2
    t = _conjugated(z5, matrix(rows), _forged_table("A2", "Z/5", next(fs)))
    out.append(_refusal("A2", "Z/5", "outside-conjugator", "match", t))

    t = _forged_table("A2", "Z/5", next(fs))
    root = rng.choice(sysm.roots)
    t[(root, 1)] = mat_mul(z5, t[(root, 1)], t[(root, 1)])
    out.append(_refusal("A2", "Z/5", "one-root-rescaled", "precheck", t))

    z4 = ring_make("Z/4")
    t = {k: mat_mul(z4, m, m) for k, m in _forged_table("A3", "Z/4", next(fs)).items()}
    out.append(_refusal("A3", "Z/4", "parameter-doubling", "precheck", t))

    sb, _ = group_for("B2")
    pos = sorted(sb.positives, key=sb.height)
    tau = {pos[0]: pos[1], pos[1]: pos[0], pos[2]: pos[3], pos[3]: pos[2]}
    for r, img in list(tau.items()):
        tau[sb.negate(r)] = sb.negate(img)
    f = _forged_table("B2", "Z/5", next(fs))
    out.append(_refusal("B2", "Z/5", "length-swap", "precheck",
                        {(r, s): f[(tau[r], s)] for (r, s) in f}))

    f = _forged_table("A2", "Z/3xZ/3", next(fs))
    t = {(r, s): f[(r, (s[1], s[0]))] if r in ((0, 1), (0, -1)) else m
         for (r, s), m in f.items()}
    out.append(_refusal("A2", "Z/3xZ/3", "factor-mixing", "split", t))

    # an additive bijection of F9 that is not multiplicative; F9 elements are
    # base-3 digit pairs and the spanning parameters are 1 and 3
    f9 = ring_make("F9")
    f = _forged_table("A2", "F9", next(fs))
    sig = {s: ((s % 3 + s // 3) % 3) + 3 * (s // 3) for s in spanning_params(f9)}
    t = {(r, s): mat_mul(f9, mat_pow(f9, f[(r, 1)], sig[s] % 3),
                         mat_pow(f9, f[(r, 3)], sig[s] // 3))
         for (r, s) in f}
    out.append(_refusal("A2", "F9", "additive-only-map", "ringmap", t))

    f4 = ring_make("F4")
    t = _forged_table("A2", "F4", next(fs))
    x = f4.additive_generators()[1]
    root = rng.choice(sysm.roots)
    t[(root, x)] = mat_mul(f4, t[(root, x)], t[(root, f4.one)])
    out.append(_refusal("A2", "F4", "inconsistent-generator", "ringmap", t))
    return out


N_CONTROLS = 9


# ---------------------------------------------------------------------------
# rounds


def verify_op(suite, system, ring_name, vseed):
    return {"config": f"{suite} {system}/{ring_name}", "kind": "verify",
            "argv": ["verify", suite, "--system", system, "--ring", ring_name,
                     "--seed", str(vseed)],
            "expect": {"outcome": "pass"}}


def measured_round(workload, seed, k):
    rng = random.Random(f"{workload}|{seed}|{k}")

    def fseed():
        return rng.randrange(2 ** 31)

    if workload == "roundtrip-small":
        return [forged_op(s, r, fseed()) for s, r in SMALL]
    if workload == "roundtrip-rank3":
        return [op for s, r in RANK3 for op in forged_per_delta(s, r, rng)]
    if workload == "refusals":
        ops = [diag_op(s, r, fseed(), rng) for s, r in SMALL for _ in range(2)]
        s, r = SMALL[k % len(SMALL)]
        ops.append(replaced_op(s, r, fseed(), rng))
        return ops + control_ops([fseed() for _ in range(N_CONTROLS)], rng)
    if workload == "verify-suites":
        vseed = rng.randrange(1, 2 ** 31)
        return [verify_op(suite, s, r, vseed) for suite, s, r in VERIFY_CASES]
    raise ValueError(f"unknown workload {workload}")


def warmup_round(workload):
    """One operation per configuration, on inputs no measured round uses."""
    rng = random.Random(f"{workload}|warmup")
    if workload == "roundtrip-small":
        return [forged_op(s, r, -1 - i) for i, (s, r) in enumerate(SMALL)]
    if workload == "roundtrip-rank3":
        return [forged_op(s, r, -1 - i) for i, (s, r) in enumerate(RANK3)]
    if workload == "refusals":
        ops = [diag_op(s, r, -1 - i, rng) for i, (s, r) in enumerate(SMALL)]
        ops += [replaced_op(s, r, -11 - i, rng) for i, (s, r) in enumerate(SMALL)]
        return ops + control_ops([-21 - i for i in range(N_CONTROLS)], rng)
    if workload == "verify-suites":
        seen, ops = set(), []
        for suite, s, r in VERIFY_CASES:
            if (s, r) not in seen:
                seen.add((s, r))
                ops.append(verify_op(suite, s, r, 0))
        return ops
    raise ValueError(f"unknown workload {workload}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    for line in sys.stdin:
        request = line.split()
        if request == ["warmup"]:
            ops, tag = warmup_round(args.workload), "w"
        elif len(request) == 2 and request[0] == "round":
            k = int(request[1])
            ops, tag = measured_round(args.workload, args.seed, k), f"r{k}"
        else:
            print(f"forge: bad request {line!r}", file=sys.stderr)
            return 2
        for i, op in enumerate(ops):
            op["id"] = f"{tag}.{i}"
        sys.stdout.write(json.dumps(ops) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
