"""Acceptance gate: every primary criterion, exact arithmetic, timed budgets.

Each test prints one [PASS]/[FAIL] line (visible under pytest -s); the
assertions carry the same conditions, so a plain pytest run enforces the
gate either way.

Certificates are pinned byte for byte: ``artifact_digest`` is the sha256 of
the concatenated ``json.dumps(cert.to_json(), sort_keys=True)`` of a run of
certificates, with the default separators ``(", ", ": ")`` and no newline,
in the order the run certifies them.  Criterion 5 pins its 600 round trips,
and three more tests pin the 11-configuration sweep (config-major, seeds
0-19), D4/Z/2 at seeds 0 and 1 and A2/Z/1009 at seed 0.  A change to the search that keeps its
answers keeps every digest.
"""

import hashlib
import itertools
import json
import random
import time

import numpy as np
import pytest

from chevalley.decomposer import (
    CertifyError,
    certify,
    forge_random_parts,
    spanning_params,
    spec_from_elements,
)
from chevalley.group import group_for, root_stack, unipotent
from chevalley.linalg import from_ints, identity, mat_mul, matrix, ring_invert
from chevalley.recover import recover_family, recovery_regime
from chevalley.rings import ring_make
from chevalley.roots import build_root_system
from oracles import bracket_dict, h_element


def artifact_digest(certs) -> str:
    """The sha256 of the certificates' sorted-key JSON, concatenated."""
    digest = hashlib.sha256()
    for cert in certs:
        digest.update(json.dumps(cert.to_json(), sort_keys=True).encode())
    return digest.hexdigest()


def report(num, ok, label, dt, budget):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num}: {label} ({dt:.2f}s"
    line += f", budget {budget:.0f}s)" if budget else ")"
    print(line, flush=True)
    return ok


def test_criterion_1_torus_anchor_matrices():
    t0 = time.monotonic()
    anchors = {
        "A2": (1, 1, -1, -1, -1, -1, 1, 1),
        "B2": (1, 1, -1, -1, -1, -1, 1, 1, 1, 1),
    }
    ok = True
    for name, want in anchors.items():
        sysm, alg = group_for(name)
        for ring_name in ("Z", "Z/5", "F9"):
            ring = ring_make(ring_name)
            minus_one = ring.neg(ring.one)
            assert minus_one != ring.one
            h = h_element(alg, ring, sysm.simple(0), minus_one)
            expect = tuple(ring.from_int(v) for v in want)
            got = tuple(h.mat[i][i] for i in range(alg.dim))
            ok = ok and got == expect
            off_diag = all(h.mat[i][j] == ring.zero
                           for i in range(alg.dim) for j in range(alg.dim)
                           if i != j)
            ok = ok and off_diag
    dt = time.monotonic() - t0
    assert report(1, ok and dt < 1.0, "explicit torus anchor matrices", dt, 1)


def test_criterion_2_generator_laws_exhaustive():
    from chevalley.cli import _suite_eq1, _suite_laws, _suite_weyl

    t0 = time.monotonic()
    failures = []
    for system in ("A2", "B2", "A3", "G2"):
        for ring_name in ("Z/4", "Z/5", "Z/7", "F4"):
            for fn in (_suite_laws, _suite_eq1, _suite_weyl):
                _, bad = fn(system, ring_name, 0)
                failures.extend(bad)
    dt = time.monotonic() - t0
    assert report(2, not failures and dt < 60,
                  "one-parameter, torus and Weyl conjugation laws", dt, 60)
    assert failures == []


def test_criterion_3_lie_algebra_integrity():
    t0 = time.monotonic()
    failures = []

    def jacobi(alg, triple):
        jac = {}
        a, b, c = triple
        for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
            for k, val in bracket_dict(alg, alg.bracket_basis(u, v), {w: 1}).items():
                acc = jac.get(k, 0) + val
                if acc:
                    jac[k] = acc
                elif k in jac:
                    del jac[k]
        return not jac

    exhaustive = ("A2", "B2", "A3", "G2")
    sampled = (("C", 3), ("D", 4), ("F", 4))
    for name in exhaustive:
        sysm, alg = group_for(name)
        keys = list(sysm.roots) + list(range(sysm.rank))
        for triple in itertools.product(keys, repeat=3):
            if not jacobi(alg, triple):
                failures.append(("jacobi", name, triple))
    rng = random.Random(314159)
    for kind, rank in sampled:
        sysm = build_root_system(kind, rank)
        _, alg = group_for(sysm.name)
        keys = list(sysm.roots) + list(range(rank))
        for _ in range(100_000):
            triple = (rng.choice(keys), rng.choice(keys), rng.choice(keys))
            if not jacobi(alg, triple):
                failures.append(("jacobi-sampled", sysm.name, triple))

    for name in exhaustive + ("C3", "D4", "F4"):
        sysm, alg = group_for(name)
        for r, s in itertools.permutations(sysm.roots, 2):
            total = tuple(x + y for x, y in zip(r, s))
            if not sysm.is_root(total):
                continue
            down, probe = 0, r
            while True:
                prev = tuple(x - y for x, y in zip(probe, s))
                if not sysm.is_root(prev):
                    break
                probe, down = prev, down + 1
            if abs(alg.n_const(r, s)) != down + 1:
                failures.append(("chain-size", name, (r, s)))
        for root in sysm.roots:
            alg.divided_powers(root)  # integrality asserted inside

    dt = time.monotonic() - t0
    assert report(3, not failures and dt < 120,
                  "Jacobi, chain sizes, divided powers", dt, 120)
    assert failures == []


def test_criterion_4_recovery_oracle_equivalence():
    t0 = time.monotonic()
    cases = []
    for ring_name in ("Z/5", "Z/7"):
        cases.append(("A2", ring_name, None))
        cases.append(("B2", ring_name, None))
        # for the big system a fixed subset of roots keeps the case quick
        cases.append(("F4", ring_name, "simples"))
        cases.append(("G2", ring_name, None))
    for ring_name in ("Z/2", "Z/4"):
        cases.append(("A3", ring_name, None))
        cases.append(("D4", ring_name, None))

    checked, ok = 0, True
    for system, ring_name, subset in cases:
        sysm, alg = group_for(system)
        ring = ring_make(ring_name)
        regime = recovery_regime(sysm, ring)
        assert regime is not None, (system, ring_name)
        got = recover_family(alg, ring, root_stack(alg, ring, (ring.one,)))
        roots = sysm.roots if subset is None else tuple(
            r for i in range(sysm.rank)
            for r in (sysm.simple(i), sysm.negate(sysm.simple(i))))
        for root in roots:
            checked += 1
            want = from_ints(ring, alg.x_mats[root], np.int64)
            if not np.array_equal(got[sysm.root_index(root)], want):
                ok = False
    dt = time.monotonic() - t0
    assert report(4, ok and checked > 0 and dt < 60,
                  f"nilpotent recovery equals the integer adjoint "
                  f"({checked} cases)", dt, 60)


def test_criterion_5_decomposer_round_trips():
    t0 = time.monotonic()
    configs = [("A2", "Z/5"), ("B2", "Z/5"), ("G2", "Z/7"),
               ("A3", "Z/4"), ("A2", "F4"), ("A2", "Z/6")]
    frobenius_seen = 0
    mixed_delta_seen = 0
    certs = []
    for system, ring_name in configs:
        for seed in range(100):
            spec, planted = forge_random_parts(system, ring_name, seed)
            cert = certify(spec)  # replays every image before returning
            assert np.array_equal(cert.lambda_mat, planted["lambda"]), (system, ring_name, seed)
            assert cert.rho == planted["rho"], (system, ring_name, seed)
            if ring_name == "F4" and any(a != b for a, b in planted["rho"]):
                frobenius_seen += 1
            if ring_name == "Z/6" and len(set(planted["deltas"])) > 1:
                mixed_delta_seen += 1
            certs.append(cert)
    dt = time.monotonic() - t0
    ok = frobenius_seen > 0 and mixed_delta_seen > 0 and dt < 600
    assert report(5, ok,
                  f"600 seeded round trips (Frobenius x{frobenius_seen}, "
                  f"mixed graph x{mixed_delta_seen})", dt, 600)
    assert artifact_digest(certs) == (
        "891f35d11c7e8479175b7b0e7b976ac10598fa195ac1c1cbd27c9f6b79f82e71")


SWEEP = [("A2", "Z/5"), ("B2", "Z/5"), ("G2", "Z/7"), ("A3", "Z/4"), ("A2", "F4"),
         ("A2", "Z/6"), ("C3", "Z/3"), ("A2", "F9"), ("A2", "Z/3xZ/3"), ("B2", "F4"),
         ("A2", "F8")]


def test_sweep_certificates_are_byte_identical():
    certs = (certify(forge_random_parts(system, ring_name, seed)[0])
             for system, ring_name in SWEEP for seed in range(20))
    assert artifact_digest(certs) == (
        "911fc7ef9a05cb7368cdef8d7d15b3e7a9e30b1bff1c243e478e236fbeac3848")


@pytest.mark.parametrize("seed,want", [
    (0, "fdd664e72459c179ec24e1a17055149dce36b404704d51651f3ee097ffb397d8"),
    (1, "347a6176ca90f029b6527071dfb0538e877a5f4d073fa76a160340713066e36c"),
])
def test_d4_certificates_are_byte_identical(seed, want):
    assert artifact_digest([certify(forge_random_parts("D4", "Z/2", seed)[0])]) == want


def test_a2_over_z_1009_certificate_is_byte_identical():
    # a ring far past the bench's: certify builds no |R| x |R| table outside
    # GF(p^k) (linalg.ring_tables raises on Z/n); the digest was recorded
    # while it still built them
    assert artifact_digest([certify(forge_random_parts("A2", "Z/1009", 0)[0])]) == (
        "d295bab0f72184225ba213089b399e49cac4060dc6ca59e660684adf01464a22")


def test_criterion_6_kernel_transport():
    t0 = time.monotonic()
    ok = True
    for system, ring_name, seeds in (("A2", "Z/6", 8), ("A2", "Z/12", 5),
                                     ("B2", "Z/6", 4)):
        sysm, alg = group_for(system)
        ring = ring_make(ring_name)
        primes = sorted({p for p in (2, 3) if ring.n % p == 0})
        for seed in range(seeds):
            spec, _ = forge_random_parts(system, ring_name, seed)
            cert = certify(spec)
            for p in primes:
                for t in range(0, ring.n, p):
                    for root in sysm.roots:
                        img = cert.apply(alg, ring, root, t)
                        for i in range(alg.dim):
                            for j in range(alg.dim):
                                want = 1 if i == j else 0
                                if img[i][j] % p != want % p:
                                    ok = False
    dt = time.monotonic() - t0
    assert report(6, ok, "congruence kernels map to matched kernels "
                  "(Z/6, Z/12, exhaustive)", dt, None)


def test_criterion_7_adversarial_refusals():
    t0 = time.monotonic()
    ring5 = ring_make("Z/5")
    sysm, alg = group_for("A2")

    def honest(system, ring):
        s, a = group_for(system)
        return {(r, t): unipotent(a, ring, r, t).mat
                for r in s.roots for t in spanning_params(ring)}

    controls = []

    t = honest("A2", ring5)
    t[(sysm.roots[0], 1)] = identity(ring5, alg.dim)
    controls.append(("identity image", "A2", ring5, t))

    ring4 = ring_make("Z/4")
    s3, a3 = group_for("A3")
    controls.append(("parameter doubling", "A3", ring4,
                     {(r, s): unipotent(a3, ring4, r, (2 * s) % 4).mat
                      for r in s3.roots for s in spanning_params(ring4)}))

    t = honest("A2", ring5)
    t[((1, 0), 1)], t[((1, 1), 1)] = t[((1, 1), 1)], t[((1, 0), 1)]
    controls.append(("shuffled labels", "A2", ring5, t))

    t = honest("A2", ring5)
    m = [list(r) for r in t[(sysm.roots[0], 1)]]
    m[0] = [0] * alg.dim
    t[(sysm.roots[0], 1)] = matrix(m)
    controls.append(("singular image", "A2", ring5, t))

    m = [list(r) for r in identity(ring5, alg.dim)]
    m[0][1], m[3][6] = 1, 2
    big = matrix(m)
    big_inv = ring_invert(ring5, big)
    controls.append(("outside conjugator", "A2", ring5,
                     {(r, s): mat_mul(ring5, mat_mul(ring5, big,
                      unipotent(alg, ring5, r, s).mat), big_inv)
                      for r in sysm.roots for s in spanning_params(ring5)}))

    ring33 = ring_make("Z/3xZ/3")
    t = {}
    for r in sysm.roots:
        mix = r in ((0, 1), (0, -1))
        for s in spanning_params(ring33):
            t[(r, s)] = unipotent(alg, ring33, r,
                                  (s[1], s[0]) if mix else s).mat
    controls.append(("factor mixing", "A2", ring33, t))

    sb, ab = group_for("B2")
    pos = sorted(sb.positives, key=sb.height)
    tau = {pos[0]: pos[1], pos[1]: pos[0], pos[2]: pos[3], pos[3]: pos[2]}
    for b, img in list(tau.items()):
        tau[sb.negate(b)] = sb.negate(img)
    controls.append(("length swap", "B2", ring5,
                     {(r, s): unipotent(ab, ring5, tau[r], s).mat
                      for r in sb.roots for s in spanning_params(ring5)}))

    t = honest("A2", ring5)
    for s in spanning_params(ring5):
        t[(sysm.roots[0], s)] = unipotent(alg, ring5, sysm.roots[0],
                                          (2 * s) % 5).mat
    controls.append(("one root rescaled", "A2", ring5, t))

    d = [2] + [1] * (alg.dim - 1)
    diag = matrix([[d[i] if i == j else 0 for j in range(alg.dim)]
                   for i in range(alg.dim)])
    diag_inv = ring_invert(ring5, diag)
    controls.append(("non-character diagonal", "A2", ring5,
                     {(r, s): mat_mul(ring5, mat_mul(ring5, diag,
                      unipotent(alg, ring5, r, s).mat), diag_inv)
                      for r in sysm.roots for s in spanning_params(ring5)}))

    ring9 = ring_make("F9")
    sig = lambda v: ((v % 3 + v // 3) % 3) + 3 * (v // 3)
    controls.append(("additive-only map", "A2", ring9,
                     {(r, s): unipotent(alg, ring9, r, sig(s)).mat
                      for r in sysm.roots for s in spanning_params(ring9)}))

    ringf4 = ring_make("F4")
    t = honest("A2", ringf4)
    x = ringf4.additive_generators()[1]
    t[(sysm.roots[0], x)] = unipotent(alg, ringf4, sysm.roots[0],
                                      ringf4.add(x, ringf4.one)).mat
    controls.append(("inconsistent generator", "A2", ringf4, t))

    refused, stages = 0, []
    for label, system, ring, table in controls:
        spec = spec_from_elements(system, ring, table)
        try:
            certify(spec)
            stages.append((label, "CERTIFIED"))
        except CertifyError as err:
            refused += 1
            stages.append((label, err.stage))
    dt = time.monotonic() - t0
    ok = refused == len(controls) and refused >= 10
    assert report(7, ok, f"{refused}/{len(controls)} adversarial specs "
                  "refused with stage tags", dt, None)
    assert all(stage != "CERTIFIED" for _, stage in stages), stages
